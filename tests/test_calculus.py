"""Tangent spaces, coideal verdicts, relation spaces, and the derived
structure of the quantum exterior algebras."""

import functools
import gc
import json
import random
import weakref
from itertools import combinations_with_replacement, product
from math import comb
from pathlib import Path

import oracles
import pytest
from oracles import (
    adjoint,
    build_Eji,
    cotangent_action,
    reversed_letters,
    root_vectors,
    simple_root_kernel,
    tangent_basis,
    u_words,
)
from oracles import coideal_check as oracle_coideal_check
from oracles import dbar_kernel as oracle_dbar_kernel

from qflag import calculus as C
from qflag import cli
from qflag.freealg import (
    DimensionTable,
    FreeElement,
    Span,
    TruncatedGB,
    _acc,
    _Sum,
    annihilator,
    complete_truncated,
    rank,
    rref,
)
from qflag.parser import parse_tangent_exprs
from qflag.scalars import NU, ONE, Q, QINV, ZERO, RatQ, qpow
from qflag.uqsl import (
    UqAlgebra,
    UqElement,
    _mono_str,
    _serre_system,
    coproduct,
    qcomm,
)
from qflag.weyl import (
    Root,
    beta_sequence,
    commutation_classes,
    involution_on_classes,
    mirror_word,
    nice_word,
    root_pairing,
)


def nice_tangent(n):
    return C.tangent_from_word(UqAlgebra(n), nice_word(n))


def theta_tangent(theta):
    A = UqAlgebra(2)
    return C.tangent_from_exprs(A, [A.E(1), A.E(2), qcomm(A.E(2), A.E(1), theta)])


def test_tangent_from_word_rank2():
    t = nice_tangent(2)
    assert t.labels == ["e[3,2]", "e[3,1]", "e[2,1]"]
    assert t.weights == [(0, 1), (1, 1), (1, 0)]
    assert tangent_basis(t)[1] == build_Eji(t.algebra, 1, 3)


@pytest.mark.parametrize("n", [2, 3, 4])
def test_word_tangents_are_independent(n):
    """The Span check tangent_from_word no longer runs, kept as the oracle:
    for every class the root vectors are nonzero, of distinct weights, and
    their E-word coordinates have full rank."""
    A = UqAlgebra(n)
    for rep in commutation_classes(n).reps:
        t = C.tangent_from_word(A, rep)
        assert all(tangent_basis(t)) and len(set(t.weights)) == t.dim == n * (n + 1) // 2, rep
        assert rank([x.eword_coords() for x in tangent_basis(t)]) == t.dim, rep


def test_tangent_from_exprs_validation():
    A = UqAlgebra(2)
    with pytest.raises(ValueError):
        C.tangent_from_exprs(A, [A.E(1), A.E(1).scale(Q)])  # dependent
    with pytest.raises(ValueError):
        C.tangent_from_exprs(A, [A.E(1) + A.E(2)])  # inhomogeneous
    with pytest.raises(ValueError):
        C.tangent_from_exprs(A, [A.F(1)])  # not positive part
    for scalar in (A.one(), A.one().scale(Q)):
        with pytest.raises(ValueError, match="weight 0"):
            C.tangent_from_exprs(A, [A.E(1), scalar])  # outside ker eps


def test_coideal_nice_two_sided():
    for n in (1, 2, 3):
        rep = C.coideal_check(nice_tangent(n))
        assert rep.verdict == "two_sided"
        assert not rep.witnesses


RANK3_VERDICTS = {
    (3, 2, 1, 3, 2, 3): "two_sided",
    (1, 2, 3, 1, 2, 1): "two_sided",
    (3, 2, 1, 2, 3, 2): "left_only",
    (1, 2, 3, 2, 1, 2): "left_only",
    (2, 3, 1, 2, 1, 3): "left_only",
    (2, 3, 2, 1, 2, 3): "right_only",
    (2, 1, 2, 3, 2, 1): "right_only",
    (3, 1, 2, 1, 3, 2): "right_only",
}


def test_coideal_all_rank3_verdicts():
    A = UqAlgebra(3)
    for w, v in RANK3_VERDICTS.items():
        rep = C.coideal_check(C.tangent_from_word(A, w))
        assert rep.verdict == v, (w, rep.verdict)
        if v != "two_sided":
            side = "right" if v == "left_only" else "left"
            assert side in rep.witnesses


def test_coideal_theta_two_sided_for_all_theta():
    for theta in (ONE, Q, QINV, Q**2, ZERO - ONE):
        assert C.coideal_check(theta_tangent(theta)).verdict == "two_sided"


def _strip_k(mono):
    f, kv, e = mono
    return (f, tuple(0 for _ in kv), e)


def _coideal_by_coproduct(t):
    """The coideal check on the full coproduct, kept as the oracle: each
    Delta(X) as a TensorSquare, grouped by one leg with the K factors of
    the other leg erased."""
    alg = t.algebra
    member = Span()
    member.add({((), (0,) * alg.n, ()): ONE})
    for x in tangent_basis(t):
        member.add(dict(x.terms))
    witnesses = {}
    for x, label in zip(tangent_basis(t), t.labels):
        right_groups, left_groups = {}, {}
        for (m1, m2), c in coproduct(x).terms.items():
            _acc(right_groups.setdefault(m2, {}), _strip_k(m1), c)
            _acc(left_groups.setdefault(m1, {}), _strip_k(m2), c)
        for side, groups in (("right", right_groups), ("left", left_groups)):
            if side in witnesses:
                continue
            for key, vec in sorted(groups.items()):
                residue = member.reduce(dict(vec))
                if residue:
                    witnesses[side] = C.CoidealWitness(
                        label, _mono_str(key, alg.n), UqElement(alg, residue).render()
                    )
                    break
    if not witnesses:
        verdict = "two_sided"
    elif len(witnesses) == 2:
        verdict = "neither"
    else:
        verdict = "left_only" if "right" in witnesses else "right_only"
    return C.CoidealReport(verdict, witnesses)


@pytest.mark.parametrize("n", [2, 3, 4])
def test_coideal_matches_coproduct_oracle(n):
    """The coideal check on q-shuffle states reports the verdict and the
    witnesses of the check on the full coproduct, byte for byte, on every
    class of the rank and on the theta family."""
    A = UqAlgebra(n)
    tangents = [C.tangent_from_word(A, rep) for rep in commutation_classes(n).reps]
    if n == 2:
        tangents += [theta_tangent(theta) for theta in (ONE, Q, QINV, Q**2, ZERO)]
    verdicts = set()
    for t in tangents:
        got = C.coideal_check(t).as_json_dict()
        assert got == _coideal_by_coproduct(t).as_json_dict(), t.word
        verdicts.add(got["verdict"])
    one_sided = {"two_sided", "left_only", "right_only"}
    assert verdicts == {2: {"two_sided"}, 3: one_sided, 4: one_sided | {"neither"}}[n]


def _algebra_with_coproduct_memo(n):
    """A fresh algebra whose eword_coproduct is memoised by eword_id, so
    the oracle regroups the states of each root vector but shuffles its
    words once."""
    A = UqAlgebra(n)
    memo, plain = {}, A.eword_coproduct

    def coproduct(x):
        key = A.eword_id(x)
        if key not in memo:
            memo[key] = plain(x)
        return memo[key]

    A.eword_coproduct = coproduct
    return A


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_coideal_matches_global_span_oracle(n):
    """The check against memoised per-weight blocks reports the verdict and
    the witnesses of the check against one global span, byte for byte: on
    every class of the rank, sharing one algebra as a survey does, on the
    theta family, and on explicit tangents with several members of one
    weight."""
    A, B = UqAlgebra(n), _algebra_with_coproduct_memo(n)
    pairs = [(C.tangent_from_word(A, rep), C.tangent_from_word(B, rep)) for rep in commutation_classes(n).reps]
    explicit = {
        2: lambda X: [X.E(1) * X.E(2), X.E(2) * X.E(1)],
        3: lambda X: [X.E(1), X.E(2), X.E(3), X.E(1) * X.E(2), X.E(2) * X.E(1), X.E(2) * X.E(3)],
    }
    if n in explicit:
        pairs.append(tuple(C.tangent_from_exprs(X, explicit[n](X)) for X in (A, B)))
    if n == 2:
        pairs += [(theta_tangent(theta), theta_tangent(theta)) for theta in (ONE, Q, QINV, Q**2, ZERO)]
    verdicts = set()
    for t, u in pairs:
        got = C.coideal_check(t).as_json_dict()
        assert got == oracle_coideal_check(u).as_json_dict(), (t.word, t.labels)
        verdicts.add(got["verdict"])
    one_sided = {"two_sided", "left_only", "right_only"}
    assert verdicts == ({"two_sided", "neither"} if n == 2 else one_sided if n == 3 else one_sided | {"neither"})


def test_relations_rank1():
    t = nice_tangent(1)
    rel = C.quadratic_relations(t)
    assert rel.total_dim() == 1
    [r] = rel.by_weight[(2,)]
    assert r == FreeElement({(0, 0): ONE})


def test_relations_rank2_match_example():
    t = nice_tangent(2)
    rel = C.quadratic_relations(t)
    assert rel.total_dim() == 6
    # basis order: e[3,2], e[3,1], e[2,1] (convex order)
    # squares vanish
    for k in range(3):
        mu = tuple(2 * x for x in t.weights[k])
        assert any(r == FreeElement({(k, k): ONE}) for r in rel.by_weight[mu])
    # the line of e21 x e32 + q^-1 e32 x e21 at weight alpha1+alpha2
    # (canonicalized with the pivot in the convex-order-first coordinate)
    [r] = rel.by_weight[(1, 1)]
    assert r == FreeElement({(2, 0): Q, (0, 2): ONE})


def test_relations_dimension_identity():
    """dim Rel(mu) + dim C_mu = number of ordered pairs at mu."""
    for t in (nice_tangent(2), nice_tangent(3), theta_tangent(ONE)):
        rel = C.quadratic_relations(t)
        d = t.dim
        for mu, rels in rel.by_weight.items():
            pairs = [
                (k, l)
                for k in range(d)
                for l in range(d)
                if tuple(a + b for a, b in zip(t.weights[k], t.weights[l])) == mu
            ]
            members = [tangent_basis(t)[m].eword_coords() for m in range(d) if t.weights[m] == mu]
            sp = Span()
            for m in members:
                sp.add(dict(m))
            quot_rank = 0
            for (k, l) in pairs:
                v = sp.reduce(dict((tangent_basis(t)[k] * tangent_basis(t)[l]).eword_coords()))
                if v and Span.add(sp, v):
                    quot_rank += 1
            c_dim = len(pairs) - quot_rank
            assert len(rels) + c_dim == len(pairs)


def _relations_via_nullspace(t):
    """Relations by the route that tracks combinations: C_mu is the pair
    part of the nullspace of the product and member rows, and the
    relations are the RREF of its annihilator."""
    d = t.dim
    pair_weights = {}
    for k in range(d):
        for l in range(d):
            mu = tuple(a + b for a, b in zip(t.weights[k], t.weights[l]))
            pair_weights.setdefault(mu, []).append((k, l))
    by_weight = {}
    for mu, pairs in pair_weights.items():
        rows = [(tangent_basis(t)[k] * tangent_basis(t)[l]).eword_coords() for k, l in pairs]
        rows += [tangent_basis(t)[m].eword_coords() for m in range(d) if t.weights[m] == mu]
        columns = {}
        for i, row in enumerate(rows):
            for w, c in row.items():
                columns.setdefault(w, {})[i] = c
        combos = annihilator(list(columns.values()), list(range(len(rows))))
        c_mu = [{pairs[i]: c for i, c in combo.items() if i < len(pairs)} for combo in combos]
        rels = rref(annihilator([v for v in c_mu if v], pairs), pairs)
        if rels:
            by_weight[mu] = rels
    return by_weight


def _differential_tangents():
    for n in (2, 3):
        A = UqAlgebra(n)
        for rep in commutation_classes(n).reps:
            yield C.tangent_from_word(A, rep)
    for theta in (ZERO, ONE, Q, QINV, Q**2):
        yield theta_tangent(theta)


def test_relations_match_nullspace_route():
    for t in _differential_tangents():
        rel = C.quadratic_relations(t)
        got = {mu: [r.terms for r in rels] for mu, rels in rel.by_weight.items()}
        assert got == _relations_via_nullspace(t), t.word or [x.render() for x in tangent_basis(t)]


def _memo_cases(rank):
    """Every class of the rank in forward, then reversed order, each
    followed by its root vectors in reversed order and by a theta-tangent:
    its root vectors with the one of weight alpha_1 + alpha_2 replaced by
    [E2, E1]_theta."""
    reps = commutation_classes(rank).reps
    thetas = (ZERO, ONE, Q, QINV, Q**2)
    for rep in reps + reps[::-1]:
        yield rep, "word", None
        yield rep, "reversed", None
        yield rep, "theta", thetas[reps.index(rep) % len(thetas)]


def _memo_case_result(A, rep, kind, theta):
    """Basis and relations (terms per weight) of one case built on A."""
    if kind == "word":
        t = C.tangent_from_word(A, rep)
    else:
        basis = root_vectors(A, rep)
        if kind == "reversed":
            basis.reverse()
        else:
            k = next(k for k, x in enumerate(basis) if x.weight()[:2] == (1, 1) and sum(x.weight()) == 2)
            basis[k] = qcomm(A.E(2), A.E(1), theta)
        t = C.tangent_from_exprs(A, basis)
    rel = C.quadratic_relations(t)
    return [x.terms for x in tangent_basis(t)], {mu: [r.terms for r in rels] for mu, rels in rel.by_weight.items()}


@pytest.mark.parametrize("rank", [2, 3, 4])
def test_relation_memo_matches_cold_algebra(rank):
    """On one shared algebra, whose root-vector and relation-block memos
    fill as the cases pass, every case gets the root vectors and relations
    of a cold computation: one on an algebra whose memos are emptied first
    (its Serre normal forms, checked elsewhere, are kept)."""
    warm, cold = UqAlgebra(rank), UqAlgebra(rank)
    expected = {}
    for case in _memo_cases(rank):
        if case not in expected:
            for memo in (cold._root_memo, cold._eword_ids, cold._relation_memo):
                memo.clear()
            expected[case] = _memo_case_result(cold, *case)
        assert _memo_case_result(warm, *case) == expected[case], case
    assert warm._relation_memo and (rank == 2 or warm._root_memo)


def _relation_rows(A, rep):
    rel = C.quadratic_relations(C.tangent_from_word(A, rep))
    return [list(r.terms.items()) for r in rel.all_relations()]


def test_relation_rows_do_not_depend_on_class_order():
    """Each relation row lists its terms in the same order whichever classes
    filled `_relation_memo` first: every rank-4 class on a fresh algebra
    against an algebra that computed all classes in reverse order first
    (dict equality, as above, would not see the order)."""
    reps = commutation_classes(4).reps
    seen = UqAlgebra(4)
    for rep in reversed(reps):
        _relation_rows(seen, rep)
    for rep in reps:
        assert _relation_rows(UqAlgebra(4), rep) == _relation_rows(seen, rep), rep


def _pair_blocks(t):
    """Weight -> its ordered pairs (k, l), in the order quadratic_relations lists them."""
    blocks = {}
    for k in range(t.dim):
        for l in range(t.dim):
            blocks.setdefault(tuple(a + b for a, b in zip(t.weights[k], t.weights[l])), []).append((k, l))
    return blocks


def _sums_below(mu, weights):
    """Every sum of one or more of weights (repeats allowed) that stays
    componentwise at or below mu, by search over partial sums."""
    seen, todo = set(), [(0,) * len(mu)]
    while todo:
        s = todo.pop()
        for w in weights:
            v = tuple(a + b for a, b in zip(s, w))
            if all(a <= b for a, b in zip(v, mu)) and v not in seen:
                seen.add(v)
                todo.append(v)
    return seen


def _split_free(t, mu, pairs):
    """No pair k < l of the block has mu among the sums of the weights strictly between them."""
    return not any(mu in _sums_below(mu, t.weights[k + 1 : l]) for k, l in pairs if k < l)


def _closed_form_cases():
    for n in (2, 3, 4):
        yield from commutation_classes(n).reps
    # every class of a rank-5 slice that the survey computes itself, its
    # opposite not coming earlier
    graph = commutation_classes(5)
    partner = involution_on_classes(graph)
    yield from [graph.reps[c] for c in range(0, 120, 3) if partner[c] >= c]


def test_closed_form_relations_match_relation_block():
    """Split-free blocks take the closed form e_k e_l + q^-(b_k,b_l) e_l e_k
    (k < l) and e_k e_k, with no U+ product, and every block's rows equal
    those of `_relation_block` on the block's products; only the other
    blocks reach `_relation_memo`."""
    algebras = {}
    for w in _closed_form_cases():
        A = algebras.setdefault(max(w), UqAlgebra(max(w)))
        A._relation_memo.clear()
        t = C.tangent_from_word(A, w)
        rel = C.quadratic_relations(t)
        coords = [x.eword_coords() for x in tangent_basis(t)]
        free = 0
        for mu, pairs in _pair_blocks(t).items():
            members = [coords[m] for m in range(t.dim) if t.weights[m] == mu]
            block = C._relation_block(A, members, [(coords[k], coords[l]) for k, l in pairs])
            expect = [{pairs[p]: c for p, c in row} for row in block]
            got = [r.terms for r in rel.by_weight.get(mu, [])]
            assert got == expect, (w, mu)
            if _split_free(t, mu, pairs):
                free += 1
                assert not members
                assert got == [
                    {(k, l): ONE, (l, k): qpow(-root_pairing(t.roots[k], t.roots[l]))} if k < l else {(k, k): ONE}
                    for k, l in pairs
                    if k <= l
                ], (w, mu)
        assert len(A._relation_memo) == len(_pair_blocks(t)) - free, w


def test_splits_matches_partial_sum_search():
    """The split test on packed weights (`_packed`, as quadratic_relations
    runs it) agrees with the search over tuple partial sums for every pair
    of every class at ranks 2-4 and of the rank-5 slice."""
    algebras = {}
    for w in _closed_form_cases():
        t = C.tangent_from_word(algebras.setdefault(max(w), UqAlgebra(max(w))), w)
        packed, guard = C._packed(t.weights)
        for mu, pairs in _pair_blocks(t).items():
            for k, l in pairs:
                between = t.weights[k + 1 : l]
                split = C._splits(packed[k] + packed[l], packed[k + 1 : l], guard)
                assert split == (mu in _sums_below(mu, between)), (w, k, l)


@pytest.mark.parametrize("tangent", ["E1^4; E2", "E1; E2; E2^5"])
def test_large_tangent_weights_match_tuple_blocks(capsys, tangent):
    """A `--tangent` space's weights are unbounded: E1^4 squares to weight
    8*a1, past a 3-bit field, and with E2^5 the weight 10*a2 would pack
    above a1+a2 in 3-bit fields.  The relations are, block by block and in
    weight order, `_relation_block` on the pairs grouped by tuple weight,
    and `relations` and `exterior` print those blocks and the dimensions of
    their completion."""
    A = UqAlgebra(2)
    t = C.tangent_from_exprs(A, parse_tangent_exprs(tangent, A))
    blocks = {}
    for mu, pairs in sorted(_pair_blocks(t).items()):
        members = [t.coords[m] for m in range(t.dim) if t.weights[m] == mu]
        rows = C._relation_block(A, members, [(t.coords[k], t.coords[l]) for k, l in pairs])
        if rows:
            blocks[mu] = [FreeElement({pairs[p]: c for p, c in row}) for row in rows]
    rel = C.quadratic_relations(t)
    assert list(rel.by_weight.items()) == list(blocks.items())
    expect = C.RelationSpace(rel.alphabet, blocks)
    argv = ["--rank", "2", "--tangent", tangent, "--format", "json"]
    assert cli.run(["relations", *argv]) == 0
    assert json.loads(capsys.readouterr().out) == {"relations": cli._rendered_by_weight(expect), "total": expect.total_dim()}
    dims = complete_truncated(expect.all_relations(), t.dim + 1, rel.alphabet).normal_counts(t.dim + 1)
    assert cli.run(["exterior", *argv]) == 0
    assert json.loads(capsys.readouterr().out) == DimensionTable(dims, C.classical_verdict(dims, t.dim)).as_json_dict()


@pytest.mark.parametrize("n", [2, 3, 4])
def test_split_free_pairs_q_commute(n):
    """Levendorskii-Soibelman with an empty tail: X_k X_l = q^(b_k,b_l) X_l X_k
    for every pair k < l of a split-free block, by products in U+."""
    A, seen = UqAlgebra(n), set()
    for w in commutation_classes(n).reps:
        t = C.tangent_from_word(A, w)
        coords = [x.eword_coords() for x in tangent_basis(t)]
        for mu, pairs in _pair_blocks(t).items():
            if not _split_free(t, mu, pairs):
                continue
            for k, l in pairs:
                key = (A.eword_id(coords[k]), A.eword_id(coords[l]))
                if k < l and key not in seen:
                    seen.add(key)
                    c = qpow(root_pairing(t.roots[k], t.roots[l]))
                    assert not A.eword_qcomm(coords[k], coords[l], c), (w, k, l)
    assert seen


def test_expression_tangents_take_the_product_path():
    """A tangent space without a word, from --tangent or the Grassmann
    restriction, sends every weight block through `_relation_block`, even
    when its basis is a word's root vectors in convex order."""
    A = UqAlgebra(3)
    word = nice_word(3)
    sub, _ = C.grassmann_restriction(C.tangent_from_word(A, word), 2)
    for t in (C.tangent_from_exprs(A, root_vectors(A, word)), sub):
        assert t.word is None
        A._relation_memo.clear()
        C.quadratic_relations(t)
        assert len(A._relation_memo) == len(_pair_blocks(t))


@pytest.mark.parametrize("n", [2, 3, 4])
def test_tangent_spaces_carry_their_eword_ids(n):
    """The E-word coordinates and ids a tangent space carries are those its
    members give afresh, for every class's word, a --tangent space (one
    member a q-commutator no word has) and a Grassmann space; the members
    of the --tangent space are the elements it was given back."""
    A = UqAlgebra(n)
    spaces = [C.tangent_from_word(A, w) for w in commutation_classes(n).reps]
    given = [A.E(1), A.E(2), qcomm(A.E(2), A.E(1), Q)]
    spaces.append(C.tangent_from_exprs(A, given))
    spaces.append(C.grassmann_restriction(C.tangent_from_word(A, nice_word(n)), (n + 1) // 2)[0])
    for t in spaces:
        assert t.coords == [x.eword_coords() for x in tangent_basis(t)], t.word
        assert t.ids == [A.eword_id(x.eword_coords()) for x in tangent_basis(t)], t.word
    assert tangent_basis(spaces[-2]) == given


def test_tangent_from_word_computes_one_beta_sequence(monkeypatch):
    """tangent_from_word validates the word by its beta sequence and hands
    that sequence to `_root_vectors`, so it is computed once."""
    calls = []
    beta_sequence = C.weyl.beta_sequence
    monkeypatch.setattr(C.weyl, "beta_sequence", lambda *args: calls.append(args) or beta_sequence(*args))
    t = C.tangent_from_word(UqAlgebra(3), nice_word(3))
    assert calls == [(nice_word(3), 3)] and t.roots == beta_sequence(nice_word(3), 3)


def test_sl4_nested_relation_present():
    t = nice_tangent(3)
    rel = C.quadratic_relations(t)
    pos = {r: k for k, r in enumerate(t.roots)}
    e32, e41, e42, e31 = (pos[Root(2, 3)], pos[Root(1, 4)], pos[Root(2, 4)], pos[Root(1, 3)])
    target = FreeElement({(e32, e41): ONE, (e41, e32): ONE, (e42, e31): NU})
    mu = (1, 2, 1)
    sp = Span()
    for r in rel.by_weight[mu]:
        sp.add(dict(r.terms))
    assert sp.contains(dict(target.terms))


def test_exterior_dims_nice():
    assert C.exterior_dims(nice_tangent(2)).dims == [1, 3, 3, 1, 0]
    t3 = C.exterior_dims(nice_tangent(3))
    assert t3.dims == [1, 6, 15, 20, 15, 6, 1, 0] and t3.classical


def test_exterior_dims_theta():
    t = C.exterior_dims(theta_tangent(ONE))
    assert t.dims == [1, 3, 1, 0, 0] and t.classical is False
    t = C.exterior_dims(theta_tangent(QINV))
    assert t.dims == [1, 3, 3, 1, 0] and t.classical
    t = C.exterior_dims(theta_tangent(Q))
    assert t.dims == [1, 3, 3, 1, 0] and t.classical


def test_exterior_dims_nice_rank5():
    """The paper's main result at rank 5: the nice calculus on 15 generators
    has the classical dimensions C(15, k), and nothing above degree 15."""
    table = C.exterior_dims(nice_tangent(5))
    assert table.dims == [comb(15, k) for k in range(16)] + [0]
    assert table.classical


def _avoids_leads(word, leads):
    return not any(word[i:j] in leads for i in range(len(word)) for j in range(i + 1, len(word) + 1))


def test_normal_counts_match_enumeration():
    """Counting normal words agrees with listing them, with the letters as
    given and renamed (the reversed precedence); the listing agrees with an
    oracle that keeps the words with no lead as a factor, in lexicographic
    order."""
    for t in _differential_tangents():
        rel = C.quadratic_relations(t)
        kmax, rels = t.dim + 1, rel.all_relations()
        for rels, alphabet in ((rels, rel.alphabet), reversed_letters(rels, rel.alphabet)):
            gb = complete_truncated(rels, kmax, alphabet)
            counts = gb.normal_counts(kmax)
            assert counts == [len(gb.normal_words(k)) for k in range(kmax + 1)]
            leads = set(gb.rules)
            for k in range(4):
                oracle = [w for w in product(range(t.dim), repeat=k) if _avoids_leads(w, leads)]
                assert gb.normal_words(k) == oracle


def _tensor_quotient_dim(rels, d, k):
    """d^k minus the rank of the sum of V^a (x) R (x) V^(k-2-a): the
    degree-k dimension of the tensor algebra modulo the ideal of the
    quadratic relations R, with no rewriting involved."""
    rows = [
        {u + w + v: c for w, c in r.terms.items()}
        for r in rels
        for a in range(k - 1)
        for u in product(range(d), repeat=a)
        for v in product(range(d), repeat=k - 2 - a)
    ]
    return d**k - rank(rows)


def test_exterior_dims_match_tensor_ranks():
    """exterior_dims agrees with brute-force ranks in the tensor algebra for
    every rank-2 class through degree 5 and every rank-3 class through 4."""
    for n, kmax in ((2, 5), (3, 4)):
        A = UqAlgebra(n)
        for rep in commutation_classes(n).reps:
            t = C.tangent_from_word(A, rep)
            rels = C.quadratic_relations(t).all_relations()
            want = [_tensor_quotient_dim(rels, t.dim, k) for k in range(kmax + 1)]
            assert C.exterior_dims(t, kmax=kmax).dims == want, rep


def test_window_redex_matches_random_strategy(reduce_randomly):
    """Reduction by the first window hit equals reduction at a redex picked
    at random among every lead at every position, on the rank-3 Serre
    system (leads of lengths 2-5) and on a rank-3 relation completion."""
    rng = random.Random(3)
    t = C.tangent_from_word(UqAlgebra(3), (2, 3, 1, 2, 1, 3))
    rel = C.quadratic_relations(t)
    rels, alphabet = reversed_letters(rel.all_relations(), rel.alphabet)
    systems = [  # each with the largest degree of its random words
        (_serre_system(3), 6),
        (complete_truncated(rels, 5, alphabet), 5),
    ]
    for gb, dmax in systems:
        size, leads = gb.alphabet.size, set(gb.rules)
        for _ in range(8):
            elem = FreeElement(
                {
                    tuple(rng.randrange(size) for _ in range(rng.randint(2, dmax))): c
                    for c in (ONE, Q, NU, QINV)
                }
            )
            base = gb.reduce(elem)
            assert all(_avoids_leads(w, leads) for w in base.terms)
            for _ in range(4):
                assert reduce_randomly(gb, elem, rng) == base


def test_exterior_early_stop():
    t = C.exterior_dims(theta_tangent(ONE), early_stop=True)
    assert t.classical is False and t.truncated_at == 2
    assert t.dims == [1, 3, 1]


def _exterior_dims_per_degree(rels, alphabet, d, kmax, early_stop):
    """The per-degree loop that counting once replaced, kept as the oracle:
    extend to each degree k, then count degrees 0..k again."""
    gb = complete_truncated(rels, 0, alphabet)
    dims, truncated = [], None
    for k in range(kmax + 1):
        gb.extend_to(k)
        dims.append(gb.normal_counts(k)[k])
        if early_stop and dims[k] != comb(d, k):
            truncated = k
            break
    classical = False if truncated is not None else C.classical_verdict(dims, d)
    return DimensionTable(dims, classical, truncated)


@pytest.mark.parametrize("n", [2, 3, 4])
def test_count_once_matches_per_degree_loop(n):
    """Counting once after the completion settles gives the per-degree
    loop's dims, classical flag and truncation point, for every class with
    the letters as given and (reverse_order) renamed, with early stop on
    and off."""
    A = UqAlgebra(n)
    kmax = 64 if n == 2 else None
    for rep in commutation_classes(n).reps:
        t = C.tangent_from_word(A, rep)
        rel = C.quadratic_relations(t)
        rels = rel.all_relations()
        for reverse, (rels, alphabet) in zip((False, True), ((rels, rel.alphabet), reversed_letters(rels, rel.alphabet))):
            for early_stop in (False, True):
                want = _exterior_dims_per_degree(rels, alphabet, t.dim, kmax or t.dim + 1, early_stop)
                got = C.exterior_dims(t, kmax=kmax, early_stop=early_stop, reverse_order=reverse)
                assert got == want, rep


def test_exterior_reverse_order_completes_under_the_reversed_order(monkeypatch, capsys):
    """`exterior --reverse-order` reaches the completion through
    `exterior_dims`, the one exterior count path, with letter g renamed d-1-g
    in the relations and the alphabet's labels and weights reversed
    (oracles.reversed_letters): the one order on the renamed letters is the
    reversed precedence on the given ones."""
    rel, calls = C.quadratic_relations(nice_tangent(3)), []

    def complete(rels, dmax, alphabet):
        calls.append((rels, alphabet.labels, alphabet.weights))
        return complete_truncated(rels, dmax, alphabet)

    monkeypatch.setattr(C, "complete_truncated", complete)
    for extra in ([], ["--reverse-order"]):
        assert cli.run(["exterior", "--rank", "3", "--word", "nice", *extra]) == 0
    given = (rel.all_relations(), rel.alphabet)
    assert calls == [(rels, a.labels, a.weights) for rels, a in (given, reversed_letters(*given))]
    assert capsys.readouterr().out == "dims: 1 6 15 20 15 6 1 0  classical: yes\n" * 2


@pytest.fixture
def count_calls(monkeypatch):
    """The degree argument of every TruncatedGB.normal_counts call."""
    calls = []
    counts = TruncatedGB.normal_counts
    monkeypatch.setattr(TruncatedGB, "normal_counts", lambda gb, k: calls.append(k) or counts(gb, k))
    return calls


def test_count_once_applies_early_stop_per_degree(monkeypatch, count_calls):
    """A completion settled from the start takes every degree from one
    count, and early stop then keeps the degrees up to the first one that
    leaves the binomials.  Relations: none (the free algebra) and one
    q-commutation of the rank-2 nice relations, which has no overlap."""
    t = nice_tangent(2)
    rel = C.quadratic_relations(t)
    for by_weight in ({}, {(1, 1): rel.by_weight[(1, 1)]}):
        r = rel._replace(by_weight=by_weight)
        monkeypatch.setattr(C, "quadratic_relations", lambda _t: r)
        for kmax in (None, 6):
            for early_stop in (False, True):
                count_calls.clear()
                got = C.exterior_dims(t, kmax=kmax, early_stop=early_stop)
                assert count_calls == [kmax or t.dim + 1]
                want = _exterior_dims_per_degree(r.all_relations(), r.alphabet, t.dim, kmax or t.dim + 1, early_stop)
                assert got == want
                assert got.truncated_at == (2 if early_stop else None)


def test_count_once_falls_back_while_overlaps_are_pending(count_calls):
    """A rank-4 class without a coideal whose completion settles only after
    degree 8 counts degree by degree until then, then once up to kmax; below
    that kmax it counts degree by degree throughout."""
    t = C.tangent_from_word(UqAlgebra(4), (1, 2, 1, 3, 4, 3, 2, 1, 3, 2))
    rel = C.quadratic_relations(t)
    for kmax, want_calls in ((None, [*range(8), 11]), (6, [*range(7)])):
        for early_stop in (False, True):
            count_calls.clear()
            got = C.exterior_dims(t, kmax=kmax, early_stop=early_stop)
            # early stop: the dims leave the binomials at degree 2 (44 < 45)
            assert count_calls == ([0, 1, 2] if early_stop else want_calls)
            want = _exterior_dims_per_degree(rel.all_relations(), rel.alphabet, t.dim, kmax or t.dim + 1, early_stop)
            assert got == want


@pytest.mark.parametrize("n", [3, 4])
def test_survey_exteriors_are_quadratic(n, monkeypatch, count_calls, per_class_rows):
    """Every exterior completion the survey computes, one per orbit of the
    opposite involution and the mirror, counts degrees 0, 1 and 2, then all
    the rest at once.  The exterior of every one-sided or two-sided class
    up to the opposite involution settles at degree 3 with leads of length
    2 only: the relations are a quadratic Groebner basis, the premise of the
    PBW/Koszul check."""
    A = UqAlgebra(n)
    seen = []
    exterior = C.exterior_dims
    monkeypatch.setattr(C, "exterior_dims", lambda t, **kw: seen.append(t) or exterior(t, **kw))
    C.survey_rows(A)
    assert len(seen) == {3: 3, 4: 7}[n]
    assert count_calls == [k for t in seen for k in (0, 1, 2, t.dim + 1)]
    partner = involution_on_classes(commutation_classes(n))
    tangents = [
        C.tangent_from_word(A, row.representative)
        for c, row in enumerate(per_class_rows[n])
        if partner[c] >= c and row.verdict != "neither"
    ]
    assert len(tangents) == {3: 5, 4: 13}[n]
    for t in tangents:
        rel = C.quadratic_relations(t)
        gb = complete_truncated(rel.all_relations(), 2, rel.alphabet)
        assert not gb.settled
        gb.extend_to(3)
        assert gb.settled and {len(lead) for lead in gb.rules} == {2}


def test_theta_surviving_relation():
    t = theta_tangent(ONE)
    rel = C.quadratic_relations(t)
    # e21 ^ e32 = -theta e32 ^ e21 with theta = 1; labels: e21 first basis entry
    [r] = rel.by_weight[(1, 1)]
    k21 = t.labels.index("e[2,1]")
    k32 = t.labels.index("e[3,2]")
    assert r == FreeElement({(k21, k32): ONE, (k32, k21): ONE})


def test_cotangent_action_diagonal_and_nu():
    for n in (2, 3):
        t = nice_tangent(n)
        d = t.dim
        for a in range(1, n + 2):
            cols = cotangent_action(t, a, a)
            for g, root in enumerate(t.roots):
                expect_c = qpow((1 if root.j == a else 0) - (1 if root.i == a else 0))
                for m in range(d):
                    assert cols[g][m] == (expect_c if m == g else ZERO)
        # e_{ji} u_{j'j} = nu e_{j'i}
        pos = {r: k for k, r in enumerate(t.roots)}
        for g, root in enumerate(t.roots):
            for jp in range(root.j + 1, n + 2):
                cols = cotangent_action(t, jp, root.j)
                target = pos[Root(root.i, jp)]
                for m in range(d):
                    assert cols[g][m] == (NU if m == target else ZERO)
        # upper-triangular generators act trivially: e21 . u13 = 0 at n = 2
        if n == 2:
            cols = cotangent_action(t, 1, 3)
            g21 = t.labels.index("e[2,1]")
            assert all(c == ZERO for c in cols[g21])


def test_cotangent_action_theta_family():
    theta = Q + QINV  # generic-looking choice distinct from q^{+-1}
    t = theta_tangent(theta)
    pos = {lab: k for k, lab in enumerate(t.labels)}
    # e21 u32 = (q - theta) e31 ; e32 u21 = (q^-1 - theta) e31
    cols = cotangent_action(t, 3, 2)
    assert cols[pos["e[2,1]"]][pos["e[3,1]"]] == Q - theta
    cols = cotangent_action(t, 2, 1)
    assert cols[pos["e[3,2]"]][pos["e[3,1]"]] == QINV - theta


def _gr_lemma_set(t):
    """Squares e_b x e_b plus one q-commutation relation per unordered pair:
    e_b x e_g = -q^{(b,g)} e_g x e_b where b < g in the display order of the
    filtration section, which reverses the canonical convex order; over our
    basis indexing (ascending convex order) the coefficient inverts."""
    from qflag.weyl import root_pairing

    out = []
    for k in range(t.dim):
        out.append(FreeElement({(k, k): ONE}))
        for l in range(k + 1, t.dim):
            out.append(
                FreeElement({(k, l): ONE, (l, k): qpow(-root_pairing(t.roots[k], t.roots[l]))})
            )
    return out


def test_gr_leading_relations():
    # n=2: gr coincides with the original relations
    t2 = nice_tangent(2)
    orig = C.quadratic_relations(t2)
    gr = C.gr_leading_relations(t2)
    for mu in orig.by_weight:
        assert [r.terms for r in gr.by_weight[mu]] == [r.terms for r in orig.by_weight[mu]]
    # n=3: the nested relation's leading part drops the nu-term
    t3 = nice_tangent(3)
    gr3 = C.gr_leading_relations(t3)
    pos = {r: k for k, r in enumerate(t3.roots)}
    e32, e41 = pos[Root(2, 3)], pos[Root(1, 4)]
    lead = FreeElement({(e32, e41): ONE, (e41, e32): ONE})
    sp = Span()
    for r in gr3.by_weight[(1, 2, 1)]:
        sp.add(dict(r.terms))
    assert sp.contains(dict(lead.terms))
    # whole gr space equals the pure q-commutation set
    for t in (t2, t3):
        grt = C.gr_leading_relations(t)
        mine = [dict(r.terms) for rs in grt.by_weight.values() for r in rs]
        lemma = [dict(r.terms) for r in _gr_lemma_set(t)]
        assert rank(mine) == rank(lemma) == rank(mine + lemma)


def test_frobenius_reports():
    r2 = C.frobenius_report(nice_tangent(2))
    assert r2.top_degree == 3 and r2.top_dimension == 1
    assert all(r2.pairing_nondegenerate.values())
    assert set(r2.nakayama_sign.values()) == {1}
    r3 = C.frobenius_report(nice_tangent(3))
    assert r3.top_degree == 6 and r3.top_dimension == 1
    assert all(r3.pairing_nondegenerate.values())
    assert set(r3.nakayama_sign.values()) == {-1}
    r1 = C.frobenius_report(nice_tangent(1))
    assert r1.top_degree == 1 and set(r1.nakayama_sign.values()) == {1}


def _frobenius_cases():
    """Nice words at ranks 1-3, the six one-sided rank-3 classes (all reach
    the pairing), and --tangent spaces: two generators of equal weight
    (with and without a third), a degenerate pairing, a top dimension of
    two and dimensions that do not vanish."""
    cases = [nice_tangent(n) for n in (1, 2, 3)]
    A3 = UqAlgebra(3)
    cases += [C.tangent_from_word(A3, w) for w, v in RANK3_VERDICTS.items() if v != "two_sided"]
    A = UqAlgebra(2)
    E1, E2 = A.E(1), A.E(2)
    for exprs in ([E1 * E2, E2 * E1], [E1 * E2, E2 * E1, E1], [E1, E2, E1 * E2], [E1, E2], [E1, E1 * E1]):
        cases.append(C.tangent_from_exprs(A, exprs))
    return cases


def _report_and_pairings(module, frobenius_report, t):
    """The report and the matrices it hands to `rank`, one per degree pair."""
    mats, real = [], module.rank
    module.rank = lambda rows: mats.append(rows) or real(rows)
    try:
        return frobenius_report(t), mats
    finally:
        module.rank = real


def test_frobenius_matches_the_all_pairs_pairing():
    notes = set()
    for t in _frobenius_cases():
        got, got_mats = _report_and_pairings(C, C.frobenius_report, t)
        want, want_mats = _report_and_pairings(oracles, oracles.frobenius_report, t)
        assert got == want
        assert got_mats == want_mats  # row by row, entry by entry
        notes.add(got.note)
    assert notes == {
        None,
        "dimensions do not vanish",
        "top dimension is not one; Nakayama data skipped",
        "generator pairs trivially with its complement",
    }


@pytest.mark.parametrize("n,products", [(1, 2), (2, 8), (3, 80), (4, 2794)])
def test_frobenius_cap_counts_the_products_it_reduces(n, products, monkeypatch):
    t = nice_tangent(n)
    monkeypatch.setattr(C, "_FROBENIUS_MAX_PRODUCTS", products - 1)
    with pytest.raises(ValueError, match=f"would reduce {products} products "):
        C.frobenius_report(t)
    monkeypatch.setattr(C, "_FROBENIUS_MAX_PRODUCTS", products)
    complete, reduced = C.complete_truncated, []

    def counted(*args):
        gb = complete(*args)
        real = gb.reduce
        gb.reduce = lambda elem: reduced.append(elem) or real(elem)
        return gb

    monkeypatch.setattr(C, "complete_truncated", counted)
    report = C.frobenius_report(t)
    # every degree pair is square, so the pairing reduces every counted product; Nakayama two per generator
    assert all(report.pairing_nondegenerate.values())
    assert len(reduced) == products + 2 * t.dim


def test_line_decomposition_rank2():
    t = nice_tangent(2)
    assert C.line_decomposition(t, 0) == [(0, 0)]
    assert C.line_decomposition(t, 1) == [(0, 1), (1, 0), (1, 1)]
    assert C.line_decomposition(t, 2) == [(1, 1), (1, 2), (2, 1)]
    assert C.line_decomposition(t, 3) == [(2, 2)]  # 2 rho


def test_line_decomposition_top_is_2rho():
    for n in (2, 3):
        t = nice_tangent(n)
        [top] = C.line_decomposition(t, t.dim)
        assert top == tuple(sum(r.weight(n)[a] for r in t.roots) for a in range(n))


def test_line_decomposition_requires_classical():
    with pytest.raises(ValueError):
        C.line_decomposition(theta_tangent(ONE), 1)


def test_grassmann_restriction():
    """Every Grassmannian of ranks 2-4 keeps the r(n+1-r) root vectors
    whose root contains alpha_r, and their span is ad-closed."""
    for n in (2, 3, 4):
        t = nice_tangent(n)
        for r in range(1, n + 1):
            sub, closed = C.grassmann_restriction(t, r)
            assert closed, (n, r)
            assert sub.dim == r * (n + 1 - r)
            assert all(root.i <= r < root.j for root in sub.roots)
    t = nice_tangent(3)
    with pytest.raises(ValueError):
        C.grassmann_restriction(t, 4)
    with pytest.raises(ValueError):
        C.grassmann_restriction(C.tangent_from_word(t.algebra, (1, 2, 3, 1, 2, 1)), 1)


def _strip_k_phased(alg, terms):
    """Project onto K-free coordinates modulo right multiplication by
    K^v - 1: the monomial f K^v e equals q^{(v, wt e)} f e K^v, so its
    class is q^{(v, wt e)} (f, 0, e)."""
    zero = (0,) * alg.n
    out = {}
    for (f, kv, e), c in terms.items():
        if any(kv):
            c = c * qpow(alg._ad_sum(kv, e))
        _acc(out, (f, zero, e), c)
    return out


def _levi_closed_by_search(alg, basis, r, ad=adjoint):
    """The general ad-closure certificate: span(T) plus the K-stripped right
    multiples m E_j, m F_j (j != r) of every normal K-free monomial
    m = (f, 0, e) of the needed weight in a degree window, all formed by
    triangular straightening."""
    n = alg.n
    levi = [("K", i, e) for e in (1, -1) for i in range(1, n + 1)]
    levi += [(kind, j) for j in range(1, n + 1) if j != r for kind in "EF"]
    candidates = [y for g in levi for x in basis if (y := ad(alg, g, x))]
    member = Span()
    for x in basis:
        member.add(_strip_k_phased(alg, x.terms))
    e_max = max(
        [max((len(e) for (_f, _kv, e) in x.terms), default=0) for x in basis]
        + [max((len(e) for (_f, _kv, e) in y.terms), default=0) for y in candidates]
    )
    f_max = max(max((len(f) for (f, _kv, _e) in y.terms), default=0) for y in candidates)
    weights_needed = {y.weight() for y in candidates}  # ad keeps weights homogeneous
    e_words, f_words = {}, {}  # normal words within the window, by weight
    for deg in range(max(e_max, f_max) + 1):
        for w0 in _serre_system(n).normal_words(deg):
            word = tuple(g + 1 for g in w0)
            wt = tuple(word.count(i) for i in range(1, n + 1))
            if deg <= e_max:
                e_words.setdefault(wt, []).append(word)
            if deg <= f_max:
                f_words.setdefault(wt, []).append(word)
    zero = (0,) * n
    for mu in sorted(weights_needed):
        for j in range(1, n + 1):
            if j == r:
                continue
            alpha = tuple(1 if a == j - 1 else 0 for a in range(n))
            for gelem, sign in ((alg.E(j), 1), (alg.F(j), -1)):
                target = tuple(m - sign * a for m, a in zip(mu, alpha))
                for fwt, fws in f_words.items():
                    ews = e_words.get(tuple(m + x for m, x in zip(target, fwt)), [])
                    for ew, fw in product(ews, fws):
                        prod = UqElement(alg, {(fw, zero, ew): ONE}) * gelem
                        if prod:
                            member.add(_strip_k_phased(alg, prod.terms))
    return all(member.contains(_strip_k_phased(alg, y.terms)) for y in candidates)


def _levi_cases(n):
    """(word, r, kept root indices): per word (the nice word and two other
    class representatives, one at rank 2) and crossed node r, the roots
    containing alpha_r, that set with each root dropped, and two seeded
    random subsets of all roots."""
    reps = [w for w in commutation_classes(n).reps if w != nice_word(n)]
    rng = random.Random(n)
    for word in [nice_word(n)] + reps[:: max(1, len(reps) // 2)][:2]:
        roots = beta_sequence(word, n)
        for r in range(1, n + 1):
            keep = [k for k, root in enumerate(roots) if root.i <= r < root.j]
            yield word, r, keep
            for drop in keep:
                yield word, r, [k for k in keep if k != drop]
            for _ in range(2):
                yield word, r, sorted(rng.sample(range(len(roots)), rng.randint(1, len(roots))))


@pytest.mark.parametrize("n", [2, 3, 4])
def test_levi_closure_matches_search_oracle(n):
    """The U+ certificate modulo U+E_S gives the general search's verdict on
    root-vector subsets of nice and non-nice words, both verdicts seen."""
    alg = UqAlgebra(n)
    ad = functools.cache(adjoint)  # subsets of one word share their candidates
    verdicts = []
    for word, r, keep in _levi_cases(n):
        vecs = root_vectors(alg, word)
        basis = [vecs[k] for k in keep]
        got = C._levi_closed(alg, [x.eword_coords() for x in basis], [x.weight() for x in basis], r)
        assert got == _levi_closed_by_search(alg, basis, r, ad), (word, r, keep)
        verdicts.append(got)
    assert set(verdicts) == {True, False}


@pytest.mark.parametrize("n", [2, 3, 4])
def test_levi_candidates_match_adjoint(n):
    """The U+ candidates equal the K-stripped `adjoint` images: ad(E_j)x as
    x E_j - q^{-(alpha_j, beta)} E_j x, ad(F_j)x from the skew derivation,
    which leaves no F-part, and ad(K_i^{+-1})x, left out as a multiple of
    x; over every distinct root vector of the rank."""
    alg = UqAlgebra(n)
    vecs = {}
    for rep in commutation_classes(n).reps:
        for x in root_vectors(alg, rep):
            vecs.setdefault(alg.eword_id(x.eword_coords()), x)
    for x in vecs.values():
        ys = iter(C._levi_candidates(alg, x.eword_coords(), range(1, n + 1)))
        for j in range(1, n + 1):
            for kind in "EF":
                y = _strip_k_phased(alg, adjoint(alg, (kind, j), x).terms)
                assert next(ys) == {e: c for (_f, _kv, e), c in y.items()}, (kind, j, x)
                assert not any(f for f, _kv, _e in y)
        for i, e in product(range(1, n + 1), (1, -1)):
            y = _strip_k_phased(alg, adjoint(alg, ("K", i, e), x).terms)
            c = y[next(iter(x.terms))] / next(iter(x.terms.values()))
            assert y == x.scale(c).terms


def test_dbar_kernel_degree_one():
    for n in (1, 2):
        dim, basis = C.dbar_kernel(UqAlgebra(n), 1)
        assert dim == n + 1
        got = {w for b in basis for w in b.terms}
        assert got == {((a, n + 2 - 1),) for a in range(1, n + 2)}


def test_dbar_kernel_unit_word():
    dim, basis = C.dbar_kernel(UqAlgebra(2), 0)
    assert dim == 1 and basis[0].terms == {(): ONE}


def test_dbar_kernel_degree_two_quotient():
    # rank 1, degree 2: the 16 u-words span a 10-dimensional quotient (a
    # 6-dimensional functionally zero subspace), whose basis is the 10
    # ordered words; the kernel is the degree-2 highest-weight space, of
    # dimension 3 + 1
    dim, basis = C.dbar_kernel(UqAlgebra(1), 2)
    assert dim == 4
    ordered = set(combinations_with_replacement([(1, 1), (1, 2), (2, 1), (2, 2)], 2))
    assert {w for b in basis for w in b.terms} <= ordered


def _partitions(k, parts, largest=None):
    """Partitions of k into at most `parts` parts, largest first."""
    if k == 0:
        yield ()
        return
    if parts == 0:
        return
    for first in range(min(k, largest or k), 0, -1):
        for rest in _partitions(k - first, parts - 1, first):
            yield (first,) + rest


def _weyl_dim(lam, N):
    """Weyl's dimension formula for the GL_N irreducible of highest weight lam."""
    lam = list(lam) + [0] * (N - len(lam))
    num = den = 1
    for i in range(N):
        for j in range(i + 1, N):
            num *= lam[i] - lam[j] + j - i
            den *= j - i
    return num // den


@pytest.mark.parametrize(
    "n,k,expect",
    [(1, 1, 2), (1, 2, 4), (1, 3, 6), (1, 4, 9), (2, 1, 3), (2, 2, 9), (2, 3, 19)]
    + [(3, 1, 4), (3, 2, 16)],
)
def test_dbar_kernel_borel_weil_dimensions(n, k, expect):
    # quantum Borel-Weil: the degree-k kernel is the sum of the irreducibles
    # V_lambda over lambda |- k with at most n + 1 rows, one copy each
    assert expect == sum(_weyl_dim(lam, n + 1) for lam in _partitions(k, n + 1))
    dim, basis = C.dbar_kernel(UqAlgebra(n), k)
    assert dim == len(basis) == expect


def _rendered_kernel(kernel):
    dim, basis = kernel
    return dim, [b.render() for b in basis]


def test_dbar_kernel_simple_generators_suffice():
    """The kernel of every word tangent on the free span (the oracle),
    dimension and rendered basis, is the kernel of E_1, ..., E_n on the
    ordered u-words, which `dbar_kernel` computes: every class at rank 2
    (degrees 2 and 3) and rank 3 (degree 2)."""
    for n, k in ((2, 2), (3, 2), (2, 3)):
        A = UqAlgebra(n)
        want = _rendered_kernel(C.dbar_kernel(A, k))
        assert want[0] == sum(_weyl_dim(lam, n + 1) for lam in _partitions(k, n + 1))
        for rep in commutation_classes(n).reps:
            got = _rendered_kernel(oracle_dbar_kernel(u_words(n, k), C.tangent_from_word(A, rep)))
            assert got == want, (n, k, rep)


# every (rank, degree) that `qflag dbar-kernel` accepts; the oracle takes
# 1-3 s on (1, 6) and (3, 3), so CI compares those two through the command
_DBAR_PAIRS = [(n, k) for n in range(1, 7) for k in range(7) if (n + 1) ** (2 * k) <= cli._DBAR_MAX_WORDS]


@pytest.mark.parametrize("n,k", [p for p in _DBAR_PAIRS if p not in ((1, 6), (3, 3))])
def test_dbar_kernel_matches_free_span_oracle(n, k):
    assert _rendered_kernel(C.dbar_kernel(UqAlgebra(n), k)) == simple_root_kernel(n, k)


def test_survey_rank2():
    rows, total = C.survey_rows(UqAlgebra(2))
    assert len(rows) == total == 2
    assert all(r.verdict == "two_sided" and r.classical for r in rows)


def test_calculus_never_straightens(monkeypatch, capsys):
    """The survey, the Grassmann ad-closure, the coideal check and the
    Borel-Weil kernel stay inside U+: none of them calls the triangular
    straightening (the theta tangents are built before it is disabled)."""
    thetas = [theta_tangent(theta) for theta in (ONE, Q, QINV, Q**2, ZERO)]

    def refuse(*args):
        raise AssertionError("triangular straightening called")

    monkeypatch.setattr(UqAlgebra, "mono_mul", refuse)
    monkeypatch.setattr(UqAlgebra, "_straighten", refuse)
    rows, total = C.survey_rows(UqAlgebra(3))
    assert len(rows) == total == 8
    for n, rs in ((3, (1, 2, 3)), (4, (2,))):
        t = nice_tangent(n)
        assert all(C.grassmann_restriction(t, r)[1] for r in rs)
    assert all(C.coideal_check(t).verdict == "two_sided" for t in thetas)
    assert cli.run(["dbar-kernel", "--rank", "2", "--degree", "2"]) == 0
    assert capsys.readouterr().out.startswith("dimension: 9\n")


def _holds_element(v):
    """Whether a memo key or value holds an element (any sparse sum)."""
    if isinstance(v, _Sum):
        return True
    if isinstance(v, dict):
        return any(_holds_element(k) or _holds_element(x) for k, x in v.items())
    if isinstance(v, (tuple, list, frozenset)):
        return any(_holds_element(x) for x in v)
    return False


def test_algebra_is_freed_without_the_cycle_collector():
    """No memo or cache on a UqAlgebra points back at it, so dropping the
    last reference frees it at once, with the cyclic collector off.  After
    a rank-3 survey the root-vector, id, relation-block, coideal-group and
    residue memos are filled, and no element is among their keys and
    values."""
    gc.disable()
    try:
        A = UqAlgebra(3)
        C.survey_rows(A)
        memos = (A._root_memo, A._eword_ids, A._relation_memo, A._coideal_memo, A._residue_memo)
        assert all(memos)
        assert not any(_holds_element(m) for m in memos)
        t = C.tangent_from_word(A, (1, 2, 1, 3, 2, 1))
        C.coideal_check(t)
        C.exterior_dims(t)
        ref = weakref.ref(A)
        del A, t
        assert ref() is None
    finally:
        gc.enable()


def _per_class_rows(n):
    """The survey without the orbit shortcut, kept as the oracle: every
    class goes through tangent, coideal, relations and counting."""
    A = UqAlgebra(n)
    rows = []
    for rep in commutation_classes(n).reps:
        t = C.tangent_from_word(A, rep)
        verdict = C.coideal_check(t).verdict
        if verdict == "neither":
            rows.append(C.SurveyRow(rep, verdict, None, None, None))
            continue
        table = C.exterior_dims(t, early_stop=True)
        rows.append(C.SurveyRow(rep, verdict, table.dims, table.classical, table.truncated_at))
    return rows


@pytest.fixture(scope="module")
def per_class_rows():
    return {n: _per_class_rows(n) for n in (3, 4)}


@pytest.mark.parametrize("n", [3, 4])
def test_orbit_survey_matches_per_class_oracle(n, per_class_rows):
    """survey_rows computes one class per orbit of the opposite involution
    and the mirror, and copies the rest; row by row it equals the per-class
    pipeline, in which each class has its opposite partner's verdict and
    dims.  Some orbits are larger than their opposite pairs, so copies
    through the mirror are made."""
    oracle = per_class_rows[n]
    assert C.survey_rows(UqAlgebra(n)) == (oracle, len(oracle))
    g = commutation_classes(n)
    inv = involution_on_classes(g)
    assert any(inv[c] != c for c in range(len(oracle)))
    mirror = [g.class_index(mirror_word(rep, n)) for rep in g.reps]
    assert any(mirror[c] not in (c, inv[c]) for c in range(len(oracle)))
    for c, row in enumerate(oracle):
        assert (oracle[inv[c]].verdict, oracle[inv[c]].dims) == (row.verdict, row.dims)


def test_orbit_survey_max_classes_is_a_prefix(per_class_rows):
    """A cut-off survey computes a class itself when its partner lies past
    the cut, so its rows are the first k rows of the full survey."""
    A = UqAlgebra(4)
    for k in (0, 1, 20, 31, 32, 50):
        assert C.survey_rows(A, max_classes=k) == (per_class_rows[4][:k], 62)


def _survey_r5_rows():
    with open(Path(__file__).resolve().parents[1] / "results" / "survey-r5.json") as fh:
        rows = json.load(fh)["rows"]
    return [
        C.SurveyRow(tuple(map(int, r["word"])), r["verdict"], r["dims"], r["classical"], r["truncated_at"])
        for r in rows
    ]


@pytest.mark.parametrize("n", [3, 4, 5])
def test_word_reversal_swaps_sides(n, per_class_rows):
    """The class of the reversed representative, and that of its mirror
    (the reversed opposite word), swap left_only and right_only and keep
    the dims, as the proof in the survey_rows docstring shows.  Ranks 3 and
    4 read the per-class pipeline; rank 5 reads all 908 rows of the
    committed results/survey-r5.json."""
    swap = {"left_only": "right_only", "right_only": "left_only"}
    g = commutation_classes(n)
    rows = per_class_rows[n] if n < 5 else _survey_r5_rows()
    assert [row.representative for row in rows] == g.reps
    assert any(r.verdict == "left_only" for r in rows)
    for row in rows:
        for w in (row.representative[::-1], mirror_word(row.representative, n)):
            image = rows[g.class_index(w)]
            assert image.verdict == swap.get(row.verdict, row.verdict)
            assert image._replace(representative=row.representative, verdict=row.verdict) == row


def _sigma(alg, coords):
    """sigma, the anti-automorphism of U+ fixing each E_i, on E-word
    coordinates: each word reversed, then brought to Serre normal form."""
    out = {}
    for w, c in coords.items():
        for v, cv in alg.word_nf(w[::-1]):
            _acc(out, v, c * cv)
    return out


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_sigma_maps_root_vectors_to_the_mirror_word(n):
    """The oracle of the mirror proof in survey_rows, over every class:
    normalised, sigma(X_k) of a word is X'_{N+1-k} of its mirror word, and
    for every root vector the q-shuffle states of sigma(x) are those of x
    flipped, sigma applied to both legs: r sigma = (sigma x sigma) flip r."""
    A = UqAlgebra(n)
    for rep in commutation_classes(n).reps:
        images = []
        for x in root_vectors(A, rep):
            sx = _sigma(A, x.eword_coords())
            lc = sx[max(sx)]
            images.append({w: c / lc for w, c in sx.items()})
        assert images[::-1] == [x.eword_coords() for x in root_vectors(A, mirror_word(rep, n))], rep
    assert A._root_memo
    for x, _id in A._root_memo.values():
        flipped = {}
        for (left, right), c in A.eword_coproduct(x).items():
            for l2, cl in A.word_nf(right[::-1]):
                for r2, cr in A.word_nf(left[::-1]):
                    _acc(flipped, (l2, r2), c * cl * cr)
        assert A.eword_coproduct(_sigma(A, x)) == flipped
