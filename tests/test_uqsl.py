"""Quantized enveloping algebra: normal forms, coproduct, braid action,
root vectors, adjoint action."""

import random
from functools import reduce
from itertools import product
from operator import mul

import pytest
from oracles import (
    adjoint,
    apply_counit,
    braid_T,
    build_Eji,
    counit,
    from_pairs,
    reduced_words,
    root_vectors,
    tangent_basis,
    tensor_mul,
)
from serre_certificate import certify

from qflag import uqsl
from qflag.calculus import coideal_check, survey_rows, tangent_from_exprs, tangent_from_word
from qflag.freealg import FreeElement, TruncatedGB, _acc, complete_truncated
from qflag.scalars import NU, ONE, Q, QINV, TWO_Q, qpow
from qflag.uqsl import (
    TensorSquare,
    UqAlgebra,
    UqElement,
    _serre_system,
    coproduct,
    qcomm,
)
from qflag.weyl import beta_sequence, commutation_classes, nice_word, opposite_word


def test_mixed_relation():
    A = UqAlgebra(2)
    lhs = A.E(1) * A.F(1)
    rhs = A.F(1) * A.E(1) + (A.K(1) - A.K(1, -1)).scale(NU.inverse())
    assert lhs == rhs


def test_k_past_e():
    A = UqAlgebra(2)
    assert A.K(1) * A.E(1) == (A.E(1) * A.K(1)).scale(qpow(2))
    assert A.K(1) * A.E(2) == (A.E(2) * A.K(1)).scale(qpow(-1))


def test_serre_rewrite():
    A = UqAlgebra(2)
    lhs = A.E(2) * A.E(2) * A.E(1)
    rhs = (A.E(2) * A.E(1) * A.E(2)).scale(TWO_Q) - A.E(1) * A.E(2) * A.E(2)
    assert lhs == rhs


def _serre_relations(n):
    """The raw Serre relations of U+ at rank n, letter g for E_{g+1}:
    x_i^2 x_j - [2] x_i x_j x_i + x_j x_i^2 for |i - j| = 1, and
    x_i x_j - x_j x_i for i > j + 1."""
    rels = []
    for i in range(n):
        for j in range(n):
            if abs(i - j) == 1:
                rels.append(FreeElement({(i, i, j): ONE, (i, j, i): -TWO_Q, (j, i, i): ONE}))
            elif i > j + 1:
                rels.append(FreeElement({(i, j): ONE, (j, i): -ONE}))
    return rels


def _closed_form_leads(n):
    """The leads of the four families, 0-based: (i, j) for i > j + 1,
    D(a, b) (a - 1) for a > b and D(a, b) D(a, b - 1) for a >= b >= 2,
    D(a, b) the descending run a a-1 ... b."""
    D = lambda a, b: tuple(range(a - 1, b - 2, -1))
    leads = {(i - 1, j - 1) for i in range(1, n + 1) for j in range(1, i - 1)}
    leads |= {D(a, b) + (a - 2,) for a in range(2, n + 1) for b in range(1, a)}
    leads |= {D(a, b) + D(a, b - 1) for a in range(2, n + 1) for b in range(2, a + 1)}
    return leads


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_serre_system_equals_completion_of_serre_relations(n):
    """The closed-form system is, rule for rule, the settled completion of
    the raw Serre relations (the on-demand path it replaced, kept here as
    the oracle), and its leads are the four families'."""
    gb = _serre_system(n)
    oracle = complete_truncated(_serre_relations(n), gb.order, 0, gb.alphabet)
    while not oracle.settled:
        oracle.extend_to(oracle._pending[0][0])
    assert gb.rules == oracle.rules
    assert set(gb.rules) == _closed_form_leads(n)


def test_serre_system_rule_counts():
    assert [len(_serre_system(n).rules) for n in range(1, 7)] == [0, 2, 7, 15, 26, 40]
    assert set(_serre_system(6).rules) == _closed_form_leads(6)
    assert all(_serre_system(n).settled for n in range(1, 7))


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_serre_system_certificate(n):
    """Every overlap of the installed leads resolves with no rule added, and
    no lead is a factor of another rule's words (diamond lemma)."""
    report = certify(n)
    assert (report["rules"], report["overlaps"]) == [(0, 0), (2, 1), (7, 13), (15, 53)][n - 1]


def test_word_nf_never_extends_a_system(monkeypatch):
    """No completion step runs under word_nf, from a cold cache: the rank-4
    nice tangent and its products come from the installed system alone."""

    def refuse(*_args):
        raise AssertionError("completion step under word_nf")

    monkeypatch.setattr(TruncatedGB, "extend_to", refuse)
    monkeypatch.setattr(TruncatedGB, "_insert", refuse)
    monkeypatch.setattr(uqsl, "_SERRE", {})  # no rank's system built yet
    A = UqAlgebra(4)
    vecs = root_vectors(A, nice_word(4))
    _assert_eword_mul_matches_product(A, vecs[:4])
    assert _serre_system(4).valid_degree == 0 and _serre_system(4).settled


def test_word_nf_matches_serre_reduce():
    """word_nf, which caches every word it rewrites through, agrees with a
    plain reduction modulo the Serre system on random words, warm cache or
    cold."""
    rng = random.Random(29)
    for n in (2, 3, 4):
        A = UqAlgebra(n)
        for _ in range(200):
            word = tuple(rng.randint(1, n) for _ in range(rng.randint(0, 10)))
            nf = _serre_system(n).reduce(FreeElement.monomial(tuple(g - 1 for g in word)))
            expect = tuple((tuple(g + 1 for g in w), c) for w, c in sorted(nf.terms.items()))
            assert A.word_nf(word) == expect == UqAlgebra(n).word_nf(word), word


def test_word_nf_reduces_each_word_once(monkeypatch):
    """A word reached along many rewriting paths is searched for a redex
    once: E2^5 E1^5 takes one search per word it caches."""
    gb = _serre_system(2)
    searches = []
    find = gb._find_redex
    monkeypatch.setattr(gb, "_find_redex", lambda w: searches.append(w) or find(w))
    A = UqAlgebra(2)
    A.word_nf((2,) * 5 + (1,) * 5)
    assert len(searches) == len(set(searches)) == len(A._word_nf_cache)


def _rule_list(gb):
    """Leads with their tails' terms in order, in insertion order."""
    return [(lead, list(tail.terms.items())) for lead, tail in gb.rules.items()]


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
def test_serre_system_installed_by_degree_is_a_prefix_of_the_full_one(n):
    """Installed one degree at a time, the system holds at each cut d
    exactly the full system's first rules, those of degree <= d: leads,
    tails with their term order, and insertion order."""
    full = _rule_list(_serre_system(n))
    top = max((len(lead) for lead, _tail in full), default=0)
    gb = uqsl._SerreSystem(n)
    for d in range(top + 2):
        gb.install(d)
        got = _rule_list(gb)
        assert got == full[: len(got)] == [r for r in full if len(r[0]) <= d], (n, d)
        assert (gb.degree, gb.settled) == (d, d >= top), (n, d)


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
def test_word_nf_installs_only_the_word_degree(n, monkeypatch):
    """From a cold start, word_nf on random words of rising degree, one past
    the top rule's, installs no rule longer than the word and agrees with
    reduction modulo the full system."""
    full = _serre_system(n)
    monkeypatch.setattr(uqsl, "_SERRE", {})
    A, rng = UqAlgebra(n), random.Random(33 + n)
    for d in range(max(map(len, full.rules), default=0) + 2):
        for _ in range(4):
            word = tuple(rng.randint(1, n) for _ in range(d))
            nf = full.reduce(FreeElement.monomial(tuple(g - 1 for g in word)))
            expect = tuple((tuple(g + 1 for g in w), c) for w, c in sorted(nf.terms.items()))
            assert A.word_nf(word) == expect, word
        gb = uqsl._SERRE[n]
        assert gb.degree == d and all(len(lead) <= d for lead in gb.rules), (n, d)


def test_partial_serre_system_refuses_higher_degrees():
    """With nothing pending, a system installed to degree 3 would pass the
    generic `settled` test, yet it answers normal-word queries only up to
    degree 3, there as the full system does."""
    gb, full = uqsl._SerreSystem(4), _serre_system(4)
    gb.install(3)
    assert not gb._pending and TruncatedGB.settled.fget(gb) and not gb.settled
    assert gb.normal_words(3) == full.normal_words(3)
    assert gb.normal_counts(3) == full.normal_counts(3)
    assert gb.weight_counts(3) == full.weight_counts(3)
    for query in (gb.normal_words, gb.normal_counts, gb.weight_counts):
        with pytest.raises(ValueError, match="degree 4 above installed degree 3"):
            query(4)


def test_cold_rank4_survey_installs_no_degree7_rule(monkeypatch):
    """The rank-4 survey reads no word longer than 6 letters, so a cold
    run leaves the rank's one degree-7 rule, [X(4,2), X(4,1)]_q, unbuilt."""
    monkeypatch.setattr(uqsl, "_SERRE", {})
    survey_rows(UqAlgebra(4))
    gb = uqsl._SERRE[4]
    assert max(map(len, gb.rules)) == 5 and len(gb.rules) == 14
    assert [d for d, _build in gb._todo] == [7]


def test_coproduct_of_a_long_word_finishes():
    """Delta(E2^8 E1^8), whose reduction once went along every rewriting
    path, satisfies the counit axioms on both legs."""
    A = UqAlgebra(2)
    x = reduce(mul, [A.E(2)] * 8 + [A.E(1)] * 8)
    d = coproduct(x)
    assert len(d.terms) == 809
    assert apply_counit(d, 0) == x and apply_counit(d, 1) == x


def test_defining_relations_normalize_to_zero():
    for n in (2, 3):
        A = UqAlgebra(n)
        for i in range(1, n + 1):
            for j in range(1, n + 1):
                aij = 2 if i == j else (-1 if abs(i - j) == 1 else 0)
                assert A.K(i) * A.E(j) == (A.E(j) * A.K(i)).scale(qpow(aij))
                assert A.K(i) * A.F(j) == (A.F(j) * A.K(i)).scale(qpow(-aij))
                assert A.K(i) * A.K(j) == A.K(j) * A.K(i)
                assert A.K(i) * A.K(i, -1) == A.one()
                comm = A.E(i) * A.F(j) - A.F(j) * A.E(i)
                if i == j:
                    assert comm == (A.K(i) - A.K(i, -1)).scale(NU.inverse())
                else:
                    assert not comm
                if abs(i - j) == 1:
                    e1, e2 = A.E(i), A.E(j)
                    assert not (e1 * e1 * e2 - (e1 * e2 * e1).scale(TWO_Q) + e2 * e1 * e1)
                    f1, f2 = A.F(i), A.F(j)
                    assert not (f1 * f1 * f2 - (f1 * f2 * f1).scale(TWO_Q) + f2 * f1 * f1)
                elif i != j:
                    assert A.E(i) * A.E(j) == A.E(j) * A.E(i)
                    assert A.F(i) * A.F(j) == A.F(j) * A.F(i)


def test_triangular_normal_form_of_products():
    A = UqAlgebra(2)
    x = A.E(1) * A.F(1)
    assert x == A.F(1) * A.E(1) + (A.K(1) - A.K(1, -1)).scale(NU.inverse())
    y = (A.K(1, -1) * A.E(2)).scale(Q) - A.E(2) * A.K(1, -1)
    # K1^-1 E2 = q E2 K1^-1, so y = (q*q - 1) E2 K1^-1... here: q*(q E2 K1^-1) - E2 K1^-1
    assert y == (A.E(2) * A.K(1, -1)).scale(Q * Q - ONE)


def test_coproduct_unit_and_counit():
    A = UqAlgebra(2)
    one = A.one()
    assert coproduct(one) == from_pairs(A, [(one, one)])
    assert counit(one) == ONE
    assert counit(A.E(1)) == 0
    assert counit(A.K(1)) == ONE


def test_coproduct_single_commutator():
    # Delta([E2,E1]_{q^-1}) = [E2,E1] x K1K2 + q^-1 nu E1 x E2K1 + 1 x [E2,E1]
    A = UqAlgebra(2)
    x = qcomm(A.E(2), A.E(1), QINV)
    expected = from_pairs(
        A,
        [
            (x, A.K(1) * A.K(2)),
            (A.E(1).scale(QINV * NU), A.E(2) * A.K(1)),
            (A.one(), x),
        ],
    )
    assert coproduct(x) == expected


def test_coproduct_multiplicative_random():
    rng = random.Random(31)
    A = UqAlgebra(3)
    gens = [A.E(1), A.E(2), A.E(3), A.F(1), A.F(2), A.K(1), A.K(2, -1), A.K(3)]
    for _ in range(40):
        x = gens[rng.randrange(len(gens))]
        for _ in range(rng.randint(1, 3)):
            x = x * gens[rng.randrange(len(gens))]
        y = gens[rng.randrange(len(gens))]
        assert coproduct(x * y) == tensor_mul(coproduct(x), coproduct(y))


def test_counit_axiom_random():
    rng = random.Random(13)
    A = UqAlgebra(2)
    gens = [A.E(1), A.E(2), A.F(1), A.F(2), A.K(1), A.K(2, -1)]
    for _ in range(40):
        x = gens[rng.randrange(len(gens))]
        for _ in range(rng.randint(1, 3)):
            x = x * gens[rng.randrange(len(gens))]
        d = coproduct(x)
        assert apply_counit(d, 0) == x
        assert apply_counit(d, 1) == x


def test_braid_generator_table():
    A = UqAlgebra(3)
    assert braid_T(1, A.E(1)) == -(A.F(1) * A.K(1))
    assert braid_T(2, A.E(1)) == -qcomm(A.E(2), A.E(1), QINV)
    assert braid_T(1, A.E(3)) == A.E(3)
    assert braid_T(1, A.F(1)) == -(A.K(1, -1) * A.E(1))
    assert braid_T(1, A.K(2)) == A.K(2) * A.K(1)
    assert braid_T(1, A.K(1)) == A.K(1, -1)
    assert braid_T(2, A.F(1)) == -qcomm(A.F(1), A.F(2), Q)


def test_braid_relations_as_maps():
    for n in (2, 3):
        A = UqAlgebra(n)
        elems = [g(i) for g in (A.E, A.F, A.K) for i in range(1, n + 1)]
        for i in range(1, n):
            for x in elems:
                lhs = braid_T(i, braid_T(i + 1, braid_T(i, x)))
                rhs = braid_T(i + 1, braid_T(i, braid_T(i + 1, x)))
                assert lhs == rhs
        for i in range(1, n + 1):
            for j in range(i + 2, n + 1):
                for x in elems:
                    assert braid_T(i, braid_T(j, x)) == braid_T(j, braid_T(i, x))


def test_braid_multiplicative():
    rng = random.Random(3)
    A = UqAlgebra(3)
    gens = [A.E(1), A.E(2), A.E(3), A.F(2), A.K(1), A.K(3, -1)]
    for _ in range(25):
        x = gens[rng.randrange(len(gens))] * gens[rng.randrange(len(gens))]
        y = gens[rng.randrange(len(gens))]
        i = rng.randint(1, 3)
        assert braid_T(i, x * y) == braid_T(i, x) * braid_T(i, y)


def test_build_Eji():
    A = UqAlgebra(2)
    assert build_Eji(A, 1, 2) == A.E(1)
    assert build_Eji(A, 1, 3) == A.E(2) * A.E(1) - (A.E(1) * A.E(2)).scale(QINV)


def test_nested_commutator_equality():
    # right-nested equals left-nested: [[E3,E2],E1] = [E3,[E2,E1]] at q^-1
    A = UqAlgebra(3)
    left = qcomm(qcomm(A.E(3), A.E(2), QINV), A.E(1), QINV)
    right = qcomm(A.E(3), qcomm(A.E(2), A.E(1), QINV), QINV)
    assert left == right
    assert left == build_Eji(A, 1, 4)


def test_weights():
    A = UqAlgebra(2)
    assert build_Eji(A, 1, 3).weight() == (1, 1)
    assert A.K(1).weight() == (0, 0)
    with pytest.raises(ValueError):
        (A.E(1) + A.E(2)).weight()


def test_root_vectors_rank1():
    A = UqAlgebra(1)
    assert root_vectors(A, (1,)) == [A.E(1)]


def test_root_vectors_nice_are_Eji():
    for n in (2, 3):
        A = UqAlgebra(n)
        vecs = root_vectors(A, nice_word(n))
        betas = beta_sequence(nice_word(n), n)
        for v, b in zip(vecs, betas):
            assert v == build_Eji(A, b.i, b.j)


def _proportional(x, y):
    if not x.terms or not y.terms:
        return not x.terms and not y.terms
    m = next(iter(x.terms))
    if m not in y.terms:
        return False
    r = y.terms[m] / x.terms[m]
    return x.scale(r) == y


def test_root_vectors_word_123121():
    A = UqAlgebra(3)
    vecs = root_vectors(A, (1, 2, 3, 1, 2, 1))
    nonsimple = [v for v in vecs if max(len(e) for _f, _kv, e in v.terms) > 1]
    e12 = qcomm(A.E(1), A.E(2), QINV)
    e23 = qcomm(A.E(2), A.E(3), QINV)
    e123 = qcomm(e12, A.E(3), QINV)
    for target in (e12, e23, e123):
        assert any(_proportional(v, target) for v in nonsimple)


def test_root_vector_weights_match_beta():
    for n in (2, 3):
        A = UqAlgebra(n)
        for w in list(reduced_words(n))[:: 3 if n == 3 else 1]:
            vecs = root_vectors(A, w)
            for v, b in zip(vecs, beta_sequence(w, n)):
                assert v.weight() == b.weight(n)


def test_root_vector_sets_class_invariant():
    A = UqAlgebra(3)
    base = {frozenset(v.terms.items()) for v in root_vectors(A, (3, 2, 1, 3, 2, 3))}
    same_class = (3, 2, 3, 1, 2, 3)  # one commutation move away
    other = {frozenset(v.terms.items()) for v in root_vectors(A, same_class)}
    assert base == other


def _root_vectors_per_word(algebra, word):
    """Root-vector terms as braid chains T_{i_1} ... T_{i_{k-1}}(E_{i_k}),
    scaled so the deg-lex-leading E-word has coefficient one."""
    out = []
    for k in range(len(word)):
        x = algebra.E(word[k])
        for t in range(k - 1, -1, -1):
            x = braid_T(word[t], x)
        coords = x.eword_coords()
        out.append(x.scale(coords[max(coords, key=lambda w: (len(w), w))].inverse()).terms)
    return out


@pytest.mark.parametrize("n", [2, 3, 4])
def test_root_vectors_match_braid_chain(n):
    # minimal-pair commutators in U+ against the braid images, one shared algebra
    A, oracle = UqAlgebra(n), UqAlgebra(n)
    words = list(commutation_classes(n).reps)
    if n <= 3:
        words += list(reduced_words(n))
    for w in words:
        assert [v.terms for v in root_vectors(A, w)] == _root_vectors_per_word(oracle, w), w


def test_root_vector_tie_between_least_width_pairs():
    # beta_3 = a[1,4] of 123121 is beta_1 + beta_5 and beta_2 + beta_6, both of
    # width 4; root_vectors takes (1, 5), and (2, 6) spans the same line
    w = (1, 2, 3, 1, 2, 1)
    wt = [b.weight(3) for b in beta_sequence(w, 3)]
    vecs = root_vectors(UqAlgebra(3), w)
    assert [v.terms for v in vecs] == _root_vectors_per_word(UqAlgebra(3), w)
    for a, b in ((0, 4), (1, 5)):
        assert tuple(x + y for x, y in zip(wt[a], wt[b])) == wt[2] == (1, 1, 1)
        assert _proportional(qcomm(vecs[a], vecs[b], QINV), vecs[2]), (a, b)


def test_coproduct_memo_matches_fresh_algebra():
    """coideal_check memoises the coproduct groups of each root vector under
    its eword_id (`_coideal_memo`) and each group's residue (`_residue_memo`):
    a second check of every rank-3 class shuffles nothing and adds no memo
    entry, and each report equals a cold algebra's.  `coproduct`, which
    keeps no memo, is eword_coproduct's states with K^{wt left} in front of
    the right word."""
    A = UqAlgebra(3)
    zero = (0,) * 3
    tangents = [tangent_from_word(A, w) for w in commutation_classes(3).reps]
    first = [coideal_check(t) for t in tangents]
    vecs = {frozenset(v.terms.items()): v for t in tangents for v in tangent_basis(t)}
    assert len(A._coideal_memo) == len(vecs)
    assert all(type(k) is int and type(v) is tuple for k, v in A._coideal_memo.items())
    memos = (dict(A._coideal_memo), dict(A._residue_memo))
    A.eword_coproduct = None  # a memo miss would call it
    assert [coideal_check(t) for t in tangents] == first
    assert (A._coideal_memo, A._residue_memo) == memos
    assert all(A._coideal_memo[k] is v for k, v in memos[0].items())
    cold = [coideal_check(tangent_from_word(UqAlgebra(3), w)) for w in commutation_classes(3).reps]
    assert cold == first
    del A.eword_coproduct
    for v in vecs.values():
        assert coproduct(v).terms == {
            (((), zero, left), ((), A.word_weight(left), right)): c
            for (left, right), c in A.eword_coproduct(v.eword_coords()).items()
        }


def _coproduct_per_letter(x):
    """Delta(x) as the product of the generator coproducts, letter by letter."""
    A = x.algebra
    one = A.one()
    out = TensorSquare(A, {})
    for (f, kv, e), c in x.terms.items():
        acc = from_pairs(A, [(one.scale(c), one)])
        for l in f:
            acc = tensor_mul(acc, from_pairs(A, [(A.F(l), one), (A.K(l, -1), A.F(l))]))
        for a, v in enumerate(kv, 1):
            if v:
                acc = tensor_mul(acc, from_pairs(A, [(A.K(a, v), A.K(a, v))]))
        for l in e:
            acc = tensor_mul(acc, from_pairs(A, [(A.E(l), A.K(l)), (one, A.E(l))]))
        out = out + acc
    return out


@pytest.mark.parametrize("n", [2, 3, 4])
def test_q_shuffle_coproduct_of_root_vectors(n):
    A = UqAlgebra(n)
    vecs = {frozenset(v.terms.items()): v for w in commutation_classes(n).reps for v in root_vectors(A, w)}
    for v in vecs.values():
        assert coproduct(v) == _coproduct_per_letter(v), v


_COEFFS = [ONE, -TWO_Q, QINV, (Q + ONE).inverse(), (Q * Q - Q + ONE) / (Q - TWO_Q)]


def test_q_shuffle_coproduct_random():
    rng = random.Random(17)
    for n in (2, 3, 4):
        A = UqAlgebra(n)
        letters = range(1, n + 1)
        for _ in range(40):  # U+ elements with rational coefficients
            x = A.zero()
            for _ in range(rng.randint(1, 4)):
                m = A.one().scale(rng.choice(_COEFFS))
                for _ in range(rng.randint(0, 5)):
                    m = m * A.E(rng.choice(letters))
                x = x + m
            assert coproduct(x) == _coproduct_per_letter(x), x
        for _ in range(40):  # monomials mixing F-words up to length 5, K and E
            m = A.one().scale(rng.choice(_COEFFS))
            for _ in range(rng.randint(1, 5)):
                m = m * A.F(rng.choice(letters))
            m = m * A.K(rng.choice(letters), rng.choice((-2, -1, 1, 2)))
            for _ in range(rng.randint(0, 3)):
                m = m * A.E(rng.choice(letters))
            assert coproduct(m) == _coproduct_per_letter(m), m


def test_q_shuffle_coproduct_long_words():
    # repeated letters merge, so 21 and 121 terms, not one per subset of 2^20,
    # and F1^6 K1 E1^6 has 7 F-states times 7 E-states
    A = UqAlgebra(2)
    cases = []
    for g in (A.E, A.F):
        cases += [([g(1)] * 20, 21), ([g(1)] * 10 + [g(2)] * 10, 121)]
    cases.append(([A.F(1)] * 6 + [A.K(1)] + [A.E(1)] * 6, 49))
    for factors, size in cases:
        x = reduce(mul, factors)
        d = coproduct(x)
        assert len(d.terms) == size and d == _coproduct_per_letter(x), x


def _raise_product(*_args):
    raise AssertionError("coproduct took a product")


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_coproduct_takes_no_product(n, monkeypatch):
    """Delta of every F/K/E monomial comes from the two q-shuffles alone:
    with the triangular product disabled (TensorSquare has none), `coproduct`
    on a fresh algebra still equals the per-letter product."""
    rng = random.Random(60 + n)
    A = UqAlgebra(n)
    letters = range(1, n + 1)
    cases = []
    for _ in range(12):
        x = A.zero()
        for _ in range(rng.randint(1, 3)):  # F-word, K^v (sometimes 1), E-word
            m = A.one().scale(rng.choice(_COEFFS))
            for _ in range(rng.randint(0, 3)):
                m = m * A.F(rng.choice(letters))
            if rng.random() < 0.8:
                m = m * A.K(rng.choice(letters), rng.choice((-2, -1, 1, 2)))
            for _ in range(rng.randint(0, 3)):
                m = m * A.E(rng.choice(letters))
            x = x + m
        cases.append((x.terms, _coproduct_per_letter(x).terms))
    monkeypatch.setattr(UqAlgebra, "mono_mul", _raise_product)
    monkeypatch.setattr(UqAlgebra, "_straighten", _raise_product)
    B = UqAlgebra(n)
    for terms, want in cases:
        assert coproduct(UqElement(B, terms)).terms == want, terms


def _assert_eword_mul_matches_product(algebra, elems):
    """eword_mul on `algebra` against the general product on the elements'
    own algebra, for every ordered pair."""
    coords = [x.eword_coords() for x in elems]
    for x, cx in zip(elems, coords):
        for y, cy in zip(elems, coords):
            assert algebra.eword_mul(cx, cy) == (x * y).eword_coords(), (x, y)


@pytest.mark.parametrize("n", [2, 3, 4])
def test_eword_mul_matches_general_product(n):
    # every class at ranks 2-3; the nice and nice-op classes at rank 4
    A = UqAlgebra(n)
    words = commutation_classes(n).reps if n <= 3 else [nice_word(n), opposite_word(nice_word(n), n)]
    for w in words:
        _assert_eword_mul_matches_product(A, root_vectors(A, w))


def test_eword_mul_rational_coefficient_and_fresh_algebra(monkeypatch):
    A = UqAlgebra(2)
    t = (Q + ONE).inverse()
    basis = tangent_basis(tangent_from_exprs(A, [A.E(1), A.E(2), qcomm(A.E(2), A.E(1), t)]))
    _assert_eword_mul_matches_product(A, basis)
    # a fresh algebra builds no Serre system: its first word_nf installs the
    # rank's system, which every algebra of the rank then reads as it is
    vecs = root_vectors(UqAlgebra(3), nice_word(3))  # highest root has degree 3
    monkeypatch.setattr(uqsl, "_SERRE", {})  # no rank's system built yet
    fresh = UqAlgebra(3)
    assert uqsl._SERRE == {}
    assert not any(isinstance(v, TruncatedGB) for v in vars(fresh).values())
    _assert_eword_mul_matches_product(fresh, vecs)  # products up to degree 6
    assert list(uqsl._SERRE) == [3]
    assert _serre_system(3).settled


def _braid_T_oracle(i, x):
    """T_i as a chain of general products from the scalar, with every
    generator image built afresh."""
    A = x.algebra

    def image(kind, l, exp):
        if kind == "K":
            return A.K(l, exp) * A.K(i, -exp * _cartan_entry(i, l))
        if kind == "E":
            if l == i:
                return -(A.F(i) * A.K(i))
            return -qcomm(A.E(i), A.E(l), QINV) if abs(l - i) == 1 else A.E(l)
        if l == i:
            return -(A.K(i, -1) * A.E(i))
        return -qcomm(A.F(l), A.F(i), Q) if abs(l - i) == 1 else A.F(l)

    out = A.zero()
    for (f, kv, e), c in x.terms.items():
        acc = A.one().scale(c)
        for l in f:
            acc = acc * image("F", l, 1)
        for a, v in enumerate(kv):
            if v:
                acc = acc * image("K", a + 1, v)
        for l in e:
            acc = acc * image("E", l, 1)
        out = out + acc
    return out


@pytest.mark.parametrize("n", [2, 3])
def test_braid_T_memo_matches_product_chain(n):
    rng = random.Random(n)
    A = UqAlgebra(n)
    gens = [g(i) for i in range(1, n + 1) for g in (A.E, A.F)]
    gens += [A.K(i, k) for i in range(1, n + 1) for k in (-2, -1, 1, 2)]
    coeffs = [ONE, -TWO_Q, QINV, (Q + ONE).inverse()]
    for _ in range(30):
        x = A.zero()
        for _ in range(rng.randint(1, 3)):
            m = A.one().scale(rng.choice(coeffs))
            for _ in range(rng.randint(0, 4)):
                m = m * rng.choice(gens)
            x = x + m
        for i in range(1, n + 1):
            assert braid_T(i, x) == _braid_T_oracle(i, x), (i, x)


def test_adjoint_k_conjugation_and_unit():
    A = UqAlgebra(2)
    x = build_Eji(A, 1, 3)  # weight alpha1 + alpha2
    # ad(K_1)(X) = K1^-1 X K1 = q^{-(alpha_1, wt)} X; (alpha1, alpha1+alpha2) = 1
    assert adjoint(A, ("K", 1), x) == x.scale(qpow(-1))
    assert adjoint(A, ("K", 1, 0), x) == x
    assert adjoint(A, ("K", 1), x, side="left") == x.scale(qpow(1))


def test_adjoint_e_f():
    A = UqAlgebra(2)
    # ad(F_j)(E_i) = K_j [E_i, F_j] = 0 for i != j
    assert not adjoint(A, ("F", 2), A.E(1))
    # ad(E_2)(E_1) = -E2 K2^-1 E1 K2 + E1 E2 = -q [E2, E1]_{q^-1}
    y = adjoint(A, ("E", 2), A.E(1))
    assert y == qcomm(A.E(2), A.E(1), QINV).scale(-Q)
    assert y.is_positive_part()
    # ad(F_2)(E_21-commutator) lands back on E_1 up to a scalar
    z = adjoint(A, ("F", 2), build_Eji(A, 1, 3))
    assert _proportional(z, A.E(1))


def test_positive_part_detection():
    A = UqAlgebra(2)
    assert A.E(1).is_positive_part()
    assert not A.F(1).is_positive_part()
    assert not A.K(1).is_positive_part()


def test_serre_system_normalises_every_degree():
    # products of any degree renormalize on the installed system: no
    # extension, and (E1 + E2)^8 has in each weight (a, 8 - a) the normal
    # words of the PBW dimension min(a, 8 - a) + 1 (roots a1, a2, a1 + a2)
    A = UqAlgebra(2)
    rules = dict(_serre_system(2).rules)
    x = A.one()
    for _ in range(8):
        x = x * (A.E(1) + A.E(2))
    assert max(len(e) for _f, _kv, e in x.terms) == 8 and _serre_system(2).rules == rules
    for a in range(9):
        words = {e for (_f, _kv, e) in x.terms if e.count(1) == a}
        assert len(words) == min(a, 8 - a) + 1, a


def _cartan_entry(i, j):
    return 2 if i == j else (-1 if abs(i - j) == 1 else 0)


def _ad_sum_oracle(n, kvec, letters):
    """The double Cartan loop sum_{i,l} kvec_i a_{i,letter_l}."""
    return sum(kvec[i - 1] * _cartan_entry(i, l) for l in letters for i in range(1, n + 1))


class _StraightenOracle:
    """E-word times F-word by two memos: E-word times one F_j (peel the
    last E), then the F-word one letter at a time from the left."""

    def __init__(self, n):
        self.n, self.moves, self.products = n, {}, {}

    def move_past_Fj(self, eword, j):
        key = (eword, j)
        if key in self.moves:
            return self.moves[key]
        n, out = self.n, {}
        if not eword:
            out[(j,), (0,) * n, ()] = ONE
        else:
            head, i = eword[:-1], eword[-1]
            for (fp, kv, ew), c in self.move_past_Fj(head, j).items():
                _acc(out, (fp, kv, ew + (i,)), c)
            if i == j:
                ph = sum(_cartan_entry(i, l) for l in head)
                kplus = tuple((1 if a == i - 1 else 0) for a in range(n))
                kminus = tuple((-1 if a == i - 1 else 0) for a in range(n))
                _acc(out, ((), kplus, head), qpow(-ph) / NU)
                _acc(out, ((), kminus, head), -(qpow(ph) / NU))
        self.moves[key] = out
        return out

    def straighten(self, eword, fword):
        key = (eword, fword)
        if key in self.products:
            return self.products[key]
        out = {}
        if not eword or not fword:
            out[fword, (0,) * self.n, eword] = ONE
        else:
            for (fp, kv, ew), c in self.move_past_Fj(eword, fword[0]).items():
                for (f3, k3, e3), c3 in self.straighten(ew, fword[1:]).items():
                    phase = qpow(-_ad_sum_oracle(self.n, kv, f3))
                    kt = tuple(a + b for a, b in zip(kv, k3))
                    _acc(out, (fp + f3, kt, e3), c * c3 * phase)
        self.products[key] = out
        return out


@pytest.mark.parametrize("n", [2, 3])
def test_straighten_matches_two_memo_oracle(n):
    A, oracle = UqAlgebra(n), _StraightenOracle(n)
    words = [w for k in range(4) for w in product(range(1, n + 1), repeat=k)]
    for e in words:
        for f in words:
            assert A._straighten(e, f) == oracle.straighten(e, f), (e, f)


def test_ad_sum_matches_double_cartan_loop():
    rng = random.Random(5)
    for n in (1, 2, 3, 4):
        A = UqAlgebra(n)
        for _ in range(200):
            kvec = tuple(rng.randint(-3, 3) for _ in range(n))
            letters = tuple(rng.randint(1, n) for _ in range(rng.randint(0, 6)))
            assert A._ad_sum(kvec, letters) == _ad_sum_oracle(n, kvec, letters)


def _eword_mul_always_multiplying(algebra, a, b):
    """Oracle: eword_mul with every coefficient product made, by 1 too."""
    out: dict = {}
    for e1, c1 in a.items():
        for e2, c2 in b.items():
            for ew, ce in algebra.word_nf(e1 + e2):
                _acc(out, ew, c1 * c2 * ce)
    return out


@pytest.mark.parametrize("n", [2, 3, 4])
def test_eword_mul_skipping_unit_products_matches_oracle(n):
    """eword_mul, which skips each product by the shared ONE, against the
    always-multiplying loop on every ordered pair of root vectors of every
    class of rank n, compared term by term and in order."""
    A = UqAlgebra(n)
    vecs = {}
    for w in commutation_classes(n).reps:
        for x in root_vectors(A, w):
            coords = x.eword_coords()
            vecs[A.eword_id(coords)] = coords
    for a in vecs.values():
        for b in vecs.values():
            want = _eword_mul_always_multiplying(A, a, b)
            assert list(A.eword_mul(a, b).items()) == list(want.items()), (a, b)
