"""Pairing, left action, and functional equality on the coordinate algebra."""

import random
from functools import cache, reduce
from itertools import combinations_with_replacement, product
from math import comb
from operator import mul

import pytest
from oracles import build_Eji, counit, frt_relations, functional_is_zero

from qflag.freealg import FreeElement, Span, TruncatedGB, _acc, annihilator, complete_truncated
from qflag.oq import (
    OqElement,
    _apply_mono,
    _apply_token,
    _frt_system,
    _letters,
    _normal_coords,
    left_act,
    pair,
)
from qflag.scalars import NU, ONE, Q, QINV, ZERO, RatQ, qpow
from qflag.uqsl import UqAlgebra, coproduct


def test_generator_pairing_table():
    n = 3
    A = UqAlgebra(n)
    for i in range(1, n + 1):
        for a in range(1, n + 2):
            for b in range(1, n + 2):
                w = ((a, b),)
                expect = ONE if (a, b) == (i + 1, i) else ZERO
                assert pair(A.E(i), w) == expect
                expect = ONE if (a, b) == (i, i + 1) else ZERO
                assert pair(A.F(i), w) == expect
        for a in range(1, n + 2):
            kp = pair(A.K(i), ((a, a),))
            assert kp == qpow((1 if a == i + 1 else 0) - (1 if a == i else 0))


def test_root_vector_delta_pairing():
    for n in (2, 3):
        A = UqAlgebra(n)
        for i in range(1, n + 1):
            for j in range(i + 1, n + 2):
                x = build_Eji(A, i, j)
                for r in range(1, n + 2):
                    for s in range(1, n + 2):
                        expect = ONE if (r, s) == (j, i) else ZERO
                        assert pair(x, ((r, s),)) == expect


def test_pair_with_unit_word_is_counit():
    A = UqAlgebra(2)
    one = OqElement.unit(2)
    assert pair(A.K(1), one) == ONE
    assert pair(A.E(1), one) == ZERO
    assert pair(A.K(1) * A.K(2, -1), one) == ONE


def test_k_pairing_on_diagonal_product():
    A = UqAlgebra(1)
    w = OqElement.u(1, 1, 1) * OqElement.u(1, 2, 2)
    assert pair(A.K(1), w) == ONE  # q^-1 * q


def _random_monomial(A, rng, deg):
    gens = (
        [A.E(i) for i in range(1, A.n + 1)]
        + [A.F(i) for i in range(1, A.n + 1)]
        + [A.K(i, rng.choice((-1, 1))) for i in range(1, A.n + 1)]
    )
    return reduce(mul, [gens[rng.randrange(len(gens))] for _ in range(deg)], A.one())


def _random_word(n, rng, k):
    return tuple(
        (rng.randint(1, n + 1), rng.randint(1, n + 1)) for _ in range(k)
    )


def _pair_by_rows(x, e):
    """<x, e> word by word and monomial by monomial: the (rows, columns)
    entry of each monomial's tensor-power matrix."""
    words = e.terms.items() if isinstance(e, OqElement) else [(tuple(e), ONE)]
    total = ZERO
    for w, wc in words:
        rows = tuple(a for a, _ in w)
        cols = tuple(b for _, b in w)
        for m, c in x.terms.items():
            hit = _apply_mono(m, {cols: ONE}).get(rows)
            if hit:
                total = total + wc * c * hit
    return total


@pytest.mark.parametrize("n", [1, 2, 3])
def test_pair_is_counit_of_left_act(n):
    """pair, the counit of left_act, equals the per-word matrix entries on
    raw words, the unit word and elements mixing word lengths."""
    rng = random.Random(40 + n)
    A = UqAlgebra(n)
    coeffs = [ONE, -Q, QINV + ONE, (Q + ONE).inverse()]
    hits = 0
    for _ in range(40):
        x = A.zero()
        for _ in range(rng.randint(1, 3)):
            x = x + _random_monomial(A, rng, rng.randint(0, 4)).scale(rng.choice(coeffs))
        words = [()] + [_random_word(n, rng, k) for k in (1, 1, 2, 2, 3)]
        for w in words:
            p = pair(x, w)
            assert p == _pair_by_rows(x, w), (x, w)
            hits += bool(p)
        mixed = OqElement(n, {w: rng.choice(coeffs) for w in words})
        assert pair(x, mixed) == _pair_by_rows(x, mixed), (x, mixed)
    assert hits >= 20


def test_hopf_pairing_product_axiom():
    # <XY, w> = sum <X, w_(1)> <Y, w_(2)> with Delta(u-word) summed over
    # intermediate indices; exercises straightening against matrix products.
    rng = random.Random(17)
    n = 2
    A = UqAlgebra(n)
    for _ in range(60):
        x = _random_monomial(A, rng, rng.randint(1, 2))
        y = _random_monomial(A, rng, rng.randint(1, 2))
        k = rng.randint(1, 2)
        w = _random_word(n, rng, k)
        rows = tuple(a for a, _ in w)
        cols = tuple(b for _, b in w)
        rhs = ZERO
        for mid in product(range(1, n + 2), repeat=k):
            w1 = tuple(zip(rows, mid))
            w2 = tuple(zip(mid, cols))
            p1 = pair(x, w1)
            if p1:
                rhs = rhs + p1 * pair(y, w2)
        assert pair(x * y, w) == rhs


def test_hopf_pairing_coproduct_axiom():
    # <X, vw> = sum <X_(1), v> <X_(2), w>
    rng = random.Random(23)
    n = 2
    A = UqAlgebra(n)
    for _ in range(40):
        x = _random_monomial(A, rng, rng.randint(1, 3))
        v = _random_word(n, rng, 1)
        w = _random_word(n, rng, rng.randint(1, 2))
        lhs = pair(x, v + w)
        rhs = ZERO
        for (m1, m2), c in coproduct(x).terms.items():
            from qflag.uqsl import UqElement

            p1 = pair(UqElement(A, {m1: ONE}), v)
            if p1:
                rhs = rhs + c * p1 * pair(UqElement(A, {m2: ONE}), w)
        assert lhs == rhs


def test_left_act_basics():
    n = 2
    A = UqAlgebra(n)
    for a in range(1, n + 2):
        for b in range(1, n + 2):
            u = OqElement.u(n, a, b)
            assert left_act(A.one().scale(ONE), u) == u
            out = left_act(A.E(1), u)
            if b == 1:
                assert out == OqElement.u(n, a, 2)
            else:
                assert not out
            kd = left_act(A.K(2), u)
            assert kd == u.scale(qpow((1 if b == 3 else 0) - (1 if b == 2 else 0)))


def test_module_algebra_law():
    # X |> (vw) = sum (X_(1) |> v)(X_(2) |> w)
    rng = random.Random(5)
    n = 2
    A = UqAlgebra(n)
    from qflag.uqsl import UqElement

    for _ in range(30):
        x = _random_monomial(A, rng, rng.randint(1, 2))
        v = OqElement(n, {_random_word(n, rng, 1): ONE})
        w = OqElement(n, {_random_word(n, rng, 1): ONE})
        lhs = left_act(x, v * w)
        rhs = OqElement(n)
        for (m1, m2), c in coproduct(x).terms.items():
            rhs = rhs + (left_act(UqElement(A, {m1: ONE}), v) * left_act(UqElement(A, {m2: ONE}), w)).scale(c)
        assert lhs.terms == rhs.terms


def test_frt_relations_functionally_zero():
    for n in (1, 2):
        for rel in frt_relations(n):
            assert functional_is_zero(rel, 2)


def test_oq_equal_basic():
    n = 1
    a = OqElement.u(n, 1, 1) * OqElement.u(n, 1, 2)
    b = OqElement.u(n, 1, 2) * OqElement.u(n, 1, 1)
    assert functional_is_zero(a - b.scale(Q), 2)
    assert not functional_is_zero(a - b, 2)
    assert functional_is_zero(a - a, 2)


def test_quantum_determinant_pairs_as_counit():
    # <X, u11 u22 - q u12 u21> = eps(X) for PBW monomials of degree <= 4
    n = 1
    A = UqAlgebra(n)
    det = OqElement.u(n, 1, 1) * OqElement.u(n, 2, 2) - (
        OqElement.u(n, 1, 2) * OqElement.u(n, 2, 1)
    ).scale(Q)
    for a in range(3):
        for b in range(-2, 3):
            for c in range(3):
                if a + c > 4:
                    continue
                x = reduce(mul, [A.F(1)] * a + [A.K(1, b)] * (1 if b else 0) + [A.E(1)] * c, A.one())
                assert pair(x, det) == counit(x)


# -- the tensor-power span closure, kept as the oracle for FRT rewriting ------

@cache
def rep_span(n: int, k: int) -> list[dict]:
    """Basis (echelon, as sparse (rows, cols) -> coeff dicts) of the span of
    rho_k images of the enveloping algebra, closed degree by degree until
    a round adds no rank."""
    tokens = (
        [("E", i) for i in range(1, n + 1)]
        + [("F", i) for i in range(1, n + 1)]
        + [("K", i, 1) for i in range(1, n + 1)]
        + [("K", i, -1) for i in range(1, n + 1)]
    )

    def apply_to_matrix(token, mat: dict) -> dict:
        # columns of rho(g) . M, computed column by column
        out: dict = {}
        bycol: dict = {}
        for (a, b), c in mat.items():
            bycol.setdefault(b, {})[a] = c
        for b, col in bycol.items():
            for a, c in _apply_token(token, col).items():
                _acc(out, (a, b), c)
        return out

    ident = {(b, b): ONE for b in product(range(1, n + 2), repeat=k)}
    span = Span()
    span.add(ident)
    frontier = [ident]
    while frontier:
        new_frontier = []
        for mat in frontier:
            for tok in tokens:
                cand = apply_to_matrix(tok, mat)
                if cand and span.add(cand):
                    new_frontier.append(cand)
        frontier = new_frontier
    return [span.pivots[p] for p in sorted(span.pivots)]


def span_is_zero(e: OqElement, k: int) -> bool:
    """The closure's verdict: e kills every rho_k image in the span."""
    keyed = [((tuple(a for a, _ in w), tuple(b for _, b in w)), c) for w, c in e.terms.items()]
    for mat in rep_span(e.n, k):
        s = ZERO
        for key, c in keyed:
            m = mat.get(key)
            if m:
                s = s + c * m
        if s:
            return False
    return True


def test_rep_span_dimensions():
    assert len(rep_span(1, 1)) == 4  # all of M_2
    assert len(rep_span(1, 2)) == 10  # 3x3 block + 1x1 block
    assert len(rep_span(2, 1)) == 9


def span_zeros(n: int, k: int) -> list[OqElement]:
    """A basis of the length-k elements that the closure calls zero: the
    annihilator of its span matrices, read as rows over u-words."""
    words = list(product(product(range(1, n + 2), repeat=2), repeat=k))
    rows = [{tuple(zip(r, c)): x for (r, c), x in mat.items()} for mat in rep_span(n, k)]
    return [OqElement(n, v) for v in annihilator(rows, words)]


@cache
def _completed_frt(n: int):
    """A copy of the rank's FRT system completed through length 3, where
    every overlap of two length-2 leads lives."""
    gb = _frt_system(n)
    rels = [FreeElement.monomial(lead) - tail for lead, tail in gb.rules.items()]
    return complete_truncated(rels, gb.order, 3, gb.alphabet)


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_frt_relations_are_a_groebner_basis(n):
    """Completing the FRT relations adds no rule and leaves no overlap
    pending, so by the diamond lemma the uncompleted system that
    `_normal_coords` reduces by is exact in every length."""
    gb, done = _frt_system(n), _completed_frt(n)
    assert gb.settled and done.settled
    assert list(done.rules.items()) == list(gb.rules.items())
    assert len(gb.rules) == len(frt_relations(n))


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
def test_frt_rules_in_closed_form_match_the_oriented_relations(n):
    """The rules written in closed form are the FRT relations reduced and
    oriented one by one: the same leads, tails with their term order, rule
    order and lead indexes."""
    gb = _frt_system(n)
    oriented = TruncatedGB(gb.alphabet, gb.order)
    for r in frt_relations(n):
        oriented._orient(_letters(r))
    rules = lambda s: [(lead, list(tail.terms.items())) for lead, tail in s.rules.items()]
    assert rules(gb) == rules(oriented)
    assert (gb._lengths, gb._prefixes, gb._suffixes) == (oriented._lengths, oriented._prefixes, oriented._suffixes)


_FRT_CASES = [(1, 1), (1, 2), (1, 3), (2, 1), (2, 2), (2, 3), (3, 2)]


@pytest.mark.parametrize("n,k", _FRT_CASES)
def test_frt_rewriting_matches_span_closure(n, k):
    # the normal words are the ordered monomials (PBW), each its own normal
    # form under its own labels, and as many as the rank of the rho_k span,
    # which Schur-Weyl duality puts at C(N^2 + k - 1, k)
    gb = _frt_system(n)
    cells = [(a, b) for a in range(1, n + 2) for b in range(1, n + 2)]
    ordered = list(combinations_with_replacement(cells, k))
    assert [[gb.alphabet.labels[g] for g in w] for w in gb.normal_words(k)] == [
        [f"u[{a},{b}]" for a, b in m] for m in ordered
    ]
    for m in ordered:
        [(w, c)] = _normal_coords(OqElement(n, {m: ONE})).items()
        assert c == ONE and [gb.alphabet.labels[g] for g in w] == [f"u[{a},{b}]" for a, b in m]
    assert _completed_frt(n).normal_counts(k)[k] == len(ordered) == len(rep_span(n, k))
    assert len(ordered) == comb((n + 1) ** 2 + k - 1, k)
    # zero verdicts agree on seeded random sums: a quarter are combinations
    # of the closure's own zeros, a quarter such combinations plus u-words,
    # half plain u-words
    zero_basis = span_zeros(n, k)
    rng = random.Random(1000 * n + k)
    zeros = 0
    for trial in range(60):
        e = OqElement(n)
        if zero_basis and trial % 2 == 0:
            for _ in range(rng.randint(1, 3)):
                e = e + rng.choice(zero_basis).scale(rng.choice((ONE, Q, QINV, NU, RatQ(-2))))
        if trial % 4 or not zero_basis:
            for _ in range(rng.randint(1, 3)):
                e = e + OqElement(n, {_random_word(n, rng, k): rng.choice((ONE, Q, RatQ(-1)))})
        verdict = functional_is_zero(e, k)
        assert verdict == span_is_zero(e, k), e
        zeros += verdict
    assert zeros >= 15 or not zero_basis


def test_weight_compatibility():
    rng = random.Random(41)
    n = 2
    A = UqAlgebra(n)
    cartan = [[2 if i == j else (-1 if abs(i - j) == 1 else 0) for j in range(1, n + 1)] for i in range(1, n + 1)]
    for _ in range(80):
        x = _random_monomial(A, rng, rng.randint(1, 3))
        if not x.terms:
            continue
        try:
            mu = x.weight()
        except ValueError:
            continue
        k = rng.randint(1, 2)
        w = _random_word(n, rng, k)
        val = pair(x, w)
        if val:
            from qflag.oq import _kdiag_exp

            for j in range(1, n + 1):
                cj = sum(_kdiag_exp(j, b) - _kdiag_exp(j, a) for a, b in w)
                assert sum(cartan[j - 1][i] * mu[i] for i in range(n)) == -cj
