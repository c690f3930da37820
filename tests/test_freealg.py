"""Rewriting engine: normal forms, truncated completion, graded dimensions."""

import heapq
import random
from collections import Counter
from itertools import product

import pytest
from oracles import TWO_Q, GenericGB, from_pairs, frt_relations, oq_u, oq_unit, reversed_letters

from qflag import calculus as C
from qflag import oq, uqsl
from qflag.freealg import (
    Alphabet,
    FreeElement,
    Span,
    TruncatedGB,
    _acc,
    _span_over,
    annihilator,
    complete_truncated,
    rank,
)
from qflag.oq import OqElement
from qflag.scalars import NU, ONE, Q, QINV, ZERO, qpow
from qflag.uqsl import TensorSquare, UqAlgebra, UqElement, _serre_system, coproduct
from qflag.weyl import commutation_classes, nice_word


def _simple_alphabet(m, dim=None):
    dim = dim if dim is not None else m
    weights = tuple(tuple(1 if j == i else 0 for j in range(dim)) for i in range(m))
    return Alphabet(tuple(f"x{i}" for i in range(m)), weights)


def _serre_sl3():
    """Quantum Serre relations of the rank-2 positive part: alphabet (E1, E2).

    E2^2 E1 - [2] E2 E1 E2 + E1 E2^2 and E1^2 E2 - [2] E1 E2 E1 + E2 E1^2.
    """
    alph = _simple_alphabet(2)
    s1 = FreeElement({(1, 1, 0): ONE, (1, 0, 1): -TWO_Q, (0, 1, 1): ONE})
    s2 = FreeElement({(0, 0, 1): ONE, (0, 1, 0): -TWO_Q, (1, 0, 0): ONE})
    return alph, [s1, s2]


def test_serre_sl3_completion_and_degree4_count():
    alph, rels = _serre_sl3()
    gb = complete_truncated(rels, 6, alph)  # E2 (index 1) greater than E1 (index 0)
    assert len(gb.rules) == 2  # the two input cubics complete already
    # independent oracle: length-4 words over {E1,E2} avoiding the lead factors
    leads = set(gb.rules)
    assert leads == {(1, 1, 0), (1, 0, 0)}  # E2E2E1 and E2E1E1

    def normal(word):
        return all(word[p : p + 3] not in leads for p in range(len(word) - 2))

    brute = sum(1 for w in product(range(2), repeat=4) if normal(w))
    assert brute == 9
    assert len(gb.normal_words(4)) == brute


def test_normal_counts_on_serre_systems():
    """Counting, listing and a no-lead-factor oracle agree on Serre systems,
    whose leads come in one length (3, rank 2) or several (2-5, rank 3).
    A settled system answers at every degree; an unsettled truncated
    completion refuses the degrees above its valid_degree."""
    alph, rels = _serre_sl3()
    for gb in (complete_truncated(rels, 8, alph), _serre_system(3)):
        assert gb.settled
        leads = set(gb.rules)
        assert gb.normal_counts(9) == [len(gb.normal_words(k)) for k in range(10)]
        for k in range(6):
            oracle = [
                w
                for w in product(range(gb.alphabet.size), repeat=k)
                if not any(w[i:j] in leads for i in range(k) for j in range(i + 1, k + 1))
            ]
            assert gb.normal_words(k) == oracle
    truncated = complete_truncated(rels, 3, alph)
    assert not truncated.settled and truncated.normal_counts(3) == [1, 2, 4, 6]
    for query in (truncated.normal_counts, truncated.normal_words, truncated.weight_counts):
        with pytest.raises(ValueError):
            query(4)


def _exterior_gb(t):
    rel = C.quadratic_relations(t)
    return complete_truncated(rel.all_relations(), t.dim + 1, rel.alphabet)


def test_weight_counts_group_the_normal_words():
    """Per degree, the weight counts are the normal words grouped by weight:
    on Serre and FRT systems (leads of lengths 2-5) and on exterior
    algebras, one of them spanned by two generators of equal weight."""
    alph, rels = _serre_sl3()
    A2 = UqAlgebra(2)
    systems = [
        (complete_truncated(rels, 8, alph), 7),
        (_serre_system(3), 7),
        (oq._frt_system(2), 5),
        (_exterior_gb(C.tangent_from_exprs(A2, [A2.E(1) * A2.E(2), A2.E(2) * A2.E(1), A2.E(1)])), 4),
    ]
    systems += [(_exterior_gb(C.tangent_from_word(UqAlgebra(n), nice_word(n))), n * (n + 1) // 2 + 1)
                for n in (1, 2, 3)]
    for gb, kmax in systems:
        weight = gb.alphabet.word_weight
        assert gb.weight_counts(kmax) == [
            dict(Counter(weight(w) for w in gb.normal_words(k))) for k in range(kmax + 1)
        ]


def test_serre_reduce_single_step():
    alph, rels = _serre_sl3()
    gb = complete_truncated(rels, 4, alph)
    # E2 E2 E1 -> [2] E2 E1 E2 - E1 E2 E2
    out = gb.reduce(FreeElement.monomial((1, 1, 0)))
    assert out == FreeElement({(1, 0, 1): TWO_Q, (0, 1, 1): -ONE})


def test_reduce_normal_word_is_identity():
    alph, rels = _serre_sl3()
    gb = complete_truncated(rels, 4, alph)
    w = FreeElement.monomial((0, 1, 0), Q)
    assert gb.reduce(w) == w


def test_degree_guard():
    alph, rels = _serre_sl3()
    gb = complete_truncated(rels, 3, alph)
    with pytest.raises(ValueError):
        gb.normal_counts(10)
    # resolving the one overlap (degree 4) settles it: every degree is valid
    gb.extend_to(4)
    assert gb.settled and gb.valid_degree == 4
    assert len(gb.normal_counts(12)) == 13
    x = FreeElement.monomial((1, 1, 0) * 4)
    assert gb.reduce(x) != x


def test_empty_relations_free_algebra():
    alph = _simple_alphabet(2)
    assert complete_truncated([], 6, alph).normal_counts(5) == [1, 2, 4, 8, 16, 32]


def test_inhomogeneous_rejected():
    alph = _simple_alphabet(2)
    bad = FreeElement({(0, 1): ONE, (0,): ONE})
    with pytest.raises(ValueError):
        complete_truncated([bad], 3, alph)


def _q_commutation_relations(alph, coeffs):
    """e_a e_b + c_{ab} e_b e_a for a < b, plus squares e_a e_a."""
    rels = []
    m = alph.size
    for a in range(m):
        rels.append(FreeElement.monomial((a, a)))
        for b in range(a + 1, m):
            rels.append(FreeElement({(a, b): ONE, (b, a): coeffs[(a, b)]}))
    return rels


def _nice_sl3_exterior():
    """Quantum-affine-space relations on three generators (all pairs
    q-commute, squares vanish)."""
    alph = _simple_alphabet(3)
    coeffs = {(0, 1): Q, (0, 2): QINV, (1, 2): Q}
    return alph, _q_commutation_relations(alph, coeffs)


def test_exterior_sl3_confluent_at_degree_two():
    alph, rels = _nice_sl3_exterior()
    gb = complete_truncated(rels, 4, alph)
    assert len(gb.rules) == len(rels) == 6


def test_exterior_sl4_binomial_dims():
    # six generators, squares zero, all pairs q-commute: dims C(6,k)
    alph = _simple_alphabet(6)
    coeffs = {(a, b): qpow((a * b) % 3 - 1) for a in range(6) for b in range(a + 1, 6)}
    gb = complete_truncated(_q_commutation_relations(alph, coeffs), 8, alph)
    assert gb.normal_counts(7) == [1, 6, 15, 20, 15, 6, 1, 0]


def test_dims_order_invariant():
    """The counts agree with the letters renamed, so under the reversed
    precedence (oracles.reversed_letters)."""
    alph, rels = _nice_sl3_exterior()
    flipped, flipped_alph = reversed_letters(rels, alph)
    t1 = complete_truncated(rels, 5, alph).normal_counts(4)
    t2 = complete_truncated(flipped, 5, flipped_alph).normal_counts(4)
    assert t1 == t2


def test_nf_strategy_independence(reduce_randomly):
    alph, rels = _serre_sl3()
    gb = complete_truncated(rels, 8, alph)
    rng = random.Random(5)
    elem = FreeElement(
        {
            (1, 1, 0, 0, 1): Q,
            (1, 1, 1, 0, 0): ONE - QINV,
            (0, 1, 1, 0, 1): NU,
        }
    )
    base = gb.reduce(elem)
    for _ in range(20):
        assert reduce_randomly(gb, elem, rng) == base


def test_dims_against_bruteforce_linear_algebra():
    """Degree-k quotient dimension equals #words minus the rank of the
    degree-k ideal component, for k <= 3."""
    rng = random.Random(11)
    for m in (2, 3, 4, 6):
        alph = _simple_alphabet(m, dim=m)
        coeffs = {
            (a, b): qpow(rng.randint(-2, 2)) for a in range(m) for b in range(a + 1, m)
        }
        rels = _q_commutation_relations(alph, coeffs)
        gb = complete_truncated(rels, 4, alph)
        for k in (2, 3):
            assert len(gb.normal_words(k)) == _quotient_dim(rels, m, k)


def _quotient_dim(rels, m, k):
    """Dimension of the degree-k part of the free algebra on m letters modulo
    the homogeneous rels: m^k minus the rank of the span of u * r * v over
    all words u, v with |u| + |v| = k - deg(r)."""
    rows = []
    for r in rels:
        pad = k - max(map(len, r.terms))
        for lp in range(pad + 1):
            for u in product(range(m), repeat=lp):
                for v in product(range(m), repeat=pad - lp):
                    rows.append({u + w + v: c for w, c in r.terms.items()})
    return m**k - rank(rows)


def _all_pairs_overlaps(gb, lead):
    """The all-pairs scan the prefix/suffix indexes replaced, kept as the
    oracle: (degree, leads, word) of each overlap of lead with a live lead,
    self-overlaps once from each side."""
    out = []
    for other in gb.rules:
        for a, b in ((lead, other), (other, lead)):
            for t in range(1, min(len(a), len(b))):
                if a[-t:] == b[:t]:
                    out.append((len(a) + len(b) - t, a, b, a + b[t:]))
    return out


def _overlap_residue(gb, word, la=None, lb=None):
    """The reduced difference of the overlap word = la s = p lb (by default
    the length-2 leads of a length-3 word), built as products by monomials:
    rules[la] * s - p * rules[lb]."""
    la, lb = la or word[:2], lb or word[1:]
    left = gb.rules[la] * FreeElement.monomial(word[len(la) :])
    return gb.reduce(left - FreeElement.monomial(word[: len(word) - len(lb)]) * gb.rules[lb])


def _skip_case(gb, word):
    """Which criterion lets gb drop the overlap word unreduced: 'commuting'
    (every letter pair monomial), 'A' or 'B' (a q-central end letter), or None."""
    if GenericGB._commuting_overlap(gb, word):
        return "commuting"
    if TruncatedGB._commuting_overlap(gb, word):  # builds gb._swaps
        x, y, z = word
        if gb._central((x, y), lambda w: gb._swaps.get((w, z))):
            return "A"
        if gb._central((y, z), lambda w: gb._swaps.get((x, w))):
            return "B"
    return None


class _ZeroSkipGB(TruncatedGB):
    """A completion that reduces each overlap the commuting-letter or
    q-central criterion drops unreduced and checks that it comes to zero
    the generic way; `skipped` counts them by case (`_skip_case`)."""

    def __init__(self, alphabet):
        super().__init__(alphabet)
        self.skipped = Counter()

    def _commuting_overlap(self, word):
        skip = super()._commuting_overlap(word)
        case = _skip_case(self, word)
        assert skip == (case is not None), word
        if skip:
            assert not _overlap_residue(self, word), word
            self.skipped[case] += 1
        return skip


class _CheckedGB(_ZeroSkipGB):
    """A completion that checks its overlap bookkeeping against the oracle,
    and its dropped overlaps as _ZeroSkipGB does.  Each push queues the
    all-pairs scan's overlaps.  After each insert the pending set is the
    rules' overlaps not yet resolved and the indexes hold exactly the
    leads' proper prefixes and suffixes."""

    def __init__(self, alphabet):
        super().__init__(alphabet)
        self.seen, self.resolved = set(), set()

    def _push_overlaps(self, lead):
        before = Counter(self._pending)
        super()._push_overlaps(lead)
        pushed = Counter(self._pending) - before
        assert pushed == Counter(_all_pairs_overlaps(self, lead))

    def _insert(self, elem):
        self.resolved |= self.seen - set(self._pending)  # only pops ran since the last insert
        super()._insert(elem)
        self.seen = set(self._pending)
        live = set(self.rules)
        oracle = {o for lead in live for o in _all_pairs_overlaps(self, lead)}
        assert all(la in live and lb in live for _deg, la, lb, _w in self.seen)
        assert self.seen == oracle - self.resolved
        for index, cut in ((self._prefixes, lambda w, t: w[:t]), (self._suffixes, lambda w, t: w[-t:])):
            want = {}
            for lead in live:
                for t in range(1, len(lead)):
                    want.setdefault(cut(lead, t), set()).add(lead)
            assert {k: leads for k, leads in index.items() if leads} == want


def _checked_completion(rels, alphabet, dmax):
    gb = _CheckedGB(alphabet)
    for r in rels:
        gb._insert(r)
    gb.extend_to(dmax)
    return gb


def survey_skips_resolve(n: int) -> Counter:
    """Complete the exterior of every rank-n class with a coideal verdict
    other than neither to degree d + 1, as given and with its letters
    renamed (oracles.reversed_letters, as exterior --reverse-order does),
    by complete_truncated's steps on a _ZeroSkipGB, so every overlap
    dropped unreduced is checked to have a zero residue; the drops by case.
    CI runs it at rank 5:

        PYTHONPATH=src:tests python3 -c 'import test_freealg; print(test_freealg.survey_skips_resolve(5))'
    """
    A, skipped = UqAlgebra(n), Counter()
    for rep in commutation_classes(n).reps:
        t = C.tangent_from_word(A, rep)
        if C.coideal_check(t).verdict == "neither":
            continue
        rel = C.quadratic_relations(t)
        rels = rel.all_relations()
        for rels, alphabet in ((rels, rel.alphabet), reversed_letters(rels, rel.alphabet)):
            gb = _ZeroSkipGB(alphabet)
            for r in rels:
                gb._insert(r)
            gb.extend_to(t.dim + 1)
            skipped += gb.skipped
    return skipped


def test_survey_skips_resolve():
    """Every overlap the rank-4 survey exteriors drop unreduced, completed in
    full as given and renamed, has a zero residue; each case drops some."""
    assert survey_skips_resolve(4) == {"commuting": 9740, "A": 392, "B": 392}


def test_overlap_indexes_match_all_pairs_scan():
    """The indexed overlap search queues what the all-pairs scan queued, on
    the installed rank-3 Serre system completed again from its own rules
    (it settles at degree 6, its largest overlap, with no rule added or
    reordered) and on relation completions as given and with the letters
    renamed (the reversed precedence): every class at ranks 2 and 3, and at
    rank 4 the nice word and a class without a coideal whose completion
    grows leads up to length 7 before it settles at degree 8.  On the same
    completions every overlap of q-commuting letters that extend_to resolves
    without reduction, through each of the three cases, reduces to zero
    (_CheckedGB)."""
    serre = _serre_system(3)
    rels = [FreeElement.monomial(lead) - tail for lead, tail in serre.rules.items()]
    gb = _checked_completion(rels, serre.alphabet, 6)
    assert gb.settled and list(gb.rules.items()) == list(serre.rules.items())
    skipped = Counter()
    for n in (2, 3, 4):
        A = UqAlgebra(n)
        reps = commutation_classes(n).reps if n < 4 else [nice_word(4), (1, 2, 1, 3, 4, 3, 2, 1, 3, 2)]
        for rep in reps:
            rel = C.quadratic_relations(C.tangent_from_word(A, rep))
            rels = rel.all_relations()
            for rels, alphabet in ((rels, rel.alphabet), reversed_letters(rels, rel.alphabet)):
                gb = _checked_completion(rels, alphabet, 8)
                assert gb.settled
                skipped += gb.skipped
    assert set(skipped) == {"commuting", "A", "B"}, skipped


@pytest.mark.parametrize("n, popped, rewritten", [(4, 1610, 192), (5, 15290, 2253)])
def test_survey_overlap_counts(monkeypatch, n, popped, rewritten):
    """The overlaps the rank-4 and rank-5 surveys' completions pop, and those
    they rewrite, which the README cites; the criteria drop the rest (the
    commuting letters alone left 300 and 3,859 rewritten)."""
    counts = Counter()
    verdict = TruncatedGB._commuting_overlap

    def counted(self, word):
        counts[skip := verdict(self, word)] += 1
        return skip

    monkeypatch.setattr(TruncatedGB, "_commuting_overlap", counted)
    C.survey_rows(UqAlgebra(n))
    assert (counts[True] + counts[False], counts[False]) == (popped, rewritten)


def test_relations_install_by_degree():
    """complete_truncated installs a relation listed before a shorter one
    after it: the quadratic lead x1x1 lies inside the cubic's x1x1x1, and
    the overlap x1x1x1 of x1x1 - x0x0 installs the cubic lead x1x0x0,
    which must come before the quartic's.  Either listing gives the same
    rules and the counts of the quotient by linear algebra over all words,
    to degree 6.  _index refuses a lead shorter than a live one, before the
    rule is stored."""
    alph = Alphabet(("x0", "x1"), ((1,), (1,)))
    cubic = FreeElement({(1, 1, 1): ONE, (0, 0, 0): -ONE})
    square = FreeElement({(1, 1): ONE, (0, 1): -Q})
    quartic = FreeElement({(1, 0, 1, 0): ONE, (0, 1, 0, 1): -Q})
    square_of_x0 = FreeElement({(1, 1): ONE, (0, 0): -ONE})
    for longer, shorter, cubic_lead in ((cubic, square, None), (quartic, square_of_x0, (1, 0, 0))):
        pairs = ([longer, shorter], [shorter, longer])
        systems = [complete_truncated(rels, 6, alph) for rels in pairs]
        rules = [[(lead, list(tail.terms.items())) for lead, tail in gb.rules.items()] for gb in systems]
        assert rules[0] == rules[1] and (1, 1) in systems[0].rules
        assert cubic_lead is None or cubic_lead in systems[0].rules
        want = [_quotient_dim(pairs[0], 2, k) for k in range(7)]
        assert [gb.normal_counts(6) for gb in systems] == [want, want]
    gb = TruncatedGB(alph)
    gb._insert(cubic)
    with pytest.raises(ValueError, match="length 2 installed after one of length 3"):
        gb._insert(square)
    assert list(gb.rules) == [(1, 1, 1)] and gb._lengths == [3]


def _three_letter_gb(*relations):
    """A rewriting system on x0 < x1 < x2 (one grading) with the given
    relations installed in order and no overlap resolved."""
    gb = TruncatedGB(Alphabet(("x0", "x1", "x2"), ((1,), (1,), (1,))))
    for r in relations:
        gb._insert(FreeElement(r))
    return gb


def test_commuting_overlap_guard():
    """The criterion accepts an overlap only when all three letter pairs
    carry monomial rules: a swap to the other order with one coefficient,
    or a square with an empty tail.  Each refused case below has an overlap
    whose generic resolution leaves a nonzero residue, so skipping it would
    lose a rule."""
    swaps = [{(2, 1): ONE, (1, 2): -Q}, {(1, 0): ONE, (0, 1): -QINV}, {(2, 0): ONE, (0, 2): -QINV}]
    gb = _three_letter_gb({(2, 2): ONE}, *swaps)
    for word in ((2, 1, 0), (2, 2, 1), (2, 2, 0), (2, 2, 2)):
        assert gb._commuting_overlap(word) and not _overlap_residue(gb, word), word
    assert not gb._commuting_overlap((1, 1, 0))  # x1x1 carries no rule
    refused = [
        # the third pair {x0, x2} has no rule
        (_three_letter_gb(*swaps[:2]), (2, 1, 0)),
        # the third pair's tail has a second term
        (_three_letter_gb(*swaps[:2], {(2, 0): ONE, (0, 2): -Q, (1, 1): -ONE}), (2, 1, 0)),
        # the swap x2x1 -> q x1x2 has its reversed word as a live lead
        (_three_letter_gb(*swaps, {(1, 2): ONE, (0, 0): -ONE}), (2, 1, 0)),
        (_three_letter_gb({(2, 2): ONE}, swaps[0], {(1, 2): ONE, (0, 0): -ONE}), (2, 1, 2)),
        # a distinct pair's rule x0x2 = 0 has an empty tail
        (_three_letter_gb({(0, 2): ONE}, *swaps[:2]), (1, 0, 2)),
        # a square rule with a non-empty tail
        (_three_letter_gb({(1, 1): ONE, (0, 2): -ONE}, swaps[1]), (1, 1, 0)),
    ]
    for gb, word in refused:
        assert any(w == word for _deg, _la, _lb, w in gb._pending), word
        assert not gb._commuting_overlap(word) and _overlap_residue(gb, word), word


def test_q_central_overlap_guard():
    """The q-central criterion accepts the overlap x2 x1 x0 of x2x1 and x1x0
    when x0 moves left past x2, x1 and the letters of x2x1's tail by swaps
    with l_u l_v = l_2 l_1 for each tail word uv (case A), or x2 moves right
    past x1, x0 and the letters of x1x0's tail (case B); each accepted
    overlap has a zero residue, and the commuting-letter criterion refuses
    it.  Each refused case has a nonzero residue, so skipping it would lose
    a rule."""
    lam, mu = QINV, Q  # the swap coefficients of x1x0 (or x2x1) and x2x0
    swaps = [{(1, 0): ONE, (0, 1): -lam}, {(2, 0): ONE, (0, 2): -mu}]
    word = (2, 1, 0)
    accepted = [
        # x2x1 -> q x1x2 + x1x1 with l_1 l_1 = l_1 l_2
        (_three_letter_gb({(2, 1): ONE, (1, 2): -Q, (1, 1): -ONE}, {(1, 0): ONE, (0, 1): -lam},
                          {(2, 0): ONE, (0, 2): -lam}), "A"),
        # x1x0 -> q x0x1 + x0x0, x2 swapping right past x1 and x0 alike
        (_three_letter_gb({(1, 0): ONE, (0, 1): -Q, (0, 0): -ONE}, {(2, 1): ONE, (1, 2): -mu}, swaps[1]), "B"),
    ]
    for gb, case in accepted:
        assert _skip_case(gb, word) == case and gb._commuting_overlap(word), case
        assert not _overlap_residue(gb, word), case
    four = TruncatedGB(Alphabet(("x0", "x1", "x2", "x3"), ((1,),) * 4))
    for r in ({(3, 2): ONE, (3, 1): -ONE}, {(3, 0): ONE, (0, 3): -mu}, {(2, 0): ONE, (0, 2): -lam}):
        four._insert(FreeElement(r))
    refused = [
        # the tail word x1x2 of x2x1 is a live lead
        (_three_letter_gb({(2, 1): ONE, (1, 2): -ONE}, {(1, 2): ONE, (1, 1): -Q}, *swaps), word),
        # the tail letter x1 of x3x2 -> x3x1 has no swap with x0
        (four, (3, 2, 0)),
        # x2x1 -> q x1x2 + x1x1 with l_1 l_1 != l_1 l_2
        (_three_letter_gb({(2, 1): ONE, (1, 2): -Q, (1, 1): -ONE}, *swaps), word),
        # the tail letter x0 of x2x1 -> x0x1 is x0 itself: a square where a swap is needed
        (_three_letter_gb({(2, 1): ONE, (0, 1): -ONE}, *swaps), word),
    ]
    for gb, w in refused:
        assert any(e[3] == w for e in gb._pending), w
        assert _skip_case(gb, w) is None and not gb._commuting_overlap(w), w
        assert _overlap_residue(gb, w), w


def _assert_same_system(gb, generic, case):
    """Same leads, tails (term order included) and rule order, same
    valid_degree and settled."""
    rules = lambda s: [(lead, list(tail.terms.items())) for lead, tail in s.rules.items()]
    assert rules(gb) == rules(generic), case
    assert (gb.valid_degree, gb.settled) == (generic.valid_degree, generic.settled), case


def _complete_both(rels, alphabet, kmax, case):
    """Complete rels as exterior_dims does, degree by degree to kmax, in the
    library's system and in the generic one, comparing them and their
    normal counts at each degree; the library's system."""
    gb, generic = complete_truncated(rels, 0, alphabet), GenericGB(alphabet)
    for r in rels:
        generic._insert(r)
    for k in range(kmax + 1):
        gb.extend_to(k)
        generic.extend_to(k)
        _assert_same_system(gb, generic, case)
        top = kmax if gb.settled else k
        assert gb.normal_counts(top) == generic.normal_counts(top), case
        if gb.settled:
            break
    return gb


def survey_exteriors_match_generic(n: int) -> int:
    """Complete the exterior of every rank-n class with a coideal verdict
    other than neither, as given and with its letters renamed
    (oracles.reversed_letters, as exterior --reverse-order does), in both
    systems (`_complete_both`); the number of classes.  CI runs it at rank 5:

        PYTHONPATH=src:tests python3 -c 'import test_freealg; test_freealg.survey_exteriors_match_generic(5)'
    """
    A, cases = UqAlgebra(n), 0
    for rep in commutation_classes(n).reps:
        t = C.tangent_from_word(A, rep)
        if C.coideal_check(t).verdict == "neither":
            continue
        rel = C.quadratic_relations(t)
        rels = rel.all_relations()
        for renamed, (rels, alphabet) in enumerate(((rels, rel.alphabet), reversed_letters(rels, rel.alphabet))):
            _complete_both(rels, alphabet, t.dim + 1, (rep, renamed))
        cases += 1
    return cases


@pytest.mark.parametrize("n", [2, 3, 4])
def test_survey_completions_match_generic_bookkeeping(n):
    """Installing without a reduce when no word holds a live lead, the
    cached letter-pair verdicts, the incremental lead lengths, the unit
    lead coefficient and the plain deg-lex key leave every survey exterior's
    completion as the generic bookkeeping (tests/oracles.py) builds it."""
    assert survey_exteriors_match_generic(n) == {2: 2, 3: 8, 4: 26}[n]


@pytest.mark.parametrize("n", [2, 3, 4])
def test_renamed_letters_complete_as_the_reversed_precedence(n):
    """Every rank-n class's relations with letter g renamed d-1-g
    (oracles.reversed_letters, as exterior --reverse-order renames them),
    completed to degree d + 1, have the leads, mapped back, and the normal
    counts of the generic completion under the reversed precedence.  Tails
    and rule order may differ: the overlaps pop in another order."""
    A = UqAlgebra(n)
    for rep in commutation_classes(n).reps:
        t = C.tangent_from_word(A, rep)
        rel, d = C.quadratic_relations(t), t.dim
        rels, alphabet = reversed_letters(rel.all_relations(), rel.alphabet)
        gb = complete_truncated(rels, d + 1, alphabet)
        generic = GenericGB(rel.alphabet, precedence=tuple(range(d - 1, -1, -1)))
        for r in rel.all_relations():
            generic._insert(r)
        generic.extend_to(d + 1)
        assert {tuple(d - 1 - g for g in lead) for lead in gb.rules} == set(generic.rules), rep
        assert gb.normal_counts(d + 1) == generic.normal_counts(d + 1), rep


def test_non_quadratic_completions_match_generic_bookkeeping():
    """The rank-4 classes without a coideal whose completions grow longer
    leads (22 of them, settling at degree 7, 8 or 9), completed to degree 9."""
    A, cases = UqAlgebra(4), 0
    for rep in commutation_classes(4).reps:
        t = C.tangent_from_word(A, rep)
        if C.coideal_check(t).verdict == "neither":
            rel = C.quadratic_relations(t)
            gb = _complete_both(rel.all_relations(), rel.alphabet, 9, rep)
            cases += max(map(len, gb.rules)) > 2
    assert cases == 22


class _GenericSerre(GenericGB, uqsl._SerreSystem):
    """U+'s Serre system installed through the generic bookkeeping."""


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_installed_systems_match_generic_bookkeeping(n):
    """U+'s Serre system (ranks 1-5), installed rule by rule through
    _orient, and the FRT system (ranks 1-4), written in closed form, are
    the systems the generic bookkeeping installs from the same relations.
    Both Serre systems are fresh: the shared one's valid_degree is the
    highest degree a reader has asked for."""
    gb, generic = uqsl._SerreSystem(n), _GenericSerre(n)
    gb.install()
    generic.install()
    assert isinstance(generic, GenericGB)
    _assert_same_system(gb, generic, ("serre", n))
    if n <= 4:
        gb = oq._frt_system(n)
        generic = GenericGB(gb.alphabet)
        for r in frt_relations(n):
            generic._orient(oq._letters(r))
        _assert_same_system(gb, generic, ("frt", n))


def test_commuting_pair_cache_follows_rule_changes(monkeypatch):
    """The table of swap coefficients that _commuting_overlap builds reads
    only length-2 rules, so a length-2 install drops it and a longer one
    keeps it: a pair with no rule turns into a swap once one is installed;
    a swap leaves the table once its reversed word becomes a lead (an
    install that needs a reduce).  So each completion builds it once: the
    exteriors of the 36 rank-4 classes without a coideal, under both
    orders, build it 72 times, and the rank-4 survey 7 times."""
    gb = _three_letter_gb({(2, 2): ONE}, {(2, 1): ONE, (1, 2): -Q})
    assert not gb._commuting_overlap((2, 2, 0)) and gb._swaps == {(2, 2): ZERO, (2, 1): Q}
    gb._insert(FreeElement({(2, 0): ONE, (0, 2): -QINV}))
    assert gb._swaps is None and gb._commuting_overlap((2, 2, 0))

    gb._insert(FreeElement({(1, 0): ONE, (0, 1): -Q}))
    assert gb._commuting_overlap((2, 1, 0)) and gb._swaps[1, 0] == Q
    gb._insert(FreeElement({(0, 1): ONE, (1, 0): -ONE}))  # reduces to (1 - q) x0x1
    assert (0, 1) in gb.rules and not gb.rules[0, 1]
    assert not gb._commuting_overlap((2, 1, 0)) and (1, 0) not in gb._swaps

    assert gb._commuting_overlap((2, 2, 1)) and gb._swaps[2, 1] == Q
    table = gb._swaps
    gb._insert(FreeElement({(1, 1, 1): ONE}))
    assert (1, 1, 1) in gb.rules and gb._swaps is table

    builds = Counter()
    verdict = TruncatedGB._commuting_overlap

    def counted(self, word):
        builds[len(word) == 3 and self._swaps is None] += 1
        return verdict(self, word)

    monkeypatch.setattr(TruncatedGB, "_commuting_overlap", counted)
    A = UqAlgebra(4)
    tangents = [C.tangent_from_word(A, rep) for rep in commutation_classes(4).reps]
    neither = [t for t in tangents if C.coideal_check(t).verdict == "neither"]
    for t in neither:
        C.exterior_dims(t)
        C.exterior_dims(t, reverse_order=True)
    assert (len(neither), builds[True]) == (36, 72)
    builds.clear()
    C.survey_rows(UqAlgebra(4))
    assert builds[True] == 7


def test_span_nullspace_annihilator():
    ann = annihilator([{0: ONE, 1: Q}], [0, 1, 2])
    assert len(ann) == 2
    for v in ann:
        assert v.get(0, ZERO) * ONE + v.get(1, ZERO) * Q == ZERO

    sp = Span()
    assert sp.add({0: ONE, 1: ONE})
    assert not sp.add({0: Q, 1: Q})
    assert sp.contains({0: -ONE, 1: -ONE})
    assert not sp.contains({0: ONE})


def _annihilator_pair_loop(rows, coords):
    """The former construction, kept as the oracle: each free column is
    looked up in every pivot row."""
    sp = _span_over(rows, coords)
    out = []
    for f in (i for i in range(len(coords)) if i not in sp.pivots):
        vec = {f: ONE}
        for p in sorted(sp.pivots):
            c = sp.pivots[p].get(f)
            if c:
                vec[p] = -c
        out.append({coords[i]: c for i, c in vec.items()})
    return out


def test_annihilator_matches_pair_loop():
    """Walking each pivot row's own free columns gives the same null
    vectors, in the same order, with the same key order and coefficients."""
    rng = random.Random(508)
    scalars = [ONE, -ONE, Q, QINV, NU, TWO_Q, ONE / (Q + 1), qpow(3) - ONE]
    for _ in range(300):
        ncols = rng.randint(1, 12)
        coords = [("c", j) for j in rng.sample(range(40), ncols)]
        rows = []
        for _ in range(rng.randint(0, ncols + 2)):
            if len(rows) >= 2 and rng.random() < 0.3:  # a dependent row
                row = {}
                for r in rng.sample(rows, 2):
                    x = rng.choice(scalars)
                    for k, c in r.items():
                        row[k] = row.get(k, ZERO) + x * c
            else:
                support = rng.sample(coords, rng.randint(1, min(ncols, 4)))
                row = {k: rng.choice(scalars) for k in support}
            rows.append(row)
        got = annihilator(rows, coords)
        want = _annihilator_pair_loop(rows, coords)
        assert [list(v.items()) for v in got] == [list(v.items()) for v in want]
        assert [[str(c) for c in v.values()] for v in got] == [
            [str(c) for c in v.values()] for v in want
        ]


def test_render_rules():
    """The shared printing rules: zero, +-1 coefficients, a minus folded into
    the joining sign, q^-k and fractions parenthesised, and a unit monomial
    shown as its bare coefficient (TensorSquare joins with '  +  ' instead)."""
    A = UqAlgebra(2)
    frac = ONE / (Q + 1)
    x = A.E(1) - A.F(2) * A.K(1, -1) + A.one().scale(Q + 1) + A.E(2).scale(qpow(-2))
    x = x - A.E(1) * A.E(2) * frac
    assert UqElement(A, {}).render() == "0"
    assert x.render() == "q + 1 + E1 + (q^-2)*E2 - F2 K1^-1 + (-1/(q + 1))*E1 E2"
    assert (-A.E(1) + A.E(2).scale(-2 * Q)).render() == "-E1 - 2*q*E2"
    assert A.one().scale(-1).render() == "-1"

    al = Alphabet(("a", "b"), ((1, 0), (0, 1)))
    f = FreeElement({(): Q + 1, (0,): -ONE, (1, 0): qpow(-1), (0, 1): frac, (1, 1): ONE})
    assert FreeElement().render(al) == "0"
    assert f.render(al) == "bb + (q^-1)*ba + (1/(q + 1))*ab - a + q + 1"

    o = OqElement(
        1, {(): Q + 1, ((1, 1),): -ONE, ((1, 2), (2, 1)): qpow(-3), ((2, 2),): frac, ((2, 1),): ONE}
    )
    assert OqElement(1).render() == "0"
    assert o.render() == "q + 1 - u[1,1] + (q^-3)*u[1,2]u[2,1] + u[2,1] + (1/(q + 1))*u[2,2]"
    assert oq_unit(1).scale(-ONE).render() == "-1"

    one = A.one()
    t = from_pairs(
        A,
        [
            (one, one.scale(Q + 1)),
            (A.E(1), A.K(1)),
            (A.F(1), -A.E(2)),
            (A.K(2, -1), A.E(1).scale(frac)),
            (A.E(2), A.F(1).scale(qpow(-1))),
        ],
    )
    assert TensorSquare(A, {}).render() == "0"
    assert t.render() == (
        "(1/(q + 1))*K2^-1 (x) E1  +  (q + 1)*1 (x) 1  +  E1 (x) K1"
        "  +  (q^-1)*E2 (x) F1  +  -F1 (x) E2"
    )


def _free_pair():
    return (
        FreeElement({(0, 1): ONE, (1,): Q, (): TWO_Q}),
        FreeElement({(0, 1): -ONE, (2, 0): QINV}),
    )


def _uq_pair():
    A = UqAlgebra(2)
    return A.E(1) + A.F(2).scale(Q), A.E(1) * A.K(1) - A.E(1)


def _tensor_pair():
    A = UqAlgebra(2)
    return coproduct(A.E(1) * A.E(2)), coproduct(A.E(1)).scale(NU) - coproduct(A.F(2))


def _oq_pair():
    u = lambda a, b: oq_u(2, a, b)
    return u(1, 2) + u(2, 1) * u(3, 3), u(1, 2).scale(-Q) + oq_unit(2)


@pytest.mark.parametrize("pair", [_free_pair, _uq_pair, _tensor_pair, _oq_pair])
def test_sum_arithmetic(pair):
    """The linear structure shared by all four sparse-sum types."""
    a, b = pair()
    assert a and b and a != b
    assert a + b - b == a
    assert -(-a) == a
    assert not (a - a)
    assert not a.scale(0)
    assert 2 * a == a + a == a.scale(2)
    assert ONE * a == a
    assert hash(a + b - b) == hash(a)
    assert len({a, a + b - b, b}) == 2


def test_sum_equality_compares_context():
    """UqElement and TensorSquare compare their algebra by identity and
    OqElement its rank; sums of different types never compare equal,
    whatever their terms."""
    A, B = UqAlgebra(2), UqAlgebra(2)
    assert A.E(1) == A.E(1) and A.E(1) != B.E(1)
    assert coproduct(A.E(1)) == coproduct(A.E(1)) and coproduct(A.E(1)) != coproduct(B.E(1))
    assert oq_u(1, 1, 1) != oq_u(2, 1, 1)
    f = FreeElement.monomial(())  # the same terms as each sum it is compared with
    assert f.terms == oq_unit(1).terms == UqElement(A, {(): ONE}).terms
    assert f != UqElement(A, {(): ONE}) and UqElement(A, {(): ONE}) != f
    assert f != oq_unit(1) and oq_unit(1) != f


def test_acc_stores_adds_and_prunes():
    d = {}
    _acc(d, "a", ZERO)  # a zero coefficient is a no-op
    assert d == {}
    _acc(d, "a", NU)  # a new key stores the coefficient itself
    assert d == {"a": NU} and d["a"] is NU
    _acc(d, "a", QINV)
    assert d == {"a": Q}
    _acc(d, "a", ZERO)
    assert d == {"a": Q}
    _acc(d, "b", ONE)
    _acc(d, "a", -Q)  # a sum that cancels pops the key
    assert d == {"b": ONE}
    _acc(d, "b", -ONE)
    assert d == {}
    _acc(d, "a", NU - NU)  # a zero that is not the shared ZERO is a no-op too
    assert d == {}
    rng = random.Random(11)
    want = {}
    for _ in range(500):
        k, c = rng.randrange(4), rng.choice((ZERO, ONE, -ONE, Q, -Q, NU, -NU, Q - Q))
        _acc(d, k, c)
        want[k] = want.get(k, ZERO) + c
        assert all(d.values())  # no ZERO-valued entry is ever left
        assert d == {k: c for k, c in want.items() if c}


def test_find_redex_returns_the_first_window_with_its_own_tail():
    """The redex search against a scan of every window, shortest lead first,
    then leftmost: the same position and length, and the tail installed for
    that very window.  The first system is installed by hand, with no
    reduction, the second is the rank-3 Serre system."""

    def check(gb):
        for k in range(7):
            for w in product(range(3), repeat=k):
                want = next(((p, L) for L in gb._lengths for p in range(k - L + 1) if w[p : p + L] in gb.rules), None)
                hit = gb._find_redex(w)
                if want is None:
                    assert hit is None, w
                else:
                    p, L = want
                    assert hit[:2] == want and hit[2] is gb.rules[w[p : p + L]], w

    gb = TruncatedGB(_simple_alphabet(3))
    for i, lead in enumerate([(1, 0), (2, 2, 1), (2, 1, 1), (0, 2, 2, 0)]):
        gb.rules[lead] = FreeElement.monomial(sorted(lead), qpow(i))
        gb._index(lead)
    check(gb)
    check(_serre_system(3))


class _ProductBuiltGB(TruncatedGB):
    """Oracle: extend_to with each overlap difference built as products by
    monomials, rules[la] * s - p * rules[lb], multiplying every coefficient
    by 1."""

    def extend_to(self, dmax: int):
        while self._pending and self._pending[0][0] <= dmax:
            _deg, la, lb, word = heapq.heappop(self._pending)
            diff = _overlap_residue(self, word, la, lb)
            if diff:
                self._insert(diff)
        self.valid_degree = max(self.valid_degree, dmax)


@pytest.mark.parametrize("n", [3, 4])
def test_overlap_difference_by_concatenation_matches_products(n):
    """The overlap differences built by concatenating words with the tails
    complete every exterior of the rank-n survey (each class with a coideal
    verdict, degree by degree as exterior_dims extends it) to the same rules,
    in the same order, as the product-built ones."""
    A, cases = UqAlgebra(n), 0
    for rep in commutation_classes(n).reps:
        t = C.tangent_from_word(A, rep)
        if C.coideal_check(t).verdict == "neither":
            continue
        rel = C.quadratic_relations(t)
        gb, oracle = (cls(rel.alphabet) for cls in (TruncatedGB, _ProductBuiltGB))
        for r in rel.all_relations():
            gb._insert(r)
            oracle._insert(r)
        for k in range(t.dim + 2):
            gb.extend_to(k)
            oracle.extend_to(k)
            assert list(gb.rules.items()) == list(oracle.rules.items()), rep
            if gb.settled:
                break
        assert oracle.settled == gb.settled
        cases += 1
    assert cases == {3: 8, 4: 26}[n]
