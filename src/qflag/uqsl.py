"""Exact arithmetic in the quantized enveloping algebra of sl(n+1).

Generators E_i, F_i, K_i^{+-1} (i = 1..n) with the standard relations

    K_i E_j = q^{a_ij} E_j K_i,   K_i F_j = q^{-a_ij} F_j K_i,
    E_i F_j - F_j E_i = delta_ij (K_i - K_i^{-1}) / (q - q^{-1}),

quantum Serre relations on the E's and on the F's, coproduct
Delta(E_i) = E_i x K_i + 1 x E_i, Delta(F_i) = F_i x 1 + K_i^{-1} x F_i,
Delta(K_i) = K_i x K_i, counit eps(E_i) = eps(F_i) = 0, eps(K_i) = 1, and
antipode S(E_i) = -E_i K_i^{-1}, S(F_i) = -K_i F_i, S(K_i) = K_i^{-1}.

Every element is held in triangular normal form: a sparse sum of monomials
(F-word, K-exponent vector, E-word), the E- and F-words reduced modulo U+'s
Serre rewriting system under deg-lex order, one system per rank written
in closed form, each degree's rules installed when a word of that degree
first needs them (`_serre_system`).  With [x, y]_c = xy - c yx and X(a, b) =
[E_a, [E_{a-1}, ... [E_{b+1}, E_b]_{q^-1} ...]_{q^-1}]_{q^-1}, the root vector
of the descending run D(a, b) = a a-1 ... b, its rules are [E_i, E_j] for
i > j + 1, [X(a, a-1), E_{a-1}]_q, [X(a, b), E_{a-1}] for a - b >= 2, and
[X(a, b), X(a, b-1)]_q for a >= b >= 2, with leads (i, j), D(a, b) (a-1) and
D(a, b) D(a, b-1): 2, 7, 15, 26 and 40 rules at ranks 2-6 (Bokut-Malcolmson,
Groebner-Shirshov bases for quantum enveloping algebras, Israel J. Math.
1996; Leclerc 2004, below, for the good Lyndon words).  It equals the
completion of the Serre relations at ranks 1-5, and every overlap of its
leads resolves at ranks 1-6 (diamond lemma; tests/serre_certificate.py).
Equality of elements is literal equality of this canonical form.  In the
positive part U+ (E-words only) a product is the Serre normal form of the
concatenation, so `UqAlgebra.eword_mul` multiplies U+ elements on their
E-word coordinates; products involving F or K go through the triangular
straightening.

The root vectors of a reduced word i_1 ... i_N of the longest element are
X_k = T_{i_1} ... T_{i_{k-1}}(E_{i_k}) in U+, of weight beta_k, with T_i
Lusztig's braid operators, rescaled so the deg-lex-leading monomial has
coefficient one (tests/oracles.py builds the T_i, and the tests check the
root vectors of every class at ranks 2-4 against them).  `_root_vectors`
builds their E-word coordinates in height order: E_i for beta_k = alpha_i,
else from a minimal pair a < k < b, beta_a + beta_b = beta_k, one with no
other such pair c, d nested as a < c < k < d < b.  By
Levendorskii-Soibelman convexity, X_a X_b - q^{-1} X_b X_a lies in the span
of ordered monomials in X_{a+1}, ..., X_{b-1}; for a minimal pair it is a
nonzero multiple of X_k (Leclerc, Dual canonical bases, quantum shuffles
and q-characters, 2004; McNamara, KLR algebras of finite type, 2015).  The
pair of least width b - a (ties to the smaller a) is minimal, since a nested
pair would be narrower.  X_k is a function of X_a and X_b alone, so a
`UqAlgebra` memoises X_k's coordinates and `eword_id` under the eword_ids
of X_a and X_b (`_root_memo`): words sharing a sub-pattern share its root
vectors.  The anti-automorphism sigma of U+ fixing each E_i (the Serre
relations are palindromic) maps X_k onto a nonzero multiple of X'_{N+1-k},
the root vector of the mirror word (i_N*, ..., i_1*), i* = n+1-i (proof in
`calculus.survey_rows`).

The coproduct of an E-word is the q-shuffle expansion of the product of its
letters' Delta(E_i) = E_i x K_i + 1 x E_i, a sum over the subsets S of its
positions of w_S (x) K^{wt(S)} w_{S^c} times a power of q; that of an F-word,
from Delta(F_i) = F_i x 1 + K_i^{-1} x F_i, is a sum of w_S K^{-wt(S^c)} (x)
w_{S^c}.  So Delta(f K^v e) = Delta(f) (K^v x K^v) Delta(e) is a sum of
f_S K^{v - wt(f_{S^c})} e_T (x) f_{S^c} K^{v + wt(e_T)} e_{T^c}, both legs
normal-ordered with no product taken.  A `UqAlgebra` memoises Serre normal
forms, E-times-F straightenings, root vectors per id (`_root_memo`), small
int ids of E-word coordinates (`_eword_ids`, see `eword_id`), and, keyed by
those ids, the coideal groups of each U+ element's coproduct and their
residues of `calculus.coideal_check` (`_coideal_memo`, `_residue_memo`) and
the degree-two relation blocks of `calculus.quadratic_relations`
(`_relation_memo`), all as plain tuples, dicts, ints and Q(q) scalars, never
elements, which would point back at the algebra.
"""

from __future__ import annotations

from functools import reduce

from qflag import weyl
from qflag.freealg import Alphabet, FreeElement, TruncatedGB, _acc, _signed_sum, _Sum, _term
from qflag.scalars import NU, ONE, Q, QINV, RatQ, qpow

Mono = tuple  # (fword, kvec, eword)


def _cartan(i: int, j: int) -> int:
    if i == j:
        return 2
    return -1 if abs(i - j) == 1 else 0


class _SerreSystem(TruncatedGB):
    """U+'s Serre system at rank n, letter g for E_{g+1}: the four families
    in degree order, each reduced by the rules before it and oriented once
    `install` asks for its degree.  A rule reads only rules of its degree or
    lower, and a word of degree d meets only leads of length <= d, so up to
    `valid_degree` the system answers as the full one, and above it refuses
    a count until `settled` (every rule installed); every reader installs
    the degree it reads first.  No tail meets a later lead (the certificate
    checks it), so the rules are already fully reduced."""

    def __init__(self, n: int):
        super().__init__(Alphabet(tuple(f"x{i}" for i in range(1, n + 1)),
                                  tuple(tuple(int(a == i) for a in range(n)) for i in range(n))))
        E = lambda a: FreeElement.monomial((a - 1,))
        X = lambda a, b: reduce(lambda x, m: qcomm(E(m), x, QINV), range(b + 1, a + 1), E(b))
        # (degree, function building it), each family in loop order, stably sorted by degree
        rels = [(2, lambda i=i, j=j: qcomm(E(i), E(j), ONE)) for i in range(3, n + 1) for j in range(1, i - 1)]
        rels += [(a - b + 2, lambda a=a, b=b: qcomm(X(a, b), E(a - 1), Q if a - b == 1 else ONE))
                 for a in range(2, n + 1) for b in range(1, a)]
        rels += [(2 * (a - b) + 3, lambda a=a, b=b: qcomm(X(a, b), X(a, b - 1), Q))
                 for a in range(2, n + 1) for b in range(2, a + 1)]
        self._todo = sorted(rels, key=lambda r: r[0])[::-1]  # popped from the end

    @property
    def settled(self) -> bool:
        """Every rule installed: complete in every degree (the certificate)."""
        return not self._todo

    def install(self, d: int | None = None):
        """Install every rule of degree <= d (valid_degree d), or every rule when d is None."""
        todo = self._todo
        while todo and (d is None or todo[-1][0] <= d):
            self._orient(todo.pop()[1]())
        if d is not None:
            self.valid_degree = max(self.valid_degree, d)


_SERRE: dict[int, _SerreSystem] = {}  # rank -> its Serre system, extended in place


def _serre_system(n: int, degree: int | None = None) -> _SerreSystem:
    """The rank's Serre system with every rule of degree <= degree installed
    (every rule when degree is None)."""
    gb = _SERRE.get(n) or _SERRE.setdefault(n, _SerreSystem(n))
    if degree is None or degree > gb.valid_degree:
        gb.install(degree)
    return gb


class UqAlgebra:
    """Rank-n context: straightening caches over the rank's Serre system."""

    def __init__(self, n: int):
        weyl.check_rank(n)
        self.n = n
        self._word_nf_cache: dict[tuple, tuple] = {}
        self._straighten_cache: dict[tuple, dict] = {}
        # eword_id of a U+ element -> the (key, weight, id, vector) groups of
        # each side of calculus.coideal_check
        self._coideal_memo: dict[int, tuple] = {}
        # (group id, ids of the tangent members of its weight) -> its residue
        self._residue_memo: dict[tuple, dict] = {}
        # eword_ids of a minimal pair -> (its root vector's coordinates, their eword_id)
        self._root_memo: dict[tuple, tuple] = {}
        # frozenset of E-word coordinates -> small int (eword_id)
        self._eword_ids: dict[frozenset, int] = {}
        # (member ids, ordered pair ids) of one weight block of
        # calculus.quadratic_relations -> its relation rows over pair positions
        self._relation_memo: dict[tuple, tuple] = {}

    # -- generators ------------------------------------------------------------

    def one(self) -> "UqElement":
        return UqElement(self, {((), (0,) * self.n, ()): ONE})

    def E(self, i: int) -> "UqElement":
        self._check_index(i)
        return UqElement(self, {((), (0,) * self.n, (i,)): ONE})

    def F(self, i: int) -> "UqElement":
        self._check_index(i)
        return UqElement(self, {((i,), (0,) * self.n, ()): ONE})

    def K(self, i: int, exp: int = 1) -> "UqElement":
        self._check_index(i)
        kv = [0] * self.n
        kv[i - 1] = exp
        return UqElement(self, {((), tuple(kv), ()): ONE})

    def _check_index(self, i: int):
        if not 1 <= i <= self.n:
            raise ValueError(f"generator index {i} out of range 1..{self.n}")

    # -- Serre normal form on single words --------------------------------------

    def word_nf(self, word: tuple) -> tuple[tuple[tuple, RatQ], ...]:
        """Normal form of a word in the letters 1..n (shared by E and F sides),
        as the cached tuple of its (normal word, coefficient) pairs.  A miss
        rewrites the first redex and caches, depth first, every word it meets,
        so no word is reduced twice (the system is confluent)."""
        cache = self._word_nf_cache
        hit = cache.get(word)
        if hit is not None:
            return hit
        gb = _serre_system(self.n, len(word))  # rewriting keeps the length
        stack: list = [(word, None)]  # (word, its rewritten words once expanded)
        while stack:
            w, new = stack.pop()
            if new is not None:
                out: dict = {}
                for v, tc in new:
                    for u, cu in cache[v]:
                        _acc(out, u, cu if tc is ONE else tc if cu is ONE else tc * cu)
                cache[w] = tuple(sorted(out.items()))
            elif w not in cache:
                hit = gb._find_redex(tuple(g - 1 for g in w))
                if hit is None:
                    cache[w] = ((w, ONE),)
                    continue
                p, L, tail = hit
                new = [(w[:p] + tuple(g + 1 for g in tw) + w[p + L :], tc) for tw, tc in tail.terms.items()]
                stack += [(w, new)] + [(v, None) for v, _ in new if v not in cache]
        return cache[word]

    # -- multiplication ----------------------------------------------------------

    def _ad_sum(self, kvec, letters) -> int:
        """sum_{i,l} kvec_i a_{i,letter_l}, the K-past-word commutation
        exponent: letter l contributes 2 k_l - k_{l-1} - k_{l+1}."""
        n, s = self.n, 0
        for l in letters:
            s += 2 * kvec[l - 1]
            if l > 1:
                s -= kvec[l - 2]
            if l < n:
                s -= kvec[l]
        return s

    def _straighten(self, eword: tuple, fword: tuple) -> dict:
        """E-word times F-word as sum of normal-ordered monomials."""
        key = (eword, fword)
        hit = self._straighten_cache.get(key)
        if hit is not None:
            return hit
        out: dict = {}
        if not eword or not fword:
            out[fword, (0,) * self.n, eword] = ONE
        elif len(fword) == 1:
            # head E_i F_j = (head F_j) E_i + delta_ij head (K_i - K_i^{-1}) / nu,
            # the K moved to the front of head
            head, i = eword[:-1], eword[-1]
            for (fp, kv, ew), c in self._straighten(head, fword).items():
                _acc(out, (fp, kv, ew + (i,)), c)
            if i == fword[0]:
                kplus = tuple((1 if a == i - 1 else 0) for a in range(self.n))
                kminus = tuple(-a for a in kplus)
                ph = self._ad_sum(kplus, head)
                _acc(out, ((), kplus, head), qpow(-ph) / NU)
                _acc(out, ((), kminus, head), -(qpow(ph) / NU))
        else:
            frest = fword[1:]
            for (fp, kv, ew), c in self._straighten(eword, fword[:1]).items():
                for (f3, k3, e3), c3 in self._straighten(ew, frest).items():
                    phase = qpow(-self._ad_sum(kv, f3))
                    kt = tuple(a + b for a, b in zip(kv, k3))
                    _acc(out, (fp + f3, kt, e3), c * c3 * phase)
        self._straighten_cache[key] = out
        return out

    def mono_mul(self, m1: Mono, m2: Mono) -> dict:
        """Product of two normal monomials, renormalized."""
        (f1, k1, e1), (f2, k2, e2) = m1, m2
        out: dict = {}
        for (fm, km, em), c in self._straighten(e1, f2).items():
            # f1 K^{k1} fm K^{km} em K^{k2} e2
            ph = -self._ad_sum(k1, fm) - self._ad_sum(k2, em)
            if ph:
                c = c * qpow(ph)
            ktot = tuple(a + b + c2 for a, b, c2 in zip(k1, km, k2))
            enf = self.word_nf(em + e2)
            for fw, cf in self.word_nf(f1 + fm):
                ccf = c * cf
                for ew, ce in enf:
                    _acc(out, (fw, ktot, ew), ccf * ce)
        return out

    def eword_mul(self, a: dict, b: dict) -> dict:
        """Product in U+ on E-word coordinates (as given by eword_coords):
        the sum of c1 c2 times the Serre normal form of each concatenation."""
        out: dict = {}
        for e1, c1 in a.items():
            for e2, c2 in b.items():
                c12 = c2 if c1 is ONE else c1 if c2 is ONE else c1 * c2
                for ew, ce in self.word_nf(e1 + e2):
                    _acc(out, ew, c12 if ce is ONE else c12 * ce)
        return out

    def eword_qcomm(self, a: dict, b: dict, c: RatQ) -> dict:
        """The twisted commutator ab - c ba in U+, on E-word coordinates."""
        out = self.eword_mul(a, b)
        for w, x in self.eword_mul(b, a).items():
            _acc(out, w, -(c * x))
        return out

    def eword_element(self, coords: dict) -> "UqElement":
        """The U+ element with these E-word coordinates (inverts `UqElement.eword_coords`)."""
        return UqElement(self, {((), (0,) * self.n, w): c for w, c in coords.items()})

    def eword_id(self, coords: dict) -> int:
        """Small int naming a U+ element of this algebra by its E-word
        coordinates: equal elements get equal ids."""
        return self._eword_ids.setdefault(frozenset(coords.items()), len(self._eword_ids))

    # -- structure maps -----------------------------------------------------------

    def word_weight(self, word: tuple) -> tuple[int, ...]:
        """Letter counts of a word: the weight of an E-word."""
        return tuple(word.count(i) for i in range(1, self.n + 1))

    def _shuffle(self, word: tuple, sign: int) -> dict:
        """Delta of an E-word (sign -1) or F-word (sign +1) as its q-shuffle
        states (left word, right word) -> coefficient, the legs left (x)
        K^{wt left} right for E and left K^{-wt right} (x) right for F.  Letter
        by letter, l joins the right word, or the left word at the phase
        q^{sign a(l, s)} for each letter s already on the right.  Both words
        stay in Serre normal form, so repeated letters merge."""
        states = {((), ()): ONE}
        for l in word:
            nxt: dict = {}
            for (left, right), c in states.items():
                for w, cw in self.word_nf(right + (l,)):
                    _acc(nxt, (left, w), c if cw is ONE else c * cw)
                ph = sign * sum(_cartan(l, s) for s in right)
                cl = c * qpow(ph) if ph else c
                for w, cw in self.word_nf(left + (l,)):
                    _acc(nxt, (w, right), cl if cw is ONE else cl * cw)
            states = nxt
        return states

    def eword_coproduct(self, coords: dict) -> dict:
        """Delta of a U+ element on E-word coordinates: its words'
        `_shuffle` states summed."""
        out: dict = {}
        for e, c in coords.items():
            for lr, cs in self._shuffle(e, -1).items():
                _acc(out, lr, c * cs)
        return out


class UqElement(_Sum):
    """Sparse linear combination of normal monomials (F-word, K-vec, E-word)."""

    __slots__ = ("algebra",)
    _context = ("algebra",)  # compared by identity: UqAlgebra has no __eq__

    def __init__(self, algebra: UqAlgebra, terms: dict):
        self.algebra = algebra
        self.terms = {m: c for m, c in terms.items() if c}

    def __mul__(self, other):
        if isinstance(other, (RatQ, int)):
            return self.scale(other)
        out: dict = {}
        for m1, c1 in self.terms.items():
            for m2, c2 in other.terms.items():
                c12 = c1 * c2
                for m, c in self.algebra.mono_mul(m1, m2).items():
                    _acc(out, m, c12 * c)
        return self._like(out)

    # -- queries ---------------------------------------------------------------

    def weight(self) -> tuple[int, ...]:
        letters = range(1, self.algebra.n + 1)
        wts = {tuple(e.count(l) - f.count(l) for l in letters) for f, _kv, e in self.terms}
        if len(wts) > 1:
            offenders = sorted(str(_mono_str(m, self.algebra.n)) for m in self.terms)
            raise ValueError(f"element is not weight-homogeneous: monomials {offenders}")
        return wts.pop() if wts else (0,) * self.algebra.n

    def is_positive_part(self) -> bool:
        return all(not f and not any(kv) for (f, kv, _e) in self.terms)

    def eword_coords(self) -> dict:
        """Coordinates over E-words (positive-part elements only)."""
        if not self.is_positive_part():
            raise ValueError("element has F or K factors")
        return {e: c for (_f, _kv, e), c in self.terms.items()}

    def render(self) -> str:
        n = self.algebra.n
        return _signed_sum(
            _term(self.terms[m], _mono_str(m, n)) for m in sorted(self.terms, key=_mono_sort_key)
        )

    def __repr__(self):
        return f"<Uq {self.render()}>"


def _mono_sort_key(m: Mono):
    f, kv, e = m
    return (len(f) + len(e), f, kv, e)


def _mono_str(m: Mono, n: int) -> str:
    f, kv, e = m
    out = []
    out.extend(f"F{l}" for l in f)
    for i, v in enumerate(kv):
        if v == 1:
            out.append(f"K{i + 1}")
        elif v:
            out.append(f"K{i + 1}^{v}")
    out.extend(f"E{l}" for l in e)
    return " ".join(out) if out else "1"


class TensorSquare(_Sum):
    """Element of Uq x Uq: sparse map (monomial, monomial) -> coefficient,
    each leg in canonical form."""

    __slots__ = ("algebra",)
    _context = ("algebra",)

    def __init__(self, algebra: UqAlgebra, terms: dict):
        self.algebra = algebra
        self.terms = {m: c for m, c in terms.items() if c}

    def render(self) -> str:
        """Terms joined by '  +  ', each sign kept with its coefficient."""
        n = self.algebra.n
        return "  +  ".join(
            _term(self.terms[m1, m2], f"{_mono_str(m1, n)} (x) {_mono_str(m2, n)}")
            for m1, m2 in sorted(
                self.terms, key=lambda p: (_mono_sort_key(p[0]), _mono_sort_key(p[1]))
            )
        ) or "0"

    def __repr__(self):
        return f"<Uq^2 {self.render()}>"


# -- public operations ----------------------------------------------------------


def coproduct(x: UqElement) -> TensorSquare:
    """Delta(f K^v e) = Delta(f) (K^v x K^v) Delta(e) on each monomial: each
    F-state (fl, fr) and E-state (el, er) of the q-shuffles gives the term
    fl K^{v - wt fr} el (x) fr K^{v + wt el} er, both legs normal-ordered."""
    alg, out = x.algebra, {}
    for (f, kv, e), c in x.terms.items():
        fstates = [(fl, fr, tuple(k - w for k, w in zip(kv, alg.word_weight(fr))), cf)
                   for (fl, fr), cf in alg._shuffle(f, 1).items()]
        for (el, er), ce in alg._shuffle(e, -1).items():
            kr = tuple(k + w for k, w in zip(kv, alg.word_weight(el)))
            for fl, fr, kl, cf in fstates:
                _acc(out, ((fl, kl, el), (fr, kr, er)), c * (cf * ce))
    return TensorSquare(alg, out)


def qcomm(x, y, c):
    """Twisted commutator [x, y]_c = xy - c yx of two sums of one type (UqElement, FreeElement)."""
    return x * y - (y * x).scale(c)


def _root_vectors(algebra: UqAlgebra, betas: list[weyl.Root]) -> tuple[list[dict], list[int]]:
    """E-word coordinates and eword_ids of the normalized Lusztig root
    vectors of a reduced word of the longest element, given its beta
    sequence, each non-simple one from its least-width minimal pair; entry
    k has weight beta_k.  Memoised in `_root_memo`."""
    pos = {b: k for k, b in enumerate(betas)}
    coords: list = [None] * len(betas)
    ids: list = [None] * len(betas)  # eword_ids
    for k in sorted(range(len(betas)), key=lambda k: betas[k].j - betas[k].i):
        i, j = betas[k]
        if j == i + 1:
            coords[k] = {(i,): ONE}
            ids[k] = algebra.eword_id(coords[k])
            continue
        pairs = (sorted((pos[weyl.Root(i, m)], pos[weyl.Root(m, j)])) for m in range(i + 1, j))
        a, b = min(pairs, key=lambda p: (p[1] - p[0], p[0]))
        key = (ids[a], ids[b])
        hit = algebra._root_memo.get(key)
        if hit is None:
            x = algebra.eword_qcomm(coords[a], coords[b], QINV)
            if not x:
                raise AssertionError(f"root vector {k + 1} ({betas[k]}): its minimal-pair commutator is zero")
            lc = x[max(x)]  # every word has length ht(beta_k), so this is deg-lex leading
            x = {w: c / lc for w, c in x.items()}
            hit = algebra._root_memo[key] = (x, algebra.eword_id(x))
        coords[k], ids[k] = hit
    return coords, ids
