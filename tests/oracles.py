"""Independent constructions that the tests compare the library against.

The library builds its root vectors as minimal-pair q-commutators inside U+,
takes coproducts from q-shuffles, decides equality in O_q by FRT normal forms
and never specialises q.  The constructions here follow the paper's
definitions instead, each from its formula:

* Lusztig's braid operators T_i on U_q(sl(n+1)), extended multiplicatively:

      T_i(E_i) = -F_i K_i,  T_i(F_i) = -K_i^{-1} E_i,  T_i(K_j) = K_j K_i^{-a_ij},
      T_{k+-1}(E_k) = -[E_{k+-1}, E_k]_{q^{-1}},
      T_{k+-1}(F_k) = -[F_k, F_{k+-1}]_q,

  fixing generators with distant indices, so that the root vectors of a
  reduced word are X_k = T_{i_1} ... T_{i_{k-1}}(E_{i_k});
* the iterated commutators E_ji and the adjoint action;
* the counit and the product of U_q (x) U_q, with which the Hopf axioms of
  the coproduct are checked;
* the coideal check against one global span of span(T) + C1, regrouping
  every root vector's q-shuffle states on each call;
* the generic completion, whose bookkeeping re-derives each fixed fact:
  every install is reduced and queues all of its overlaps at once, leads
  are found by their precedence tuples (the precedence its own, the
  library's by default), the lead lengths are recomputed and each popped
  overlap re-reads its letter pairs' rules; and
  the renaming of letter g to d-1-g, under which the library's one order
  is the reversed precedence;
* the Frobenius pairing with every product of complementary-degree normal
  words reduced;
* every reduced word of the longest element, by peeling right descents,
  and their number by the hook length formula;
* the right action of u[a,b] on the cotangent basis, through the pairing;
* the FRT relations of O_q, as products of u-generators, and its
  functional equality test;
* the antiholomorphic kernel on the free span of u-words, its functionally
  zero subspace folded out;
* evaluation of a Q(q) value at a rational point;
* the scalar [2]_q, the unit and generators of O_q, built from their terms.
"""

from __future__ import annotations

import heapq
import math
from fractions import Fraction
from functools import reduce
from itertools import product
from operator import mul

from qflag.calculus import (
    _FROBENIUS_MAX_PRODUCTS,
    CoidealReport,
    CoidealWitness,
    FrobeniusReport,
    TangentSpace,
    quadratic_relations,
    tangent_from_exprs,
    tangent_from_word,
)
from qflag.freealg import Alphabet, FreeElement, Span, TruncatedGB, _acc, annihilator, complete_truncated, rank
from qflag.oq import OqElement, _normal_coords, left_act, pair
from qflag.scalars import NU, ONE, Q, QINV, RatQ, ZERO, qpow
from qflag.uqsl import TensorSquare, UqAlgebra, UqElement, _cartan, _mono_str, qcomm

# -- scalars and generators -------------------------------------------------------

TWO_Q = Q + QINV  # [2]_q


def oq_unit(n: int) -> OqElement:
    """The unit of O_q at rank n."""
    return OqElement(n, {(): ONE})


def oq_u(n: int, a: int, b: int) -> OqElement:
    """The generator u[a,b] of O_q at rank n."""
    return OqElement(n, {((a, b),): ONE})


# -- tangent members as elements ------------------------------------------------


def tangent_basis(t: TangentSpace) -> list[UqElement]:
    """The members of a tangent space as U+ elements, in its order."""
    return [t.algebra.eword_element(x) for x in t.coords]


def root_vectors(algebra: UqAlgebra, word) -> list[UqElement]:
    """The normalized Lusztig root vectors of a reduced word of the longest
    element as U+ elements, in its convex order."""
    return tangent_basis(tangent_from_word(algebra, word))


# -- braid operators, commutators, adjoint action -----------------------------


def braid_gen(A: UqAlgebra, i: int, kind: str, l: int, exp: int = 1) -> UqElement:
    """T_i of one generator (K_l^exp for kind "K")."""
    if kind == "K":
        return A.K(l, exp) * A.K(i, -exp * _cartan(i, l))
    if kind == "E":
        if l == i:
            return -(A.F(i) * A.K(i))
        if abs(l - i) == 1:
            return -qcomm(A.E(i), A.E(l), QINV)
        return A.E(l)
    if kind == "F":
        if l == i:
            return -(A.K(i, -1) * A.E(i))
        if abs(l - i) == 1:
            return -qcomm(A.F(l), A.F(i), Q)
        return A.F(l)
    raise ValueError(kind)


def braid_T(i: int, x: UqElement) -> UqElement:
    """Lusztig's braid automorphism T_i, extended multiplicatively."""
    A = x.algebra
    A._check_index(i)
    out: dict = {}
    for (f, kv, e), c in x.terms.items():
        images = [braid_gen(A, i, "F", l) for l in f]
        images += [braid_gen(A, i, "K", a + 1, v) for a, v in enumerate(kv) if v]
        images += [braid_gen(A, i, "E", l) for l in e]
        acc = reduce(mul, images) if images else A.one()
        for m, cc in acc.terms.items():
            _acc(out, m, c * cc)
    return UqElement(A, out)


def build_Eji(A: UqAlgebra, i: int, j: int) -> UqElement:
    """Iterated q^{-1}-commutator [E_{j-1}, [E_{j-2}, ... [E_{i+1}, E_i]...]]."""
    if not 1 <= i < j <= A.n + 1:
        raise ValueError(f"need 1 <= i < j <= {A.n + 1}, got ({i}, {j})")
    out = A.E(i)
    for a in range(i + 1, j):
        out = qcomm(A.E(a), out, QINV)
    return out


def adjoint(A: UqAlgebra, gen, x: UqElement, side: str = "right") -> UqElement:
    """Adjoint action of a generator token ('E', i) | ('F', i) | ('K', i, exp).

    Right: ad(Y)(X) = S(Y_(1)) X Y_(2); left: ad_L(Y)(X) = Y_(1) X S(Y_(2)).
    """
    kind, i = gen[0], gen[1]
    exp = gen[2] if len(gen) > 2 else 1
    if kind == "K":
        k, kinv = A.K(i, exp), A.K(i, -exp)
        return (kinv * x * k) if side == "right" else (k * x * kinv)
    if kind == "E":
        e, k, kinv = A.E(i), A.K(i), A.K(i, -1)
        if side == "right":
            return -(e * kinv * x * k) + x * e
        return e * x * kinv - x * e * kinv
    if kind == "F":
        f, k, kinv = A.F(i), A.K(i), A.K(i, -1)
        if side == "right":
            return -(k * f * x) + k * x * f
        return f * x - kinv * x * k * f
    raise ValueError(f"unknown generator token {gen!r}")


# -- counit and the product of U_q (x) U_q ------------------------------------


def counit_mono(m) -> RatQ:
    f, _, e = m
    return ONE if not f and not e else ZERO


def counit(x: UqElement) -> RatQ:
    return sum((c for m, c in x.terms.items() if counit_mono(m)), ZERO)


def from_pairs(A: UqAlgebra, pairs) -> TensorSquare:
    """sum of left (x) right over the (left, right) pairs."""
    out: dict = {}
    for left, right in pairs:
        for m1, c1 in left.terms.items():
            for m2, c2 in right.terms.items():
                _acc(out, (m1, m2), c1 * c2)
    return TensorSquare(A, out)


def tensor_mul(s: TensorSquare, t: TensorSquare) -> TensorSquare:
    """(a1 (x) b1)(a2 (x) b2) = a1 a2 (x) b1 b2, extended bilinearly."""
    A = s.algebra
    out: dict = {}
    for (a1, b1), c1 in s.terms.items():
        for (a2, b2), c2 in t.terms.items():
            c12 = c1 * c2
            for ma, ca in A.mono_mul(a1, a2).items():
                for mb, cb in A.mono_mul(b1, b2).items():
                    _acc(out, (ma, mb), c12 * ca * cb)
    return TensorSquare(A, out)


def apply_counit(t: TensorSquare, leg: int) -> UqElement:
    """(eps (x) id)(t) for leg 0, (id (x) eps)(t) for leg 1."""
    out: dict = {}
    for legs, c in t.terms.items():
        if counit_mono(legs[leg]):
            _acc(out, legs[1 - leg], c)
    return UqElement(t.algebra, out)


# -- coideal check ------------------------------------------------------------


def coideal_check(t: TangentSpace) -> CoidealReport:
    """Decide on which sides span(T) + C1 is a coideal of the full-flag
    dual, on the q-shuffle states (left, right) of Delta(X), right leg
    K^{wt left} right (`UqAlgebra.eword_coproduct`).  K factors are erased
    in the tested leg (restriction to the flag subalgebra sends K_i to the
    counit); the other leg only groups terms."""
    alg = t.algebra
    zero = (0,) * alg.n
    member = Span()
    member.add({(): ONE})
    for x in tangent_basis(t):
        member.add(x.eword_coords())

    witnesses: dict[str, CoidealWitness] = {}
    for x, label in zip(tangent_basis(t), t.labels):
        if len(witnesses) == 2:  # later witnesses would never be reported
            break
        right_groups, left_groups = {}, {}
        for (left, right), c in alg.eword_coproduct(x.eword_coords()).items():
            right_groups.setdefault(((), alg.word_weight(left), right), {})[left] = c
            left_groups.setdefault(((), zero, left), {})[right] = c
        for side, groups in (("right", right_groups), ("left", left_groups)):
            if side in witnesses:
                continue
            for key, vec in sorted(groups.items()):
                residue = member.reduce(vec)
                if residue:
                    witnesses[side] = CoidealWitness(
                        basis_label=label,
                        group_monomial=_mono_str(key, alg.n),
                        residue=alg.eword_element(residue).render(),
                    )
                    break
    sides = tuple(sorted(witnesses))
    verdict = {(): "two_sided", ("right",): "left_only", ("left",): "right_only"}.get(sides, "neither")
    return CoidealReport(verdict, witnesses)


# -- generic completion ---------------------------------------------------------


class GenericGB(TruncatedGB):
    """TruncatedGB with the bookkeeping that reads the rules afresh each
    time: an install queues every overlap of its lead with a live lead
    (self-overlaps once from each side) with no listing pass and no filter,
    `_orient` reduces every element and divides by any lead coefficient,
    the lead is the word with the largest (length, precedence tuple),
    `_index` recomputes the lead lengths, and `_commuting_overlap` looks up
    the three letter pairs' rules of each popped overlap (the swap-triangle
    criterion alone).  `precedence[g]` is the rank of letter g (higher is
    bigger), the identity by default, which is the library's order."""

    def __init__(self, *args, precedence=None):
        super().__init__(*args)
        self.precedence = precedence or tuple(range(self.alphabet.size))

    def _index(self, lead):
        for t in range(1, len(lead)):
            self._prefixes.setdefault(lead[:t], set()).add(lead)
            self._suffixes.setdefault(lead[-t:], set()).add(lead)
        self._lengths = sorted({len(w) for w in self.rules})

    def _push_overlaps(self, lead):
        for t in range(1, len(lead)):
            pairs = [(lead, other) for other in self._prefixes.get(lead[-t:], ())]
            pairs += [(other, lead) for other in self._suffixes.get(lead[:t], ())]
            for la, lb in pairs:
                w = la + lb[t:]
                heapq.heappush(self._pending, (len(w), la, lb, w))

    def _orient(self, elem):
        elem = self.reduce(elem)
        if not elem:
            return None
        prec = self.precedence
        lead = max(elem.terms, key=lambda w: (len(w), tuple(prec[g] for g in w)))
        lc = elem.terms[lead]
        tail = {w: -(c / lc) for w, c in elem.terms.items() if w != lead}
        self.rules[lead] = elem._like({w: ONE if c == ONE else c for w, c in tail.items()})
        self._index(lead)
        return lead

    def _commuting_overlap(self, word):
        if len(word) != 3:
            return False
        rules = self.rules
        for x, y in ((word[0], word[1]), (word[1], word[2]), (word[0], word[2])):
            lead, other = ((x, y), (y, x)) if (x, y) in rules else ((y, x), (x, y))
            tail = rules.get(lead)
            if tail is None or list(tail.terms) != ([] if x == y else [other]) or (x != y and other in rules):
                return False
        return True


def reversed_letters(rels: list[FreeElement], alphabet: Alphabet) -> tuple[list[FreeElement], Alphabet]:
    """rels and alphabet with letter g renamed d-1-g, d the alphabet size,
    labels and weights following their letters: the library's order on the
    new letters is the reversed precedence on the old."""
    d = alphabet.size
    flip = lambda r: FreeElement({tuple(d - 1 - g for g in w): c for w, c in r.terms.items()})
    return [flip(r) for r in rels], Alphabet(alphabet.labels[::-1], alphabet.weights[::-1])


# -- Frobenius pairing -------------------------------------------------------------


def frobenius_report(t: TangentSpace) -> FrobeniusReport:
    """The Frobenius/Nakayama report with every product u v of
    complementary-degree normal words reduced, each degree's normal words
    enumerated afresh; its cap counts all those products."""
    d = t.dim
    rel = quadratic_relations(t)
    # one completion to d + 1 serves the pairing: no word of length <= top meets a longer lead
    gb = complete_truncated(rel.all_relations(), d + 1, rel.alphabet)
    dims = gb.normal_counts(d + 1)
    nonzero = [k for k, x in enumerate(dims) if x]
    if dims[-1] != 0:
        return FrobeniusReport(len(dims) - 1, dims[-1], {}, {}, note="dimensions do not vanish")
    top = max(nonzero)
    products = sum(dims[k] * dims[top - k] for k in range(top + 1))
    if products > _FROBENIUS_MAX_PRODUCTS:
        raise ValueError(
            f"frobenius pairing would reduce {products} products (at most {_FROBENIUS_MAX_PRODUCTS})"
        )
    report = FrobeniusReport(top, dims[top], {}, {})
    if dims[top] != 1:
        return report._replace(note="top dimension is not one; Nakayama data skipped")
    topword = gb.normal_words(top)[0]

    def top_coeff(elem: FreeElement) -> RatQ:
        out = gb.reduce(elem)
        if not out:
            return ZERO
        assert set(out.terms) == {topword}
        return out.terms[topword]

    # pairing nondegeneracy per complementary degree pair
    for k in range(top + 1):
        rows_k = gb.normal_words(k)
        rows_c = gb.normal_words(top - k)
        if len(rows_k) != len(rows_c):
            report.pairing_nondegenerate[k] = False
            continue
        mat = []
        for u in rows_k:
            mat.append(
                {
                    v: c
                    for v in rows_c
                    if (c := top_coeff(FreeElement.monomial(u + v)))
                }
            )
        report.pairing_nondegenerate[k] = rank(mat) == len(rows_k)
    # Nakayama sign on each generator
    for g in range(d):
        others = tuple(x for x in range(d) if x != g)
        c1 = top_coeff(FreeElement.monomial((g,) + others))
        c2 = top_coeff(FreeElement.monomial(others + (g,)))
        if not c1 or not c2:
            report = report._replace(note="generator pairs trivially with its complement")
            continue
        ratio = c1 / c2
        report.nakayama_sign[t.labels[g]] = 1 if ratio == ONE else (-1 if ratio == -ONE else 0)
    return report


# -- reduced words ------------------------------------------------------------


def reduced_words(n: int) -> list[tuple[int, ...]]:
    """All reduced words of the longest element, by peeling right descents."""
    out = []
    word = []

    def rec(perm):
        at_identity = True
        for i in range(1, n + 1):
            if perm[i - 1] > perm[i]:
                at_identity = False
                nxt = list(perm)
                nxt[i - 1], nxt[i] = nxt[i], nxt[i - 1]
                word.append(i)
                rec(tuple(nxt))
                word.pop()
        if at_identity:
            out.append(tuple(reversed(word)))

    rec(tuple(range(n + 1, 0, -1)))
    return out


def reduced_word_count(n: int) -> int:
    """Hook length formula on the staircase shape (n, n-1, ..., 1)."""
    shape = list(range(n, 0, -1))
    total = n * (n + 1) // 2
    hooks = 1
    for r, row in enumerate(shape):
        for c in range(row):
            arm = row - c - 1
            leg = sum(1 for rr in range(r + 1, len(shape)) if shape[rr] > c)
            hooks *= arm + leg + 1
    return math.factorial(total) // hooks


# -- the coordinate-algebra side ----------------------------------------------


def cotangent_action(t, a: int, b: int) -> list[list[RatQ]]:
    """Matrix of the right action of u[a,b] on the cotangent basis of a
    root-labelled tangent space t: column gamma lists the coordinates
    <X_m, u_gamma u_ab> over the basis order."""
    if t.roots is None:
        raise ValueError("cotangent_action needs a root-labelled tangent space")
    return [[pair(x, ((r.j, r.i), (a, b))) for x in tangent_basis(t)] for r in t.roots]


def homogeneous_length(e: OqElement) -> int:
    ls = {len(w) for w in e.terms}
    if len(ls) != 1:
        raise ValueError(f"element mixes word lengths {sorted(ls)}")
    return ls.pop()


def frt_relations(n: int) -> list[OqElement]:
    """The FRT relation instances (lhs - rhs, length 2) of the coordinate
    algebra, one element per index pattern, in the order `oq._frt_system`
    writes their rules; all are functionally zero."""
    out = []
    u = lambda a, b: oq_u(n, a, b)
    for i in range(1, n + 2):
        for ip in range(i + 1, n + 2):
            for j in range(1, n + 2):
                # same column: u_ij u_i'j = q u_i'j u_ij
                out.append(u(i, j) * u(ip, j) - u(ip, j) * u(i, j) * qpow(1))
        for j in range(1, n + 2):
            for jp in range(j + 1, n + 2):
                # same row: u_ij u_ij' = q u_ij' u_ij
                out.append(u(i, j) * u(i, jp) - u(i, jp) * u(i, j) * qpow(1))
    for i in range(1, n + 2):
        for ip in range(i + 1, n + 2):
            for j in range(1, n + 2):
                for jp in range(j + 1, n + 2):
                    # antidiagonal pairs commute
                    out.append(u(i, jp) * u(ip, j) - u(ip, j) * u(i, jp))
                    # diagonal pairs: u_ij u_i'j' = u_i'j' u_ij + nu u_ij' u_i'j
                    out.append(u(i, j) * u(ip, jp) - u(ip, jp) * u(i, j) - u(i, jp) * u(ip, j) * NU)
    return out


def functional_is_zero(e: OqElement, k: int) -> bool:
    """True iff e (length-k homogeneous) kills every rho_k image, i.e. lies
    in the degree-k part of the FRT ideal."""
    if not e:
        return True
    if homogeneous_length(e) != k:
        raise ValueError("length mismatch")
    return not _normal_coords(e)


def u_words(n: int, k: int) -> list[tuple]:
    """All (n+1)^(2k) u-words of length k, in lexicographic order."""
    return list(product([(a, b) for a in range(1, n + 2) for b in range(1, n + 2)], repeat=k))


def dbar_kernel(span_words, t) -> tuple[int, list[OqElement]]:
    """Joint kernel of the left actions of all basis vectors of the tangent
    space t on the span of the given words, modulo functional equality in
    O_q: (dimension, basis of representatives).  The dimension is taken in
    the quotient of the span by its functionally-zero subspace."""
    n = t.n
    words = list(dict.fromkeys(tuple(tuple(p) for p in w) for w in span_words))
    if not words:
        return 0, []
    k = len(words[0])
    if any(len(w) != k for w in words):
        raise ValueError("span words must share one length")

    def zero_conditions(images: list[OqElement]) -> list[dict]:
        """Rows of the system <condition matrix> . x = 0 over word indices,
        one per normal word of the FRT system."""
        rows: dict = {}
        for j, img in enumerate(images):
            for w, c in _normal_coords(img).items():
                rows.setdefault(w, {})[j] = c
        return list(rows.values())

    basis_elems = [OqElement(n, {w: ONE}) for w in words]
    conditions: list[dict] = []
    for x in tangent_basis(t):
        conditions.extend(zero_conditions([left_act(x, e) for e in basis_elems]))
    solutions = annihilator(conditions, list(range(len(words))))
    # fold out the functionally-zero subspace of the input span
    null_basis = annihilator(zero_conditions(basis_elems), list(range(len(words))))
    ext = Span()
    for v in null_basis:
        ext.add(dict(v))
    reps = []
    for v in solutions:
        if ext.add(dict(v)):
            reps.append(OqElement(n, {words[j]: c for j, c in v.items()}))
    return len(reps), reps


def simple_root_kernel(n: int, k: int) -> tuple[int, list[str]]:
    """`dbar_kernel` of E_1, ..., E_n on all length-k u-words at rank n, with
    its basis rendered: what `qflag dbar-kernel` printed before it worked on
    the ordered u-words alone."""
    A = UqAlgebra(n)
    dim, basis = dbar_kernel(u_words(n, k), tangent_from_exprs(A, [A.E(i) for i in range(1, n + 1)]))
    return dim, [b.render() for b in basis]


# -- Q(q) at rational points --------------------------------------------------


def _peval(a, x: Fraction) -> Fraction:
    acc = Fraction(0)
    for c in reversed(a):
        acc = acc * x + c
    return acc


def evaluate(a: RatQ, x) -> Fraction:
    """Exact value of a at the rational point q = x; error at a pole."""
    x = Fraction(x)
    d = _peval(a.den, x)
    if d == 0:
        raise ZeroDivisionError(f"evaluation at a pole of the denominator: q = {x}")
    return _peval(a.num, x) / d
