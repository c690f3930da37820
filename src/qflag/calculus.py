"""Tangent spaces spanned by root vectors and the differential calculi they
generate.

The pipeline: a reduced word of the longest element (or an explicit list of
positive-part expressions) spans a candidate tangent space T.  The coideal
test decides on which sides T + C1 is a coideal of the full-flag dual,
modelling restriction to the flag subalgebra by erasing K factors in the
tested tensor leg (K_i acts there as the counit).  The degree-two relations
of the maximal prolongation are computed per weight as the annihilator of
the coefficient tensors c with sum c_kl X_k X_l inside span(T): functionals
on the coordinate algebra vanishing on the classifying ideal are exactly
span(T) + C eps, so this is the exact relation space.  Those tensors are the
kernel of the residue map c -> sum c_kl X_k X_l mod span(T), and the
annihilator of a kernel is the row space of the map, so one RREF of the
residue rows gives the relations.  The products X_k X_l lie in U+, where a
product is the Serre normal form of the concatenation, so they are formed
on E-word coordinates (`UqAlgebra.eword_mul`), except in the split-free
blocks of a word's tangent space, whose relations are the q-commutations
and squares in closed form (see `quadratic_relations`).  On top of the
relations sit the graded dimensions (diamond-lemma counting), the
associated-graded leading relations, the Frobenius/Nakayama data, the
line-module weights, the Grassmannian restriction with its ad-closure
check, and the antiholomorphic kernel on the ordered u-words of O_q.
"""

from __future__ import annotations

from itertools import combinations
from math import comb
from typing import NamedTuple

from qflag import weyl
from qflag.freealg import (
    Alphabet,
    DegLex,
    DimensionTable,
    FreeElement,
    Span,
    _acc,
    annihilator,
    complete_truncated,
    rank,
    rref,
)
from qflag.oq import OqElement, _frt_system, _normal_coords, left_act
from qflag.scalars import NU, ONE, RatQ, ZERO, qpow
from qflag.uqsl import UqAlgebra, UqElement, _mono_str, _root_vectors, _serre_system
from qflag.weyl import Root


class TangentSpace(NamedTuple):
    """Ordered basis of weight-homogeneous U+ elements, as E-word coordinates
    and `eword_id`s, tagged with its Weyl word, if any."""

    algebra: UqAlgebra
    weights: list[tuple[int, ...]]
    labels: list[str]
    coords: list[dict]
    ids: list[int]
    roots: list[Root] | None = None  # per-entry root when the weight is a root
    word: tuple[int, ...] | None = None

    @property
    def n(self) -> int:
        return self.algebra.n

    @property
    def dim(self) -> int:
        return len(self.coords)


def _root_label(r: Root) -> str:
    return f"e[{r.j},{r.i}]"


def tangent_from_word(algebra: UqAlgebra, word) -> TangentSpace:
    """Span of the Lusztig root vectors of a reduced word of the longest
    element, ordered by the word's convex order.  They are independent with
    no check: nonzero (_root_vectors refuses a zero one), of distinct weights."""
    word = tuple(word)
    betas = weyl.beta_sequence(word, algebra.n)  # validates the word
    coords, ids = _root_vectors(algebra, betas)
    return TangentSpace(
        algebra=algebra,
        weights=[b.weight(algebra.n) for b in betas],
        labels=[_root_label(b) for b in betas],
        coords=coords,
        ids=ids,
        roots=list(betas),
        word=word,
    )


def tangent_from_exprs(algebra: UqAlgebra, elems) -> TangentSpace:
    """Tangent space from explicit positive-part elements, at least one, none
    of weight 0: a tangent space lies in ker eps, and U+ in weight 0 is C1."""
    basis = list(elems)
    if not basis:
        raise ValueError("tangent basis is empty")
    weights = []
    for x in basis:
        if not isinstance(x, UqElement):
            raise TypeError("tangent_from_exprs expects UqElements")
        if not x.is_positive_part():
            raise ValueError(f"not in the positive part: {x.render()}")
        weights.append(x.weight())  # raises if inhomogeneous
        if x.terms and not any(weights[-1]):
            raise ValueError(f"tangent element {x.render()} has weight 0, so it is a scalar outside ker eps")
    coords = [x.eword_coords() for x in basis]
    sp = Span()
    for x, c in zip(basis, coords):
        if not sp.add(c):
            raise ValueError(f"tangent basis is linearly dependent at {x.render()}")
    n = algebra.n
    roots = [next((r for r in weyl.positive_roots(n) if r.weight(n) == w), None) for w in weights]
    have_roots = all(r is not None for r in roots) and len(set(roots)) == len(roots)
    labels = (
        [_root_label(r) for r in roots]
        if have_roots
        else [f"e{k + 1}" for k in range(len(basis))]
    )
    return TangentSpace(
        algebra=algebra,
        weights=weights,
        labels=labels,
        coords=coords,
        ids=[algebra.eword_id(c) for c in coords],
        roots=list(roots) if have_roots else None,
    )


# -- coideal verdicts ---------------------------------------------------------


class CoidealWitness(NamedTuple):
    basis_label: str
    group_monomial: str
    residue: str

    def as_json_dict(self):
        return {
            "basis_element": self.basis_label,
            "tensor_component": self.group_monomial,
            "residue": self.residue,
        }


class CoidealReport(NamedTuple):
    verdict: str  # two_sided | left_only | right_only | neither
    witnesses: dict[str, CoidealWitness]

    def as_json_dict(self):
        return {
            "verdict": self.verdict,
            "witness": {s: w.as_json_dict() for s, w in self.witnesses.items()},
        }


def coideal_check(t: TangentSpace) -> CoidealReport:
    """Decide on which sides span(T) + C1 is a coideal of the full-flag
    dual, on the q-shuffle states (left, right) of Delta(X), right leg
    K^{wt left} right (`UqAlgebra.eword_coproduct`).  K factors are erased
    in the tested leg (restriction to the flag subalgebra sends K_i to the
    counit); the other leg only groups terms.

    Every group and every row of span(T) + C1 has a single weight.
    Reducing a weight-mu vector meets only pivots of weight mu, and adding
    a row back-eliminates only rows holding its pivot, of its weight; so
    the span of T's members of weight mu, in basis order, has exactly the
    whole span's rows of that weight, and a group's residue against it is
    the same dict.  A weight-0 group passes (U+ in weight 0 is C1).  A
    word's tangent has one member per root weight, so there each block
    test is a proportionality test.  Each element's groups, in sorted key
    order, are memoised under its eword_id (`_coideal_memo`), and each
    residue under (group id, member ids of its weight) (`_residue_memo`)."""
    alg = t.algebra
    zero = (0,) * alg.n
    blocks: dict = {}  # weight -> (member ids, member coordinates)
    for w, i, x in zip(t.weights, t.ids, t.coords):
        mids, xs = blocks.get(w, ((), ()))
        blocks[w] = (mids + (i,), xs + (x,))

    witnesses: dict[str, CoidealWitness] = {}
    for x, i, label in zip(t.coords, t.ids, t.labels):
        if len(witnesses) == 2:  # later witnesses would never be reported
            break
        groups = alg._coideal_memo.get(i)
        if groups is None:
            groups = alg._coideal_memo[i] = _coideal_groups(alg, x)
        for side, side_groups in zip(("right", "left"), groups):
            if side in witnesses:
                continue
            for key, w, gid, vec in side_groups:
                if w == zero:
                    continue
                mids, xs = blocks.get(w, ((), ()))
                residue = alg._residue_memo.get((gid, mids))
                if residue is None:
                    block = Span()
                    for m in xs:
                        block.add(m)
                    residue = alg._residue_memo[gid, mids] = block.reduce(vec)
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


def _coideal_groups(alg: UqAlgebra, x: dict) -> tuple:
    """The right and the left side's groups of Delta(x) as (key, weight,
    eword_id, vector) in sorted key order: left words by right leg, right
    words by left leg."""
    zero = (0,) * alg.n
    right, left = {}, {}
    for (l, r), c in alg.eword_coproduct(x).items():
        right.setdefault(((), alg.word_weight(l), r), {})[l] = c
        left.setdefault(((), zero, l), {})[r] = c
    return tuple(
        tuple((key, alg.word_weight(next(iter(vec))), alg.eword_id(vec), vec) for key, vec in sorted(g.items()))
        for g in (right, left)
    )


# -- quadratic relations -------------------------------------------------------


class RelationSpace(NamedTuple):
    """Per-weight bases of the degree-two relations, over the cotangent
    alphabet dual to the tangent basis."""

    alphabet: Alphabet
    order: DegLex
    by_weight: dict[tuple[int, ...], list[FreeElement]]

    def all_relations(self) -> list[FreeElement]:
        out = []
        for w in sorted(self.by_weight):
            out.extend(self.by_weight[w])
        return out

    def total_dim(self) -> int:
        return sum(len(v) for v in self.by_weight.values())


def cotangent_alphabet(t: TangentSpace) -> Alphabet:
    return Alphabet(tuple(t.labels), tuple(t.weights))


def quadratic_relations(t: TangentSpace) -> RelationSpace:
    """The degree-two ideal of the maximal prolongation: per weight mu, the
    annihilator of C_mu = {c : sum c_kl X_k X_l in span(T)} under the
    pairing matching e_k (x) e_l with X_k X_l.

    C_mu is the kernel of the residue map A_mu sending c to
    sum c_kl X_k X_l reduced modulo span(T_mu), so its annihilator is the
    row space of A_mu: the RREF of the residue rows, one per E-word
    coordinate, over the pairs (k, l).

    A block mu of a word's tangent space (X_1..X_N in convex order) is
    split-free when, for no pair k < l in it, mu is a sum of weights at
    positions k+1..l-1, repeats allowed.  By Levendorskii-Soibelman convexity
    (1991; Jantzen, Lectures on Quantum Groups, 8.24) X_k X_l - q^(b_k,b_l)
    X_l X_k is then 0, a sum of no ordered monomials in X_{k+1}..X_{l-1}; the
    PBW monomials X_k X_l (k <= l) are independent; no member b_m = mu exists
    (it would lie between k and l).  So the rows are e_k e_l + q^-(b_k,b_l)
    e_l e_k (k < l) and e_k e_k, with no product.  Spaces without a word
    (`--tangent`, Grassmann) take the product path in every block.

    A_mu depends only on the members of weight mu and on the ordered pairs
    (X_k, X_l), so each other block's RREF is memoised on the algebra under
    their `eword_id`s, as rows over pair positions (`_relation_memo`);
    classes of a survey share most blocks.

    Blocks are keyed and split-tested on packed weights (`_packed`): the
    entries (>= 0 in U+) big-endian in fields of b + 1 bits, b the bit length
    of twice the largest entry, so int order is tuple order; a guard bit tops
    each field, so w <= r entrywise iff (r | G) - w & G == G (a field with
    w_i > r_i borrows its guard, and no borrow crosses a field)."""
    alg = t.algebra
    d = t.dim
    packed, guard = _packed(t.weights)
    pair_weights: dict[int, list[tuple[int, int]]] = {}
    for k in range(d):
        for l in range(d):
            pair_weights.setdefault(packed[k] + packed[l], []).append((k, l))
    by_weight = {}
    for p, pairs in sorted(pair_weights.items()):
        mu = tuple(a + b for a, b in zip(t.weights[pairs[0][0]], t.weights[pairs[0][1]]))
        if t.word is not None and not any(_splits(p, packed[k + 1 : l], guard) for k, l in pairs if k < l):
            qc = lambda k, l: {(k, l): ONE, (l, k): qpow(-weyl.root_pairing(t.roots[k], t.roots[l]))}
            by_weight[mu] = [FreeElement(qc(k, l) if k < l else {(k, k): ONE}) for k, l in pairs if k <= l]
            continue
        members = [m for m in range(d) if packed[m] == p]
        key = (tuple(t.ids[m] for m in members), tuple((t.ids[k], t.ids[l]) for k, l in pairs))
        rows = alg._relation_memo.get(key)
        if rows is None:
            rows = alg._relation_memo[key] = _relation_block(
                alg, [t.coords[m] for m in members], [(t.coords[k], t.coords[l]) for k, l in pairs]
            )
        if rows:
            by_weight[mu] = [FreeElement({pairs[i]: c for i, c in row}) for row in rows]
    return RelationSpace(cotangent_alphabet(t), DegLex(size=d), by_weight)


def _packed(weights: list[tuple[int, ...]]) -> tuple[list[int], int]:
    """The weights packed for `quadratic_relations`, and the guard mask G."""
    width = (2 * max(map(max, weights))).bit_length() + 1
    pack = lambda w: sum(x << width * f for f, x in enumerate(reversed(w)))
    return [pack(w) for w in weights], pack([1 << width - 1] * len(weights[0]))


def _splits(mu: int, weights: list[int], guard: int, start: int = 0) -> bool:
    """Whether mu is a sum of one or more of weights[start:] (packed, all
    nonzero), repeats allowed; each multiset is tried once, in non-decreasing index."""
    return any(
        (mu | guard) - w & guard == guard and (w == mu or _splits(mu - w, weights, guard, i))
        for i, w in enumerate(weights[start:], start)
    )


def _relation_block(alg: UqAlgebra, members: list[dict], products: list[tuple[dict, dict]]) -> tuple:
    """RREF of the residue rows of one weight block, as rows of
    (position in products, coefficient) pairs sorted by position, so a row
    lists its terms in the same order whatever the memos held before."""
    member = Span()
    for x in members:
        member.add(x)
    residue_rows: dict = {}  # E-word coordinate -> row of A_mu over positions
    for p, (x, y) in enumerate(products):
        for w, c in member.reduce(alg.eword_mul(x, y)).items():
            residue_rows.setdefault(w, {})[p] = c
    rows = rref(list(residue_rows.values()), range(len(products)))
    return tuple(tuple(sorted(row.items())) for row in rows)


def classical_verdict(dims: list[int], d: int) -> bool | None:
    """Whether dims (degrees 0, 1, ...) are the binomials C(d, k) followed by
    zeros; None when they stop before degree d + 1, too early to certify
    either way."""
    if len(dims) < d + 2:
        return None
    return dims[: d + 1] == [comb(d, k) for k in range(d + 1)] and not any(dims[d + 1 :])


def exterior_dims(
    t: TangentSpace, kmax: int | None = None, early_stop: bool = False, reverse_order: bool = False
) -> DimensionTable:
    """Graded dimensions of the quantum exterior algebra (quotient of the
    tensor algebra on the cotangent space by the degree-two relations).
    Degree k counts the normal words of the completion extended to degree k,
    by DP rather than by listing them (TruncatedGB.normal_counts); once the
    completion is settled, one count gives every remaining degree to kmax.

    With early_stop, the table ends at the first degree whose dimension
    differs from the classical binomial (the per-degree loop stops counting
    there); it is marked non-classical and truncated_at records that degree.
    reverse_order completes under the reversed order, giving the same dims.
    """
    d = t.dim
    if kmax is None:
        kmax = d + 1
    rel = quadratic_relations(t)
    order = rel.order.reversed() if reverse_order else rel.order
    gb = complete_truncated(rel.all_relations(), order, 0, rel.alphabet)
    dims = []
    for k in range(kmax + 1):
        gb.extend_to(k)
        if gb.settled:
            dims += gb.normal_counts(kmax)[k:]
            break
        dims.append(gb.normal_counts(k)[k])
        if early_stop and dims[k] != comb(d, k):
            break
    truncated = next((k for k, x in enumerate(dims) if x != comb(d, k)), None) if early_stop else None
    if truncated is not None:
        del dims[truncated + 1 :]
    classical = False if truncated is not None else classical_verdict(dims, d)
    return DimensionTable(dims, classical, truncated)


# -- associated graded ------------------------------------------------------------


def gr_leading_relations(t: TangentSpace) -> RelationSpace:
    """Leading parts of the degree-two relations under the graded
    reverse-lexicographic order on multidegrees over the convex order:
    among equal total degrees, a smaller exponent on a smaller generator
    means a higher class.  (This is the order under which the two-term
    q-commutation part of a nested-pair relation dominates its prime-pair
    term, as the associated-graded presentation requires.)"""
    if t.roots is None:
        raise ValueError("gr_leading_relations needs a root-labelled tangent space")
    rel = quadratic_relations(t)
    d = t.dim

    def word_class(word):
        m = [0] * d
        for g in word:
            m[g] += 1
        return tuple(-x for x in m)

    by_weight = {}
    for mu, rels in rel.by_weight.items():
        classes = sorted(
            {word_class(w) for r in rels for w in r.terms}, reverse=True
        )
        coords = sorted(
            {w for r in rels for w in r.terms},
            key=lambda w: (classes.index(word_class(w)), w),
        )
        rows = rref([dict(r.terms) for r in rels], coords)
        leads = []
        for row in rows:
            top = min(classes.index(word_class(w)) for w in row)
            leads.append(
                FreeElement({w: c for w, c in row.items() if classes.index(word_class(w)) == top})
            )
        lead_coords = sorted({w for l in leads for w in l.terms})
        by_weight[mu] = [
            FreeElement(r) for r in rref([dict(l.terms) for l in leads], lead_coords)
        ]
    return RelationSpace(rel.alphabet, rel.order, by_weight)


# -- Frobenius data ----------------------------------------------------------------


class FrobeniusReport(NamedTuple):
    top_degree: int
    top_dimension: int
    pairing_nondegenerate: dict[int, bool]
    nakayama_sign: dict[str, int]
    note: str | None = None

    def as_json_dict(self):
        return {
            "top_degree": self.top_degree,
            "top_dimension": self.top_dimension,
            "pairing_nondegenerate": {str(k): v for k, v in self.pairing_nondegenerate.items()},
            "nakayama_sign": dict(self.nakayama_sign),
            "note": self.note,
        }


_FROBENIUS_MAX_PRODUCTS = 200_000  # weight-matched products u v; rank 4 has 2,794, rank 5 385,376


def frobenius_report(t: TangentSpace) -> FrobeniusReport:
    """Top degree and dimension of the exterior algebra and, when the top
    dimension is one, the multiplication pairing of each complementary
    degree pair and the Nakayama sign of each generator.

    A pairing entry is reduced only for a product u v of the top word's
    weight: the relations are weight-homogeneous (`complete_truncated`
    refuses others), so `reduce` keeps a product's weight, and the one
    normal word of degree top is `topword`, so a product of any other
    weight reduces to 0.  The cap counts those weight-matched products
    from the number of normal words of each degree and weight, before
    any word is formed."""
    d = t.dim
    rel = quadratic_relations(t)
    # one completion to d + 1 serves the pairing: no word of length <= top meets a longer lead
    gb = complete_truncated(rel.all_relations(), rel.order, d + 1, rel.alphabet)
    dims = gb.normal_counts(d + 1)
    if dims[-1] != 0:
        return FrobeniusReport(len(dims) - 1, dims[-1], {}, {}, note="dimensions do not vanish")
    top = max(k for k, x in enumerate(dims) if x)
    report = FrobeniusReport(top, dims[top], {}, {})
    if dims[top] != 1:
        return report._replace(note="top dimension is not one; Nakayama data skipped")
    counts = gb.weight_counts(top)
    (top_weight,) = counts[top]

    def complement(mu):
        return tuple(a - b for a, b in zip(top_weight, mu))

    products = sum(
        c * counts[top - k].get(complement(mu), 0) for k in range(top + 1) for mu, c in counts[k].items()
    )
    if products > _FROBENIUS_MAX_PRODUCTS:
        raise ValueError(
            f"frobenius pairing would reduce {products} products (at most {_FROBENIUS_MAX_PRODUCTS})"
        )
    # the normal words of degrees 0..top, each extending a normal word of the degree below
    words = [[()]]
    for _ in range(top):
        words.append([c for w in words[-1] for c in gb._extensions(w)])
    (topword,) = words[top]
    weight = rel.alphabet.word_weight

    def top_coeff(elem: FreeElement) -> RatQ:
        out = gb.reduce(elem)
        if not out:
            return ZERO
        assert set(out.terms) == {topword}
        return out.terms[topword]

    # pairing nondegeneracy per complementary degree pair
    for k in range(top + 1):
        rows_k, rows_c = words[k], words[top - k]
        if len(rows_k) != len(rows_c):
            report.pairing_nondegenerate[k] = False
            continue
        cols = {}
        for v in rows_c:
            cols.setdefault(weight(v), []).append(v)
        mat = [
            {v: c for v in cols.get(complement(weight(u)), ()) if (c := top_coeff(FreeElement.monomial(u + v)))}
            for u in rows_k
        ]
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


# -- line modules -------------------------------------------------------------------


def line_decomposition(t: TangentSpace, k: int) -> list[tuple[int, ...]]:
    """Weights of the line modules in degree k: sums over increasing
    k-tuples of basis weights (multiset, sorted).  Requires a classical
    calculus so that wedge labels are valid."""
    if k > t.dim:
        raise ValueError(f"k={k} exceeds the tangent dimension {t.dim}")
    table = exterior_dims(t)
    if not table.classical:
        raise ValueError("line decomposition requires a calculus of classical dimension")
    out = []
    for combo in combinations(range(t.dim), k):
        out.append(tuple(sum(t.weights[i][a] for i in combo) for a in range(t.n)))
    return sorted(out)


# -- Grassmannian restriction ---------------------------------------------------------


def grassmann_restriction(t: TangentSpace, r: int) -> tuple[TangentSpace, bool]:
    """Restrict a nice-word tangent space to the r-plane Grassmannian: keep
    the root vectors whose root contains alpha_r, and check that their span
    is closed under the adjoint action of the Levi generators (all K_i,
    plus E_j, F_j for j in S = Pi minus alpha_r), certified inside U+
    modulo the right ideal U+E_S (`_levi_closed`)."""
    alg = t.algebra
    n = alg.n
    if t.word is None or tuple(t.word) != weyl.nice_word(n):
        raise ValueError("grassmann_restriction expects the nice-word tangent space")
    if not 1 <= r <= n:
        raise ValueError(f"crossed node r must lie in 1..{n}")
    keep = [k for k, root in enumerate(t.roots) if root.i <= r < root.j]
    sub = TangentSpace(
        algebra=alg,
        weights=[t.weights[k] for k in keep],
        labels=[t.labels[k] for k in keep],
        coords=[t.coords[k] for k in keep],
        ids=[t.ids[k] for k in keep],
        roots=[t.roots[k] for k in keep],
        word=None,
    )
    return sub, _levi_closed(alg, sub.coords, sub.weights, r)


def _levi_closed(alg: UqAlgebra, coords: list[dict], weights: list[tuple[int, ...]], r: int) -> bool:
    """Whether span(T), T weight-homogeneous in U+ (coords and weights), is
    closed under the right adjoint action of K_i^{+-1} and of E_j, F_j (j in
    S = Pi minus alpha_r) in the Grassmannian's restricted dual, which kills
    the right multiples X E_j, X F_j (j in S) and X (K_i^{+-1} - 1).

    ad(K_i^{+-1})x is a multiple of x, so it lies in span(T) untested.
    Modulo the right multiples X (K^v - 1) a K may move to the right end
    and drop, K^v u = q^{(v, wt u)} u K^v; so the other candidates lie in
    U+.  ad(E_j)x = x E_j - q^{-(alpha_j, beta)} E_j x, and ad(F_j)x =
    K_j (x F_j - F_j x), where for an E-word w Lusztig's skew derivation
    (Introduction to Quantum Groups, ch. 1) gives w F_j - F_j w =
    sum_{t: w_t = j} w_{<t} (K_j - K_j^{-1}) / nu w_{>t}.  Moving the K's
    right, ad(F_j)w is sum_t (q^{A_t + 2 B_t} - q^{A_t}) / nu w_{<t} w_{>t},
    A_t = (alpha_j, wt w_{<t}), B_t = (alpha_j, wt w_{>t}).  A candidate of
    weight mu is tested against span(T_mu) + U+E_S, the right ideal of U+
    spanned by the normal forms of w s, w Serre-normal of weight
    mu - alpha_s, s in S; each weight's span is built once, on first use.

    Soundness: U+E_S consists of right multiples by E_s, s in S, so every
    closed verdict is an explicit membership certificate.  Agreement with
    the search over all K-free right multiples X E_j, X F_j (the test
    oracle): by the parabolic PBW factorisation U_q = U_q(u^-) (x) U+[w^S]
    (x) U_q(l_S), U+ meets U U_q(l_S)^+ in U+E_S, so a U+ candidate that
    search certifies is certified here too."""
    n = alg.n
    gens_s = [j for j in range(1, n + 1) if j != r]
    members: dict[tuple[int, ...], Span] = {}
    for x in coords:
        for y in _levi_candidates(alg, x, gens_s):
            if not y:
                continue
            mu = alg.word_weight(next(iter(y)))
            if mu not in members:
                members[mu] = sp = Span()
                for z, w in zip(coords, weights):
                    if w == mu:
                        sp.add(z)
                for s in gens_s:
                    for w in _normal_ewords(alg, [m - (a == s - 1) for a, m in enumerate(mu)]):
                        sp.add(dict(alg.word_nf(w + (s,))))
            if not members[mu].contains(y):
                return False
    return True


def _levi_candidates(alg: UqAlgebra, xc: dict, gens_s: list[int]):
    """E-word coordinates of ad(E_j)x and ad(F_j)x, j in gens_s, in that
    order, x in U+ of E-word coordinates xc, modulo the right multiples
    X (K^v - 1): a twisted commutator and a skew-derivation sum (`_levi_closed`)."""
    for j in gens_s:
        ej = tuple(int(a == j - 1) for a in range(alg.n))
        ph = alg._ad_sum(ej, next(iter(xc)))
        yield alg.eword_qcomm(xc, {(j,): ONE}, RatQ.q_power(-ph))
        y: dict = {}
        for w, c in xc.items():
            for t in [t for t, l in enumerate(w) if l == j]:
                a, b = alg._ad_sum(ej, w[:t]), alg._ad_sum(ej, w[t + 1 :])
                ct = c * (RatQ.q_power(a + 2 * b) - RatQ.q_power(a)) / NU
                for v, cv in alg.word_nf(w[:t] + w[t + 1 :]):
                    _acc(y, v, ct * cv)
        yield y


def _normal_ewords(alg: UqAlgebra, nu: list[int]) -> list[tuple[int, ...]]:
    """The Serre-normal E-words of weight nu (none if an entry is negative)."""
    if min(nu) < 0:
        return []
    gb, words = _serre_system(alg.n, sum(nu)), [()]
    for _ in range(sum(nu)):
        words = [c for w in words for c in gb._extensions(w) if c.count(c[-1]) <= nu[c[-1]]]
    return [tuple(g + 1 for g in w) for w in words]


# -- antiholomorphic kernels -------------------------------------------------------------


def dbar_kernel(alg: UqAlgebra, k: int) -> tuple[int, list[OqElement]]:
    """Joint kernel of the left actions of E_1, ..., E_n on the degree-k part
    of O_q, whose basis is the degree-k normal words of the FRT system (the
    ordered u-words, see the `oq` docstring): (dimension, basis), the
    annihilator of the images' normal coordinates over those words in
    lexicographic order.

    It is the kernel of the tangent space of every reduced word: every word
    tangent holds E_1, ..., E_n as its simple root vectors, each X_k lies in
    the algebra they generate, and `left_act` is an algebra action.
    """
    n, N = alg.n, alg.n + 1
    words = [tuple((g // N + 1, g % N + 1) for g in w) for w in _frt_system(n).normal_words(k)]
    rows: dict = {}
    for i in range(1, n + 1):
        e = alg.E(i)
        for w in words:
            for v, c in _normal_coords(left_act(e, OqElement(n, {w: ONE}))).items():
                rows.setdefault((i, v), {})[w] = c
    basis = [OqElement(n, v) for v in annihilator(list(rows.values()), words)]
    return len(basis), basis


# -- survey -------------------------------------------------------------------------------


class SurveyRow(NamedTuple):
    representative: tuple[int, ...]
    verdict: str
    dims: list[int] | None
    classical: bool | None
    truncated_at: int | None

    def as_json_dict(self):
        return {
            "word": weyl.word_str(self.representative),
            "verdict": self.verdict,
            "dims": self.dims,
            "classical": self.classical,
            "truncated_at": self.truncated_at,
        }


def survey_rows(
    algebra: UqAlgebra, early_stop: bool = True, max_classes: int | None = None
) -> tuple[list[SurveyRow], int]:
    """One row per commutation class of reduced words of the longest
    element, in lexicographic representative order: coideal verdict,
    exterior dimensions (early-stopped at the first non-classical
    deviation), classical flag.

    Returns (rows, total_classes); when max_classes cuts the run short,
    len(rows) < total_classes and the caller must mark the truncation.

    Only one class per orbit of the group generated by two maps on words is
    computed: the opposite involution i -> (i_1*, ..., i_N*) and the mirror
    i -> i' = (i_N*, ..., i_1*) (weyl.mirror_word), i* = n+1-i.  A class
    whose opposite was computed earlier copies that row under its own
    representative; else one whose mirror or reversed word was computed
    earlier copies that row with left_only and right_only swapped.  Earlier
    classes lie before any cut, so the rows of a cut-off survey are a prefix
    of the full survey's.  Members of a class share their root vectors, and
    both maps carry classes onto classes.

    Opposite.  omega (E_i, F_i, K_i -> E_{i*}, F_{i*}, K_{i*}) is a Hopf
    algebra automorphism with omega T_i = T_{i*} omega (Lusztig,
    Introduction to Quantum Groups, 37.1-39.4), so it maps the root vectors
    of a word onto nonzero multiples of those of the opposite word;
    normalisation changes only the scalar.  omega commutes with the
    coproduct and with K-erasure and keeps the tensor legs, so each side's
    verdict carries over.  It maps the degree-two relations onto the
    partner's after rescaling the generators, a graded isomorphism of the
    exterior algebras, so the dims and the early-stop point carry over too.

    Mirror.  Let sigma be the algebra anti-automorphism of U+ fixing each
    E_i (the Serre relations are palindromic).
    (a) sigma X_k is a nonzero multiple of X'_{N+1-k}, the root vectors of
    i'.  The convex order of i' is i's reversed, beta'_{N+1-k} = beta_k:
    s_{i_N} ... s_{i_{k+1}} = w0 s_{i_1} ... s_{i_k} and s_{i*} = w0 s_i w0,
    so beta'_{N+1-k} = -w0 w0 s_{i_1} ... s_{i_k}(alpha_{i_k}) = beta_k.
    Reversing positions maps minimal pairs to minimal pairs.  By induction
    on height from sigma E_i = E_i, for a minimal pair a < k < b,
    sigma X_k is proportional to sigma(X_b) sigma(X_a) - q^-1 sigma(X_a)
    sigma(X_b), the commutator of the minimal pair N+1-b < N+1-k < N+1-a
    of i', a nonzero multiple of X'_{N+1-k} by the Levendorskii-Soibelman /
    Leclerc fact of the uqsl docstring.  So sigma span(T_i) = span(T_i').
    (b) sigma swaps the two sides of the coideal test.  The test reads the
    states r(x) = sum x_(1) (x) x_(2) of Delta(x) = sum x_(1) (x)
    K^{wt x_(1)} x_(2); the right side asks r(x) in (span(T) + C1) (x) U+,
    the left side r(x) in U+ (x) (span(T) + C1).  r is multiplicative up to
    r(xy) = sum q^{-(|x_2|, |y_1|)} x_1 y_1 (x) x_2 y_2, and the form is
    symmetric, so by induction on length r sigma = (sigma (x) sigma) flip r.
    Hence T_i passes the right test exactly when T_i' passes the left one.
    (c) The dims carry over.  Applying sigma to sum c_kl X_k X_l in span(T_i)
    gives the flipped tensor, rescaled, in span(T_i'): the relations of i'
    are the flipped relations of i with the generators rescaled, so the
    exterior algebra of i' is the opposite algebra of that of i, with the
    same Hilbert series; the dims and the early-stop point carry over.
    The mirror of the opposite is plain reversal, a third map of the orbit.
    """
    graph = weyl.commutation_classes(algebra.n)
    partner = weyl.involution_on_classes(graph)
    mirror = [graph.class_index(weyl.mirror_word(rep, algebra.n)) for rep in graph.reps]
    swap = {"left_only": "right_only", "right_only": "left_only"}
    rows = []
    for c, rep in enumerate(graph.reps if max_classes is None else graph.reps[:max_classes]):
        if partner[c] < c:
            rows.append(rows[partner[c]]._replace(representative=rep))
            continue
        m = min(mirror[c], partner[mirror[c]])
        if m < c:
            verdict = rows[m].verdict
            rows.append(rows[m]._replace(representative=rep, verdict=swap.get(verdict, verdict)))
            continue
        t = tangent_from_word(algebra, rep)
        rep_report = coideal_check(t)
        if rep_report.verdict == "neither":
            rows.append(SurveyRow(rep, rep_report.verdict, None, None, None))
            continue
        table = exterior_dims(t, early_stop=early_stop)
        rows.append(
            SurveyRow(rep, rep_report.verdict, table.dims, table.classical, table.truncated_at)
        )
    return rows, graph.num_classes
