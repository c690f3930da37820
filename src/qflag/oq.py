"""The coordinate-algebra side of the duality.

O_q elements are free words in the matrix generators u[a,b] (a = row,
b = column, 1-based); no relation is imposed on the words themselves.
Everything factors through the evaluation pairing with the enveloping
algebra: a length-k word pairs with X as the matrix entry of the k-th
tensor power of the vector representation,

    <X, u[a1,b1]...u[ak,bk]> = rho_k(X)_{(a),(b)},

where the generators act through the coproduct (so E_i acts in one tensor
slot with K_i's to its right, F_i with K_i^{-1}'s to its left, K_i
diagonally in every slot) and the defining table is

    <E_i, u[i+1,i]> = <F_i, u[i,i+1]> = 1,
    <K_j^{+-1}, u[i,i]> = q^{+-(delta_{j+1,i} - delta_{j,i})}.

The left action X |> a = a_(1) <X, a_(2)> moves the columns, and the
pairing is its counit: <X, a> = eps(X |> a), eps(u[a,b]) = delta_ab.

Equality of O_q elements is decided functionally: e1 = e2 iff e1 - e2
kills every rho_k image.  By quantum Schur-Weyl duality (Jimbo 1986) a
length-k combination does so exactly when it lies in the degree-k part of
the ideal of the FRT relations, so equality is reduction to zero modulo
them, one letter per u[a,b] (row-major).  In that deg-lex order the FRT
relations are already a Groebner basis (every overlap of their length-2
leads resolves), so `_frt_system` writes each as a rule in closed form,
with no product, reduction or overlap, and one settled system per rank
serves every length: the leads are the decreasing letter pairs and the
normal words are the ordered monomials, a basis of the degree-k part of
O_q.  The determinant relation
mixes lengths, so it never enters.  `_normal_coords` gives an element's
coordinates on those normal words; `calculus.dbar_kernel` works on that
basis, and tests/oracles.py builds the per-length test `functional_is_zero`
on it.
"""

from __future__ import annotations

from functools import cache
from itertools import combinations, product

from qflag.freealg import (
    Alphabet,
    FreeElement,
    TruncatedGB,
    _acc,
    _signed_sum,
    _Sum,
    _term,
)
from qflag.scalars import NU, ONE, QINV, RatQ, ZERO, qpow
from qflag.uqsl import UqElement

OqWord = tuple  # tuple[(row, col), ...]


class OqElement(_Sum):
    """Sparse combination of free u-words; words may have mixed lengths,
    and `_normal_coords` reduces each length component on its own."""

    __slots__ = ("n",)
    _context = ("n",)

    def __init__(self, n: int, terms=None):
        self.n = n
        self.terms: dict[OqWord, RatQ] = {}
        if terms:
            for w, c in dict(terms).items():
                if c:
                    self.terms[tuple(tuple(p) for p in w)] = c

    def __mul__(self, other):
        if isinstance(other, (RatQ, int)):
            return self.scale(other)
        out: dict = {}
        for w1, c1 in self.terms.items():
            for w2, c2 in other.terms.items():
                _acc(out, w1 + w2, c2 if c1 is ONE else c1 if c2 is ONE else c1 * c2)
        return self._like(out)

    def render(self) -> str:
        return _signed_sum(
            _term(self.terms[w], "".join(f"u[{a},{b}]" for a, b in w) or "1")
            for w in sorted(self.terms)
        )

    def __repr__(self):
        return f"<Oq {self.render()}>"


# -- the tensor-power action -------------------------------------------------


def _kdiag_exp(i: int, b: int) -> int:
    """Exponent of q in <K_i, u[b,b]>."""
    return (1 if b == i + 1 else 0) - (1 if b == i else 0)


def _apply_token(token, vec: dict) -> dict:
    """Apply one generator to a sparse vector over column multi-indices."""
    kind, i = token[0], token[1]
    out: dict = {}
    if kind == "K":
        exp = token[2] if len(token) > 2 else 1
        for b, c in vec.items():
            e = exp * sum(_kdiag_exp(i, x) for x in b)
            _acc(out, b, c * qpow(e) if e else c)
        return out
    if kind == "E":
        # E_i in slot t, K_i in the slots after t
        for b, c in vec.items():
            for t, x in enumerate(b):
                if x == i:
                    tail = sum(_kdiag_exp(i, y) for y in b[t + 1 :])
                    nb = b[:t] + (i + 1,) + b[t + 1 :]
                    _acc(out, nb, c * qpow(tail) if tail else c)
        return out
    if kind == "F":
        # K_i^{-1} before slot t, F_i in slot t
        for b, c in vec.items():
            for t, x in enumerate(b):
                if x == i + 1:
                    head = sum(_kdiag_exp(i, y) for y in b[:t])
                    nb = b[:t] + (i,) + b[t + 1 :]
                    _acc(out, nb, c * qpow(-head) if head else c)
        return out
    raise ValueError(f"unknown token {token!r}")


def _apply_mono(mono, vec: dict) -> dict:
    """Apply a normal monomial (F-word, K-vec, E-word), rightmost factor first."""
    f, kv, e = mono
    ks = [("K", i, v) for i, v in enumerate(kv, 1) if v]
    for token in [("E", l) for l in reversed(e)] + ks + [("F", l) for l in reversed(f)]:
        if not vec:
            break
        vec = _apply_token(token, vec)
    return vec


def left_act(x: UqElement, e: OqElement) -> OqElement:
    """Left action X |> a = a_(1) <X, a_(2)>: rows stay, columns move."""
    out: dict = {}
    for w, wc in e.terms.items():
        rows = tuple(a for a, _ in w)
        cols = tuple(b for _, b in w)
        for m, c in x.terms.items():
            cw = c if wc is ONE else wc if c is ONE else wc * c
            for newcols, cc in _apply_mono(m, {cols: ONE}).items():
                _acc(out, tuple(zip(rows, newcols)), cw if cc is ONE else cw * cc)
    return e._like(out)


def pair(x: UqElement, e: OqElement | OqWord) -> RatQ:
    """Evaluation pairing <x, e>, bilinear in both arguments: the counit
    u[a,b] -> delta_ab of x |> e, since <x, a> = eps(a_(1)) <x, a_(2)>."""
    if not isinstance(e, OqElement):
        e = OqElement(x.algebra.n, {tuple(e): ONE})
    return sum((c for w, c in left_act(x, e).terms.items() if all(a == b for a, b in w)), ZERO)


# -- functional equality -----------------------------------------------------


def _letters(e: OqElement) -> FreeElement:
    """e as a free-algebra element: u[a,b] is letter (a-1)(n+1) + (b-1)."""
    N = e.n + 1
    return FreeElement({tuple((a - 1) * N + b - 1 for a, b in w): c for w, c in e.terms.items()})


@cache
def _frt_system(n: int) -> TruncatedGB:
    """The FRT relations as rules, settled and exact in every length (built
    once, then only read); a letter weighs its row unit vector, then its
    column's.  For i < k, j < l (letters u[a,b] row-major, the larger pair
    leading) they are, for each i, u_kj u_ij -> q^-1 u_ij u_kj, then
    u_il u_ij -> q^-1 u_ij u_il, and then for each (i, k, j, l),
    u_kj u_il -> u_il u_kj and u_kl u_ij -> -nu u_il u_kj + u_ij u_kl: no
    tail word is a lead, so orienting the relations in that order installs
    exactly these rules, tails in this term order (tests/oracles.py)."""
    N = n + 1
    cells = [(a, b) for a in range(1, N + 1) for b in range(1, N + 1)]
    unit = lambda x: tuple(int(x == y) for y in range(1, N + 1))
    alphabet = Alphabet(
        tuple(f"u[{a},{b}]" for a, b in cells), tuple(unit(a) + unit(b) for a, b in cells)
    )
    gb = TruncatedGB(alphabet)
    u = lambda a, b: a * N + b  # 0-based
    pairs = list(combinations(range(N), 2))
    rules = []
    for i in range(N):
        rules += [((u(k, j), u(i, j)), {(u(i, j), u(k, j)): QINV}) for k in range(i + 1, N) for j in range(N)]
        rules += [((u(i, l), u(i, j)), {(u(i, j), u(i, l)): QINV}) for j, l in pairs]
    for (i, k), (j, l) in product(pairs, pairs):
        rules += [((u(k, j), u(i, l)), {(u(i, l), u(k, j)): ONE}),
                  ((u(k, l), u(i, j)), {(u(i, l), u(k, j)): -NU, (u(i, j), u(k, l)): ONE})]
    for lead, tail in rules:
        gb.rules[lead] = FreeElement(tail)
        gb._index(lead)
    return gb


def _normal_coords(e: OqElement) -> dict:
    """Coordinates of an element on the normal words of the FRT system;
    empty iff each of its length components is zero in O_q."""
    return _frt_system(e.n).reduce(_letters(e)).terms
