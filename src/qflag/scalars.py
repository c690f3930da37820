"""Exact arithmetic in Q(q), the field of rational functions in one
indeterminate q over the rationals.

A value is a fraction num/den of integer-coefficient polynomials, stored as
dense little-endian tuples (index = power of q) and kept in a unique
canonical form:

* gcd(num, den) = 1 over the rationals,
* the integer contents of num and den are coprime,
* den has positive leading coefficient.

`_canonical` computes the gcd by pseudo-remainders only when both num and
den have two or more terms.  When either is a single term c*q^k, the gcd
over Q is q^m with m the lower of the two lowest powers present, so the
pair is shifted down by m instead.  A sum or product of values with den
q^m (told by its shape, m zeros and a 1, for every m), or a quotient by a
unit +-q^k, has den q^m too and skips `_canonical`: q^m has content 1, so
`_laurent` need only strip the q^k common to both.
A product with an integer constant c (den 1, one constant term) makes no
polynomial product at all: c = 1 returns the other operand, c = -1 its
negation, c = 0 ZERO, and any other c scales the numerator, dividing out
the factor c shares with the denominator's content (`_scaled`).  The hot
loops of freealg, uqsl and oq go further and skip the call when a factor
is the shared ONE.

Canonical form makes equality and hashing structural: two values are equal
iff their tuples coincide.  q is treated as transcendental and never
specialised: every equality is decided symbolically (the tests evaluate
values at rational points through their own oracle, tests/oracles.py).

Sums, and products past the integer path, are memoised by operand value,
which is exact for the same reason: the process-global `_SUMS` and
`_PRODUCTS` map (num, den, num, den) of the two operands to the result.
The table is probed first; on a miss `_add` or `_mul` computes the result,
which is stored only when the operands have at most `_MEMO_GATE` tuple
entries in all: large values rarely recur, and a long computation would
fill memory with them, so they are never stored.  A value under the same
gate caches its negation in its `_neg` slot on first use (the negation
holds no link back, so no reference cycle forms).

Negative powers of q live in the denominator, e.g. q^-1 is 1/q and
nu = q - q^-1 is (q^2 - 1)/q.
"""

from __future__ import annotations

import math
from fractions import Fraction

# ---------------------------------------------------------------------------
# integer polynomial helpers (dense little-endian tuples, no trailing zeros)

_ZPOL = ()
_ONEPOL = (1,)
_NQ = 64
_QDEN = tuple((0,) * m + (1,) for m in range(_NQ))  # q^m, shared
_MEMO_GATE = 24  # operands with more polynomial entries in all skip the memo
_SUMS: dict = {}  # (num, den, num, den) of two operands -> their sum
_PRODUCTS: dict = {}  # the same key -> their product


def _qden(m: int):
    """The tuple of q^m (m >= 0), shared from the table when it is there."""
    return _QDEN[m] if m < _NQ else (0,) * m + (1,)


def _trim(c) -> tuple[int, ...]:
    """c without trailing zeros, as a tuple (a trimmed tuple is returned as is)."""
    n = len(c)
    while n and c[n - 1] == 0:
        n -= 1
    return tuple(c[:n])


def _padd(a, b):
    if len(a) < len(b):
        a, b = b, a
    c = list(a)
    for i, x in enumerate(b):
        c[i] += x
    return _trim(c)


def _pneg(a):
    return tuple([-x for x in a])


def _pmul(a, b):
    if not a or not b:
        return _ZPOL
    c = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                if y:
                    c[i + j] += x * y
    return _trim(c)


def _content(a) -> int:
    g = 0
    for x in a:
        g = math.gcd(g, x)
        if g == 1:
            return 1
    return g


def _primitive(a):
    """Primitive part with positive leading coefficient."""
    if not a:
        return _ZPOL
    c = _content(a)
    if a[-1] < 0:
        c = -c
    return tuple(x // c for x in a)


def _low(a) -> int:
    """Lowest power of q present in the nonzero polynomial a."""
    i = 0
    while not a[i]:
        i += 1
    return i


def _prem(a, b):
    """Pseudo-remainder of a by b (b nonzero), fraction-free."""
    a = _trim(a)
    db, lb = len(b) - 1, b[-1]
    while len(a) - 1 >= db:
        da, la = len(a) - 1, a[-1]
        c = [x * lb for x in a]
        for i, y in enumerate(b):
            c[da - db + i] -= la * y
        a = _trim(c)
    return a


def _pgcd(a, b):
    """Gcd over Q, returned as a primitive integer polynomial."""
    a, b = _primitive(a), _primitive(b)
    while b:
        a, b = b, _primitive(_prem(a, b))
    return a


def _pdiv_exact(a, b):
    """Quotient a/b assuming exact divisibility in Z[q]."""
    if not a:
        return _ZPOL
    a = list(a)
    db, lb = len(b) - 1, b[-1]
    out = [0] * (len(a) - db)
    for k in range(len(a) - db - 1, -1, -1):
        c = a[k + db]
        if c % lb:
            raise ArithmeticError("inexact polynomial division")
        out[k] = c // lb
        if out[k]:
            for i, y in enumerate(b):
                a[k + i] -= out[k] * y
    if _trim(a):
        raise ArithmeticError("inexact polynomial division")
    return _trim(out)


def _pstr(a) -> str:
    if not a:
        return "0"
    parts = []
    for k in range(len(a) - 1, -1, -1):
        c = a[k]
        if c == 0:
            continue
        if k == 0:
            body = str(abs(c))
        else:
            head = "" if abs(c) == 1 else f"{abs(c)}*"
            body = f"{head}q" if k == 1 else f"{head}q^{k}"
        if not parts:
            parts.append(body if c > 0 else "-" + body)
        else:
            parts.append(("+ " if c > 0 else "- ") + body)
    return " ".join(parts)


# ---------------------------------------------------------------------------


class RatQ:
    """An element of Q(q) in canonical form.  Immutable and hashable."""

    __slots__ = ("num", "den", "_hash", "_neg")

    def __init__(self, num=0, den=None):
        if isinstance(num, RatQ):
            self.num, self.den = num.num, num.den
            self._hash, self._neg = num._hash, None
            return
        if isinstance(num, int):
            num = (num,) if num else _ZPOL
        if den is None:
            den = _ONEPOL
        elif isinstance(den, int):
            den = (den,) if den else _ZPOL
        self.num, self.den = _canonical(tuple(num), tuple(den))
        self._hash = self._neg = None

    # -- constructors -------------------------------------------------------

    @staticmethod
    def from_fraction(x: Fraction) -> "RatQ":
        return _mk((x.numerator,) if x else _ZPOL, (x.denominator,))

    # -- ring/field structure ------------------------------------------------

    def __add__(self, other):
        if type(other) is not RatQ:
            other = _coerce(other)
            if other is NotImplemented:
                return NotImplemented
        key = (self.num, self.den, other.num, other.den)
        out = _SUMS.get(key)
        if out is None:
            out = _add(self, other)
            if len(key[0]) + len(key[1]) + len(key[2]) + len(key[3]) <= _MEMO_GATE:
                _SUMS[key] = out
        return out

    __radd__ = __add__

    def __sub__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        other = _coerce(other)
        return NotImplemented if other is NotImplemented else other - self

    def __neg__(self):
        out = self._neg
        if out is None:
            out = _mk(_pneg(self.num), self.den)
            if len(self.num) + len(self.den) <= _MEMO_GATE:
                self._neg = out
        return out

    def __mul__(self, other):
        if type(other) is not RatQ:
            other = _coerce(other)
            if other is NotImplemented:
                return NotImplemented
        if len(other.num) < 2 and other.den == _ONEPOL:
            return _scaled(self, other.num)
        if len(self.num) < 2 and self.den == _ONEPOL:
            return _scaled(other, self.num)
        key = (self.num, self.den, other.num, other.den)
        out = _PRODUCTS.get(key)
        if out is None:
            out = _mul(self, other)
            if len(key[0]) + len(key[1]) + len(key[2]) + len(key[3]) <= _MEMO_GATE:
                _PRODUCTS[key] = out
        return out

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        n, d = other.num, other.den
        if not n:
            raise ZeroDivisionError("division by zero in Q(q)")
        k, j = len(n) - 1, len(d) - 1
        if n[-1] in (1, -1) and n.count(0) == k and d[-1] == 1 and d.count(0) == j:
            # other = +-q^k/q^j is a unit: multiply by +-q^j/q^k instead
            return self * _mk(d if n[-1] > 0 else _pneg(d), _qden(k))
        return _make_canonical(_pmul(self.num, d), _pmul(self.den, n))

    def __rtruediv__(self, other):
        other = _coerce(other)
        return NotImplemented if other is NotImplemented else other / self

    def inverse(self) -> "RatQ":
        if not self.num:
            raise ZeroDivisionError("division by zero in Q(q)")
        return _make_canonical(self.den, self.num)

    def __pow__(self, k: int):
        if k < 0:
            return self.inverse() ** (-k)
        out, base = ONE, self
        while k:
            if k & 1:
                out = out * base
            base = base * base
            k >>= 1
        return out

    # -- structure queries ---------------------------------------------------

    def __bool__(self):
        return bool(self.num)

    def __eq__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self.num == other.num and self.den == other.den

    def __hash__(self):
        h = self._hash
        if h is None:
            h = self._hash = hash((self.num, self.den))
        return h

    # -- rendering -----------------------------------------------------------

    def __repr__(self):
        return f"RatQ({self})"

    def __str__(self):
        if self == NU:
            return "nu"
        if self == -NU:
            return "-nu"
        if self.den == _ONEPOL:
            return _pstr(self.num)
        # pure powers render as q^-k
        if len([c for c in self.den if c]) == 1 and self.den[-1] == 1:
            k = len(self.den) - 1
            if self.num == _ONEPOL:
                return f"q^-{k}"
            if self.num == (-1,):
                return f"-q^-{k}"
            nn = _pstr(self.num)
            if len([c for c in self.num if c]) > 1:
                nn = f"({nn})"
            return f"{nn}*q^-{k}"
        nn, dd = _pstr(self.num), _pstr(self.den)
        if len([c for c in self.num if c]) > 1:
            nn = f"({nn})"
        if len([c for c in self.den if c]) > 1:
            dd = f"({dd})"
        return f"{nn}/{dd}"


def _canonical(num, den):
    num, den = _trim(num), _trim(den)
    if not den:
        raise ZeroDivisionError("zero denominator in Q(q)")
    if not num:
        return _ZPOL, _ONEPOL
    if len(num) - num.count(0) == 1 or len(den) - den.count(0) == 1:
        m = min(_low(num), _low(den))
        if m:
            num, den = num[m:], den[m:]
    else:
        g = _pgcd(num, den)
        if len(g) > 1 or g != _ONEPOL:
            num = _pdiv_exact(num, g)
            den = _pdiv_exact(den, g)
    cn, cd = _content(num), _content(den)
    r = math.gcd(cn, cd)
    if den[-1] < 0:
        r = -r
    if r != 1:
        num = tuple(x // r for x in num)
        den = tuple(x // r for x in den)
    return num, den


def _mk(num, den) -> RatQ:
    """Build a RatQ from tuples already known to be canonical."""
    out = RatQ.__new__(RatQ)
    out.num, out.den = num, den
    out._hash = out._neg = None
    return out


def _laurent(num, m: int) -> RatQ:
    """num/q^m (num trimmed, m >= 0) in canonical form: strip the common q^k."""
    if not num:
        return ZERO
    k = 0
    while k < m and not num[k]:
        k += 1
    return _mk(num[k:] if k else num, _qden(m - k))


def _scaled(x: RatQ, c) -> RatQ:
    """x times the integer whose polynomial is c (() or (c,)): x itself for
    1, -x for -1, ZERO for 0, else num times c over den, both divided by
    g = gcd(c, content of den), so that the contents stay coprime."""
    if not c:
        return ZERO
    c, den = c[0], x.den
    if c == 1:
        return x
    if c == -1:
        return -x
    g = 1 if den[-1] == 1 else math.gcd(c, _content(den))
    if g == 1:
        return _mk(tuple([c * v for v in x.num]), den)
    c //= g
    return _mk(tuple([c * v for v in x.num]), tuple([v // g for v in den]))


def _add(x: RatQ, y: RatQ) -> RatQ:
    """x + y by polynomial arithmetic, without the memo."""
    d1, d2 = x.den, y.den
    m1, m2 = len(d1) - 1, len(d2) - 1
    if d1[-1] == d2[-1] == 1 and d1.count(0) == m1 and d2.count(0) == m2:  # both q^m
        m = max(m1, m2)
        return _laurent(_padd((0,) * (m - m1) + x.num, (0,) * (m - m2) + y.num), m)
    if d1 == d2:
        return _make_canonical(_padd(x.num, y.num), d1)
    return _make_canonical(_padd(_pmul(x.num, d2), _pmul(y.num, d1)), _pmul(d1, d2))


def _mul(x: RatQ, y: RatQ) -> RatQ:
    """x * y by polynomial arithmetic, without the memo or the integer path."""
    d1, d2 = x.den, y.den
    m1, m2 = len(d1) - 1, len(d2) - 1
    if d1[-1] == d2[-1] == 1 and d1.count(0) == m1 and d2.count(0) == m2:  # both q^m
        return _laurent(_pmul(x.num, y.num), m1 + m2)
    return _make_canonical(_pmul(x.num, y.num), _pmul(d1, d2))


def _make_canonical(num, den) -> RatQ:
    out = RatQ.__new__(RatQ)
    out.num, out.den = _canonical(num, den)
    out._hash = out._neg = None
    return out


def _coerce(x):
    if isinstance(x, RatQ):
        return x
    if isinstance(x, int):
        return _mk((x,) if x else _ZPOL, _ONEPOL)
    if isinstance(x, Fraction):
        return RatQ.from_fraction(x)
    return NotImplemented


ZERO = _mk(_ZPOL, _ONEPOL)
ONE = _mk(_ONEPOL, _ONEPOL)
Q = _mk((0, 1), _ONEPOL)
QINV = _mk(_ONEPOL, (0, 1))
NU = _mk((-1, 0, 1), (0, 1))  # q - q^-1


def qpow(k: int) -> RatQ:
    """q^k, for any integer k."""
    if k >= 0:
        return _mk(_qden(k), _ONEPOL)
    return _mk(_ONEPOL, _qden(-k))
