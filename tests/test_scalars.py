"""Field arithmetic in Q(q): canonical forms, axioms, evaluation."""

import math
import operator
import random
from fractions import Fraction

import pytest
from oracles import TWO_Q, evaluate

from qflag import scalars
from qflag.scalars import (
    NU,
    ONE,
    Q,
    QINV,
    RatQ,
    ZERO,
    _add,
    _canonical,
    _content,
    _mul,
    _padd,
    _pdiv_exact,
    _pgcd,
    _pmul,
    _pneg,
    _trim,
    qpow,
)


def test_inverse_pair():
    assert Q * QINV == ONE


def test_difference_of_squares_cancels():
    lhs = (Q**2 - QINV**2) / (Q - QINV)
    assert lhs == Q + QINV


def test_nu_identity():
    # nu = q - q^-1, so nu * (q + q^-1) = q^2 - q^-2
    assert NU == Q - QINV
    assert NU * (Q + QINV) == Q**2 - QINV**2


def test_eval_basics():
    assert evaluate(Q, 2) == 2
    assert evaluate(NU, 2) == Fraction(3, 2)
    assert evaluate((Q**2 - 1) / (Q - 1), 3) == 4


def test_eval_pole():
    with pytest.raises(ZeroDivisionError):
        evaluate(QINV, 0)


def test_division_by_zero():
    with pytest.raises(ZeroDivisionError):
        ONE / ZERO


def _random_ratq(rng):
    num = tuple(rng.randint(-4, 4) for _ in range(rng.randint(1, 4)))
    den = tuple(rng.randint(-4, 4) for _ in range(rng.randint(1, 4)))
    try:
        return RatQ(num, den)
    except ZeroDivisionError:
        return qpow(rng.randint(-3, 3))


def test_field_axioms_random():
    rng = random.Random(2024)
    for _ in range(1000):
        a, b, c = (_random_ratq(rng) for _ in range(3))
        assert (a + b) + c == a + (b + c)
        assert a * (b + c) == a * b + a * c
        if a:
            assert a * a.inverse() == ONE


def test_eval_is_homomorphism():
    rng = random.Random(7)
    x = Fraction(5, 3)
    for _ in range(200):
        a, b = _random_ratq(rng), _random_ratq(rng)
        try:
            va, vb = evaluate(a, x), evaluate(b, x)
        except ZeroDivisionError:
            continue
        assert evaluate(a * b, x) == va * vb
        assert evaluate(a + b, x) == va + vb


def test_canonicalization_idempotent_and_unique():
    rng = random.Random(99)
    for _ in range(300):
        a = _random_ratq(rng)
        again = RatQ(a.num, a.den)
        assert again.num == a.num and again.den == a.den
        # same value from a scaled representation
        scaled = RatQ(tuple(3 * x for x in a.num), tuple(3 * x for x in a.den))
        assert scaled == a
        assert hash(scaled) == hash(a)
        # denominator sign normalized, contents coprime
        assert a.den[-1] > 0


def test_rendering():
    assert str(Q) == "q"
    assert str(QINV) == "q^-1"
    assert str(NU) == "nu"
    assert str(qpow(2) - 1) == "q^2 - 1"
    assert str(ZERO) == "0"


def test_power_and_int_coercion():
    assert Q**-2 == QINV * QINV
    assert 2 * Q - Q == Q
    assert (1 + Q) * (1 - Q) == 1 - Q**2


def _canonical_by_gcd(num, den):
    """Oracle: the general gcd branch of `_canonical`, taken for every input."""
    num, den = _trim(list(num)), _trim(list(den))
    if not num:
        return (), (1,)
    g = _pgcd(num, den)
    num, den = _pdiv_exact(num, g), _pdiv_exact(den, g)
    r = math.gcd(_content(num), _content(den))
    if den[-1] < 0:
        r = -r
    return tuple(x // r for x in num), tuple(x // r for x in den)


def _random_poly(rng, zero_ok=True):
    """Random integer polynomial tuple, possibly with leading zeros (low
    powers absent), untrimmed trailing zeros and a shared integer content."""
    while True:
        body = [rng.randint(-5, 5) for _ in range(rng.randint(1, 4))]
        p = [0] * rng.randint(0, 3) + [x * rng.choice((1, 1, 2, 6)) for x in body]
        p += [0] * rng.randint(0, 2)
        if zero_ok or any(p):
            return tuple(p)


def _random_monomial(rng):
    """c*q^k with c of either sign, possibly with trailing zeros."""
    c = rng.choice((-1, 1)) * rng.choice((1, 2, 3, 4, 6, 12))
    return (0,) * rng.randint(0, 4) + (c,) + (0,) * rng.randint(0, 2)


def test_canonical_fast_path_matches_gcd():
    rng = random.Random(4242)
    cases = [((), (1,)), ((0, 0), (0, 3)), ((4, 0, -6), (2,)), ((0, 0, 6), (0, -4, 0))]
    for _ in range(3000):
        mono, poly = _random_monomial(rng), _random_poly(rng)
        cases.append((poly, mono))
        if any(poly):
            cases.append((mono, poly))
        cases.append((poly, rng.choice(((1,), (-1,), (2,), (1, 0)))))
        cases.append((poly, _random_poly(rng, zero_ok=False)))  # either path
    for num, den in cases:
        assert _canonical(num, den) == _canonical_by_gcd(num, den), (num, den)


def test_add_mul_shortcuts_match_gcd_path():
    """Sums and products of values with denominator 1 skip `_canonical`;
    denominator 1 = q^0 is one case of the Laurent fast path (tested in full
    by `test_laurent_fast_path_matches_gcd`)."""
    rng = random.Random(4244)
    for _ in range(2000):
        a = RatQ(_random_poly(rng))
        b = RatQ(_random_poly(rng)) if rng.random() < 0.8 else -a
        assert ((a + b).num, (a + b).den) == _canonical_by_gcd(_padd(a.num, b.num), (1,))
        assert ((a * b).num, (a * b).den) == _canonical_by_gcd(_pmul(a.num, b.num), (1,))


def _random_laurent(rng):
    """p/q^m with m from 0 to past the end of the shared q^m table (64), and
    p possibly with zero low coefficients, so construction may strip q^k."""
    m = rng.choice((rng.randint(0, 4), rng.randint(0, 40), rng.randint(60, 70)))
    return RatQ(_random_poly(rng), (0,) * m + (1,))


def _random_operand(rng, a):
    """A Laurent value, a sum partner that cancels a or leaves an integral
    value, a unit, a non-unit monomial, a non-Laurent value, an int or a
    Fraction."""
    pick = rng.randrange(9)
    if pick == 0:
        return -a
    if pick == 1:
        return RatQ(rng.randint(-3, 3)) - a  # a + b is an integer
    if pick == 2:
        return rng.choice((1, -1)) * qpow(rng.randint(-40, 40))
    if pick == 3:
        return rng.choice((2, -3, Fraction(1, 2))) * qpow(rng.randint(-5, 5))
    if pick == 4:
        return _random_ratq(rng)
    if pick == 5:
        return rng.randint(-3, 3)
    if pick == 6:
        return Fraction(rng.randint(-3, 3), rng.randint(1, 4))
    return _random_laurent(rng)


def _parts(v):
    """(num, den) of a RatQ, int or Fraction, left for the oracle to reduce."""
    if isinstance(v, RatQ):
        return v.num, v.den
    v = Fraction(v)
    return (v.numerator,), (v.denominator,)


def _expected(x, y, op):
    """(num, den) of x op y through the `_canonical_by_gcd` oracle."""
    (xn, xd), (yn, yd) = _parts(x), _parts(y)
    if op == "+":
        return _canonical_by_gcd(_padd(_pmul(xn, yd), _pmul(yn, xd)), _pmul(xd, yd))
    if op == "-":
        return _canonical_by_gcd(_padd(_pmul(xn, yd), _pneg(_pmul(yn, xd))), _pmul(xd, yd))
    if op == "*":
        return _canonical_by_gcd(_pmul(xn, yn), _pmul(xd, yd))
    return _canonical_by_gcd(_pmul(xn, yd), _pmul(xd, yn))


def test_laurent_fast_path_matches_gcd():
    """Sums, products and unit quotients of values with den q^m skip
    `_canonical`; every result must equal the gcd path's."""
    ops = {"+": operator.add, "-": operator.sub, "*": operator.mul, "/": operator.truediv}
    rng = random.Random(4246)
    for _ in range(600):
        a = _random_laurent(rng)
        b = _random_operand(rng, a)
        for x, y in ((a, b), (b, a)):
            for op, f in ops.items():
                if op == "/" and not y:
                    continue
                got = f(x, y)
                assert (got.num, got.den) == _expected(x, y, op), (x, op, y)


def test_laurent_path_told_by_denominator_shape(monkeypatch):
    """Sums, products and unit quotients of values whose denominators are
    q^m with m >= 64 take the Laurent path, with no `_canonical` call, and
    agree with `_canonical` of the polynomial arithmetic.  A denominator
    q^m with one stray lower term is not q^m: values over it agree too."""
    rng = random.Random(4264)

    def value(m, stray):
        num = (rng.choice((-2, -1, 1, 3)),) + tuple(rng.randint(-3, 3) for _ in range(rng.randint(0, 3)))
        den = [0] * m + [1]
        if stray:
            den[rng.randrange(1, m)] = rng.choice((-3, -1, 1, 2))
        return RatQ(num, tuple(den))

    calls, strays = [], 0
    canonical = scalars._canonical
    monkeypatch.setattr(scalars, "_canonical", lambda num, den: calls.append(den) or canonical(num, den))
    for _ in range(150):
        x, m = value(rng.randint(64, 80), False), rng.randint(2, 80)
        assert len(x.den) > 64
        for y in (value(m, False), value(m, True)):
            stray = y.den.count(0) < len(y.den) - 1  # the gcd may cancel the stray term
            strays += stray
            for op, got, num, den in (
                ("+", lambda: x + y, _padd(_pmul(x.num, y.den), _pmul(y.num, x.den)), _pmul(x.den, y.den)),
                ("*", lambda: x * y, _pmul(x.num, y.num), _pmul(x.den, y.den)),
            ):
                calls.clear()
                z = got()
                assert (z.num, z.den) == canonical(num, den), (x, op, y)
                assert bool(calls) == stray, (x, op, y)
        unit = rng.choice((1, -1)) * qpow(-rng.randint(64, 80))
        calls.clear()
        z = x / unit
        assert (z.num, z.den) == canonical(_pmul(x.num, unit.den), _pmul(x.den, unit.num)) and not calls
    assert strays > 100


def test_laurent_fast_path_rendering():
    assert str(QINV * QINV) == "q^-2"
    assert str(ONE / (Q * Q)) == "q^-2"
    assert str(-QINV * QINV * QINV) == "-q^-3"
    assert str((Q * Q - 1) * QINV**3) == "(q^2 - 1)*q^-3"
    assert str(NU * QINV * QINV) == "(q^2 - 1)*q^-3"
    assert str(Q - QINV) == "nu"
    assert str(-(qpow(2) - 1) / Q) == "-nu"


def _constants():
    """+-1, 0 and +-c as RatQ, int and Fraction."""
    ints = (1, -1, 0, 2, -3, 6, -12)
    return [f(c) for c in ints for f in (RatQ, int, Fraction)] + [Fraction(-3, 2)]


def _assert_canonical(v):
    assert (v.num, v.den) == _canonical_by_gcd(v.num, v.den), v


def test_constant_fast_path_matches_gcd():
    """A product with an integer constant skips the polynomial product: 1
    gives the other operand back, -1 its negation, 0 gives ZERO, c scales
    the numerator and divides out any factor c shares with the
    denominator's content.  Every result of every operation with a
    constant on either side must equal the gcd path's and be canonical."""
    ops = {"+": operator.add, "-": operator.sub, "*": operator.mul, "/": operator.truediv}
    rng = random.Random(4247)
    others = [ZERO, ONE, -ONE, Q, QINV, NU, RatQ(1, 2), RatQ((1,), (2, 2)), RatQ((3, 0, 3), (4, 0, 2))]
    others += [_random_laurent(rng) for _ in range(30)] + [_random_ratq(rng) for _ in range(30)] + _memo_grid()
    for a in others:
        for c in _constants():
            for x, y in ((a, c), (c, a)):
                for op, f in ops.items():
                    if op == "/" and not y:
                        continue
                    got = f(x, y)
                    assert (got.num, got.den) == _expected(x, y, op), (x, op, y)
                    _assert_canonical(got)
            if c == 1 and isinstance(c, RatQ):
                assert a * c is a  # a constant a is itself the unit checked first in c * a
                assert c * a is a or (len(a.num) < 2 and a.den == (1,))


def test_zero_fraction_is_canonical_zero():
    z = RatQ.from_fraction(Fraction(0))
    assert (z.num, z.den) == (ZERO.num, ZERO.den)
    assert z == ZERO and ZERO == Fraction(0) and not z and str(z) == "0"
    for v in (RatQ(-3) * Fraction(0), Fraction(0) * Q, NU + Fraction(0) - NU):
        assert (v.num, v.den) == ((), (1,)), v


@pytest.mark.parametrize("op", [operator.add, operator.sub, operator.mul, operator.truediv])
def test_float_operand_raises_type_error(op):
    """Q(q) has no floats: either side raises TypeError, never a recursion."""
    for x in (ONE, ZERO, NU):
        with pytest.raises(TypeError):
            op(x, 2.0)
        with pytest.raises(TypeError):
            op(2.0, x)


def _memo_grid():
    """Laurent, general-denominator, integer and above-gate values; pairs
    share a numerator with different denominators, so a key that dropped
    either den would mix them up.  With the gate at 24 entries, two `mid`
    are at it, `mid` and `mid * Q` one past it, and `big` and anything else
    past it."""
    mid = RatQ(tuple(range(1, 10)), (1, 0, 1))  # 12 entries
    big = RatQ(tuple(range(1, 22)), (1, 0, 1))  # 24 entries
    return [
        ZERO, ONE, -ONE, RatQ(2), RatQ(-6), RatQ(1, 2), RatQ(3, 4),
        Q, QINV, qpow(-2), NU, TWO_Q, -NU * QINV, RatQ((1, 0, 1), (0, 0, 2)),
        RatQ(1, (1, 1)), RatQ(1, (1, 0, 1)), RatQ((2, 0, 2), (3, 3)), RatQ((0, 1), (1, 1)),
        RatQ((1, 1), (1, 0, 1)), Q / (Q * Q + 1), mid, mid * Q, -mid, big, big * QINV,
    ]


def _size(x, y):
    return len(x.num) + len(x.den) + len(y.num) + len(y.den)


def test_memo_matches_polynomial_arithmetic():
    """Memoised + and * against `_add` and `_mul` over a grid, three rounds
    so that later rounds hit the tables: every result canonical and equal
    to the oracle's; operands within the gate, and only those, are keyed,
    and operands past it leave the table's size as it was; a product by 1
    is the other operand itself."""
    grid = _memo_grid()
    for _ in range(3):
        for x in grid:
            for y in grid:
                key = (x.num, x.den, y.num, y.den)
                for op, oracle, table in (
                    (operator.add, _add, scalars._SUMS),
                    (operator.mul, _mul, scalars._PRODUCTS),
                ):
                    size = len(table)
                    got, want = op(x, y), oracle(x, y)
                    assert (got.num, got.den) == (want.num, want.den), (x, op, y)
                    _assert_canonical(got)
                    integer = op is operator.mul and any(
                        len(v.num) < 2 and v.den == (1,) for v in (x, y)
                    )
                    if not integer:
                        assert (key in table) == (_size(x, y) <= scalars._MEMO_GATE), (x, op, y)
                        assert _size(x, y) <= scalars._MEMO_GATE or len(table) == size, (x, op, y)
            assert x * ONE is x
            assert ONE * x is x or (len(x.num) < 2 and x.den == (1,))  # x first in ONE * x


def test_memo_tables_stay_small_after_long_coproduct(capsys):
    """The coproduct of a 16-letter E-word makes ~10^5 distinct sums of
    large values; the gate keeps them out of the tables."""
    from qflag.cli import run

    before = len(scalars._SUMS) + len(scalars._PRODUCTS)
    assert run(["coproduct", "--rank", "2", "--expr", " ".join(["E1 E2"] * 8)]) == 0
    assert capsys.readouterr().out.count("(x)") > 100
    assert len(scalars._SUMS) + len(scalars._PRODUCTS) - before < 5000


def test_negation_matches_gcd_and_is_cached_under_the_gate():
    """-x against the oracle twice, so the second call reads the cached
    negation: canonical, an involution, cached only for values within the
    memo gate, and holding no link back to x."""
    rng = random.Random(4248)
    for x in _memo_grid() + [_random_laurent(rng) for _ in range(40)] + [_random_ratq(rng) for _ in range(40)]:
        for _ in range(2):
            n = -x
            assert (n.num, n.den) == _canonical_by_gcd(tuple(-c for c in x.num), x.den), x
            _assert_canonical(n)
            assert -n == x and x + n == ZERO
        assert (x._neg is n) == (len(x.num) + len(x.den) <= scalars._MEMO_GATE), x
        assert n._neg is not x
    assert -ZERO == ZERO and not -ZERO and (-ZERO).num == ()

