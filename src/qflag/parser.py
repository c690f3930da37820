"""Expression grammar shared by the library surface and the CLI.

Scalars:    q, nu, integers, named parameters, + - * /, ^ with integer
            exponents, parentheses.
Uq terms:   generators E1, F2, K3, K3^-1; q-commutators [X, Y]_{c} with a
            scalar subscript (braces optional for a single atom);
            juxtaposition or * for products; scalar coefficients anywhere
            in a product.
Oq words:   u[1,2]u[2,1] and sums/differences of such with scalar
            coefficients.
"""

from __future__ import annotations

import re

from qflag import weyl
from qflag.oq import OqElement
from qflag.scalars import NU, ONE, Q, RatQ
from qflag.uqsl import UqAlgebra, UqElement, qcomm

_TOKEN = re.compile(
    r"\s*(?:(?P<gen>[EFK]\d+)|(?P<u>u(?!\w))|(?P<name>[A-Za-z][A-Za-z_]*)|(?P<int>\d+)"
    r"|(?P<sym>\^|\+|-|\*|/|\(|\)|\[|\]|\{|\}|,|_|;))"
)


# |exponent| of scalar ^, K^, E^ and F^; the costliest command one exponent
# drives, the rank-1 coproduct of E1^k, takes about 0.2 s CPU at k = 32
# (0.3 s at 48, 0.6 s at 64, written out), and q^k builds a dense tuple of
# k + 1 entries
_EXPONENT_CAP = 32


class ParseError(ValueError):
    pass


def tokenize(text: str):
    out = []
    pos = 0
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if not m or m.end() == pos:
            if text[pos:].strip():
                raise ParseError(f"unexpected input at: {text[pos:][:20]!r}")
            break
        pos = m.end()
        kind, value = m.lastgroup, m.group(m.lastgroup)
        out.append((kind, int(value) if kind == "int" else value))
    return out


class _Stream:
    def __init__(self, tokens):
        self.toks = tokens
        self.i = 0

    def peek(self):
        return self.toks[self.i] if self.i < len(self.toks) else (None, None)

    def next(self):
        t = self.peek()
        self.i += 1
        return t

    def expect(self, kind, value=None):
        k, v = self.next()
        if k != kind or (value is not None and v != value):
            raise ParseError(f"expected {value or kind}, got {v!r}")
        return v

    def at_sym(self, *vals):
        k, v = self.peek()
        return k == "sym" and v in vals

    def done(self):
        return self.i >= len(self.toks)


def _parse_all(text: str, what: str, parse):
    """parse(stream) over the whole text; trailing input or a division by zero is an error."""
    s = _Stream(tokenize(text))
    try:
        out = parse(s)
    except ZeroDivisionError as e:
        raise ParseError(f"{e} in {what} {text!r}") from None
    if not s.done():
        raise ParseError(f"trailing input after {what}: {s.peek()[1]!r}")
    return out


def _sum(term, s: _Stream, *args):
    """term (('+' | '-') term)*, folded from the left."""
    out = term(s, *args)
    while s.at_sym("+", "-"):
        op = s.next()[1]
        rhs = term(s, *args)
        out = out + rhs if op == "+" else out - rhs
    return out


def _negated(s: _Stream) -> bool:
    """Consume leading minus signs; True when there is an odd number."""
    neg = False
    while s.at_sym("-"):
        s.next()
        neg = not neg
    return neg


# -- scalar expressions -------------------------------------------------------


def _scalar_expr(s: _Stream, params) -> RatQ:
    return _sum(_scalar_term, s, params)


def _scalar_term(s: _Stream, params) -> RatQ:
    out = _scalar_factor(s, params)
    while s.at_sym("*", "/"):
        op = s.next()[1]
        rhs = _scalar_factor(s, params)
        out = out * rhs if op == "*" else out / rhs
    return out


def _signed_int(s: _Stream) -> int:
    neg = _negated(s)
    k, v = s.next()
    if k != "int":
        raise ParseError(f"expected integer exponent, got {v!r}")
    if v > _EXPONENT_CAP:
        raise ParseError(f"exponent {v} exceeds the cap of {_EXPONENT_CAP}")
    return -v if neg else v


def _scalar_factor(s: _Stream, params) -> RatQ:
    neg = _negated(s)
    out = _scalar_atom(s, params)
    if s.at_sym("^"):
        s.next()
        out = out ** _signed_int(s)
    return -out if neg else out


def _scalar_atom(s: _Stream, params) -> RatQ:
    k, v = s.next()
    if k == "int":
        return RatQ(v)
    if k == "name":
        if v == "q":
            return Q
        if v == "nu":
            return NU
        if params and v in params:
            return params[v]
        raise ParseError(f"unknown scalar name {v!r}")
    if k == "sym" and v == "(":
        out = _scalar_expr(s, params)
        s.expect("sym", ")")
        return out
    raise ParseError(f"unexpected token {v!r} in scalar expression")


def parse_scalar(text: str, params: dict[str, RatQ] | None = None) -> RatQ:
    return _parse_all(text, "scalar", lambda s: _scalar_expr(s, params or {}))


# -- Uq expressions -----------------------------------------------------------


def _uq_expr(s: _Stream, alg: UqAlgebra, params) -> UqElement:
    return _sum(_uq_term, s, alg, params)


def _uq_term(s: _Stream, alg: UqAlgebra, params) -> UqElement:
    neg = _negated(s)
    out = alg.one()
    saw = False
    while True:
        k, v = s.peek()
        if k == "sym" and v == "*":
            s.next()
            continue
        if k == "sym" and v == "/":
            s.next()
            out = out.scale(_scalar_factor(s, params).inverse())
            continue
        piece = _uq_primary(s, alg, params)
        if piece is None:
            break
        saw = True
        out = out * piece if isinstance(piece, UqElement) else out.scale(piece)
    if not saw:
        raise ParseError("empty term in expression")
    return -out if neg else out


def _uq_primary(s: _Stream, alg: UqAlgebra, params):
    k, v = s.peek()
    if k == "gen":
        s.next()
        kind, idx = v[0], int(v[1:])
        exp = 1
        if kind == "K" and s.at_sym("^"):
            s.next()
            exp = _signed_int(s)
        if kind == "E":
            out = alg.E(idx)
        elif kind == "F":
            out = alg.F(idx)
        else:
            out = alg.K(idx, exp)
        if kind != "K" and s.at_sym("^"):
            s.next()
            e = _signed_int(s)
            if e < 0:
                raise ParseError(f"negative powers of {v} are not invertible")
            acc = alg.one()
            for _ in range(e):
                acc = acc * out
            out = acc
        return out
    if k == "sym" and v == "[":
        s.next()
        left = _uq_expr(s, alg, params)
        s.expect("sym", ",")
        right = _uq_expr(s, alg, params)
        s.expect("sym", "]")
        s.expect("sym", "_")
        if s.at_sym("{"):
            s.next()
            c = _scalar_expr(s, params)
            s.expect("sym", "}")
        else:
            c = _scalar_factor(s, params)
        return qcomm(left, right, c)
    if k == "sym" and v == "(":
        s.next()
        out = _uq_expr(s, alg, params)
        s.expect("sym", ")")
        return out
    if k in ("int", "name"):
        return _scalar_factor(s, params)
    return None


def parse_uq(text: str, alg: UqAlgebra, params: dict[str, RatQ] | None = None) -> UqElement:
    return _parse_all(text, "expression", lambda s: _uq_expr(s, alg, params or {}))


def parse_tangent_exprs(
    text: str, alg: UqAlgebra, params: dict[str, RatQ] | None = None
) -> list[UqElement]:
    """Semicolon-separated list of positive-part expressions."""
    return [parse_uq(part, alg, params) for part in text.split(";") if part.strip()]


# -- Oq words -----------------------------------------------------------------


def _u_letter(s: _Stream, n: int):
    s.expect("u")
    s.expect("sym", "[")
    k, a = s.next()
    if k != "int":
        raise ParseError("expected row index")
    s.expect("sym", ",")
    k, b = s.next()
    if k != "int":
        raise ParseError("expected column index")
    s.expect("sym", "]")
    if not (1 <= a <= n + 1 and 1 <= b <= n + 1):
        raise ParseError(f"matrix indices must lie in 1..{n + 1}")
    return (a, b)


def _oq_term(s: _Stream, n: int, params) -> OqElement:
    neg = _negated(s)
    coeff = ONE
    word = []
    saw = False
    while True:
        k, v = s.peek()
        if k == "u":
            word.append(_u_letter(s, n))
            saw = True
        elif k == "sym" and v == "*":
            s.next()
        elif k in ("int", "name") or (k == "sym" and v == "("):
            coeff = coeff * _scalar_factor(s, params)
            saw = True
        else:
            break
    if not saw:
        raise ParseError("empty term in word expression")
    out = OqElement(n, {tuple(word): coeff})
    return -out if neg else out


def parse_oq(text: str, n: int, params: dict[str, RatQ] | None = None) -> OqElement:
    """Sums of scalar multiples of u-words, e.g. 'u[1,1]u[2,2] - q*u[1,2]u[2,1]'."""
    return _parse_all(text, "word", lambda s: _sum(_oq_term, s, n, params or {}))


def parse_word(text: str, n: int) -> tuple[int, ...]:
    """Reduced-word syntax: digit string for n <= 9, else comma-separated;
    'nice' and 'nice-op' aliases."""
    t = text.strip().lower()
    if t == "nice":
        return weyl.nice_word(n)
    if t in ("nice-op", "niceop", "nice_op"):
        return weyl.opposite_word(weyl.nice_word(n), n)
    fields = [x.strip() for x in t.split(",")] if "," in t else list(t)
    if not fields or not all(x.isdecimal() for x in fields):
        raise ParseError(f"cannot parse word {text!r}")
    return tuple(int(x) for x in fields)
