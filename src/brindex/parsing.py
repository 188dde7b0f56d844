"""Recursive-descent parser for polynomial and 1-form expressions.

Grammar (whitespace insensitive, no implicit multiplication):

    expr    := sign? term (('+'|'-') term)*
    term    := factor ('*' factor)*
    factor  := base ('^' UINT)?
    base    := RATIONAL | VAR | '(' expr ')'
    RATIONAL:= UINT ('/' UINT)?

A 1-form is written coefficient-wise:  EXPR dVAR (('+'|'-') EXPR dVAR)*,
e.g. ``z dx + x dy + y dz``.  The marker ``dVAR`` must name a ring variable.

Values are term dicts {packed exponent: coefficient} in the layout of
``poly.MPoly``, kept free of zero coefficients, so sums, products and powers
are dict operations with int exponent additions; a single-term base raised to
a power is one term.  Each expression (each form coefficient) becomes one
MPoly at its end.
"""

from __future__ import annotations

import math
from fractions import Fraction

from .errors import ExprParseError
from .poly import MPoly, OneForm, Ring, _from_dict, _packer

# Deepest parenthesis nesting accepted; each level costs a few interpreter
# frames, and this keeps the parser well inside the default recursion limit.
MAX_NESTING = 100

# Highest total degree a power or product may reach.  The check runs before
# the power or product is formed, so an exponent like x^99999999999 is
# rejected at once instead of exhausting memory.
MAX_DEGREE = 1000

# Most terms a product may have.  The check runs before the product is formed
# and counts len(f) * len(g), capped by the number of monomials of the
# product's degree or less: the degree cap alone admits (x + y + 1)^1000, whose
# half a million terms would take hours to form.
MAX_TERMS = 5000


class _Token:
    __slots__ = ("kind", "text", "pos")

    def __init__(self, kind: str, text: str, pos: int):
        self.kind = kind  # INT NAME OP END
        self.text = text
        self.pos = pos


_OPS = set("+-*^/()")
# ASCII only: str.isdigit() also accepts superscripts and other scripts' digits.
_DIGITS = set("0123456789")


def _lex(text: str) -> list[_Token]:
    out = []
    i = 0
    n = len(text)
    while i < n:
        ch = text[i]
        if ch.isspace():
            i += 1
            continue
        if ch in _DIGITS:
            j = i
            while j < n and text[j] in _DIGITS:
                j += 1
            out.append(_Token("INT", text[i:j], i))
            i = j
            continue
        if ch.isalpha() or ch == "_":
            j = i
            while j < n and (text[j].isalnum() or text[j] == "_"):
                j += 1
            out.append(_Token("NAME", text[i:j], i))
            i = j
            continue
        if ch in _OPS:
            out.append(_Token("OP", ch, i))
            i += 1
            continue
        raise ExprParseError(f"unexpected character {ch!r}", i)
    out.append(_Token("END", "", n))
    return out


def _int(tok: _Token) -> int:
    try:
        return int(tok.text)
    except ValueError:  # more digits than int() converts from a string
        raise ExprParseError("integer literal is too long", tok.pos) from None


def _check_degree(degree: int, pos: int) -> None:
    if degree > MAX_DEGREE:
        raise ExprParseError(f"degree {degree} exceeds the cap {MAX_DEGREE}", pos)


def _poly(ring: Ring, f: dict) -> MPoly:
    """The MPoly of a term dict.  MAX_DEGREE keeps every exponent inside the
    packed layout; the layout's own check runs once, on the highest term."""
    if f:
        _packer(ring.n).check(max(f))
    return _from_dict(ring, f)


def _degree(f: dict, shift: int) -> int:
    """Total degree of a term dict; -1 for zero."""
    return max(f) >> shift if f else -1


def _add_into(f: dict, g: dict, sign: int) -> dict:
    """f + sign * g, reusing f, which the caller owns."""
    for k, c in g.items():
        v = f.get(k, 0) + c if sign > 0 else f.get(k, 0) - c
        if v:
            f[k] = v
        else:
            del f[k]
    return f


def _mul(f: dict, g: dict, n: int, shift: int, pos: int) -> dict:
    """f * g in ``n`` variables; raises at ``pos`` past MAX_TERMS terms."""
    if len(f) * len(g) > MAX_TERMS:  # both nonempty, so the degree is >= 0
        size = math.comb(n + _degree(f, shift) + _degree(g, shift), n)
        if size > MAX_TERMS:
            raise ExprParseError(
                f"product of up to {min(len(f) * len(g), size)} terms "
                f"exceeds the cap {MAX_TERMS}",
                pos,
            )
    if len(f) > len(g):
        f, g = g, f
    if len(f) == 1:
        ((k1, c1),) = f.items()
        return {k1 + k2: c1 * c2 for k2, c2 in g.items()}
    acc: dict = {}
    for k1, c1 in f.items():
        for k2, c2 in g.items():
            k = k1 + k2
            acc[k] = acc.get(k, 0) + c1 * c2
    return {k: c for k, c in acc.items() if c}


def _pow(f: dict, exponent: int, n: int, shift: int, pos: int) -> dict:
    if exponent == 0:
        return {0: 1}
    if len(f) == 1:  # a single term: one term again
        ((k, c),) = f.items()
        return {k * exponent: c**exponent}
    result = {0: 1}
    while exponent:
        if exponent & 1:
            result = _mul(result, f, n, shift, pos)
        exponent >>= 1
        if exponent:
            f = _mul(f, f, n, shift, pos)
    return result


class _Parser:
    def __init__(self, tokens: list[_Token], ring: Ring):
        self.tokens = tokens
        self.ring = ring
        packer = _packer(ring.n)
        self.units, self.shift = packer.units, packer.shift
        self.i = 0
        self.depth = 0

    def peek(self) -> _Token:
        return self.tokens[self.i]

    def advance(self) -> _Token:
        tok = self.tokens[self.i]
        self.i += 1
        return tok

    def expect_op(self, op: str) -> _Token:
        tok = self.peek()
        if tok.kind != "OP" or tok.text != op:
            raise ExprParseError(f"expected {op!r}", tok.pos)
        return self.advance()

    def expr(self) -> dict:
        sign = 1
        tok = self.peek()
        if tok.kind == "OP" and tok.text in "+-":
            self.advance()
            sign = -1 if tok.text == "-" else 1
        result = self.term()
        if sign < 0:
            result = {k: -c for k, c in result.items()}
        while True:
            tok = self.peek()
            if tok.kind == "OP" and tok.text in "+-":
                self.advance()
                result = _add_into(result, self.term(), -1 if tok.text == "-" else 1)
            else:
                return result

    def term(self) -> dict:
        result = self.factor()
        while True:
            tok = self.peek()
            if tok.kind == "OP" and tok.text == "*":
                self.advance()
                rhs = self.factor()
                _check_degree(
                    _degree(result, self.shift) + _degree(rhs, self.shift), tok.pos
                )
                result = _mul(result, rhs, self.ring.n, self.shift, tok.pos)
            else:
                return result

    def factor(self) -> dict:
        base = self.base()
        tok = self.peek()
        if tok.kind == "OP" and tok.text == "^":
            self.advance()
            etok = self.peek()
            if etok.kind != "INT":
                raise ExprParseError("exponent must be a nonnegative integer", etok.pos)
            self.advance()
            exponent = _int(etok)
            # Constants have degree 0, so the exponent is capped on its own.
            if exponent > MAX_DEGREE:
                raise ExprParseError(
                    f"exponent {exponent} exceeds the cap {MAX_DEGREE}", etok.pos
                )
            _check_degree(_degree(base, self.shift) * exponent, etok.pos)
            return _pow(base, exponent, self.ring.n, self.shift, tok.pos)
        return base

    def base(self) -> dict:
        tok = self.peek()
        if tok.kind == "INT":
            self.advance()
            num = _int(tok)
            nxt = self.peek()
            if nxt.kind == "OP" and nxt.text == "/":
                self.advance()
                dtok = self.peek()
                if dtok.kind != "INT":
                    raise ExprParseError("expected integer denominator", dtok.pos)
                self.advance()
                den = _int(dtok)
                if den == 0:
                    raise ExprParseError("zero denominator", dtok.pos)
                num = Fraction(num, den)
            return {0: num} if num else {}
        if tok.kind == "NAME":
            if tok.text not in self.ring.names:
                raise ExprParseError(
                    f"unknown variable {tok.text!r} (ring has {', '.join(self.ring.names)})",
                    tok.pos,
                )
            self.advance()
            return {self.units[self.ring.index(tok.text)]: 1}
        if tok.kind == "OP" and tok.text == "(":
            if self.depth == MAX_NESTING:
                raise ExprParseError(
                    f"parentheses nested deeper than {MAX_NESTING}", tok.pos
                )
            self.advance()
            self.depth += 1
            inner = self.expr()
            self.depth -= 1
            self.expect_op(")")
            return inner
        raise ExprParseError("expected a number, variable or parenthesis", tok.pos)


def parse_poly(text: str, ring: Ring) -> MPoly:
    """Parse an expression into an exact polynomial of ``ring``."""
    tokens = _lex(text)
    parser = _Parser(tokens, ring)
    result = parser.expr()
    tok = parser.peek()
    if tok.kind != "END":
        raise ExprParseError(f"unexpected trailing input {tok.text!r}", tok.pos)
    return _poly(ring, result)


def parse_form(text: str, ring: Ring) -> OneForm:
    """Parse ``EXPR dVAR + EXPR dVAR + ...`` into a OneForm."""
    tokens = _lex(text)
    markers = {f"d{name}": i for i, name in enumerate(ring.names)}
    coeffs: list[dict] = [{} for _ in range(ring.n)]
    seg_start = 0
    seen_any = False
    k = 0
    while k < len(tokens):
        tok = tokens[k]
        if tok.kind == "NAME" and tok.text in markers:
            segment = tokens[seg_start:k] + [_Token("END", "", tok.pos)]
            if len(segment) == 1:
                raise ExprParseError("missing coefficient before " + tok.text, tok.pos)
            parser = _Parser(segment, ring)
            coeff = parser.expr()
            end = parser.peek()
            if end.kind != "END":
                raise ExprParseError(
                    f"unexpected input {end.text!r} in form coefficient", end.pos
                )
            idx = markers[tok.text]
            coeffs[idx] = _add_into(coeffs[idx], coeff, 1)
            seen_any = True
            nxt = tokens[k + 1]
            if nxt.kind == "OP" and nxt.text in "+-":
                seg_start = k + 1  # sign belongs to the next coefficient
                k += 2
                continue
            if nxt.kind != "END":
                raise ExprParseError("expected '+', '-' or end of form", nxt.pos)
            seg_start = k + 1
            k += 1
            continue
        if tok.kind == "END":
            break
        k += 1
    if not seen_any:
        raise ExprParseError("a 1-form needs at least one dVAR component", 0)
    if tokens[seg_start].kind != "END":
        raise ExprParseError(
            "trailing input after the last dVAR component", tokens[seg_start].pos
        )
    return OneForm(ring, tuple(_poly(ring, c) for c in coeffs))
