"""Recursive-descent parser for polynomial and 1-form expressions.

Grammar (whitespace insensitive, no implicit multiplication):

    expr    := sign? term (('+'|'-') term)*
    term    := factor ('*' factor)*
    factor  := base ('^' UINT)?
    base    := RATIONAL | VAR | '(' expr ')'
    RATIONAL:= UINT ('/' UINT)?

A 1-form is written coefficient-wise:  EXPR dVAR (('+'|'-') EXPR dVAR)*,
e.g. ``z dx + x dy + y dz``.  The marker ``dVAR`` must name a ring variable.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .errors import ExprParseError
from .poly import MPoly, OneForm, Ring

# Deepest parenthesis nesting accepted; each level costs a few interpreter
# frames, and this keeps the parser well inside the default recursion limit.
MAX_NESTING = 100

# Highest total degree a power or product may reach.  The check runs before
# the power or product is formed, so an exponent like x^99999999999 is
# rejected at once instead of exhausting memory.
MAX_DEGREE = 1000


@dataclass(frozen=True)
class _Token:
    kind: str  # INT NAME OP END
    text: str
    pos: int


_OPS = set("+-*^/()")


def _lex(text: str) -> list[_Token]:
    out = []
    i = 0
    n = len(text)
    while i < n:
        ch = text[i]
        if ch.isspace():
            i += 1
            continue
        if ch.isdigit():
            j = i
            while j < n and text[j].isdigit():
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


class _Parser:
    def __init__(self, tokens: list[_Token], ring: Ring):
        self.tokens = tokens
        self.ring = ring
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

    def expr(self) -> MPoly:
        sign = 1
        tok = self.peek()
        if tok.kind == "OP" and tok.text in "+-":
            self.advance()
            sign = -1 if tok.text == "-" else 1
        result = self.term()
        if sign < 0:
            result = -result
        while True:
            tok = self.peek()
            if tok.kind == "OP" and tok.text in "+-":
                self.advance()
                rhs = self.term()
                result = result - rhs if tok.text == "-" else result + rhs
            else:
                return result

    def term(self) -> MPoly:
        result = self.factor()
        while True:
            tok = self.peek()
            if tok.kind == "OP" and tok.text == "*":
                self.advance()
                rhs = self.factor()
                _check_degree(result.total_degree() + rhs.total_degree(), tok.pos)
                result = result * rhs
            else:
                return result

    def factor(self) -> MPoly:
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
            _check_degree(base.total_degree() * exponent, etok.pos)
            return base ** exponent
        return base

    def base(self) -> MPoly:
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
                return self.ring.constant(Fraction(num, den))
            return self.ring.constant(num)
        if tok.kind == "NAME":
            if tok.text not in self.ring.names:
                raise ExprParseError(
                    f"unknown variable {tok.text!r} (ring has {', '.join(self.ring.names)})",
                    tok.pos,
                )
            self.advance()
            return self.ring.var(tok.text)
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
    return result


def parse_form(text: str, ring: Ring) -> OneForm:
    """Parse ``EXPR dVAR + EXPR dVAR + ...`` into a OneForm."""
    tokens = _lex(text)
    markers = {f"d{name}": i for i, name in enumerate(ring.names)}
    coeffs = [ring.zero() for _ in range(ring.n)]
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
            coeffs[idx] = coeffs[idx] + coeff
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
    return OneForm(ring, tuple(coeffs))
