"""Sparse multivariate polynomials over exact rationals.

Terms are kept as a tuple sorted by the module-wide local monomial order
(negative degree refined by reverse lexicography), so the leading term of a
germ at the origin, the one of *minimal* total degree, sits at index 0 and
``1`` is the largest monomial.  All coefficients are ``fractions.Fraction``;
no floating point enters anywhere.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Iterator, Sequence

Exp = tuple[int, ...]
Scalar = Fraction | int


def local_key(e: Exp):
    """Sort key for the local order: minimal key = leading monomial.

    x^a > x^b  iff  deg a < deg b, or degrees tie and reversed(a) < reversed(b)
    lexicographically.  Compatible with multiplication, and 1 beats everything.
    """
    return (sum(e), e[::-1])


def global_key(e: Exp):
    """Sort key for a degree-ascending global order (used by exact division)."""
    return (-sum(e), e[::-1])


def monomial_divides(a: Exp, b: Exp) -> bool:
    """True when x^a divides x^b."""
    return all(ai <= bi for ai, bi in zip(a, b))


def exp_sub(a: Exp, b: Exp) -> Exp:
    return tuple(ai - bi for ai, bi in zip(a, b))


def exp_add(a: Exp, b: Exp) -> Exp:
    return tuple(ai + bi for ai, bi in zip(a, b))


def exp_lcm(a: Exp, b: Exp) -> Exp:
    return tuple(max(ai, bi) for ai, bi in zip(a, b))


@dataclass(frozen=True)
class Ring:
    """A polynomial ring identified by its ordered variable names."""

    names: tuple[str, ...]

    def __post_init__(self):
        if len(set(self.names)) != len(self.names):
            raise ValueError(f"duplicate variable names: {self.names}")
        if not self.names:
            raise ValueError("a ring needs at least one variable")

    @property
    def n(self) -> int:
        return len(self.names)

    def index(self, name: str) -> int:
        try:
            return self.names.index(name)
        except ValueError:
            raise KeyError(f"unknown variable {name!r} in ring {self.names}") from None

    def zero(self) -> "MPoly":
        return MPoly(self, {})

    def one(self) -> "MPoly":
        return self.constant(1)

    def constant(self, c: Scalar) -> "MPoly":
        c = Fraction(c)
        if c == 0:
            return self.zero()
        return MPoly(self, {(0,) * self.n: c})

    def var(self, which: int | str) -> "MPoly":
        i = which if isinstance(which, int) else self.index(which)
        if not 0 <= i < self.n:
            raise IndexError(f"variable index {i} out of range for {self.names}")
        e = [0] * self.n
        e[i] = 1
        return MPoly(self, {tuple(e): Fraction(1)})

    def monomial(self, exp: Exp, coeff: Scalar = 1) -> "MPoly":
        if len(exp) != self.n or any(k < 0 for k in exp):
            raise ValueError(f"bad exponent {exp} for ring {self.names}")
        return MPoly(self, {tuple(exp): Fraction(coeff)})

    def parse(self, text: str) -> "MPoly":
        from .parsing import parse_poly

        return parse_poly(text, self)

    def __repr__(self):
        return f"Ring({', '.join(self.names)})"


def ring(*names: str) -> Ring:
    return Ring(tuple(names))


class MPoly:
    """Immutable sparse polynomial.

    ``_terms`` is a tuple of (exponent, coefficient) pairs sorted ascending by
    ``local_key``, i.e. the local leading term first.  Zero coefficients never
    appear.
    """

    __slots__ = ("ring", "_terms")

    def __init__(self, ring: Ring, terms: dict):
        cleaned = {e: c for e, c in terms.items() if c != 0}
        object.__setattr__(self, "ring", ring)
        object.__setattr__(
            self,
            "_terms",
            tuple(sorted(cleaned.items(), key=lambda item: local_key(item[0]))),
        )

    @classmethod
    def _from_sorted(cls, ring: Ring, terms: tuple) -> "MPoly":
        """Trusted constructor: ``terms`` already canonical."""
        self = object.__new__(cls)
        object.__setattr__(self, "ring", ring)
        object.__setattr__(self, "_terms", terms)
        return self

    # -- structure ---------------------------------------------------------

    def __bool__(self) -> bool:
        return bool(self._terms)

    @property
    def is_zero(self) -> bool:
        return not self._terms

    def terms(self) -> Iterator[tuple[Exp, Fraction]]:
        return iter(self._terms)

    def as_dict(self) -> dict:
        return dict(self._terms)

    def coeff(self, exp: Exp) -> Fraction:
        for e, c in self._terms:
            if e == exp:
                return c
        return Fraction(0)

    def constant_term(self) -> Fraction:
        zero = (0,) * self.ring.n
        return self.coeff(zero)

    def leading_exp(self) -> Exp:
        """Exponent of the local leading term (minimal total degree)."""
        if not self._terms:
            raise ValueError("zero polynomial has no leading term")
        return self._terms[0][0]

    def leading_coeff(self) -> Fraction:
        if not self._terms:
            raise ValueError("zero polynomial has no leading term")
        return self._terms[0][1]

    def total_degree(self) -> int:
        """Maximal total degree of a term; -1 for the zero polynomial."""
        if not self._terms:
            return -1
        return max(sum(e) for e, _ in self._terms)

    def order(self) -> int | float:
        """Minimal total degree of a term; +infinity for the zero polynomial."""
        if not self._terms:
            return math.inf
        return sum(self._terms[0][0])

    def ecart(self) -> int:
        """total_degree - order; the classical measure of local inhomogeneity."""
        if not self._terms:
            raise ValueError("ecart of the zero polynomial is undefined")
        return self.total_degree() - self.order()

    # -- arithmetic ---------------------------------------------------------

    def _merge_add(self, other_terms: tuple) -> "MPoly":
        """Add a canonical term tuple to self's (both sorted); linear merge."""
        a, b = self._terms, other_terms
        out = []
        i = j = 0
        while i < len(a) and j < len(b):
            ea, ca = a[i]
            eb, cb = b[j]
            ka, kb = local_key(ea), local_key(eb)
            if ka < kb:
                out.append(a[i])
                i += 1
            elif kb < ka:
                out.append(b[j])
                j += 1
            else:
                c = ca + cb
                if c != 0:
                    out.append((ea, c))
                i += 1
                j += 1
        out.extend(a[i:])
        out.extend(b[j:])
        return MPoly._from_sorted(self.ring, tuple(out))

    def __add__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self._merge_add(other._terms)

    __radd__ = __add__

    def __neg__(self):
        return MPoly._from_sorted(
            self.ring, tuple((e, -c) for e, c in self._terms)
        )

    def __sub__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self._merge_add((-other)._terms)

    def __rsub__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return other._merge_add((-self)._terms)

    def mono_mul(self, exp: Exp, coeff: Scalar) -> "MPoly":
        """Multiply by coeff * x^exp.  Preserves canonical term order."""
        coeff = Fraction(coeff)
        if coeff == 0:
            return self.ring.zero()
        return MPoly._from_sorted(
            self.ring,
            tuple((exp_add(e, exp), c * coeff) for e, c in self._terms),
        )

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return self.mono_mul((0,) * self.ring.n, other)
        if not isinstance(other, MPoly):
            return NotImplemented
        if other.ring != self.ring:
            raise ValueError("cannot multiply polynomials from different rings")
        if len(self._terms) > len(other._terms):
            self, other = other, self
        acc: dict = {}
        for e1, c1 in self._terms:
            for e2, c2 in other._terms:
                e = exp_add(e1, e2)
                c = acc.get(e)
                acc[e] = c1 * c2 if c is None else c + c1 * c2
        return MPoly(self.ring, acc)

    __rmul__ = __mul__

    def __pow__(self, k: int):
        if not isinstance(k, int) or k < 0:
            raise ValueError("exponent must be a nonnegative integer")
        result = self.ring.one()
        base = self
        while k:
            if k & 1:
                result = result * base
            base_needed = k >> 1
            if base_needed:
                base = base * base
            k = base_needed
        return result

    def _coerce(self, other):
        if isinstance(other, MPoly):
            if other.ring != self.ring:
                raise ValueError("mixed rings in polynomial arithmetic")
            return other
        if isinstance(other, (int, Fraction)):
            return self.ring.constant(other)
        return NotImplemented

    # -- comparison ---------------------------------------------------------

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            other = self.ring.constant(other)
        if not isinstance(other, MPoly):
            return NotImplemented
        return self.ring == other.ring and self._terms == other._terms

    def __hash__(self):
        return hash((self.ring, self._terms))

    # -- calculus and substitution -------------------------------------------

    def partial(self, which: int | str) -> "MPoly":
        """Formal partial derivative with respect to one variable."""
        i = which if isinstance(which, int) else self.ring.index(which)
        if not 0 <= i < self.ring.n:
            raise IndexError(f"variable index {i} out of range")
        acc: dict = {}
        for e, c in self._terms:
            if e[i] == 0:
                continue
            d = list(e)
            d[i] -= 1
            acc[tuple(d)] = c * e[i]
        return MPoly(self.ring, acc)

    def subs(self, target: Ring, images: Sequence["MPoly"]) -> "MPoly":
        """Composite with x_i -> images[i]; images live in ``target``."""
        if len(images) != self.ring.n:
            raise ValueError("need one image per variable")
        pow_cache: list[list[MPoly]] = [[target.one(), img] for img in images]

        def power(i: int, k: int) -> MPoly:
            cache = pow_cache[i]
            while len(cache) <= k:
                cache.append(cache[-1] * cache[1])
            return cache[k]

        result = target.zero()
        for e, c in self._terms:
            term = target.constant(c)
            for i, k in enumerate(e):
                if k:
                    term = term * power(i, k)
            result = result + term
        return result

    def eval_at(self, point: Sequence[Scalar]) -> Fraction:
        if len(point) != self.ring.n:
            raise ValueError("need one coordinate per variable")
        pt = [Fraction(c) for c in point]
        total = Fraction(0)
        for e, c in self._terms:
            val = c
            for i, k in enumerate(e):
                if k:
                    val *= pt[i] ** k
            total += val
        return total

    def restrict(self, which: int, value: Scalar = 0) -> "MPoly":
        """A bivariate polynomial with variable ``which`` set to ``value``, as
        a univariate polynomial in the other variable."""
        keep = 1 - which
        value = Fraction(value)
        acc: dict = {}
        for e, c in self._terms:
            out = (e[keep],)
            acc[out] = acc.get(out, Fraction(0)) + c * value ** e[which]
        return MPoly(ring(self.ring.names[keep]), acc)

    def translate(self, point: Sequence[Scalar]) -> "MPoly":
        """Recenter: returns f(x + p), so the point p moves to the origin."""
        images = [
            self.ring.var(i) + self.ring.constant(c) for i, c in enumerate(point)
        ]
        return self.subs(self.ring, images)

    def homogenize(self, target: Ring, extra: int | str, degree: int | None = None) -> "MPoly":
        """Homogenize with the variable ``extra`` of ``target``.

        ``target`` must contain the source variables (same order) plus the
        homogenizing one.  With the default degree this produces the usual
        projective closure equation.
        """
        j = extra if isinstance(extra, int) else target.index(extra)
        src_positions = [target.index(name) for name in self.ring.names]
        if degree is None:
            degree = max(self.total_degree(), 0)
        acc: dict = {}
        for e, c in self._terms:
            d = sum(e)
            if d > degree:
                raise ValueError("requested homogenization degree too small")
            out = [0] * target.n
            for pos, k in zip(src_positions, e):
                out[pos] = k
            out[j] += degree - d
            acc[tuple(out)] = acc.get(tuple(out), Fraction(0)) + c
        return MPoly(target, acc)

    def dehomogenize(self, target: Ring, which: int | str, keep: Sequence[int | str]) -> "MPoly":
        """Set variable ``which`` to 1 and reorder the rest into ``target``."""
        i = which if isinstance(which, int) else self.ring.index(which)
        keep_idx = [k if isinstance(k, int) else self.ring.index(k) for k in keep]
        if len(keep_idx) != target.n:
            raise ValueError("kept variables must match the target ring")
        acc: dict = {}
        for e, c in self._terms:
            out = tuple(e[k] for k in keep_idx)
            acc[out] = acc.get(out, Fraction(0)) + c
        return MPoly(target, acc)

    # -- rendering -----------------------------------------------------------

    def __repr__(self):
        if not self._terms:
            return "0"
        chunks = []
        for e, c in self._terms:
            mono = "*".join(
                f"{name}^{k}" if k > 1 else name
                for name, k in zip(self.ring.names, e)
                if k
            )
            if not mono:
                body = str(abs(c))
            elif abs(c) == 1:
                body = mono
            else:
                body = f"{abs(c)}*{mono}"
            sign = "-" if c < 0 else "+"
            chunks.append((sign, body))
        first_sign, first_body = chunks[0]
        out = ("-" if first_sign == "-" else "") + first_body
        for sign, body in chunks[1:]:
            out += f" {sign} {body}"
        return out


def exact_divide(f: MPoly, g: MPoly) -> MPoly | None:
    """Return q with f == q*g in the polynomial ring, or None when g ∤ f.

    Runs leading-term cancellation under a global (degree-descending) order,
    which terminates unconditionally; exactness means zero remainder.
    """
    if f.ring != g.ring:
        raise ValueError("mixed rings in exact_divide")
    if g.is_zero:
        raise ValueError("division by the zero polynomial")
    ring_ = f.ring
    quotient: dict = {}
    rem = f
    g_terms = sorted(g._terms, key=lambda item: global_key(item[0]))
    ge, gc = g_terms[0]
    g_sorted = MPoly(ring_, dict(g_terms))
    while not rem.is_zero:
        re, rc = min(rem._terms, key=lambda item: global_key(item[0]))
        if not monomial_divides(ge, re):
            return None
        qe = exp_sub(re, ge)
        qc = rc / gc
        quotient[qe] = quotient.get(qe, Fraction(0)) + qc
        rem = rem - g_sorted.mono_mul(qe, qc)
    return MPoly(ring_, quotient)


@dataclass(frozen=True)
class OneForm:
    """A polynomial 1-form  A_1 dx_1 + ... + A_n dx_n."""

    ring: Ring
    coeffs: tuple[MPoly, ...]

    def __post_init__(self):
        if len(self.coeffs) != self.ring.n:
            raise ValueError("need one coefficient per variable")
        for a in self.coeffs:
            if a.ring != self.ring:
                raise ValueError("form coefficients must share the ring")

    @classmethod
    def make(cls, ring_: Ring, coeffs: Iterable[MPoly | int | Fraction]) -> "OneForm":
        cs = tuple(
            c if isinstance(c, MPoly) else ring_.constant(c) for c in coeffs
        )
        return cls(ring_, cs)

    @classmethod
    def differential(cls, f: MPoly) -> "OneForm":
        """df = sum of partials."""
        return cls(f.ring, tuple(f.partial(i) for i in range(f.ring.n)))

    @property
    def is_zero(self) -> bool:
        return all(a.is_zero for a in self.coeffs)

    def apply(self, field: Sequence[MPoly]) -> MPoly:
        """Evaluate the form on a vector field given by its components."""
        if len(field) != self.ring.n:
            raise ValueError("field has wrong number of components")
        out = self.ring.zero()
        for a, xi in zip(self.coeffs, field):
            out = out + a * xi
        return out

    def __repr__(self):
        parts = [
            f"({a!r}) d{name}"
            for a, name in zip(self.coeffs, self.ring.names)
            if not a.is_zero
        ]
        return " + ".join(parts) if parts else "0"


def wedge_coeffs(omega: OneForm, phi: MPoly) -> dict[tuple[int, int], MPoly]:
    """Coefficients of omega ∧ dphi on the basis dx_j ∧ dx_k, j < k.

    The (j, k) entry is A_j * phi_{x_k} - A_k * phi_{x_j}.
    """
    if omega.ring != phi.ring:
        raise ValueError("form and polynomial live in different rings")
    n = phi.ring.n
    partials = [phi.partial(i) for i in range(n)]
    out: dict[tuple[int, int], MPoly] = {}
    for j in range(n):
        for k in range(j + 1, n):
            out[(j, k)] = omega.coeffs[j] * partials[k] - omega.coeffs[k] * partials[j]
    return out
