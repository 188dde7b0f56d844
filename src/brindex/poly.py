"""Sparse multivariate polynomials over exact rationals.

A term's exponent is stored packed into one int (Monagan-Pearce): variable i
sits in the F-bit field at bit i*F (F = _FIELD_BITS = 32) and the total
degree in the field above all of them.  Integer order is then the module-wide
local monomial order (negative degree refined by reverse lexicography), so
terms are kept as a tuple of (packed exponent, coefficient) pairs sorted by
their int, the leading term of a germ at the origin, the one of *minimal*
total degree, sits at index 0, and ``1`` (packed 0) is the largest monomial.
A monomial product is one int addition, division by a monomial one
subtraction.  The top bit of every field is a guard bit, zero in every packed
exponent; with G the mask of all guard bits, x^a divides x^b exactly when
((b | G) - a) & G == G.  A degree of 2^(F-1) or more does not fit: building
such a polynomial raises ResourceLimitError.  `_Packer` holds this layout; the
standard-basis engine in ``localalg`` works on the same packed ints.

The public API speaks exponent tuples: the constructor ``MPoly(ring, {exp:
coeff})``, ``terms()``, ``as_dict()``, ``coeff()``, ``leading_exp()`` and
``integer_terms()`` pack or unpack at the boundary, and the constructor
refuses an exponent of the wrong length or with a negative entry.

A coefficient is stored as an ``int`` when it is integral and as a
``fractions.Fraction`` only when its denominator exceeds 1, so integer inputs
(the usual case) run on integer arithmetic.  ``_scalar`` makes that canonical
form wherever a coefficient is built.  No coefficient is ever a float:
``_scalar`` raises TypeError on one, and a caller that divides coefficients
goes through ``Fraction`` (``Fraction(a) / b``), since ``/`` on two ints gives
a float.
"""

from __future__ import annotations

import itertools
import math
import operator
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from typing import Iterator, Sequence

from .errors import ComputationError, ResourceLimitError

Exp = tuple[int, ...]
Scalar = Fraction | int


def local_key(e: Exp):
    """Sort key for the local order: minimal key = leading monomial.

    x^a > x^b  iff  deg a < deg b, or degrees tie and reversed(a) < reversed(b)
    lexicographically.  Compatible with multiplication, and 1 beats everything.
    """
    return (sum(e), e[::-1])


def _scalar(c) -> Scalar:
    """The canonical coefficient: an int when integral, else a Fraction.

    Anything else, a float above all, is refused rather than converted.
    """
    if type(c) is int:
        return c
    if isinstance(c, Fraction):
        return c.numerator if c.denominator == 1 else c
    raise TypeError(f"coefficient {c!r} is neither an int nor a Fraction")


# -- packed exponents (layout in the module docstring) --------------------------

_FIELD_BITS = 32


class _Packer:
    """The packed layout for exponents of n variables, with F = _FIELD_BITS."""

    __slots__ = ("n", "bits", "shift", "guards", "ones", "limit", "units")

    def __init__(self, n: int):
        self.n, self.bits = n, _FIELD_BITS
        self.shift = n * self.bits  # the degree field
        units = sum(1 << (i * self.bits) for i in range(n + 1))
        self.guards = units << (self.bits - 1)
        self.ones = units - (1 << self.shift)  # 1 in every variable field
        self.limit = 1 << (self.shift + self.bits - 1)  # degree 2^(F-1)
        # The packed exponent of x_i: its field and the degree field.
        self.units = tuple(1 << (i * self.bits) | 1 << self.shift for i in range(n))

    def check(self, packed: int) -> None:
        if packed >= self.limit:
            raise ResourceLimitError(
                f"an exponent of degree {packed >> self.shift} does not fit "
                f"the packed {self.bits}-bit fields"
            )

    def pack(self, e: Exp) -> int:
        if len(e) != self.n or min(e, default=0) < 0:
            raise ValueError(f"bad exponent {e} for {self.n} variables")
        packed = sum(map(operator.mul, e, self.units))
        self.check(packed)
        return packed

    def unpack(self, packed: int) -> Exp:
        low = (1 << (self.bits - 1)) - 1
        return tuple(packed >> at & low for at in range(0, self.shift, self.bits))

    def unpack_terms(self, terms) -> list[tuple[Exp, Scalar]]:
        """(exponent tuple, coefficient) pairs of packed terms, in their order.
        Unrolled for two and three variables, where it runs hot."""
        bits, low = self.bits, (1 << (self.bits - 1)) - 1
        if self.n == 2:
            return [((k & low, k >> bits & low), c) for k, c in terms]
        if self.n == 3:
            bits2 = 2 * bits
            return [((k & low, k >> bits & low, k >> bits2 & low), c) for k, c in terms]
        unpack = self.unpack
        return [(unpack(k), c) for k, c in terms]

    def lcm(self, a: int, b: int) -> int:
        take_a = ((a | self.guards) - b) & self.guards  # guards where a_i >= b_i
        take_a -= take_a >> (self.bits - 1)  # ... widened to the field below
        fields = ((a & take_a) | (b & ~take_a)) & ((1 << self.shift) - 1)
        degree = (fields * self.ones) >> (self.shift - self.bits)
        return fields | (degree & ((1 << self.bits) - 1)) << self.shift


_PACKERS: dict[int, _Packer] = {}


def _packer(n: int) -> _Packer:
    packer = _PACKERS.get(n)
    if packer is None:
        packer = _PACKERS[n] = _Packer(n)
    return packer


@dataclass(frozen=True)
class Ring:
    """A polynomial ring identified by its ordered variable names."""

    names: tuple[str, ...]
    n: int = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if len(set(self.names)) != len(self.names):
            raise ValueError(f"duplicate variable names: {self.names}")
        if not self.names:
            raise ValueError("a ring needs at least one variable")
        object.__setattr__(self, "n", len(self.names))

    def index(self, name: str) -> int:
        try:
            return self.names.index(name)
        except ValueError:
            raise KeyError(f"unknown variable {name!r} in ring {self.names}") from None

    def zero(self) -> "MPoly":
        return _wrap(self, ())

    def one(self) -> "MPoly":
        return _wrap(self, ((0, 1),))

    def constant(self, c: Scalar) -> "MPoly":
        c = _scalar(c)
        return _wrap(self, ((0, c),) if c else ())

    def var(self, which: int | str) -> "MPoly":
        i = which if isinstance(which, int) else self.index(which)
        if not 0 <= i < self.n:
            raise IndexError(f"variable index {i} out of range for {self.names}")
        return _wrap(self, ((_packer(self.n).units[i], 1),))

    def monomial(self, exp: Exp, coeff: Scalar = 1) -> "MPoly":
        if len(exp) != self.n or any(k < 0 for k in exp):
            raise ValueError(f"bad exponent {exp} for ring {self.names}")
        return MPoly(self, {tuple(exp): _scalar(coeff)})

    def parse(self, text: str) -> "MPoly":
        from .parsing import parse_poly

        return parse_poly(text, self)

    def __repr__(self):
        return f"Ring({', '.join(self.names)})"


def ring(*names: str) -> Ring:
    return Ring(tuple(names))


class MPoly:
    """Immutable sparse polynomial.

    ``_terms`` is a tuple of (packed exponent, coefficient) pairs sorted
    ascending by the packed int, i.e. the local leading term first.  Zero
    coefficients never appear, and every coefficient is canonical (see
    ``_scalar``).
    """

    __slots__ = ("ring", "_terms")

    def __init__(self, ring: Ring, terms: dict):
        pack = _packer(ring.n).pack
        cleaned = [
            (pack(e), c if type(c) is int else _scalar(c)) for e, c in terms.items() if c
        ]
        cleaned.sort()  # the keys are distinct ints: coefficients never compared
        self.ring = ring
        self._terms = tuple(cleaned)

    # -- structure ---------------------------------------------------------

    def __bool__(self) -> bool:
        return bool(self._terms)

    @property
    def is_zero(self) -> bool:
        return not self._terms

    def terms(self) -> Iterator[tuple[Exp, Scalar]]:
        return iter(_packer(self.ring.n).unpack_terms(self._terms))

    def as_dict(self) -> dict:
        return dict(_packer(self.ring.n).unpack_terms(self._terms))

    def _integer_packed(self) -> tuple[tuple[tuple[int, int], ...], int]:
        """``integer_terms`` with the exponents left packed."""
        terms = self._terms
        if all(type(c) is int for _, c in terms):
            return terms, 1
        den = math.lcm(*(c.denominator for _, c in terms))
        return tuple((k, c.numerator * (den // c.denominator)) for k, c in terms), den

    def integer_terms(self) -> tuple[list[tuple[Exp, int]], int]:
        """The (exponent, int) terms of den * self, and den > 0, the lcm of the
        coefficient denominators: the same polynomial up to a unit, over Z."""
        terms, den = self._integer_packed()
        return _packer(self.ring.n).unpack_terms(terms), den

    def coeff(self, exp: Exp) -> Scalar:
        packed = _packer(self.ring.n).pack(exp)
        for k, c in self._terms:
            if k == packed:
                return c
        return 0

    def constant_term(self) -> Scalar:
        terms = self._terms
        return terms[0][1] if terms and terms[0][0] == 0 else 0

    def leading_exp(self) -> Exp:
        """Exponent of the local leading term (minimal total degree)."""
        if not self._terms:
            raise ValueError("zero polynomial has no leading term")
        return _packer(self.ring.n).unpack(self._terms[0][0])

    def leading_coeff(self) -> Scalar:
        if not self._terms:
            raise ValueError("zero polynomial has no leading term")
        return self._terms[0][1]

    def total_degree(self) -> int:
        """Maximal total degree of a term; -1 for the zero polynomial."""
        if not self._terms:
            return -1
        return self._terms[-1][0] >> _packer(self.ring.n).shift

    def order(self) -> int | float:
        """Minimal total degree of a term; +infinity for the zero polynomial."""
        if not self._terms:
            return math.inf
        return self._terms[0][0] >> _packer(self.ring.n).shift

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
            ka, ca = a[i]
            kb, cb = b[j]
            if ka < kb:
                out.append(a[i])
                i += 1
            elif kb < ka:
                out.append(b[j])
                j += 1
            else:
                c = ca + cb
                if c:
                    out.append((ka, c if type(c) is int else _scalar(c)))
                i += 1
                j += 1
        out.extend(a[i:])
        out.extend(b[j:])
        return _wrap(self.ring, tuple(out))

    def __add__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self._merge_add(other._terms)

    __radd__ = __add__

    def __neg__(self):
        return _wrap(self.ring, tuple([(k, -c) for k, c in self._terms]))

    def __sub__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self._merge_add(tuple([(k, -c) for k, c in other._terms]))

    def __rsub__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return other._merge_add(tuple([(k, -c) for k, c in self._terms]))

    def mono_mul(self, exp: Exp, coeff: Scalar) -> "MPoly":
        """Multiply by coeff * x^exp.  Preserves canonical term order."""
        return self._shift(_packer(self.ring.n).pack(exp), _scalar(coeff))

    def _shift(self, packed: int, coeff: Scalar) -> "MPoly":
        """Multiply by a canonical coeff times the packed monomial."""
        terms = self._terms
        if not coeff or not terms:
            return _wrap(self.ring, ())
        _packer(self.ring.n).check(terms[-1][0] + packed)
        return _wrap(
            self.ring,
            tuple(
                [
                    (k + packed, p if type(p := c * coeff) is int else _scalar(p))
                    for k, c in terms
                ]
            ),
        )

    def __mul__(self, other):
        if not isinstance(other, MPoly):
            if isinstance(other, (int, Fraction)):
                return self._shift(0, _scalar(other))
            return NotImplemented
        ring_ = self.ring
        if other.ring != ring_:
            raise ValueError("cannot multiply polynomials from different rings")
        if len(self._terms) > len(other._terms):
            self, other = other, self
        a, b = self._terms, other._terms
        if len(a) <= 1:
            return other._shift(*a[0]) if a else self
        _packer(ring_.n).check(a[-1][0] + b[-1][0])  # the product's top degree
        acc: dict = {}
        get = acc.get
        for k1, c1 in a:
            for k2, c2 in b:
                k = k1 + k2
                c = get(k)
                acc[k] = c1 * c2 if c is None else c + c1 * c2
        return _from_dict(ring_, acc)

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
        """Formal partial derivative with respect to one variable.

        Subtracting x_i's packed exponent from every term divisible by x_i
        keeps their order, so the result needs no sort."""
        i = which if isinstance(which, int) else self.ring.index(which)
        if not 0 <= i < self.ring.n:
            raise IndexError(f"variable index {i} out of range")
        packer = _packer(self.ring.n)
        at, low, unit = i * packer.bits, (1 << packer.bits) - 1, packer.units[i]
        out = []
        for k, c in self._terms:
            e = k >> at & low
            if e:
                c *= e
                out.append((k - unit, c if type(c) is int else _scalar(c)))
        return _wrap(self.ring, tuple(out))

    def subs(self, target: Ring, images: Sequence["MPoly"]) -> "MPoly":
        """Composite with x_i -> images[i]; images live in ``target``."""
        if len(images) != self.ring.n:
            raise ValueError("need one image per variable")
        one = target.one()
        pow_cache: list[list[MPoly]] = [[one, img] for img in images]

        def power(i: int, k: int) -> MPoly:
            cache = pow_cache[i]
            while len(cache) <= k:
                cache.append(cache[-1] * cache[1])
            return cache[k]

        acc: dict = {}
        for e, c in _packer(self.ring.n).unpack_terms(self._terms):
            term = one
            for i, k in enumerate(e):
                if k:
                    term = power(i, k) if term is one else term * power(i, k)
            for te, tc in term._terms:
                acc[te] = acc.get(te, 0) + c * tc
        return _from_dict(target, acc)

    def eval_at(self, point: Sequence[Scalar]) -> Scalar:
        if len(point) != self.ring.n:
            raise ValueError("need one coordinate per variable")
        pt = [_scalar(c) for c in point]
        total = 0
        for e, c in _packer(self.ring.n).unpack_terms(self._terms):
            val = c
            for i, k in enumerate(e):
                if k:
                    val *= pt[i] ** k
            total += val
        return _scalar(total)

    def restrict(self, which: int, value: Scalar = 0) -> "MPoly":
        """A bivariate polynomial with variable ``which`` set to ``value``, as
        a univariate polynomial in the other variable."""
        keep = 1 - which
        value = _scalar(value)
        acc: dict = {}
        for e, c in self.terms():
            out = (e[keep],)
            acc[out] = acc.get(out, 0) + c * value ** e[which]
        return MPoly(ring(self.ring.names[keep]), acc)

    def translate(self, point: Sequence[Scalar]) -> "MPoly":
        """Recenter: returns f(x + p), so the point p moves to the origin.

        Each term is expanded one variable at a time by the binomial theorem,
        (x_i + p_i)^k = sum_j C(k, j) p_i^(k-j) x_i^j, on packed exponents.
        """
        if len(point) != self.ring.n:
            raise ValueError("need one coordinate per variable")
        packer = _packer(self.ring.n)
        low = (1 << packer.bits) - 1
        # (field offset, x_i's packed exponent, p_i) of each nonzero shift
        shifts = [
            (i * packer.bits, packer.units[i], p)
            for i, p in enumerate(map(_scalar, point))
            if p
        ]
        weights: dict = {}  # (i's unit, k) -> [(packed x_i^j, C(k, j) p^(k-j))]
        acc: dict = {}
        get = acc.get
        for key, c in self._terms:
            expansion = [(0, c)]
            for at, unit, p in shifts:
                k = key >> at & low
                if not k:
                    continue
                key -= k * unit
                w = weights.get((unit, k))
                if w is None:
                    w = weights[(unit, k)] = [
                        (j * unit, math.comb(k, j) * p ** (k - j)) for j in range(k + 1)
                    ]
                expansion = [(m + u, v * x) for m, v in expansion for u, x in w]
            for m, v in expansion:
                m += key
                acc[m] = get(m, 0) + v
        return _from_dict(self.ring, acc)

    def homogenize(self, target: Ring, extra: int | str, degree: int | None = None) -> "MPoly":
        """Homogenize with the variable ``extra`` of ``target``.

        Source variable i goes to the i-th variable of ``target`` other than
        ``extra``, by position, whatever the names.  With the default degree
        this produces the usual projective closure equation.
        """
        j = extra if isinstance(extra, int) else target.index(extra)
        src_positions = [i for i in range(target.n) if i != j]
        if len(src_positions) != self.ring.n:
            raise ValueError("the target needs one variable more than the source")
        if degree is None:
            degree = max(self.total_degree(), 0)
        acc: dict = {}
        for e, c in self.terms():
            d = sum(e)
            if d > degree:
                raise ValueError("requested homogenization degree too small")
            out = [0] * target.n
            for pos, k in zip(src_positions, e):
                out[pos] = k
            out[j] += degree - d
            acc[tuple(out)] = acc.get(tuple(out), 0) + c
        return MPoly(target, acc)

    def dehomogenize(self, target: Ring, which: int | str, keep: Sequence[int | str]) -> "MPoly":
        """Set variable ``which`` to 1 and reorder the rest into ``target``."""
        i = which if isinstance(which, int) else self.ring.index(which)
        keep_idx = [k if isinstance(k, int) else self.ring.index(k) for k in keep]
        if len(keep_idx) != target.n:
            raise ValueError("kept variables must match the target ring")
        acc: dict = {}
        for e, c in self.terms():
            out = tuple(e[k] for k in keep_idx)
            acc[out] = acc.get(out, 0) + c
        return MPoly(target, acc)

    # -- rendering -----------------------------------------------------------

    def __repr__(self):
        if not self._terms:
            return "0"
        chunks = []
        for e, c in self.terms():
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


_new_poly = object.__new__


def _wrap(ring_: Ring, terms: tuple) -> MPoly:
    """Trusted constructor: ``terms`` already canonical and sorted."""
    f = _new_poly(MPoly)
    f.ring = ring_
    f._terms = terms
    return f


def _from_dict(ring_: Ring, terms: dict) -> MPoly:
    """Trusted constructor from a dict of packed exponents that fit the layout:
    drops zero coefficients, makes the rest canonical and sorts."""
    cleaned = [(k, c if type(c) is int else _scalar(c)) for k, c in terms.items() if c]
    cleaned.sort()
    return _wrap(ring_, tuple(cleaned))


def exact_divide(f: MPoly, g: MPoly) -> MPoly | None:
    """Return q with f == q*g in the polynomial ring, or None when g ∤ f.

    Runs leading-term cancellation under a global order (degree descending,
    then ascending packed exponent), which terminates unconditionally;
    exactness means zero remainder.
    """
    if f.ring != g.ring:
        raise ValueError("mixed rings in exact_divide")
    if g.is_zero:
        raise ValueError("division by the zero polynomial")
    packer = _packer(f.ring.n)
    shift, guards = packer.shift, packer.guards

    def global_lead(terms):
        return min(terms, key=lambda t: (-(t[0] >> shift), t[0]))

    quotient: dict = {}
    rem = f
    gk, gc = global_lead(g._terms)
    while rem._terms:
        rk, rc = global_lead(rem._terms)
        if ((rk | guards) - gk) & guards != guards:
            return None
        qk = rk - gk
        qc = _scalar(Fraction(rc) / gc)
        quotient[qk] = quotient.get(qk, 0) + qc
        rem = rem - g._shift(qk, qc)
    return _from_dict(f.ring, quotient)


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
    def differential(cls, f: MPoly) -> "OneForm":
        """df = sum of partials."""
        return cls(f.ring, tuple(f.partial(i) for i in range(f.ring.n)))

    @property
    def is_zero(self) -> bool:
        return all(a.is_zero for a in self.coeffs)

    @cached_property
    def mu0(self) -> int | float:
        """mu0(omega): colength of the coefficient ideal <A_1, ..., A_n>,
        computed once per form; a raise is not kept."""
        from .localalg import LocalIdeal, colength  # localalg imports this module

        if self.is_zero:
            raise ComputationError("the zero 1-form has no Milnor number")
        return colength(LocalIdeal.make(self.ring, list(self.coeffs)))

    @cached_property
    def saturation(self) -> tuple[tuple[MPoly, ...], MPoly]:
        """``elim.saturate`` of the coefficients: those of omega / g, and the
        common factor g; computed once per form, and a raise is not kept."""
        from .elim import saturate  # elim imports this module

        return saturate(*self.coeffs)

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


def wedge_coeffs(*forms: OneForm) -> dict[tuple[int, ...], MPoly]:
    """Coefficients of omega_1 ∧ ... ∧ omega_m on each dx_I, with I in
    ``itertools.combinations`` order: the minor of the forms' coefficient
    rows on the columns I, so A_j B_k - A_k B_j for two forms."""
    ring_ = forms[0].ring
    if any(f.ring != ring_ for f in forms):
        raise ValueError("forms live in different rings")
    rows = [f.coeffs for f in forms]

    def minor(m: int, cols: tuple[int, ...]) -> MPoly:
        """The minor of the first m rows, expanded along row m from its last
        column, whose sign is +, with alternating signs."""
        row = rows[m - 1]
        if m == 1:
            return row[cols[0]]
        total = row[cols[-1]] * minor(m - 1, cols[:-1])
        for i in range(m - 2, -1, -1):
            term = row[cols[i]] * minor(m - 1, cols[:i] + cols[i + 1 :])
            total = total - term if (m - 1 - i) % 2 else total + term
        return total

    m = len(rows)
    return {I: minor(m, I) for I in itertools.combinations(range(ring_.n), m)}
