"""Commutative-algebra plumbing built on sympy's exact polynomial domain.

Only utility operations live here (gcd, resultants, rational root
extraction); the standard-basis reduction engine and the colength oracle do
their arithmetic independently of this module (in two variables colength
consults the gcd once, to decide finiteness, after two truncations failed).
"""

from __future__ import annotations

from fractions import Fraction

import sympy

from .errors import ComputationError, IrrationalPointError
from .poly import MPoly, Ring, exact_divide, ring


def _symbols(ring_: Ring):
    return sympy.symbols(ring_.names)


def to_sympy(f: MPoly) -> sympy.Poly:
    syms = _symbols(f.ring)
    if f.ring.n == 1:
        syms = (syms,) if not isinstance(syms, tuple) else syms
    rep = {e: sympy.Rational(c.numerator, c.denominator) for e, c in f.terms()}
    if not rep:
        return sympy.Poly(0, *syms, domain="QQ")
    return sympy.Poly.from_dict(rep, *syms, domain="QQ")


def from_sympy(p: sympy.Poly, ring_: Ring) -> MPoly:
    acc = {}
    for e, c in p.terms():
        q = sympy.Rational(c)
        acc[tuple(int(k) for k in e)] = Fraction(int(q.p), int(q.q))
    return MPoly(ring_, acc)


def poly_gcd(f: MPoly, g: MPoly) -> MPoly:
    """gcd over Q, canonicalized so the local leading coefficient is 1."""
    if f.ring != g.ring:
        raise ValueError("mixed rings in gcd")
    if f.is_zero and g.is_zero:
        return f.ring.zero()
    d = from_sympy(to_sympy(f).gcd(to_sympy(g)), f.ring)
    if d.is_zero:
        return d
    return d.mono_mul((0,) * d.ring.n, 1 / d.leading_coeff())


def saturate(*polys: MPoly) -> tuple[tuple[MPoly, ...], MPoly]:
    """Divide out the gcd of the nonzero polys; returns (quotients, gcd).

    The gcd is canonical (local leading coefficient 1), so coprime inputs come
    back unchanged; zero entries stay zero.
    """
    nonzero = [p for p in polys if not p.is_zero]
    if not nonzero:
        raise ComputationError("the zero form does not define a foliation")
    g = nonzero[0]
    # A lone nonzero entry still goes through poly_gcd, which canonicalizes it.
    for p in nonzero[1:] or [g.ring.zero()]:
        g = poly_gcd(g, p)
    if g.total_degree() == 0:
        return tuple(polys), g
    quotients = tuple(p if p.is_zero else exact_divide(p, g) for p in polys)
    if any(q is None for q in quotients):
        raise ComputationError("gcd division failed; inconsistent input")
    return quotients, g


def is_unit_germ(f: MPoly) -> bool:
    """True when f is a unit of the local ring at the origin."""
    return f.constant_term() != 0


def coprime_at_origin(*fs: MPoly) -> bool:
    """True when the germs of fs at 0 share no factor vanishing there."""
    d = fs[0]
    for f in fs[1:]:
        if is_unit_germ(d):
            return True
        d = poly_gcd(d, f)
    return is_unit_germ(d)


def is_squarefree(phi: MPoly) -> bool:
    """Conservative reducedness test: phi shares no factor with its partials."""
    if phi.is_zero:
        return False
    d = phi
    for i in range(phi.ring.n):
        d = poly_gcd(d, phi.partial(i))
        if d.total_degree() == 0:
            return True
    return d.total_degree() == 0


def resultant(f: MPoly, g: MPoly, which: int | str) -> MPoly:
    """Resultant with respect to one variable; result lives in the same ring
    (free of the eliminated variable)."""
    i = which if isinstance(which, int) else f.ring.index(which)
    syms = sympy.symbols(f.ring.names)
    if f.ring.n == 1 and not isinstance(syms, tuple):
        syms = (syms,)
    fe = to_sympy(f).as_expr()
    ge = to_sympy(g).as_expr()
    res = sympy.resultant(fe, ge, syms[i])
    p = sympy.Poly(res, *syms, domain="QQ")
    return from_sympy(p, f.ring)


def rational_roots(p: MPoly) -> list[tuple[Fraction, int]]:
    """All roots of a univariate polynomial, which must be rational.

    Returns (root, multiplicity) pairs sorted by root.  Raises
    IrrationalPointError when a factor of degree >= 2 irreducible over Q
    remains, i.e. when some root is irrational or complex.
    """
    if p.ring.n != 1:
        raise ValueError("rational_roots expects a univariate polynomial")
    if p.is_zero:
        raise ValueError("the zero polynomial has every root")
    if p.total_degree() == 0:
        return []
    sp = to_sympy(p)
    _, factors = sp.factor_list()
    out = []
    for fac, mult in factors:
        if fac.degree() == 0:
            continue
        if fac.degree() >= 2:
            raise IrrationalPointError(
                f"polynomial {p!r} has a root not in Q (factor {fac.as_expr()})"
            )
        coeffs = fac.all_coeffs()  # [a, b] for a*t + b
        a, b = (sympy.Rational(c) for c in coeffs)
        root = Fraction(int((-b / a).p), int((-b / a).q))
        out.append((root, int(mult)))
    out.sort(key=lambda item: item[0])
    return out


def rational_common_zeros(
    f: MPoly, g: MPoly
) -> list[tuple[Fraction, Fraction]]:
    """Common zeros of two coprime bivariate polynomials, all required rational.

    Eliminates the second variable by a resultant, extracts rational roots,
    and finishes with univariate gcds on each fiber.  Raises
    IrrationalPointError when a common zero outside Q^2 cannot be excluded.
    """
    if f.ring != g.ring or f.ring.n != 2:
        raise ValueError("rational_common_zeros expects two bivariate polynomials")
    if f.is_zero or g.is_zero:
        raise ValueError("zero polynomial in common-zero computation")
    res = resultant(f, g, 1)
    if res.is_zero:
        raise ComputationError("polynomials share a factor; zero set is not finite")
    uni = ring(f.ring.names[0])
    res_x = _drop_second(res, uni)
    points: list[tuple[Fraction, Fraction]] = []
    if res_x.total_degree() == 0:
        return points
    for x0, _ in rational_roots(res_x):
        fy = _fiber(f, x0)
        gy = _fiber(g, x0)
        if fy.is_zero and gy.is_zero:
            raise ComputationError("polynomials share a vertical line of zeros")
        h = gy if fy.is_zero else fy if gy.is_zero else poly_gcd(fy, gy)
        if h.total_degree() <= 0:
            continue  # spurious resultant root (leading coefficients vanish)
        for y0, _ in rational_roots(h):
            points.append((x0, y0))
    points.sort()
    return points


def _drop_second(p: MPoly, target: Ring) -> MPoly:
    """Reinterpret a bivariate polynomial free of its second variable."""
    acc = {}
    for e, c in p.terms():
        if e[1] != 0:
            raise ValueError("polynomial still involves the eliminated variable")
        acc[(e[0],)] = c
    return MPoly(target, acc)


def _fiber(p: MPoly, x0: Fraction) -> MPoly:
    """p(x0, y) as a univariate polynomial in the second variable."""
    uni = ring(p.ring.names[1])
    return p.subs(uni, [uni.constant(x0), uni.var(0)])
