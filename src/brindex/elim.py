"""Commutative-algebra plumbing on exact integer polynomials.

Only utility operations live here (gcd and saturation, resultants, rational
root extraction); the standard-basis reduction engine and the colength oracle
do their arithmetic independently of this module (in two variables colength
consults the gcd once, to decide finiteness, after two truncations failed).

Each routine clears the denominators of its ``MPoly`` arguments and works on
dense polynomials over Z.  A univariate polynomial is a list of ints, constant
term first, with no trailing zeros (zero is ``[]``).  A polynomial in k
variables is recursive dense: the list, over the powers of its main variable,
of its coefficients in the other k - 1 variables; level 0 is a plain int.

Three conventions show in the output:

* ``poly_gcd`` scales the gcd so that its local leading coefficient is 1;
* ``resultant(f, g)`` is the Sylvester determinant Res(f, g) when
  deg f >= deg g and Res(g, f), with no sign correction, otherwise;
* an ``IrrationalPointError`` from ``rational_roots`` names the squarefree
  cofactor: the squarefree part of what is left once the rational roots are
  divided out, so its roots are exactly the roots outside Q.  It is
  primitive with a positive leading coefficient, written like
  ``2*x**3 - 3*x**2 - 18*x - 25``.

Before the primitive PRS, ``poly_gcd`` tries to certify a coprime pair by
modular images: for each variable x_i that occurs in both f and g it maps
them into F_p[x_i], with p = 2^31 - 1 and the other variables at fixed small
integers.  When f keeps its x_i-degree there and the image gcd is a constant
for every such x_i, the gcd over Q is 1 (a one-sided use of Brown's modular
method).  Otherwise the PRS decides, so the test never changes an answer.

References: Geddes, Czapor and Labahn, *Algorithms for Computer Algebra*,
ch. 7 (primitive PRS gcd) and 9 (resultants); Brown, "On Euclid's algorithm
and the computation of polynomial greatest common divisors" (J. ACM 18,
1971) (modular gcd images); Loos, "Computing rational zeros of integral
polynomials by p-adic expansion" (SIAM J. Comput. 1983).
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from math import gcd

from .errors import ComputationError, IrrationalPointError
from .poly import MPoly, exact_divide

# -- recursive dense polynomials over Z ----------------------------------------


def _zero(k: int):
    return 0 if k == 0 else []


def _one(k: int):
    return 1 if k == 0 else [_one(k - 1)]


def _strip(a: list) -> list:
    while a and not a[-1]:
        a.pop()
    return a


def _add(a, b, k: int):
    if k == 0:
        return a + b
    if len(a) < len(b):
        a, b = b, a
    if k == 1:
        out = [x + y for x, y in zip(a, b)]
    else:
        out = [_add(x, y, k - 1) for x, y in zip(a, b)]
    out.extend(a[len(b):])
    return _strip(out)


def _neg(a, k: int):
    if k <= 1:
        return -a if k == 0 else [-x for x in a]
    return [_neg(x, k - 1) for x in a]


def _sub(a, b, k: int):
    return _add(a, _neg(b, k), k)


def _mul(a, b, k: int):
    if k == 0:
        return a * b
    if not a or not b:
        return []
    if k == 1:
        out = [0] * (len(a) + len(b) - 1)
        for i, x in enumerate(a):
            if x:
                for j, y in enumerate(b):
                    out[i + j] += x * y
        return out
    out = [[] for _ in range(len(a) + len(b) - 1)]
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                if y:
                    out[i + j] = _add(out[i + j], _mul(x, y, k - 1), k - 1)
    return out


def _quo(a, b, k: int):
    """The exact quotient a / b, or None when b does not divide a."""
    if k == 0:
        q, r = divmod(a, b)
        return None if r else q
    db = len(b) - 1
    if len(a) <= db:
        return [] if not a else None
    a = list(a)
    lb = b[-1]
    if k == 1:
        q = [0] * (len(a) - db)
        for s in range(len(q) - 1, -1, -1):
            c, r = divmod(a[s + db], lb)
            if r:
                return None
            q[s] = c
            if c:
                for i, y in enumerate(b):
                    a[s + i] -= c * y
        return None if any(a[:db]) else q
    q = [_zero(k - 1)] * (len(a) - db)
    while a:
        s = len(a) - 1 - db
        if s < 0:
            return None
        c = _quo(a[-1], lb, k - 1)
        if c is None:
            return None
        q[s] = c
        for i, y in enumerate(b):
            a[s + i] = _sub(a[s + i], _mul(c, y, k - 1), k - 1)
        _strip(a)
    return q


def _prem(a, b, k: int):
    """A pseudo-remainder of a by b: lc(b)^e * a mod b for some e >= 0."""
    db = len(b) - 1
    lb = b[-1]
    r = list(a)
    while len(r) > db:
        s = len(r) - 1 - db
        lr = r[-1]
        r = [_mul(x, lb, k - 1) for x in r]
        for i, y in enumerate(b):
            r[s + i] = _sub(r[s + i], _mul(lr, y, k - 1), k - 1)
        _strip(r)
    return r


def _constant(a, k: int):
    """The int value of a when a is free of every variable, else None."""
    while k:
        if len(a) != 1:
            return None
        a, k = a[0], k - 1
    return a


def _content(a, k: int):
    """gcd of the coefficients of a in its main variable."""
    if k == 1:
        return gcd(*a)
    c = []
    for x in a:
        c = _gcd(c, x, k - 1)
        if _constant(c, k - 1) in (1, -1):
            break
    return c


def _primitive(a, k: int):
    """a divided by its content, up to sign."""
    c = _content(a, k)
    if _constant(c, k - 1) in (1, -1):
        return a
    return [_quo(x, c, k - 1) for x in a]


def _gcd(a, b, k: int):
    """gcd up to sign by the primitive polynomial remainder sequence."""
    if k == 0:
        return gcd(a, b)
    if not a:
        return b
    if not b:
        return a
    c = _gcd(_content(a, k), _content(b, k), k - 1)
    a, b = _primitive(a, k), _primitive(b, k)
    if len(a) < len(b):
        a, b = b, a
    while len(b) > 1:
        r = _prem(a, b, k)
        if not r:
            break
        a, b = b, _primitive(r, k)
    else:
        b = _one(k)  # a primitive polynomial free of the main variable
    return [_mul(x, c, k - 1) for x in b]


def _derivative(a: list) -> list:
    return [i * c for i, c in enumerate(a)][1:]


# -- conversion from and to MPoly ---------------------------------------------


def _to_dense(f: MPoly, order: list[int]):
    """Integer recursive dense form of den * f with main variable order[0];
    returns (form, den) with den > 0 the lcm of the denominators."""
    items, den = f.integer_terms()
    return _build(items, order), den


def _build(items, order):
    if not order:
        return sum(c for _, c in items)
    v, rest = order[0], order[1:]
    buckets: dict[int, list] = {}
    for e, c in items:
        buckets.setdefault(e[v], []).append((e, c))
    if not buckets:
        return []
    return [
        _build(buckets[d], rest) if d in buckets else _zero(len(rest))
        for d in range(max(buckets) + 1)
    ]


def _from_dense(a, order: list[int], ring_, den: int = 1) -> MPoly:
    """The MPoly a / den, for a recursive dense form over ``order``."""
    acc = {}
    exp = [0] * ring_.n

    def walk(x, depth):
        if depth == len(order):
            acc[tuple(exp)] = x if den == 1 else Fraction(x, den)
            return
        v = order[depth]
        for d, y in enumerate(x):
            if y:
                exp[v] = d
                walk(y, depth + 1)
        exp[v] = 0

    if a:
        walk(a, 0)
    return MPoly(ring_, acc)


# -- gcd and saturation ---------------------------------------------------------

# The coprimality certificate maps into F_p[x_i] with x_j = _CERT_POINTS[j] for
# every j != i.
_CERT_PRIME = 2**31 - 1
_CERT_POINTS = (13, 17, 19, 23, 29, 31, 37, 41)


def _image(items: list, i: int, degree: int) -> list:
    """The integer terms as a polynomial in x_i mod _CERT_PRIME, the other
    variables at their certificate points."""
    out = [0] * (degree + 1)
    for e, c in items:
        for j, k in enumerate(e):
            if k and j != i:
                c *= _CERT_POINTS[j] ** k
        out[e[i]] += c
    return _strip([c % _CERT_PRIME for c in out])


def _coprime_images(f: list, g: list, n: int) -> bool:
    """True when modular images prove that the integer terms f and g have a
    constant gcd; False proves nothing.

    A nonconstant gcd h involves some variable x_i that occurs in both.  If
    the image of f in F_p[x_i] keeps its x_i-degree, so does the image of h,
    which then divides both images; so an image gcd of degree 0 rules out
    every such x_i.
    """
    if n > len(_CERT_POINTS):
        return False
    for i in range(n):
        df = max(e[i] for e, _ in f)
        dg = max(e[i] for e, _ in g)
        if df and dg:
            a = _image(f, i, df)
            if len(a) <= df or len(_pgcd(a, _image(g, i, dg), _CERT_PRIME)) != 1:
                return False
    return True


def poly_gcd(f: MPoly, g: MPoly) -> MPoly:
    """gcd over Q, canonicalized so the local leading coefficient is 1.

    A coprime pair is usually settled by ``_coprime_images``; the primitive
    PRS runs only when that certificate fails.
    """
    if f.ring != g.ring:
        raise ValueError("mixed rings in gcd")
    if f.is_zero and g.is_zero:
        return f.ring.zero()
    if f.is_zero or g.is_zero:
        d = g if f.is_zero else f
    else:
        n = f.ring.n
        (a, _), (b, _) = f.integer_terms(), g.integer_terms()
        if _coprime_images(a, b, n):
            return f.ring.one()
        order = list(range(n))
        d = _gcd(_build(a, order), _build(b, order), n)
        if _constant(d, n) is not None:
            return f.ring.one()
        d = _from_dense(d, order, f.ring)
    return d.mono_mul((0,) * d.ring.n, Fraction(1) / d.leading_coeff())


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
    """Reducedness test: phi shares no factor with its partials.

    Over Q the test is exact.  If phi = p q with p irreducible and p divides
    every partial, then p divides (d_i p) q for each i; some d_i p is nonzero
    and of lower degree in x_i than p, so p divides q and p^2 divides phi.
    """
    if phi.is_zero:
        return False
    d = phi
    for i in range(phi.ring.n):
        d = poly_gcd(d, phi.partial(i))
        if d.total_degree() == 0:
            return True
    return d.total_degree() == 0


# -- resultants -----------------------------------------------------------------


def resultant(f: MPoly, g: MPoly, which: int | str) -> MPoly:
    """Resultant with respect to one variable; result lives in the same ring
    (free of the eliminated variable).

    Res(f, g) is the Sylvester determinant when deg f >= deg g; otherwise the
    arguments are swapped without the sign (-1)^(deg f * deg g).
    """
    i = which if isinstance(which, int) else f.ring.index(which)
    if f.is_zero or g.is_zero:
        return f.ring.zero()
    order = [i] + [j for j in range(f.ring.n) if j != i]
    a, den_f = _to_dense(f, order)
    b, den_g = _to_dense(g, order)
    # Res(F / den_f, G / den_g) = Res(F, G) / (den_f^deg G * den_g^deg F).
    den = den_f ** (len(b) - 1) * den_g ** (len(a) - 1)
    if len(a) < len(b):
        a, b = b, a
    level = f.ring.n - 1
    return _from_dense(_det(_sylvester(a, b, level), level), order[1:], f.ring, den)


def _sylvester(a, b, level: int) -> list[list]:
    da, db = len(a) - 1, len(b) - 1
    z = _zero(level)
    rows = [[z] * r + a[::-1] + [z] * (db - 1 - r) for r in range(db)]
    rows += [[z] * r + b[::-1] + [z] * (da - 1 - r) for r in range(da)]
    return rows


def _det(m: list[list], level: int):
    """Determinant by fraction-free (Bareiss) elimination."""
    n = len(m)
    if n == 0:
        return _one(level)
    sign = 1
    prev = _one(level)
    for k in range(n - 1):
        if not m[k][k]:
            swap = next((i for i in range(k + 1, n) if m[i][k]), None)
            if swap is None:
                return _zero(level)
            m[k], m[swap] = m[swap], m[k]
            sign = -sign
        pivot, row_k = m[k][k], m[k]
        for row in m[k + 1:]:
            head = row[k]
            for j in range(k + 1, n):
                row[j] = _quo(
                    _sub(_mul(pivot, row[j], level), _mul(head, row_k[j], level), level),
                    prev,
                    level,
                )
        prev = pivot
    return m[-1][-1] if sign > 0 else _neg(m[-1][-1], level)


# -- polynomials over Z/m -------------------------------------------------------


def _pmod(a: list, b: list, m: int) -> list:
    """The remainder of a by b mod m; lc(b) must be a unit mod m."""
    a = _strip([c % m for c in a])
    db = len(b) - 1
    inv = pow(b[-1], -1, m)
    while len(a) > db:
        s = len(a) - 1 - db
        c = a[-1] * inv % m
        for i, y in enumerate(b):
            a[s + i] = (a[s + i] - c * y) % m
        _strip(a)
    return a


def _monic(a: list, m: int) -> list:
    inv = pow(a[-1], -1, m)
    return [c * inv % m for c in a]


def _pgcd(a: list, b: list, p: int) -> list:
    """The monic gcd mod the prime p; [] when both vanish mod p."""
    a, b = _strip([c % p for c in a]), _strip([c % p for c in b])
    while b:
        a, b = b, _pmod(a, b, p)
    return _monic(a, p) if a else []


def _eval_mod(a: list, x: int, m: int) -> int:
    acc = 0
    for c in reversed(a):
        acc = (acc * x + c) % m
    return acc


def _good_prime(f: list) -> int:
    """The least odd prime dividing neither lc(f) nor the discriminant of f
    (f squarefree over Q)."""
    p = 3
    while True:
        if all(p % q for q in range(3, int(p**0.5) + 1, 2)) and f[-1] % p:
            if len(_pgcd(f, _derivative(f), p)) == 1:
                return p
        p += 2


# -- rational roots ---------------------------------------------------------------


def _roots_of_squarefree(s: list) -> list[Fraction]:
    """The rational roots of a squarefree integer polynomial with s(0) != 0.

    Each root a/b has b | lc and a | s(0), so lc * a/b is an integer of size
    at most |lc * s(0)|: it is the symmetric residue of lc * r for the p-adic
    root r lifted far enough.
    """
    p = _good_prime(s)
    modular = [r for r in range(p) if _eval_mod(s, r, p) == 0]
    lc, bound = s[-1], 2 * abs(s[-1] * s[0])
    ds = _derivative(s)
    roots = []
    for r in modular:
        m = p
        while m <= bound:
            m *= m
            r = (r - _eval_mod(s, r, m) * pow(_eval_mod(ds, r, m), -1, m)) % m
        c = lc * r % m
        root = Fraction(c - m if 2 * c > m else c, lc)
        if _quo(s, [-root.numerator, root.denominator], 1) is not None:
            roots.append(root)
    return roots


def _multiplicity(f: list, g: list) -> tuple[int, list]:
    """(k, f / g^k) for the largest k with g^k | f."""
    k = 0
    while (q := _quo(f, g, 1)) is not None:
        f, k = q, k + 1
    return k, f


def _squarefree_part(f: list) -> list:
    s = _primitive(_quo(f, _gcd(f, _derivative(f), 1), 1), 1)
    return s if s[-1] > 0 else _neg(s, 1)


def rational_roots(p: MPoly) -> list[tuple[Fraction, int]]:
    """All roots of a univariate polynomial, which must be rational.

    Returns (root, multiplicity) pairs sorted by root.  Raises
    IrrationalPointError when some root is irrational or complex; its text
    names the squarefree polynomial whose roots are exactly those.
    """
    if p.ring.n != 1:
        raise ValueError("rational_roots expects a univariate polynomial")
    if p.is_zero:
        raise ValueError("the zero polynomial has every root")
    if p.total_degree() == 0:
        return []
    f = _primitive(_to_dense(p, [0])[0], 1)
    if f[-1] < 0:
        f = _neg(f, 1)
    out = []
    low = next(i for i, c in enumerate(f) if c)
    if low:
        out.append((Fraction(0), low))
        f = f[low:]
    if len(f) > 1:
        for root in _roots_of_squarefree(_squarefree_part(f)):
            k, f = _multiplicity(f, [-root.numerator, root.denominator])
            out.append((root, k))
    if len(f) > 1:
        factor = _render(_squarefree_part(f), p.ring.names[0])
        raise IrrationalPointError(f"polynomial {p!r} has a root not in Q (factor {factor})")
    out.sort(key=lambda item: item[0])
    return out


def common_rational_roots(a: MPoly, b: MPoly) -> list[Fraction]:
    """The sorted roots of gcd(a, b), univariate and not both zero; raises
    IrrationalPointError unless all are rational."""
    h = b if a.is_zero else a if b.is_zero else poly_gcd(a, b)
    return [] if h.total_degree() == 0 else [r for r, _ in rational_roots(h)]


def _render(coeffs: list, name: str) -> str:
    """A univariate integer polynomial, leading term first, with ** powers:
    'u**2 - 3*u + 1'."""
    out = ""
    for k in range(len(coeffs) - 1, -1, -1):
        c = coeffs[k]
        if not c:
            continue
        mono = "" if k == 0 else name if k == 1 else f"{name}**{k}"
        body = str(abs(c)) if not mono else mono if abs(c) == 1 else f"{abs(c)}*{mono}"
        sign = "-" if c < 0 else "+"
        out = (f"{out} {sign} " if out else "-" if c < 0 else "") + body
    return out


# -- common zeros -------------------------------------------------------------------


def rational_common_zeros(
    f: MPoly, g: MPoly
) -> list[tuple[Fraction, Fraction]]:
    """Common zeros of two coprime bivariate polynomials, all required rational.

    Eliminates the second variable by a resultant, extracts rational roots,
    and finishes with univariate gcds on each fiber.  A root of the resultant
    that is the x of no common zero is a common root of the leading
    coefficients in y.  So when the resultant has a root outside Q and
    neither leading coefficient is constant, the pair is sheared,
    (x, y) -> (x + c y, y) for the least c >= 1 that makes one constant, and
    every root of the new resultant is x - c y at a common zero.  Raises
    IrrationalPointError, with the text of the first elimination, when a
    common zero lies outside Q^2.
    """
    if f.ring != g.ring or f.ring.n != 2:
        raise ValueError("rational_common_zeros expects two bivariate polynomials")
    if f.is_zero or g.is_zero:
        raise ValueError("zero polynomial in common-zero computation")
    if not any(e[1] for e, _ in f.terms()) and not any(e[1] for e, _ in g.terms()):
        # Neither involves y, so the resultant is 1 whatever f and g share.
        if poly_gcd(f, g).total_degree() > 0:
            raise ComputationError("polynomials share a factor; zero set is not finite")
        return []
    res = resultant(f, g, 1)
    if res.is_zero:
        raise ComputationError("polynomials share a factor; zero set is not finite")
    if any(e[1] for e, _ in res.terms()):
        raise ValueError("polynomial still involves the eliminated variable")
    res_x = res.restrict(1)
    points: list[tuple[Fraction, Fraction]] = []
    if res_x.total_degree() == 0:
        return points
    try:
        roots = rational_roots(res_x)
    except IrrationalPointError:
        zeros = _sheared_zeros(f, g)
        if zeros is None:
            raise
        return zeros
    for x0, _ in roots:
        fy = f.restrict(0, x0)
        gy = g.restrict(0, x0)
        if fy.is_zero and gy.is_zero:
            raise ComputationError("polynomials share a vertical line of zeros")
        # A fibre without common roots comes from a spurious resultant root,
        # where both leading coefficients vanish.
        points.extend((x0, y0) for y0 in common_rational_roots(fy, gy))
    points.sort()
    return points


def _sheared_zeros(f: MPoly, g: MPoly) -> list[tuple[Fraction, Fraction]] | None:
    """The common zeros through the shear of ``rational_common_zeros``; None
    when a leading coefficient in y is constant or a zero lies outside Q^2."""
    if any(len(_to_dense(p, [1, 0])[0][-1]) == 1 for p in (f, g)):
        return None
    x, y = f.ring.var(0), f.ring.var(1)
    for c in itertools.count(1):
        F, G = (p.subs(f.ring, [x + c * y, y]) for p in (f, g))
        if F.coeff((0, f.total_degree())) or G.coeff((0, g.total_degree())):
            break
    try:
        zeros = rational_common_zeros(F, G)  # a leading coefficient is constant
    except IrrationalPointError:
        return None
    return sorted((x0 + c * y0, y0) for x0, y0 in zeros)

