"""The integer routines of elim: pinned cases, and sympy as an oracle.

sympy is a test dependency only.  The oracle tests import it on demand and
are skipped without it; the pinned cases run everywhere.  The oracle for
``rational_roots`` names the cofactor the error message names: the product,
each taken once, of the ``factor_list`` factors of degree >= 2, primitive
with a positive leading coefficient.
"""

from __future__ import annotations

from fractions import Fraction

import pytest
from hypothesis import assume, example, given
from hypothesis import strategies as st

from brindex import elim
from brindex.elim import poly_gcd, rational_common_zeros, rational_roots, resultant
from brindex.errors import ComputationError, IrrationalPointError
from brindex.poly import MPoly, ring
from tests_util import affine_forms, with_form_examples

RINGS = {1: ring("x"), 2: ring("x", "y"), 3: ring("x", "y", "z")}
R1 = RINGS[1]
R2 = RINGS[2]


def _sympy():
    return pytest.importorskip("sympy")


def _to_sympy(f: MPoly):
    sympy = _sympy()
    syms = [sympy.Symbol(name) for name in f.ring.names]
    rep = {e: sympy.Rational(c.numerator, c.denominator) for e, c in f.terms()}
    return sympy.Poly.from_dict(rep or {(0,) * f.ring.n: 0}, *syms, domain="QQ")


def _from_sympy(p, ring_) -> MPoly:
    sympy = _sympy()
    acc = {}
    for e, c in p.terms():
        q = sympy.Rational(c)
        acc[tuple(int(k) for k in e)] = Fraction(int(q.p), int(q.q))
    return MPoly(ring_, acc)


def _sympy_rational_roots(p: MPoly):
    """What rational_roots must return or raise, computed by sympy."""
    poly = _to_sympy(p)
    _, factors = poly.factor_list()
    out = []
    cofactor = poly.one
    for fac, mult in factors:
        if fac.degree() >= 2:
            cofactor *= fac
        if fac.degree() == 1:
            a, b = (Fraction(int(c.p), int(c.q)) for c in fac.all_coeffs())
            out.append((-b / a, int(mult)))
    if cofactor.degree() > 0:
        _, cofactor = cofactor.clear_denoms(convert=True)
        _, cofactor = cofactor.primitive()
        if cofactor.LC() < 0:
            cofactor = -cofactor
        return f"polynomial {p!r} has a root not in Q (factor {cofactor.as_expr()})"
    return sorted(out)


def _sympy_gcd(f: MPoly, g: MPoly) -> MPoly:
    """The gcd by sympy, scaled like poly_gcd (local leading coefficient 1)."""
    d = _from_sympy(_to_sympy(f).gcd(_to_sympy(g)), f.ring)
    return d.mono_mul((0,) * f.ring.n, Fraction(1) / d.leading_coeff())


def _outcome(p: MPoly):
    try:
        return rational_roots(p)
    except IrrationalPointError as exc:
        return str(exc)


def _poly(ring_, terms) -> MPoly:
    return MPoly(ring_, {tuple(e): Fraction(c) for e, c in terms.items()})


def polys(n: int, degree: int, max_terms: int = 5):
    exps = st.tuples(*[st.integers(0, degree)] * n).filter(lambda e: sum(e) <= degree)
    coeffs = st.integers(-9, 9).filter(bool)
    return st.dictionaries(exps, coeffs, min_size=1, max_size=max_terms).map(
        lambda terms: _poly(RINGS[n], terms)
    )


def univariate(degree: int):
    """A univariate integer polynomial of exactly the given degree."""
    return st.lists(st.integers(-20, 20), min_size=degree, max_size=degree).flatmap(
        lambda low: st.integers(1, 6).map(
            lambda lc: _poly(R1, {(k,): c for k, c in enumerate(low + [lc])})
        )
    )


# -- pinned cases ---------------------------------------------------------------------


@pytest.mark.parametrize(
    "text, factor",
    [
        ("(x^2 + 1)*(x^2 + 2)", "x**4 + 3*x**2 + 2"),
        ("(x^2 + 1)^2*(x^2 + 3)", "x**4 + 4*x**2 + 3"),
        ("(x^2 + 7)^2*(x^4 + 1)", "x**6 + 7*x**4 + x**2 + 7"),
        ("(x^2 + 2)*(3*x^2 + 1)", "3*x**4 + 7*x**2 + 2"),
        ("(2*x - 1)^2*(2*x^3 - 3*x^2 - 18*x - 25)", "2*x**3 - 3*x**2 - 18*x - 25"),
        ("x*(x^4 - 12*x^3 + 8*x^2 + 91*x + 130)", "x**4 - 12*x**3 + 8*x**2 + 91*x + 130"),
        ("(x^2 + 5)^3*(x - 1)", "x**2 + 5"),
    ],
)
def test_message_names_the_squarefree_cofactor(text, factor):
    p = R1.parse(text)
    with pytest.raises(IrrationalPointError) as exc:
        rational_roots(p)
    assert str(exc.value) == f"polynomial {p!r} has a root not in Q (factor {factor})"


def test_resultant_swaps_without_sign_when_the_first_degree_is_lower():
    f, g = R2.parse("x - y"), R2.parse("y^3 + x")
    assert resultant(f, g, "y") == R2.parse("x^3 + x")
    assert resultant(g, f, "y") == R2.parse("x^3 + x")
    assert resultant(R2.parse("3*x"), R2.parse("y^2 + 1"), "y") == R2.parse("9*x^2")
    assert resultant(R2.constant(3), R2.constant(5), "y") == R2.one()
    assert resultant(R2.parse("y^2 + x"), R2.zero(), "y") == R2.zero()


def test_rational_roots_with_multiplicities():
    p = R1.parse("(2*x - 1)^3 * x^2 * (3*x + 7) * 5")
    assert rational_roots(p) == [(Fraction(-7, 3), 1), (Fraction(0), 2), (Fraction(1, 2), 3)]
    assert rational_roots(R1.constant(4)) == []


@pytest.mark.parametrize(
    "f, g, message",
    [
        ("x*(y - 1)", "x*(y + 2)", "share a vertical line of zeros"),
        # Neither involves y: the resultant is 1, so the shared factor must be
        # found by the gcd.
        ("x", "-x", "share a factor; zero set is not finite"),
        ("x^2 - 1", "3*x - 3", "share a factor; zero set is not finite"),
    ],
)
def test_common_zeros_of_polynomials_sharing_a_factor(f, g, message):
    with pytest.raises(ComputationError, match=message):
        rational_common_zeros(R2.parse(f), R2.parse(g))


def test_common_zeros_of_coprime_polynomials_free_of_y():
    assert rational_common_zeros(R2.parse("x"), R2.parse("x + 1")) == []
    assert rational_common_zeros(R2.parse("x^2 - 1"), R2.constant(2)) == []


def test_a_spurious_irrational_root_of_the_resultant_is_no_common_zero():
    # Both leading coefficients in y vanish where x^2 + x + 1 does, so the
    # resultant vanishes there too, but no common zero lies over those x.
    f, g = R2.parse("1 + y + x*y + x^2*y"), R2.parse("y + x*y + x^2*y")
    assert rational_common_zeros(f, g) == []
    f, g = R2.parse("(x^2 + x + 1)*y + x - 1"), R2.parse("(x^2 + x + 1)*y + 2*(x - 1)")
    assert rational_common_zeros(f, g) == [(Fraction(1), Fraction(0))]
    # A common zero at x^2 = 2 is refused, in the words of the first elimination.
    f, g = R2.parse("(x^2 + x + 1)*y + x^2 - 2"), R2.parse("(x^2 + x + 1)*y + 2*(x^2 - 2)")
    with pytest.raises(IrrationalPointError) as raised:
        rational_common_zeros(f, g)
    assert str(raised.value) == (
        "polynomial -2 - 2*x - x^2 + x^3 + x^4 has a root not in Q "
        "(factor x**4 + x**3 - x**2 - 2*x - 2)"
    )


def _common_zeros(f: MPoly, g: MPoly):
    try:
        return rational_common_zeros(f, g)
    except ComputationError as exc:  # IrrationalPointError is one
        return type(exc).__name__


@given(form=affine_forms())
@with_form_examples
@example(form=(R2.parse("1 + y + x*y + x^2*y"), R2.parse("y + x*y + x^2*y")))
def test_common_zeros_by_position_do_not_depend_on_the_variable_order(form):
    """Eliminating x instead of y from a coprime pair finds the same zeros,
    or the same typed error: an irrational root of one resultant is refused
    only when it carries a common zero."""
    pair, _ = elim.saturate(*form)
    if any(f.is_zero for f in pair):
        return
    direct = _common_zeros(*pair)
    swapped = _common_zeros(*(MPoly(R2, {(j, i): c for (i, j), c in f.terms()}) for f in pair))
    if isinstance(direct, str):
        assert swapped == direct
    else:
        assert swapped == sorted((y0, x0) for x0, y0 in direct)


def test_gcd_is_normalized_at_the_local_leading_term():
    f = R2.parse("(2 + 3*x*y)*(x - y^2)")
    g = R2.parse("(4 + 6*x*y)*(x + y)")
    assert poly_gcd(f, g) == R2.parse("2 + 3*x*y") * Fraction(1, 2)
    assert poly_gcd(f, R2.zero()) == f * Fraction(1, 2)
    assert poly_gcd(R2.parse("x - y"), R2.parse("x + y")) == R2.one()


# -- the coprimality certificate of poly_gcd ------------------------------------------

P31 = elim._CERT_PRIME
X0, Y0 = elim._CERT_POINTS[:2]  # the values of x and y in the images
H = f"(x - {X0})*(y - {Y0}) + 1"


@pytest.mark.parametrize(
    "n, f, g",
    [
        (1, "x^2 + 1", "x - 3"),
        (2, "x^2 - y^3", "x*y + 1"),
        (2, "1/2*x^2 + 1/3*y", "3/4*x - 5/7*y^2"),
        (3, "x + y*z", "x*y - z^2 + 1"),
        (2, "x + 1", "y - 2"),  # no variable occurs in both
    ],
)
def test_gcd_of_certified_coprime_pairs_skips_the_prs(monkeypatch, n, f, g):
    def prs(*args):
        raise AssertionError("the PRS ran on a certified coprime pair")

    monkeypatch.setattr(elim, "_gcd", prs)
    assert poly_gcd(RINGS[n].parse(f), RINGS[n].parse(g)) == RINGS[n].one()


@pytest.mark.parametrize(
    "n, f, g, falls_back",
    [
        # The x-leading coefficient of f vanishes at y = Y0, so its image in
        # F_p[x] loses its x-degree.
        (2, f"(y - {Y0})*x^2 + x + y", "x^2 - y", True),
        (2, f"((y - {Y0})*x + 1)*(x + y)", "(x + y)*(x - 2)", True),
        # The common factor H = (x - X0)(y - Y0) + 1 has constant images in
        # F_p[x] and F_p[y]; only the degree requirement keeps the answer 1
        # from being certified.
        (2, f"({H})*(x + y)", f"({H})*(x - y)", True),
        # Coefficients that are multiples of p.
        (1, f"{P31}*x^3 + x + 1", "x^2 + 1", True),
        (2, f"{P31}*x^2*y + x + 1", "x - y", True),
        (2, f"{P31}*(x^2 - y)", "(x^2 - y)*(x + y)", True),
        # A common factor free of x: the images in F_p[x] are coprime, those
        # in F_p[y] are not.
        (2, "(y + 1)*(x^2 + y)", "(y + 1)*(x - y^2)", True),
        # Rational coefficients.
        (2, "(1/2*x + 1/3*y)*(x - 1/5)", "(1/2*x + 1/3*y)*(y + 7/4)", True),
        (2, "1/2*x^2 - 1/3*y", "5/7*x*y + 1/4", False),
        # One variable.
        (1, "(x - 1)*(2*x + 3)", "(x - 1)^2", True),
        (1, "x^3 - 2", "3*x^2 + 1", False),
    ],
)
def test_gcd_certificate_edge_cases(monkeypatch, n, f, g, falls_back):
    f, g = RINGS[n].parse(f), RINGS[n].parse(g)
    calls = []
    prs = elim._gcd
    monkeypatch.setattr(elim, "_gcd", lambda a, b, k: calls.append(k) or prs(a, b, k))
    assert poly_gcd(f, g) == _sympy_gcd(f, g)
    assert bool(calls) == falls_back


# -- sympy as an oracle -----------------------------------------------------------------


@pytest.mark.parametrize("n, degree", [(1, 4), (2, 3), (3, 2)])
@given(data=st.data())
def test_gcd_matches_sympy(n, degree, data):
    a, b, c = (data.draw(polys(n, degree)) for _ in range(3))
    f, g = a * c, b * c
    assert poly_gcd(f, g) == _sympy_gcd(f, g)


@pytest.mark.parametrize("n, degree", [(2, 3), (3, 2)])
@given(data=st.data())
def test_resultant_matches_sympy(n, degree, data):
    sympy = _sympy()
    f, g = data.draw(polys(n, degree)), data.draw(polys(n, degree))
    i = data.draw(st.integers(0, n - 1))
    syms = [sympy.Symbol(name) for name in f.ring.names]
    res = sympy.resultant(_to_sympy(f).as_expr(), _to_sympy(g).as_expr(), syms[i])
    expected = _from_sympy(sympy.Poly(res, *syms, domain="QQ"), f.ring)
    assert resultant(f, g, i) == expected


@given(
    roots=st.lists(
        st.tuples(st.fractions(-5, 5, max_denominator=4), st.integers(1, 3)), max_size=3
    ),
    rest=st.integers(0, 3).flatmap(univariate),
)
def test_rational_roots_match_sympy(roots, rest):
    p = rest
    for r, k in roots:
        p = p * (R1.var(0) - R1.constant(r)) ** k
    assume(p.total_degree() <= 10)
    assert _outcome(p) == _sympy_rational_roots(p)


@given(
    factors=st.lists(
        st.tuples(st.integers(2, 4).flatmap(univariate), st.integers(1, 2)),
        min_size=1,
        max_size=3,
    ),
    scale=st.integers(1, 5),
)
def test_irrational_message_matches_the_factor_list_cofactor(factors, scale):
    p = R1.constant(Fraction(1, scale))
    for f, k in factors:
        p = p * f**k
    assert _outcome(p) == _sympy_rational_roots(p)
