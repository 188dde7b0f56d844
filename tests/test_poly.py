"""Sparse polynomial arithmetic, the local order, and 1-forms."""

from __future__ import annotations

import math
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from brindex.errors import ExprParseError
from brindex.parsing import MAX_DEGREE, MAX_NESTING, parse_form, parse_poly
from brindex.poly import (
    MPoly,
    OneForm,
    exact_divide,
    exp_add,
    exp_lcm,
    exp_sub,
    local_key,
    monomial_divides,
    ring,
    wedge_coeffs,
)

R2 = ring("x", "y")
R3 = ring("x", "y", "z")


def _poly_strategy(ring_, max_exp=4, max_terms=5):
    exp = st.tuples(*[st.integers(0, max_exp)] * ring_.n)
    coeff = st.one_of(
        st.integers(-4, 4),
        st.builds(Fraction, st.integers(-6, 6), st.integers(1, 4)),
    )
    return st.builds(
        lambda pairs: MPoly(ring_, dict(pairs)),
        st.lists(st.tuples(exp, coeff), max_size=max_terms),
    )


polys2 = _poly_strategy(R2)
points2 = st.tuples(st.integers(-3, 3), st.integers(-3, 3))


# -- parsing ------------------------------------------------------------------


def test_parse_known_strings():
    assert parse_poly("x^2 - 2*x*y + 1", R2) == MPoly(
        R2, {(2, 0): 1, (1, 1): -2, (0, 0): 1}
    )
    assert parse_poly("-x + (x + y)^2", R2) == MPoly(
        R2, {(1, 0): -1, (2, 0): 1, (1, 1): 2, (0, 2): 1}
    )
    assert parse_poly("3/4*y^3", R2) == MPoly(R2, {(0, 3): Fraction(3, 4)})
    assert parse_poly("0", R2).is_zero


def test_parse_rejects_garbage():
    for bad in ("x +", "x^", "w", "x**2", "(x + y", "2x"):
        with pytest.raises(ExprParseError):
            parse_poly(bad, R2)


def test_parse_caps_parenthesis_nesting():
    def nested(depth: int) -> str:
        return "(" * depth + "x" + ")" * depth

    assert parse_poly(nested(MAX_NESTING), R2) == R2.var(0)
    with pytest.raises(ExprParseError) as exc:
        parse_poly(nested(3000), R2)
    assert exc.value.position == MAX_NESTING
    with pytest.raises(ExprParseError):
        parse_form(nested(MAX_NESTING + 1) + " dx", R2)


@pytest.mark.parametrize(
    "text,position",
    [
        ("x^1001", 2),
        ("x^600*y^600", 5),
        ("x^99999999999", 2),
        ("(1 + x)^1001", 8),
        ("(x^2)^501", 6),
        ("2^1001", 2),
        ("x^" + "9" * 5000, 2),
        ("9" * 5000 + "*x", 0),
    ],
)
def test_parse_caps_degree_before_forming_the_power(text, position):
    # Each input is rejected from its exponents alone, before any power or
    # product is formed; the last two overflow int()'s digit limit.  Inputs
    # whose power would exhaust memory are not run: without the cap this
    # test must fail, not take the machine down.
    with pytest.raises(ExprParseError) as exc:
        parse_poly(text, R2)
    assert exc.value.position == position


def test_parse_accepts_degree_up_to_the_cap():
    assert MAX_DEGREE == 1000
    assert parse_poly("x^1000", R2).total_degree() == 1000
    assert parse_poly("x^500*y^500", R2).total_degree() == 1000
    assert parse_form("x^1000 dx", R2).coeffs[0].total_degree() == 1000


def test_parse_form():
    om = parse_form("y dx + (x - 1) dy", R2)
    assert om.coeffs[0] == parse_poly("y", R2)
    assert om.coeffs[1] == parse_poly("x - 1", R2)
    with pytest.raises(ExprParseError):
        parse_form("y dx + x", R2)


@given(polys2)
def test_repr_parse_round_trip(f):
    assert R2.parse(repr(f)) == f


# -- exponent helpers and the local order -------------------------------------


def test_local_order_ranks_by_degree_then_reversed():
    # Lower total degree always wins; ties break toward earlier variables.
    ranked = sorted([(0, 2), (2, 0), (1, 1), (0, 1), (1, 0), (0, 0)], key=local_key)
    assert ranked == [(0, 0), (1, 0), (0, 1), (2, 0), (1, 1), (0, 2)]


def test_exp_helpers():
    assert exp_add((1, 2), (3, 0)) == (4, 2)
    assert exp_sub((4, 2), (3, 0)) == (1, 2)
    assert exp_lcm((1, 2), (3, 0)) == (3, 2)
    assert monomial_divides((1, 0), (2, 3))
    assert not monomial_divides((1, 4), (2, 3))


@given(polys2)
def test_leading_exp_is_minimal_in_local_order(f):
    if f.is_zero:
        return
    exps = [e for e, _ in f.terms()]
    assert f.leading_exp() == min(exps, key=local_key)


# -- ring axioms ---------------------------------------------------------------


@given(polys2, polys2, polys2)
def test_ring_axioms(f, g, h):
    assert (f + g) + h == f + (g + h)
    assert f + g == g + f
    assert f * g == g * f
    assert (f * g) * h == f * (g * h)
    assert f * (g + h) == f * g + f * h
    assert f + R2.zero() == f
    assert f * R2.one() == f
    assert (f - f).is_zero


@given(polys2)
def test_power_matches_repeated_product(f):
    assert f**3 == f * f * f
    assert f**0 == R2.one()


@given(polys2, polys2)
def test_degree_and_order_are_additive(f, g):
    if f.is_zero or g.is_zero:
        assert (f * g).is_zero
        return
    p = f * g
    assert p.total_degree() == f.total_degree() + g.total_degree()
    assert p.order() == f.order() + g.order()
    assert p.ecart() == p.total_degree() - p.order() >= 0


def test_degree_conventions_for_zero():
    z = R2.zero()
    assert z.total_degree() == -1
    assert z.order() == math.inf
    assert z.is_zero


# -- calculus and substitution --------------------------------------------------


@given(polys2, polys2)
def test_partial_product_rule(f, g):
    for i in range(2):
        lhs = (f * g).partial(i)
        rhs = f.partial(i) * g + f * g.partial(i)
        assert lhs == rhs


@given(polys2, points2)
def test_translate_moves_the_evaluation_point(f, p):
    assert f.translate(p).eval_at((0, 0)) == f.eval_at(p)
    back = [-c for c in p]
    assert f.translate(p).translate(back) == f


@given(polys2, polys2, polys2, points2)
def test_subs_commutes_with_evaluation(f, g1, g2, p):
    composed = f.subs(R2, [g1, g2])
    assert composed.eval_at(p) == f.eval_at((g1.eval_at(p), g2.eval_at(p)))


@given(polys2)
def test_homogenize_dehomogenize_round_trip(f):
    if f.is_zero:
        return
    F = f.homogenize(R3, "z")
    # Every term of F has the total degree of f.
    assert {sum(e) for e, _ in F.terms()} == {f.total_degree()}
    assert F.dehomogenize(R2, "z", keep=("x", "y")) == f


@given(polys2, polys2)
def test_exact_divide_recovers_the_cofactor(f, g):
    if f.is_zero or g.is_zero:
        return
    q = exact_divide(f * g, g)
    assert q == f


def test_exact_divide_rejects_non_multiples():
    x = R2.var("x")
    y = R2.var("y")
    assert exact_divide(x, y) is None
    assert exact_divide(x * x + y, x) is None


@given(polys2, st.tuples(st.integers(0, 3), st.integers(0, 3)), st.integers(-3, 3))
def test_mono_mul_matches_product(f, e, c):
    assert f.mono_mul(e, c) == f * MPoly(R2, {e: c})


# -- 1-forms --------------------------------------------------------------------


@given(polys2)
def test_differential_coeffs_are_partials(f):
    df = OneForm.differential(f)
    assert df.coeffs == (f.partial(0), f.partial(1))


@given(polys2, polys2, polys2)
def test_form_applied_to_a_field(f, v1, v2):
    df = OneForm.differential(f)
    assert df.apply((v1, v2)) == v1 * f.partial(0) + v2 * f.partial(1)


@given(polys2, polys2)
def test_wedge_with_own_differential_vanishes(f, g):
    # df wedge df = 0; df wedge dg picks up the Jacobian determinant.
    zero = wedge_coeffs(OneForm.differential(f), f)
    assert all(p.is_zero for p in zero.values())
    jac = wedge_coeffs(OneForm.differential(f), g)
    expected = f.partial(0) * g.partial(1) - f.partial(1) * g.partial(0)
    assert jac[(0, 1)] == expected
