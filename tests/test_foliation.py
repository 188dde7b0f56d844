"""Foliations: saturation, tangency, blow-up ledgers, pullback orders."""

from __future__ import annotations

from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from brindex.errors import BrindexError, ComputationError, InvariantCurveError
from brindex.foliation import (
    CHART_XT,
    T_RING,
    ExceptionalPoint,
    Parametrization,
    PlaneFoliation,
    blowup,
    delta_invariant_drop,
    generalized_curve_check,
    order_pullback,
    strict_transform_curve,
    verify_blowup_formula,
)
from brindex import elim
from brindex.elim import saturate
from brindex.invariants import HypersurfaceGerm, LocalPair, intersection_mult
from brindex.localalg import INFINITY, LocalIdeal, colength
from brindex.parsing import parse_form, parse_poly
from brindex.poly import OneForm, ring
from brindex.session import run_session_text
from tests_util import CallSpy, affine_forms, with_form_examples

R2 = ring("x", "y")


def _germ(text: str) -> HypersurfaceGerm:
    return HypersurfaceGerm(parse_poly(text, R2))


def _fol(text: str) -> PlaneFoliation:
    return PlaneFoliation.from_form(parse_form(text, R2))


def _param(*exprs: str) -> Parametrization:
    return Parametrization(tuple(parse_poly(e, T_RING) for e in exprs))


# -- saturation and basic structure ------------------------------------------------


def test_saturate_strips_the_common_factor():
    A = parse_poly("x*y^2", R2)
    B = parse_poly("x^2*y", R2)
    (a, b), common = saturate(A, B)
    assert common * a == A and common * b == B
    assert common == parse_poly("x*y", R2)
    coprime = saturate(a, b)
    assert coprime == ((a, b), R2.one())


def test_foliation_from_form_saturates():
    F = PlaneFoliation.from_form(parse_form("x*y dx + x^2 dy", R2))
    assert F.A == parse_poly("y", R2)
    assert F.B == parse_poly("x", R2)
    assert F.multiplicity() == 1
    assert F.form.mu0 == 1
    assert F.is_singular_at_origin()


def test_translate_computes_no_gcd(monkeypatch):
    F = _fol("(x + y^2) dx + (2*y - x^2 + x*y) dy")
    calls = []
    gcd = elim.poly_gcd
    monkeypatch.setattr(elim, "poly_gcd", lambda f, g: calls.append(1) or gcd(f, g))
    point = (Fraction(1, 2), Fraction(-3))
    moved = F.translate(point)
    assert calls == []
    monkeypatch.undo()
    assert moved == PlaneFoliation(OneForm(R2, (F.A.translate(point), F.B.translate(point))))


def test_skipping_saturation_keeps_the_ring_check():
    R3 = ring("x", "y", "z")
    with pytest.raises(ComputationError, match="exactly two variables"):
        PlaneFoliation(OneForm(R3, (R3.var(0), R3.var(1), R3.var(2))))
    with pytest.raises(ComputationError, match="exactly two variables"):
        PlaneFoliation.from_form(OneForm(R3, (R3.zero(),) * 3))


def test_a_saturated_form_is_kept_and_saturated_once(monkeypatch):
    w = parse_form("y dx + x dy", R2)
    assert PlaneFoliation.from_form(w).form is w
    # A form with a common factor is saturated once, by the form itself, for
    # the pairs along two germs and for the foliation.
    spy = CallSpy(monkeypatch, "elim", "saturate")
    w = parse_form("x*y dx + x^2 dy", R2)
    (X_sat, _), (Y_sat, _) = (_germ(c).pair(w).saturation for c in ("y^2 - x^3", "y - x"))
    F = PlaneFoliation.from_form(w)
    assert len(spy.args) == 1
    assert X_sat.omega.coeffs == Y_sat.omega.coeffs == F.form.coeffs


def test_a_foliation_recentres_once_per_point():
    F = _fol("(x + y^2) dx + (2*y - x^2 + x*y) dy")
    point = (Fraction(1, 2), Fraction(-3))
    assert F.translate(point) is F.translate(point)
    assert F.translate((Fraction(0), Fraction(0))) is F


def test_tangent_field_applied():
    F = _fol("y dx + x dy")
    phi = parse_poly("y^2 - x^5", R2)
    # v = (-B, A) applied to phi.
    expected = parse_poly("5*x^5 + 2*y^2", R2) * Fraction(1)
    assert F.tangent_field_applied(phi) == expected or F.tangent_field_applied(
        phi
    ) == -expected


def _tangency(form: str, curve: str) -> int:
    return LocalPair(_fol(form).form, _germ(curve)).tangency()


def test_tangency_order_knowns():
    assert _tangency("y dx + x dy", "y^2 - x^5") == 10
    assert _tangency("(-3*y) dx + 2*x dy", "y^2 - x^5") == 10
    assert _tangency("x dx + y dy", "y") == 1


def test_tangency_order_rejects_invariant_curves():
    with pytest.raises(InvariantCurveError):
        _tangency("(-3*x^2) dx + 2*y dy", "y^2 - x^3")  # d(y^2 - x^3)


def test_intersection_mult_knowns():
    assert intersection_mult(parse_poly("x", R2), parse_poly("y", R2)) == 1
    assert intersection_mult(parse_poly("y^2 - x^3", R2), parse_poly("x", R2)) == 2
    assert intersection_mult(parse_poly("x", R2), parse_poly("x + x*y", R2)) == INFINITY


# -- parametrizations and pullback orders -------------------------------------------


def test_parametrization_validation():
    with pytest.raises(ValueError):
        _param("1 + t", "t^2")  # must pass through 0
    with pytest.raises(ValueError):
        _param("0", "0")  # parametrizes no branch
    good = _param("t^2", "t^3")
    assert good.n == 2
    assert good.multiplicity() == 2
    assert _param("t^2", "0").multiplicity() == 2  # one zero component is a line


def test_lies_on_is_exact():
    cusp = parse_poly("y^2 - x^3", R2)
    assert _param("t^2", "t^3").lies_on(cusp)
    assert not _param("t^2", "t^3 + t^4").lies_on(cusp)
    assert _param("t^2", "t^3 + t^4").lies_on(parse_poly("(y - x^2)^2 - x^3", R2))


@given(st.integers(1, 4), st.integers(1, 5))
def test_lies_on_monomial_curves(p, q):
    f = parse_poly(f"y^{p} - x^{q}", R2)
    assert _param(f"t^{p}", f"t^{q}").lies_on(f)


def test_order_pullback_of_df_is_one_below_the_order_of_f():
    # d(f(x(t)))/dt = (df)(x(t)) . x'(t), so ord_t of the pullback of df is
    # ord_t f(x(t)) - 1 whenever f(x(t)) is not constant.
    for pm in (_param("t^2", "t^3"), _param("t^2", "t^3 + t^5"), _param("t", "t^4")):
        for text in ("x*y", "x^3 - y^2 + x*y^2", "x + y + x^2"):
            f = parse_poly(text, R2)
            along = f.subs(T_RING, list(pm.components))
            assert order_pullback(OneForm.differential(f), pm) == along.order() - 1


def test_order_pullback_known_value():
    # x*y along (t^2, t^3) is t^5, so the pullback of d(xy) is 5 t^4.
    xy = parse_poly("x*y", R2)
    pm = _param("t^2", "t^3")
    assert xy.subs(T_RING, list(pm.components)) == parse_poly("t^5", T_RING)
    assert order_pullback(OneForm.differential(xy), pm) == 4


def test_order_pullback_known_order():
    # x*y along (t^2, t^5) is t^7, so y dx + x dy pulls back to 7 t^6.
    pm = _param("t^2", "t^5")
    xy = parse_poly("x*y", R2)
    assert xy.subs(T_RING, list(pm.components)) == parse_poly("t^7", T_RING)
    assert order_pullback(parse_form("y dx + x dy", R2), pm) == 6


def test_order_pullback_knowns():
    om = parse_form("y dx + x dy", R2)
    assert order_pullback(om, _param("t^2", "t^5"), _germ("y^2 - x^5")) == 6
    assert order_pullback(om, _param("t^3", "t^4"), _germ("y^3 - x^4")) == 6
    assert order_pullback(om, _param("t^2", "t^7"), _germ("y^2 - x^7")) == 8


def test_order_pullback_of_high_degree_branches():
    # The pullback is an exact polynomial, so any depth of first term is found.
    om = parse_form("y dx + x dy", R2)
    assert order_pullback(om, _param("t^40", "t^41")) == 80
    assert order_pullback(om, _param("t^600", "t^601")) == 1200
    assert order_pullback(parse_form("x^1000 dx", R2), _param("t", "t^2")) == 1000


def test_order_pullback_without_curve_argument():
    om = parse_form("y dx + x dy", R2)
    assert order_pullback(om, _param("t^2", "t^5")) == 6


def test_order_pullback_rejects_mismatched_curve():
    om = parse_form("y dx + x dy", R2)
    with pytest.raises(ComputationError):
        order_pullback(om, _param("t^2", "t^5"), _germ("y^2 - x^3"))


def test_order_pullback_detects_invariant_branch():
    cusp = parse_poly("y^2 - x^3", R2)
    with pytest.raises(InvariantCurveError):
        order_pullback(OneForm.differential(cusp), _param("t^2", "t^3"))


# -- blow-up ---------------------------------------------------------------------------


def test_blowup_charts_nondicritical():
    bl = blowup(_fol("(-3*y) dx + 2*x dy"))
    assert bl.nu == 1
    assert bl.k == 1
    assert not bl.dicritical
    sing = bl.exceptional_singularities
    assert sum(mu for _, mu in sing) == 2  # two reduced singular points


@given(form=affine_forms())
@with_form_examples
def test_strict_transforms_are_saturated_by_construction(form):
    """The proof in blowup, checked by the full gcd."""
    bl = blowup(PlaneFoliation.from_form(OneForm(R2, form)))
    for strict in (bl.chart_xt, bl.chart_uy):
        _, common = saturate(strict.A, strict.B)
        assert common.total_degree() == 0


@given(form=affine_forms())
@with_form_examples
def test_blowup_recentres_each_divisor_point_once(form):
    F = PlaneFoliation.from_form(OneForm(R2, form))
    try:
        bl = blowup(F)
        with pytest.MonkeyPatch.context() as mp:
            spy = CallSpy(mp, "localalg", "colength")
            sing = bl.exceptional_singularities
        mu0_F = F.form.mu0
    except BrindexError:
        return  # only blow-ups that finish are checked
    # One colength per divisor point, each on the point's one foliation.
    assert len(spy.args) == len(sing)
    for p, mu in sing:
        fol = p.at(bl.chart_xt, bl.chart_uy)
        assert fol is p.at(bl.chart_xt, bl.chart_uy)
        assert mu == colength(LocalIdeal.make(fol.ring, [fol.A, fol.B]))
    # Milnor numbers are conserved through the blow-up.
    nu, total = bl.nu, sum(mu for _, mu in sing)
    if bl.dicritical:
        assert mu0_F == (nu + 1) ** 2 - (nu + 2) + total
    else:
        assert mu0_F == nu * nu - (nu + 1) + total


def test_a_blowup_ledger_computes_each_colength_once(monkeypatch):
    F = _fol("(-3*y) dx + 2*x dy")
    q = strict_transform_curve(_germ("y^2 - x^5")).unique_divisor_point()
    bl = F.blown_up
    assert q.at(bl.chart_xt, bl.chart_uy) is q.at(bl.chart_xt, bl.chart_uy)
    spy = CallSpy(monkeypatch, "localalg", "colength")
    records = run_session_text(
        "ring x, y\ncurve X = y^2 - x^5\nform lin = -3*y dx + 2*x dy\n"
        "compute blowup-verify lin X\n"
    )
    assert all(c.passed for r in records for c in r.checks)
    assert len(spy.args) == len({ideal for ideal, in spy.args})


def test_blowup_dicritical_detection():
    # Lines through the origin: the divisor is transverse, not invariant.
    bl = blowup(_fol("(-y) dx + x dy"))
    assert bl.nu == 1
    assert bl.dicritical
    assert bl.k == bl.nu + 1


def test_strict_transform_of_the_cusp():
    cb = strict_transform_curve(_germ("y^2 - x^3"))
    assert cb.m == 2
    assert cb.points_xt == (Fraction(0),)
    assert not cb.meets_uy_origin
    q = cb.unique_divisor_point()
    assert q == ExceptionalPoint("xt", Fraction(0))
    assert cb.germ_at(q).phi == parse_poly("t^2 - x", CHART_XT)


def test_strict_transform_vertical_branch():
    # x = y^2 has vertical tangent; the transform lives in the second chart.
    cb = strict_transform_curve(_germ("x - y^2"))
    assert cb.points_xt == ()
    assert cb.meets_uy_origin
    q = cb.unique_divisor_point()
    assert q.chart == "uy"


def test_strict_transform_reducible_curve_has_no_unique_point():
    cb = strict_transform_curve(_germ("x*y"))
    with pytest.raises(ComputationError):
        cb.unique_divisor_point()


def test_delta_invariant_drop_verifies_milnor_drop():
    X = _germ("y^2 - x^5")
    cb = strict_transform_curve(X)
    germ_q = cb.germ_at(cb.unique_divisor_point())
    assert delta_invariant_drop(X, germ_q, cb.m) == 1
    with pytest.raises(ComputationError, match="Milnor drop"):
        delta_invariant_drop(X, germ_q, 3)


def test_blowup_ledger_nondicritical():
    X = _germ("y^2 - x^5")
    F = _fol("(-3*y) dx + 2*x dy")
    rep = verify_blowup_formula(F, X)
    assert rep.nu == 1
    assert rep.m == 2
    assert not rep.dicritical
    assert rep.mu_br_origin == 7
    assert rep.mu_br_q == 5
    assert rep.sum_mu_other == 1
    assert rep.delta_drop == 1
    assert rep.mu_br_rel_origin == 6
    assert [(c.name, c.passed) for c in rep.checks()] == [
        ("blowup_nondicritical", True),
        ("blowup_relative", True),
        ("milnor_conservation", True),
    ]


def test_blowup_ledger_dicritical():
    X = _germ("y^3 - x^7")
    F = _fol("(2*x^7 + 5*y^5) dx + (-5*x*y^4 - 3*x^6*y^2) dy")
    rep = verify_blowup_formula(F, X)
    assert rep.nu == 5
    assert rep.m == 3
    assert rep.dicritical
    assert rep.mu_br_origin == 56
    assert rep.mu_br_q == 9
    assert rep.sum_mu_other == 0
    assert rep.sum_mu_all == 4
    assert rep.mu0_F == 33
    assert rep.delta_drop == 3
    assert rep.mu_br_rel_origin == 23
    assert [(c.name, c.passed) for c in rep.checks()] == [
        ("blowup_dicritical", True),
        ("blowup_relative", True),
        ("milnor_conservation", True),
    ]
    # Conservation through a dicritical blow-up counts the extra divisor term.
    assert rep.rhs_conservation == rep.mu0_F


def test_strict_transforms_compute_no_gcd(monkeypatch):
    # The corpus case blowup-dicritical.
    F = _fol("(2*x^7 + 5*y^5) dx + (-5*x*y^4 - 3*x^6*y^2) dy")
    spy = CallSpy(monkeypatch, "elim", "saturate")
    rep = verify_blowup_formula(F, _germ("y^3 - x^7"))
    assert rep.mu_br_origin == 56
    assert spy.calls_under("blowup") == 0


# -- generalized curves -----------------------------------------------------------------


def test_generalized_curve_positive():
    X = _germ("y^2 - x^5")
    F = _fol("(-3*y) dx + 2*x dy")
    rep = generalized_curve_check(F, _germ("x*y"), X)
    assert rep.delta == 0
    assert rep.is_generalized_curve
    assert [(c.name, c.lhs, c.rhs, c.passed) for c in rep.checks()] == [
        ("generalized_curve_delta", 0, 0, True)
    ]


def test_generalized_curve_negative_saddle_node():
    L = _germ("y - x")
    F = _fol("y dx + (-x^2) dy")
    rep = generalized_curve_check(F, _germ("x*y"), L)
    assert rep.delta == 1
    assert not rep.is_generalized_curve
    assert rep.mu0_F == 2
    assert rep.mu0_dsep == 1
    assert rep.delta == rep.mu0_F - rep.mu0_dsep


def test_generalized_curve_rejects_non_invariant_separatrix():
    X = _germ("y - x")
    F = _fol("(-3*y) dx + 2*x dy")
    with pytest.raises(ComputationError):
        generalized_curve_check(F, _germ("x + y^2"), X)
