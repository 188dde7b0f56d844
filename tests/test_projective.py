"""Global tangency sums on the projective plane."""

from __future__ import annotations

from fractions import Fraction

import pytest
from hypothesis import example, given

from brindex.config import reset_limits, set_limits
from brindex.corpus import CASES
from brindex.elim import saturate
from brindex.errors import (
    BrindexError,
    InvariantCurveError,
    IrrationalPointError,
    ResourceLimitError,
)
from brindex.foliation import PlaneFoliation, verify_blowup_formula
from brindex.invariants import HypersurfaceGerm
from brindex.parsing import parse_form, parse_poly
from brindex.poly import MPoly, OneForm, ring
from brindex.projective import (
    PROJ_RING,
    ProjectiveCurve,
    ProjectiveFoliation,
    foliation_milnor_sum,
    global_br_check,
)
from brindex.session import render_jsonl, run_session_text
from tests_util import CallSpy, affine_forms, with_form_examples

R2 = ring("x", "y")


def _fol(form_text: str) -> PlaneFoliation:
    return PlaneFoliation.from_form(parse_form(form_text, R2))


def _check(form_text: str, curve_text: str):
    return global_br_check(_fol(form_text), parse_poly(curve_text, R2))


def _passed(rep) -> dict[str, bool]:
    return {c.name: c.passed for c in rep.checks()}


def test_homogenization_degree():
    pf = PlaneFoliation.from_form(parse_form("y dx + x dy", R2)).projective
    assert pf.degree == 1
    radial = PlaneFoliation.from_form(parse_form("(-y) dx + x dy", R2)).projective
    assert radial.degree == 0


@given(form=affine_forms())
@with_form_examples
def test_homogenization_and_charts_are_saturated_by_construction(form):
    """The proofs in ProjectiveFoliation, checked by the full gcd: the
    homogenized triple is what saturating it gives, and every chart pair
    has a constant gcd."""
    fol = PlaneFoliation.from_form(OneForm(R2, form))
    pf = ProjectiveFoliation.from_affine(fol)
    m = max(fol.A.total_degree(), fol.B.total_degree())
    Ahat, Bhat = (c.homogenize(PROJ_RING, 2, m) for c in (fol.A, fol.B))
    x, y, z = (PROJ_RING.var(i) for i in range(3))
    (P, Q, R), _ = saturate(z * Ahat, z * Bhat, -(x * Ahat + y * Bhat))
    assert (pf.P, pf.Q, pf.R) == (P, Q, R)
    assert pf.degree == max(P.total_degree(), Q.total_degree(), R.total_degree()) - 1
    for chart in (pf.chart(k) for k in range(3)):
        _, common = saturate(chart.A, chart.B)
        assert common.total_degree() == 0


def test_charts_compute_no_gcd(monkeypatch):
    spy = CallSpy(monkeypatch, "elim", "saturate")
    rep = _check("y dx + x dy", "y - x^2")  # the corpus case p2-pencil-conic
    assert rep.lhs == rep.rhs == 7
    # Only the affine form itself is saturated on the way to the charts.
    assert spy.calls_under("from_form") == 1
    assert spy.calls_under("from_affine", "chart") == 0


def test_projective_curve_charts():
    pc = ProjectiveCurve.from_affine(parse_poly("y - x^2", R2))
    assert pc.r == 2
    assert pc.chart(0) == parse_poly("y - x^2", R2)


def test_region_0_is_the_affine_input():
    fol = _fol("(x + y^2) dx + (2*y - x^2) dy")
    pf = fol.projective
    assert pf.regions[0].fol.form is fol.form
    assert pf.chart(0) == pf.regions[0].fol
    phi = parse_poly("y - x^2", R2)
    assert ProjectiveCurve.from_affine(phi).chart(0) is phi


# -- variables are read by position ------------------------------------------------


def _session(names: str, form: str, curve: str | None = None) -> str:
    lines = [f"ring {names}", f"form w = {form}"]
    if curve is not None:
        lines += [f"poly C = {curve}", "compute p2-check w C"]
    else:
        lines.append("compute p2-check w")
    return "\n".join(lines)


def _outcome(text: str):
    """The JSON lines of a session, or the type and text of its error."""
    try:
        return render_jsonl(run_session_text(text))
    except BrindexError as exc:
        return type(exc).__name__, str(exc)


def test_p2_check_reads_the_variables_by_position():
    # The first variable is x and the second y, whatever their names: read by
    # name, ring a, b raised a KeyError, and ring y, x answered for the
    # foliation x dx - 2*y dy.
    pencil = _outcome(_session("x, y", "y dx + x dy"))
    assert _outcome(_session("a, b", "b da + a db")) == pencil
    twin = _outcome(_session("x, y", "y dy - 2*x dx"))
    assert twin[0] == "IrrationalPointError"
    assert _outcome(_session("y, x", "x dx - 2*y dy")) == twin
    (case,) = (c for c in CASES if c.id == "p2-pencil-line")
    record = render_jsonl(run_session_text(case.session))
    assert _outcome(_session("a, b", "b da + a db", "a + b - 1")) == record


def _normalized(values: dict, swap: bool = False) -> dict:
    """The values with each point scaled so its first nonzero coordinate is
    1, x and y exchanged when swap is set, and the points sorted."""

    def scaled(p: list) -> tuple[Fraction, ...]:
        coords = [Fraction(c) for c in ((p[1], p[0], p[2]) if swap else p[:3])]
        lead = next(c for c in coords if c)
        return tuple(c / lead for c in coords)

    return {**values, "points": sorted((scaled(p), *p[3:]) for p in values["points"])}


def _values(text: str):
    """The one record's values, or the type of the error."""
    try:
        (record,) = run_session_text(text)
    except BrindexError as exc:
        return type(exc).__name__
    return record.values


@given(form=affine_forms())
@with_form_examples
@example(form=(R2.parse("1 + y + x*y + x^2*y"), R2.parse("y + x*y + x^2*y")))
def test_p2_check_by_position_whatever_the_names(form):
    """The form in ring x, y, renamed to ring a, b, and written in ring y, x
    (whose first variable is y, so its coefficients come swapped) give the
    same p2-check, or the same typed error; in ring y, x the points come with
    x and y exchanged."""
    A, B = form
    R_ab = ring("a", "b")
    A_ab, B_ab = (MPoly(R_ab, c.as_dict()) for c in form)
    for curve in (None, "y - x^2 + 2*x*y"):
        curve_ab = None if curve is None else repr(MPoly(R_ab, R2.parse(curve).as_dict()))
        xy = _values(_session("x, y", f"({A}) dx + ({B}) dy", curve))
        ab = _values(_session("a, b", f"({A_ab}) da + ({B_ab}) db", curve_ab))
        yx = _values(_session("y, x", f"({A}) dx + ({B}) dy", curve))
        assert ab == xy
        if isinstance(xy, str):
            assert yx == xy
        else:
            assert not isinstance(yx, str), yx
            assert _normalized(yx) == _normalized(xy, swap=True)


@given(form=affine_forms())
@with_form_examples
def test_each_region_and_divisor_point_is_recentred_once(form):
    """Across both forms of p2-check and a blow-up ledger, no polynomial is
    translated to the same point twice: the Milnor number and the tangency
    order at a point share one recentred foliation, and so do the divisor
    singularities and the ledger at q."""
    calls: list[tuple[MPoly, tuple]] = []  # holds each polynomial, so no id is reused
    translate = MPoly.translate

    def spy(self, point):
        calls.append((self, tuple(point)))
        return translate(self, point)

    fol = PlaneFoliation.from_form(OneForm(R2, form))
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(MPoly, "translate", spy)
        for run in (
            lambda: foliation_milnor_sum(fol),
            lambda: global_br_check(fol, parse_poly("y - x^2 + 2*x*y", R2)),
            lambda: verify_blowup_formula(fol, HypersurfaceGerm(parse_poly("y^2 - x^3", R2))),
        ):
            try:
                run()
            except BrindexError:
                pass
    keys = [(id(poly), point) for poly, point in calls]
    assert len(keys) == len(set(keys))


def test_pencil_against_a_line():
    rep = _check("y dx + x dy", "x + y - 1")
    assert rep.d == 1 and rep.r == 1
    assert rep.lhs == 4 and rep.rhs == 4
    assert rep.mu_sum == 3
    assert rep.tau_total == 0
    assert _passed(rep) == {"global_sum": True, "milnor_sum": True, "tjurina_bound": True}


def test_degree_zero_foliation_against_a_line():
    rep = _check("(-y) dx + x dy", "x + y - 1")
    assert rep.d == 0 and rep.r == 1
    assert rep.lhs == 1 and rep.rhs == 1
    assert _passed(rep)["global_sum"] and _passed(rep)["tjurina_bound"]


def test_pencil_against_a_conic():
    rep = _check("y dx + x dy", "y - x^2")
    assert rep.d == 1 and rep.r == 2
    assert rep.lhs == 7 and rep.rhs == 7
    assert _passed(rep)["global_sum"]


def test_degree_zero_foliation_against_the_cusp():
    rep = _check("(-y) dx + x dy", "y^2 - x^3")
    assert rep.d == 0 and rep.r == 3
    assert rep.lhs == 5 and rep.rhs == 5
    assert rep.tau_total == 2
    assert _passed(rep)["global_sum"] and _passed(rep)["tjurina_bound"]


def test_every_contribution_is_located():
    rep = _check("y dx + x dy", "x + y - 1")
    # d = 1: three radial-type singularities, each of local index one.
    assert sorted(p.mu for p in rep.points if p.mu) == [1, 1, 1]
    assert all(len(p.point) == 3 for p in rep.points)


def test_milnor_sum_without_a_curve():
    rep = foliation_milnor_sum(_fol("(-3*x^2) dx + 2*y dy"))
    assert rep.d == 2
    assert rep.mu_sum == 7
    assert rep.expected == 7
    assert _passed(rep) == {"milnor_sum": True}


def test_invariant_curve_is_rejected():
    # x = 0 is a leaf of the pencil xy = c in disguise.
    with pytest.raises(InvariantCurveError):
        _check("y dx + x dy", "x")
    # Same leaf hiding as one branch of a reducible curve.
    with pytest.raises(InvariantCurveError):
        _check("y dx + x dy", "x*(x + y - 1)")


def test_a_line_constant_in_a_chart_is_not_invariant():
    # x is the constant 1 in the chart x = 1, and y in the chart y = 1; no
    # field moves a constant, so the check runs in the affine chart only.
    for form, curve, point in (("0 dx + 1 dy", "x", "100"), ("1 dx + 0 dy", "y", "010")):
        rep = _check(form, curve)
        assert all(_passed(rep).values())
        assert [("".join(map(str, p.point)), p.mu, p.tang, p.tau) for p in rep.points] == [
            (point, 1, 0, 0)
        ]


def test_zeros_are_found_before_any_colength():
    """Within a region too, as in the walk region by region: under a step
    budget that the Milnor number at the origin exceeds, a curve with an
    invariant component still raises InvariantCurveError.  The raise caches
    nothing, so the same foliation raises again."""
    fol = _fol("(y^2 + x^3*y) dx + (x^5 + y^2) dy")  # y = 0 is invariant
    set_limits(max_reduction_steps=1)
    try:
        for _ in range(2):
            with pytest.raises(ResourceLimitError):
                foliation_milnor_sum(fol)
            with pytest.raises(InvariantCurveError, match="tangency locus is not finite"):
                global_br_check(fol, parse_poly("y", R2))
    finally:
        reset_limits()


def test_an_invariant_line_free_of_y_is_found_by_the_tangency_search():
    # The tangent field -x d/dx + d/dy of 1 dx + x dy sends x to -x: the line
    # x is invariant, and the affine tangency search says so before the local
    # test at [0:1:0] is reached.
    with pytest.raises(
        InvariantCurveError,
        match=r"^tangency locus is not finite: polynomials share a factor; "
        r"zero set is not finite$",
    ):
        _check("1 dx + x dy", "x")


def test_irrational_singularities_are_reported():
    # Singularities at y^2 = 2 do not have rational coordinates.
    with pytest.raises(IrrationalPointError):
        _check("(x - y^2 + 1) dx + (y^3 - 2*y) dy", "x + y - 1")
