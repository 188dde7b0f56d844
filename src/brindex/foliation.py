"""Germs of singular foliations of the plane: tangency, pullbacks, blow-up,
ledgers.

A foliation is stored through a saturated 1-form A dx + B dy (common factor
removed); its tangent vector field is v = -B d/dx + A d/dy.  The quadratic
blow-up is computed in the two standard charts

    (x, t) -> (x, t x)        exceptional divisor x = 0
    (u, y) -> (u y, y)        exceptional divisor y = 0

and the total transform is divided by the maximal power k of the exceptional
coordinate; k equals the multiplicity nu for non-dicritical foliations and
nu + 1 in the dicritical case.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field
from fractions import Fraction
from functools import cached_property

from .elim import common_rational_roots, rational_roots
from .errors import (
    ComputationError,
    InvariantCurveError,
    IrrationalPointError,
    NonIsolatedError,
)
from .invariants import Check, HypersurfaceGerm
from .localalg import INFINITY
from .poly import MPoly, OneForm, exact_divide, ring, wedge_coeffs

CHART_XT = ring("x", "t")
CHART_UY = ring("u", "y")


@dataclass(frozen=True)
class PlaneFoliation:
    """Saturated foliation germ of (C^2, 0): its form A dx + B dy, with A
    and B coprime.  It builds its blow-up, its extension to P^2 and its
    recentring at each point once each.

    Only ``from_form`` saturates; every other foliation has a form saturated
    by a theorem.  ``translate``: a translation is a ring automorphism.  The
    strict transforms of ``blowup``: with x inverted, (x, t) -> (x, t x) is
    an isomorphism (t = y / x), and (A + t B, x B) is (A, B) times a matrix
    of determinant x, so a common factor in Q[x, t] is a power of x, and
    dividing by the largest x^k that divides both leaves none; likewise in
    (u, y) -> (u y, y) with y inverted.  The charts of
    ``ProjectiveFoliation`` (Brunella, *Birational Geometry of Foliations*,
    ch. 2): from xP + yQ + zR = 0, a common factor of two coefficients
    divides the third variable times the third coefficient, and is prime to
    that coefficient since gcd(P, Q, R) = 1, so it is a power of that
    variable, which dehomogenizing at it sends to 1.
    """

    form: OneForm
    _translates: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.form.ring.n != 2:
            raise ComputationError("plane foliations need exactly two variables")

    ring = property(lambda self: self.form.ring)
    A = property(lambda self: self.form.coeffs[0])
    B = property(lambda self: self.form.coeffs[1])

    @classmethod
    def from_form(cls, omega: OneForm) -> "PlaneFoliation":
        """The foliation of omega / g for the common factor g of omega's
        coefficients; it keeps omega itself when g is constant."""
        fol = cls(omega)  # the ring is checked before the gcd
        coeffs, g = omega.saturation
        return fol if g.total_degree() == 0 else cls(OneForm(omega.ring, coeffs))

    def multiplicity(self) -> int:
        """nu = min of the vanishing orders of the saturated coefficients."""
        return int(min(self.A.order(), self.B.order()))

    def is_singular_at_origin(self) -> bool:
        return self.A.constant_term() == 0 and self.B.constant_term() == 0

    def tangent_field_applied(self, phi: MPoly) -> MPoly:
        """v(phi) for the tangent field v = -B d/dx + A d/dy."""
        return wedge_coeffs(self.form, OneForm.differential(phi))[(0, 1)]

    def translate(self, point) -> "PlaneFoliation":
        """The foliation recentred at point, one per point; self at the origin."""
        point = tuple(point)  # a list is no dict key
        if not any(point):
            return self
        moved = self._translates.get(point)
        if moved is None:
            coeffs = (self.A.translate(point), self.B.translate(point))
            moved = self._translates[point] = PlaneFoliation(OneForm(self.ring, coeffs))
        return moved

    @cached_property
    def blown_up(self) -> "BlowupResult":
        return blowup(self)

    @cached_property
    def projective(self):
        """The extension to P^2, a ``ProjectiveFoliation``."""
        from .projective import ProjectiveFoliation  # projective imports this module

        return ProjectiveFoliation.from_affine(self)


T_RING = ring("t")


@dataclass(frozen=True)
class Parametrization:
    """A polynomial map t -> (x_1(t), ..., x_n(t)) with all x_i(0) = 0, not
    every x_i zero."""

    components: tuple[MPoly, ...]

    def __post_init__(self):
        for p in self.components:
            if p.ring != T_RING:
                raise ValueError("parametrization components must be polynomials in t")
            if p.constant_term() != 0:
                raise ValueError("parametrizations must pass through the origin")
        if all(p.is_zero for p in self.components):
            raise ValueError("the zero map parametrizes no branch")

    @property
    def n(self) -> int:
        return len(self.components)

    def lies_on(self, phi: MPoly) -> bool:
        """Exact membership test: phi(x(t)) == 0 as a polynomial in t."""
        if phi.ring.n != self.n:
            raise ValueError("parametrization and polynomial sizes differ")
        return phi.subs(T_RING, list(self.components)).is_zero

    def multiplicity(self) -> int:
        """min_i ord_t x_i(t); the multiplicity of the parametrized branch."""
        return int(min(p.order() for p in self.components if not p.is_zero))


def order_pullback(
    omega: OneForm, param: Parametrization, X: HypersurfaceGerm | None = None
) -> int:
    """ord_t of the pullback of omega along a polynomial parametrization.

    The pullback  sum_i A_i(x(t)) x_i'(t)  is an exact polynomial in t, so
    its order is its lowest degree; a zero pullback means the parametrized
    branch is invariant.  When X is supplied the parametrization is first
    verified to lie on X (exact polynomial identity).
    """
    if omega.ring.n != param.n:
        raise ValueError("form and parametrization sizes differ")
    if X is not None and not param.lies_on(X.phi):
        raise ComputationError("the parametrization does not lie on the curve")
    comps = list(param.components)
    pulled = T_RING.zero()
    for a, comp in zip(omega.coeffs, comps):
        pulled = pulled + a.subs(T_RING, comps) * comp.partial(0)
    if pulled.is_zero:
        raise InvariantCurveError(
            "the form pulls back to zero: the parametrized branch is invariant"
        )
    return int(pulled.order())


# -- blow-up ------------------------------------------------------------------


def _min_var_power(p: MPoly, i: int) -> int | float:
    if p.is_zero:
        return INFINITY
    return min(e[i] for e, _ in p.terms())


def _strip_var_power(p: MPoly, i: int, k: int) -> MPoly:
    if k == 0 or p.is_zero:
        return p
    acc = {}
    for e, c in p.terms():
        if e[i] < k:
            raise ValueError("polynomial not divisible by the requested power")
        acc[e[:i] + (e[i] - k,) + e[i + 1 :]] = c
    return MPoly(p.ring, acc)


@dataclass(frozen=True)
class BlowupResult:
    """Strict transform of a foliation in both blow-up charts."""

    nu: int
    k: int  # power of the exceptional coordinate divided out
    dicritical: bool
    chart_xt: PlaneFoliation  # coordinates (x, t), divisor x = 0
    chart_uy: PlaneFoliation  # coordinates (u, y), divisor y = 0

    @cached_property
    def exceptional_singularities(self) -> tuple[tuple["ExceptionalPoint", int], ...]:
        """Singular points of the strict transform on the divisor, with local
        Milnor numbers.  All such points must be rational."""
        F = self.chart_xt
        a0, b0 = F.A.restrict(0), F.B.restrict(0)
        if a0.is_zero and b0.is_zero:
            raise ComputationError("strict transform vanishes on the divisor")
        try:
            roots = common_rational_roots(a0, b0)
        except IrrationalPointError as exc:
            raise IrrationalPointError(
                f"irrational singularity on the exceptional divisor: {exc}"
            ) from exc
        points = [ExceptionalPoint("xt", t0) for t0 in roots]
        if self.chart_uy.is_singular_at_origin():
            points.append(ExceptionalPoint("uy", Fraction(0)))
        out = []
        for p in points:
            mu = p.at(self.chart_xt, self.chart_uy).form.mu0
            if mu == INFINITY:
                raise NonIsolatedError("non-isolated singularity on the divisor")
            out.append((p, int(mu)))
        return tuple(out)


def _charts(p: MPoly) -> tuple[MPoly, MPoly]:
    """p pulled back to the charts: (p(x, t x), p(u y, y))."""
    x, t = CHART_XT.var(0), CHART_XT.var(1)
    u, y = CHART_UY.var(0), CHART_UY.var(1)
    return p.subs(CHART_XT, [x, t * x]), p.subs(CHART_UY, [u * y, y])


def blowup(F: PlaneFoliation) -> BlowupResult:
    """The strict transform of F in both charts, saturated by construction
    (the proof is in ``PlaneFoliation``)."""
    (A1, A2), (B1, B2) = _charts(F.A), _charts(F.B)
    x1, t1 = CHART_XT.var(0), CHART_XT.var(1)
    dx_coeff = A1 + t1 * B1
    dt_coeff = x1 * B1
    k1 = int(min(_min_var_power(dx_coeff, 0), _min_var_power(dt_coeff, 0)))

    u2, y2 = CHART_UY.var(0), CHART_UY.var(1)
    du_coeff = y2 * A2
    dy_coeff = u2 * A2 + B2
    k2 = int(min(_min_var_power(du_coeff, 1), _min_var_power(dy_coeff, 1)))

    if k1 != k2:
        raise ComputationError(
            f"inconsistent exceptional multiplicity between charts: {k1} vs {k2}"
        )
    nu = F.multiplicity()
    if k1 not in (nu, nu + 1):
        raise ComputationError(
            f"exceptional multiplicity {k1} out of range for nu = {nu}"
        )
    xt = (_strip_var_power(dx_coeff, 0, k1), _strip_var_power(dt_coeff, 0, k1))
    uy = (_strip_var_power(du_coeff, 1, k1), _strip_var_power(dy_coeff, 1, k1))
    strict_xt = PlaneFoliation(OneForm(CHART_XT, xt))
    strict_uy = PlaneFoliation(OneForm(CHART_UY, uy))
    dicritical = k1 == nu + 1
    # Cross-check: the divisor is invariant exactly in the non-dicritical case.
    divisor_invariant = _min_var_power(strict_xt.B, 0) >= 1
    if divisor_invariant == dicritical:
        raise ComputationError("divisor invariance contradicts the multiplicity drop")
    return BlowupResult(
        nu=nu, k=k1, dicritical=dicritical, chart_xt=strict_xt, chart_uy=strict_uy
    )


@dataclass(frozen=True)
class ExceptionalPoint:
    """A point of the exceptional divisor, named by chart and coordinate.

    chart "xt" holds points (0, t0); chart "uy" only ever contributes the
    origin (u, y) = (0, 0), the direction missed by the first chart.
    """

    chart: str
    coord: Fraction  # t0 in chart "xt"; 0 in chart "uy"

    def at(self, xt, uy):
        """Of the chart pair xt, uy, the one holding this point, recentred at it."""
        if self.chart == "xt":
            return xt.translate((Fraction(0), self.coord))
        return uy


@dataclass(frozen=True)
class CurveBlowup:
    """Strict transform of a plane curve germ under the quadratic blow-up."""

    m: int  # multiplicity of the curve at the origin
    chart_xt: MPoly
    chart_uy: MPoly
    points_xt: tuple[Fraction, ...]  # divisor intersections (0, t0)
    meets_uy_origin: bool

    def unique_divisor_point(self) -> ExceptionalPoint:
        count = len(self.points_xt) + (1 if self.meets_uy_origin else 0)
        if count != 1:
            raise ComputationError(
                f"strict transform meets the divisor at {count} points; "
                "the base curve must be irreducible at the origin"
            )
        if self.points_xt:
            return ExceptionalPoint("xt", self.points_xt[0])
        return ExceptionalPoint("uy", Fraction(0))

    def germ_at(self, p: ExceptionalPoint) -> HypersurfaceGerm:
        return HypersurfaceGerm(p.at(self.chart_xt, self.chart_uy))


def strict_transform_curve(X: HypersurfaceGerm) -> CurveBlowup:
    if X.n != 2:
        raise ComputationError("curve blow-up needs exactly two variables")
    m = X.multiplicity()
    total_xt, total_uy = _charts(X.phi)
    strict_xt = _strip_var_power(total_xt, 0, m)
    strict_uy = _strip_var_power(total_uy, 1, m)

    cone = strict_xt.restrict(0)  # degree-m binary form at x = 0
    points: list[Fraction] = []
    if cone.total_degree() > 0:
        try:
            points = [r for r, _ in rational_roots(cone)]
        except IrrationalPointError as exc:
            raise IrrationalPointError(
                f"irrational divisor intersection of the strict transform: {exc}"
            ) from exc
    meets_origin = strict_uy.constant_term() == 0
    return CurveBlowup(
        m=m,
        chart_xt=strict_xt,
        chart_uy=strict_uy,
        points_xt=tuple(points),
        meets_uy_origin=meets_origin,
    )


def delta_invariant_drop(X: HypersurfaceGerm, X_q: HypersurfaceGerm, m: int) -> int:
    """D = tau0(X) - tau_q(Xtilde) - m(m-1)/2 for a curve X of multiplicity m
    and its strict transform Xtilde at q (the germ ``X_q``), with the
    Milnor-number drop mu0(X) - mu_q(Xtilde) = m(m-1) verified as a
    consistency check."""
    mu0, mu_q = X.mu0, X_q.mu0
    if mu0 == INFINITY or mu_q == INFINITY:
        raise NonIsolatedError("non-isolated curve singularity in the blow-up")
    if mu0 - mu_q != m * (m - 1):
        raise ComputationError(
            f"Milnor drop {mu0 - mu_q} does not match m(m-1) = {m * (m - 1)}; "
            "is the curve irreducible and reduced?"
        )
    return int(X.tau0 - X_q.tau0 - m * (m - 1) // 2)


@dataclass(frozen=True)
class BlowupReport:
    """Both sides of the blow-up ledgers for mu_BR and its relative version."""

    nu: int
    m: int
    k: int
    dicritical: bool
    mu_br_origin: int
    mu_br_q: int
    mu_br_rel_origin: int
    mu_br_rel_q: int
    sum_mu_other: int  # divisor singularities of the strict foliation, q excluded
    sum_mu_all: int  # all divisor singularities (conservation ledger)
    mu0_F: int
    delta_drop: int  # D
    q: ExceptionalPoint

    @property
    def rhs_mu_br(self) -> int:
        nu, m = self.nu, self.m
        base = self.mu_br_q + self.sum_mu_other + m * (m - 1) // 2 - self.delta_drop
        if self.dicritical:
            return base + nu * nu + nu - 1 + (nu + 1) * m
        return base + nu * nu - nu - 1 + nu * m

    @property
    def rhs_mu_br_rel(self) -> int:
        m = self.m
        base = self.mu_br_rel_q + m * (m - 1) // 2 - self.delta_drop
        if self.dicritical:
            return base + (self.nu + 1) * m
        return base + self.nu * m

    @property
    def rhs_conservation(self) -> int:
        nu = self.nu
        if self.dicritical:
            return (nu + 1) ** 2 - (nu + 2) + self.sum_mu_all
        return nu * nu - (nu + 1) + self.sum_mu_all

    def values(self) -> dict:
        """The fields by name, in field order, with q as its chart and
        coordinate."""
        out = asdict(self)
        del out["q"]
        return {**out, "q_chart": self.q.chart, "q_coord": str(self.q.coord)}

    def checks(self) -> list[Check]:
        main = "blowup_dicritical" if self.dicritical else "blowup_nondicritical"
        return [
            Check.equal(main, self.mu_br_origin, self.rhs_mu_br),
            Check.equal("blowup_relative", self.mu_br_rel_origin, self.rhs_mu_br_rel),
            Check.equal("milnor_conservation", self.mu0_F, self.rhs_conservation),
        ]


def verify_blowup_formula(F: PlaneFoliation, X: HypersurfaceGerm) -> BlowupReport:
    """Compare mu_BR at the origin with the chart ledger of F's blow-up.

    q is the one divisor point of the strict transform of X, which requires X
    irreducible at the origin.
    """
    origin = X.pair(F.form)
    mu_br_0 = origin.bruce_roberts()
    mu_br_rel_0 = origin.br_relative()

    bl = F.blown_up
    bl_curve = strict_transform_curve(X)
    q = bl_curve.unique_divisor_point()
    at_q = bl_curve.germ_at(q).pair(q.at(bl.chart_xt, bl.chart_uy).form)
    mu_br_q = at_q.bruce_roberts()
    mu_br_rel_q = at_q.br_relative()

    sing = bl.exceptional_singularities
    sum_all = sum(mu for _, mu in sing)
    sum_other = sum(mu for p, mu in sing if p != q)

    D = delta_invariant_drop(X, at_q.X, bl_curve.m)
    return BlowupReport(
        nu=bl.nu,
        m=bl_curve.m,
        k=bl.k,
        dicritical=bl.dicritical,
        mu_br_origin=mu_br_0,
        mu_br_q=mu_br_q,
        mu_br_rel_origin=mu_br_rel_0,
        mu_br_rel_q=mu_br_rel_q,
        sum_mu_other=sum_other,
        sum_mu_all=sum_all,
        mu0_F=int(origin.mu0_omega),
        delta_drop=D,
        q=q,
    )


@dataclass(frozen=True)
class GeneralizedCurveReport:
    """Second-kind discrepancy of a foliation against its separatrix curve."""

    delta: int
    mu0_F: int
    mu0_dsep: int
    mu_br_F: int
    mu_br_sep: int
    mu_br_rel_F: int
    mu_br_rel_sep: int

    @property
    def is_generalized_curve(self) -> bool:
        return self.delta == 0

    def values(self) -> dict:
        return {**asdict(self), "is_generalized_curve": self.is_generalized_curve}

    def checks(self) -> list[Check]:
        """delta against mu0(F) - mu0(d f_sep): an arithmetic identity, since
        each mu_BR - mu_BR^- difference is that pair's mu0 of the form."""
        return [
            Check.equal("generalized_curve_delta", self.delta, self.mu0_F - self.mu0_dsep)
        ]


def generalized_curve_check(
    F: PlaneFoliation, sep: HypersurfaceGerm, X: HypersurfaceGerm
) -> GeneralizedCurveReport:
    """Compare the Bruce-Roberts drop of F against the Hamiltonian foliation
    of its separatrix germ sep = {f_sep = 0} along a non-invariant X.

    delta = [mu_BR(F,X) - mu_BR(f_sep,X)] - [mu_BR^-(F,X) - mu_BR^-(f_sep,X)]
    equals mu0(F) - mu0(d f_sep); it vanishes exactly for generalized curves.
    """
    if sep.ring != F.ring:
        raise ValueError("separatrix equation must live in the foliation's ring")
    sep_wedge = F.tangent_field_applied(sep.phi)
    if not sep_wedge.is_zero and exact_divide(sep_wedge, sep.phi) is None:
        raise ComputationError("f_sep is not invariant by the foliation")

    along_F = X.pair(F.form)
    along_sep = X.pair(sep.dform)
    mu_br_F = along_F.bruce_roberts()
    mu_br_rel_F = along_F.br_relative()
    mu_br_sep = along_sep.bruce_roberts()
    mu_br_rel_sep = along_sep.br_relative()
    # Both mu0 are finite here: bruce_roberts rejects an infinite one.
    mu0_F, mu0_dsep = int(along_F.mu0_omega), int(along_sep.mu0_omega)
    delta = (mu_br_F - mu_br_sep) - (mu_br_rel_F - mu_br_rel_sep)
    return GeneralizedCurveReport(
        delta=delta,
        mu0_F=mu0_F,
        mu0_dsep=mu0_dsep,
        mu_br_F=mu_br_F,
        mu_br_sep=mu_br_sep,
        mu_br_rel_F=mu_br_rel_F,
        mu_br_rel_sep=mu_br_rel_sep,
    )
