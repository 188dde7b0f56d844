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

from dataclasses import InitVar, asdict, dataclass
from fractions import Fraction

from .elim import poly_gcd, rational_roots, saturate
from .errors import (
    ComputationError,
    InvariantCurveError,
    IrrationalPointError,
    NonIsolatedError,
)
from .invariants import Check, HypersurfaceGerm, LocalPair
from .localalg import INFINITY, LocalIdeal, colength
from .poly import MPoly, OneForm, Ring, exact_divide, ring, wedge_coeffs

CHART_XT = ring("x", "t")
CHART_UY = ring("u", "y")


@dataclass(frozen=True)
class PlaneFoliation:
    """Saturated foliation germ of (C^2, 0); coefficients of A dx + B dy."""

    ring: Ring
    A: MPoly
    B: MPoly
    # True when A and B are known to be coprime, so saturation is skipped.
    saturated: InitVar[bool] = False

    def __post_init__(self, saturated: bool):
        if self.ring.n != 2:
            raise ComputationError("plane foliations need exactly two variables")
        if saturated:
            return
        (A2, B2), _ = saturate(self.A, self.B)
        object.__setattr__(self, "A", A2)
        object.__setattr__(self, "B", B2)

    @classmethod
    def from_form(cls, omega: OneForm) -> "PlaneFoliation":
        if omega.ring.n != 2:
            raise ComputationError("plane foliations need exactly two variables")
        return cls(omega.ring, omega.coeffs[0], omega.coeffs[1])

    @property
    def form(self) -> OneForm:
        return OneForm(self.ring, (self.A, self.B))

    def multiplicity(self) -> int:
        """nu = min of the vanishing orders of the saturated coefficients."""
        return int(min(self.A.order(), self.B.order()))

    def is_singular_at_origin(self) -> bool:
        return self.A.constant_term() == 0 and self.B.constant_term() == 0

    def milnor(self) -> int | float:
        """mu0(F) = colength of the coefficient ideal of the saturated form."""
        return colength(LocalIdeal.make(self.ring, [self.A, self.B]))

    def tangent_field_applied(self, phi: MPoly) -> MPoly:
        """v(phi) for the tangent field v = -B d/dx + A d/dy."""
        return wedge_coeffs(self.form, phi)[(0, 1)]

    def translate(self, point) -> "PlaneFoliation":
        # Translation is a ring automorphism, so A and B stay coprime.
        return PlaneFoliation(
            self.ring, self.A.translate(point), self.B.translate(point), saturated=True
        )


T_RING = ring("t")


@dataclass(frozen=True)
class Parametrization:
    """A polynomial map t -> (x_1(t), ..., x_n(t)) with all x_i(0) = 0."""

    components: tuple[MPoly, ...]

    def __post_init__(self):
        for p in self.components:
            if p.ring != T_RING:
                raise ValueError("parametrization components must be polynomials in t")
            if p.constant_term() != 0:
                raise ValueError("parametrizations must pass through the origin")

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
        orders = [p.order() for p in self.components if not p.is_zero]
        if not orders:
            raise ComputationError("zero parametrization has no multiplicity")
        return int(min(orders))


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


def blowup(F: PlaneFoliation) -> BlowupResult:
    x1, t1 = CHART_XT.var(0), CHART_XT.var(1)
    A1 = F.A.subs(CHART_XT, [x1, t1 * x1])
    B1 = F.B.subs(CHART_XT, [x1, t1 * x1])
    dx_coeff = A1 + t1 * B1
    dt_coeff = x1 * B1
    k1 = int(min(_min_var_power(dx_coeff, 0), _min_var_power(dt_coeff, 0)))

    u2, y2 = CHART_UY.var(0), CHART_UY.var(1)
    A2 = F.A.subs(CHART_UY, [u2 * y2, y2])
    B2 = F.B.subs(CHART_UY, [u2 * y2, y2])
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
    strict_xt = PlaneFoliation(
        CHART_XT, _strip_var_power(dx_coeff, 0, k1), _strip_var_power(dt_coeff, 0, k1)
    )
    strict_uy = PlaneFoliation(
        CHART_UY, _strip_var_power(du_coeff, 1, k1), _strip_var_power(dy_coeff, 1, k1)
    )
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


def exceptional_singularities(bl: BlowupResult) -> list[tuple[ExceptionalPoint, int]]:
    """Singular points of the strict transform on the divisor, with local
    Milnor numbers.  All such points must be rational."""
    out: list[tuple[ExceptionalPoint, int]] = []
    Fxt = bl.chart_xt
    a0 = Fxt.A.restrict(0)
    b0 = Fxt.B.restrict(0)
    if a0.is_zero and b0.is_zero:
        raise ComputationError("strict transform vanishes on the divisor")
    h = b0 if a0.is_zero else a0 if b0.is_zero else poly_gcd(a0, b0)
    if h.total_degree() > 0:
        try:
            roots = rational_roots(h)
        except IrrationalPointError as exc:
            raise IrrationalPointError(
                f"irrational singularity on the exceptional divisor: {exc}"
            ) from exc
        for t0, _ in roots:
            mu = Fxt.translate((Fraction(0), t0)).milnor()
            if mu == INFINITY:
                raise NonIsolatedError("non-isolated singularity on the divisor")
            out.append((ExceptionalPoint("xt", t0), int(mu)))
    Fuy = bl.chart_uy
    if Fuy.is_singular_at_origin():
        mu = Fuy.milnor()
        if mu == INFINITY:
            raise NonIsolatedError("non-isolated singularity on the divisor")
        out.append((ExceptionalPoint("uy", Fraction(0)), int(mu)))
    return out


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
        if p.chart == "xt":
            return HypersurfaceGerm(self.chart_xt.translate((Fraction(0), p.coord)))
        return HypersurfaceGerm(self.chart_uy)


def strict_transform_curve(X: HypersurfaceGerm) -> CurveBlowup:
    if X.n != 2:
        raise ComputationError("curve blow-up needs exactly two variables")
    m = X.multiplicity()
    x1, t1 = CHART_XT.var(0), CHART_XT.var(1)
    total_xt = X.phi.subs(CHART_XT, [x1, t1 * x1])
    strict_xt = _strip_var_power(total_xt, 0, m)
    u2, y2 = CHART_UY.var(0), CHART_UY.var(1)
    total_uy = X.phi.subs(CHART_UY, [u2 * y2, y2])
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
    meets_origin = strict_uy.eval_at((Fraction(0), Fraction(0))) == 0
    return CurveBlowup(
        m=m,
        chart_xt=strict_xt,
        chart_uy=strict_uy,
        points_xt=tuple(points),
        meets_uy_origin=meets_origin,
    )


def delta_invariant_drop(origin: LocalPair, at_q: LocalPair, m: int) -> int:
    """D = tau0(X) - tau_q(Xtilde) - m(m-1)/2 for a curve X of multiplicity m
    (germ of ``origin``) and its strict transform Xtilde at q (germ of
    ``at_q``), with the Milnor-number drop mu0(X) - mu_q(Xtilde) = m(m-1)
    verified as a consistency check."""
    mu0, mu_q = origin.mu0_X, at_q.mu0_X
    if mu0 == INFINITY or mu_q == INFINITY:
        raise NonIsolatedError("non-isolated curve singularity in the blow-up")
    if mu0 - mu_q != m * (m - 1):
        raise ComputationError(
            f"Milnor drop {mu0 - mu_q} does not match m(m-1) = {m * (m - 1)}; "
            "is the curve irreducible and reduced?"
        )
    return int(origin.tau0 - at_q.tau0 - m * (m - 1) // 2)


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


def verify_blowup_formula(
    F: PlaneFoliation, X: HypersurfaceGerm, q: ExceptionalPoint | None = None
) -> BlowupReport:
    """Blow up once and compare mu_BR at the origin with the chart ledger.

    q is the divisor point of the strict transform of X; by default it is
    derived, which requires X irreducible at the origin.
    """
    origin = LocalPair(F.form, X)
    mu_br_0 = origin.bruce_roberts()
    mu_br_rel_0 = origin.br_relative()

    bl = blowup(F)
    bl_curve = strict_transform_curve(X)
    if q is None:
        q = bl_curve.unique_divisor_point()

    if q.chart == "xt":
        fol_q = bl.chart_xt.translate((Fraction(0), q.coord))
    else:
        fol_q = bl.chart_uy
    at_q = LocalPair(fol_q.form, bl_curve.germ_at(q))
    mu_br_q = at_q.bruce_roberts()
    mu_br_rel_q = at_q.br_relative()

    sing = exceptional_singularities(bl)
    sum_all = sum(mu for _, mu in sing)
    sum_other = sum(mu for p, mu in sing if p != q)

    D = delta_invariant_drop(origin, at_q, bl_curve.m)
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
    F: PlaneFoliation, f_sep: MPoly, X: HypersurfaceGerm
) -> GeneralizedCurveReport:
    """Compare the Bruce-Roberts drop of F against the Hamiltonian foliation
    of its (reduced) separatrix equation f_sep along a non-invariant X.

    delta = [mu_BR(F,X) - mu_BR(f_sep,X)] - [mu_BR^-(F,X) - mu_BR^-(f_sep,X)]
    equals mu0(F) - mu0(d f_sep); it vanishes exactly for generalized curves.
    """
    if f_sep.ring != F.ring:
        raise ValueError("separatrix equation must live in the foliation's ring")
    sep_wedge = F.tangent_field_applied(f_sep)
    if not sep_wedge.is_zero and exact_divide(sep_wedge, f_sep) is None:
        raise ComputationError("f_sep is not invariant by the foliation")
    HypersurfaceGerm(f_sep)  # validates reducedness for the plane case

    along_F = LocalPair(F.form, X)
    along_sep = LocalPair(OneForm.differential(f_sep), X)
    mu_br_F = along_F.bruce_roberts()
    mu_br_rel_F = along_F.br_relative()
    mu_br_sep = along_sep.bruce_roberts()
    mu_br_rel_sep = along_sep.br_relative()
    # Both mu0 are finite here: bruce_roberts rejects an infinite one.
    mu0_F, mu0_dsep = int(along_F.mu0_omega), int(along_sep.mu0_omega)
    delta = (mu_br_F - mu_br_sep) - (mu_br_rel_F - mu_br_rel_sep)
    report = GeneralizedCurveReport(
        delta=delta,
        mu0_F=mu0_F,
        mu0_dsep=mu0_dsep,
        mu_br_F=mu_br_F,
        mu_br_sep=mu_br_sep,
        mu_br_rel_F=mu_br_rel_F,
        mu_br_rel_sep=mu_br_rel_sep,
    )
    (check,) = report.checks()
    if not check.passed:
        raise ComputationError(
            f"generalized-curve routes disagree: {check.lhs} vs {check.rhs}"
        )
    return report
