"""Foliations of the projective plane and the global tangency ledger.

A polynomial 1-form A dx + B dy extends to a homogeneous form
P dx + Q dy + R dz with x P + y Q + z R = 0, built by homogenizing the
coefficients and dividing out the common factor z of the resulting triple
when there is one.  The coefficients then have degree d + 1 where d is the
degree of the foliation.

The global check sums mu_p + tang_p - tau_p over all singular points of the
foliation together with the tangency points against an invariant-free curve
of degree r, and compares with d^2 + d + 1 + r(d + r - 1) - tau(X).  Every
point is found in one of three disjoint regions: the affine chart z = 1, the
line at infinity minus [0:1:0], and the single point [0:1:0].
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .elim import is_squarefree, poly_gcd, rational_common_zeros, rational_roots
from .errors import (
    ComputationError,
    InvariantCurveError,
    IrrationalPointError,
)
from .foliation import PlaneFoliation
from .invariants import Check, HypersurfaceGerm, LocalPair
from .localalg import INFINITY
from .poly import MPoly, OneForm, exact_divide, ring

PROJ_RING = ring("x", "y", "z")
CHART_X = ring("u", "v")  # (u, v) = (y/x, z/x), divisor at infinity is v = 0
CHART_Y = ring("s", "w")  # (s, w) = (x/y, z/y)


@dataclass(frozen=True)
class ProjectiveFoliation:
    """Saturated homogeneous 1-form P dx + Q dy + R dz with Euler relation.

    The charts are saturated by construction (Brunella, *Birational Geometry
    of Foliations*, ch. 2).  From xP + yQ + zR = 0, a common factor of two
    coefficients divides the third variable times the third coefficient; it
    is prime to that coefficient, since gcd(P, Q, R) = 1, so it is a power of
    that variable, which dehomogenizing at it sends to 1.
    """

    P: MPoly
    Q: MPoly
    R: MPoly
    degree: int

    @classmethod
    def from_affine(cls, omega: OneForm) -> "ProjectiveFoliation":
        """Homogenize the saturated A dx + B dy to degree m = max(deg A,
        deg B) as Ahat, Bhat, and divide the gcd out of the triple
        (z Ahat, z Bhat, R) with R = -(x Ahat + y Bhat).

        A and B are coprime, so their homogenizations are; Ahat and Bhat are
        these times powers of z, and the one of degree m has none, so
        gcd(z Ahat, z Bhat) = z.  The gcd of the triple is thus z when z
        divides R, that is when x A_m + y B_m = 0 for the degree-m parts
        A_m, B_m, and 1 otherwise.
        """
        fol = PlaneFoliation.from_form(omega)
        A, B = fol.A, fol.B
        m = max(A.total_degree(), B.total_degree())
        Ahat = A.homogenize(PROJ_RING, 2, m)
        Bhat = B.homogenize(PROJ_RING, 2, m)
        x, y, z = (PROJ_RING.var(i) for i in range(3))
        R = -(x * Ahat + y * Bhat)
        if all(e[2] for e, _ in R.terms()):  # z divides R
            P, Q, R = Ahat, Bhat, exact_divide(R, z)
        else:
            P, Q = z * Ahat, z * Bhat
        euler = x * P + y * Q + z * R
        if not euler.is_zero:
            raise ComputationError("Euler relation failed after homogenization")
        d = max(P.total_degree(), Q.total_degree(), R.total_degree()) - 1
        return cls(P, Q, R, d)

    def chart_z(self) -> PlaneFoliation:
        """Affine chart z = 1 with coordinates (x, y)."""
        R2 = ring("x", "y")
        return PlaneFoliation(
            R2,
            self.P.dehomogenize(R2, 2, [0, 1]),
            self.Q.dehomogenize(R2, 2, [0, 1]),
            saturated=True,
        )

    def chart_x(self) -> PlaneFoliation:
        """Chart x = 1 with (u, v) = (y/x, z/x); infinity is v = 0."""
        return PlaneFoliation(
            CHART_X,
            self.Q.dehomogenize(CHART_X, 0, [1, 2]),
            self.R.dehomogenize(CHART_X, 0, [1, 2]),
            saturated=True,
        )

    def chart_y(self) -> PlaneFoliation:
        """Chart y = 1 with (s, w) = (x/y, z/y); [0:1:0] is the origin."""
        return PlaneFoliation(
            CHART_Y,
            self.P.dehomogenize(CHART_Y, 1, [0, 2]),
            self.R.dehomogenize(CHART_Y, 1, [0, 2]),
            saturated=True,
        )


@dataclass(frozen=True)
class ProjectiveCurve:
    """Reduced homogeneous curve equation of degree r >= 1."""

    F: MPoly
    r: int

    @classmethod
    def from_affine(cls, phi: MPoly) -> "ProjectiveCurve":
        if phi.is_zero or phi.total_degree() < 1:
            raise ComputationError("curve equation must be nonconstant")
        r = phi.total_degree()
        F = phi.homogenize(PROJ_RING, 2, r)
        if not is_squarefree(F):
            raise ComputationError("projective curve equation is not reduced")
        return cls(F, r)

    def chart_z(self) -> MPoly:
        return self.F.dehomogenize(ring("x", "y"), 2, [0, 1])

    def chart_x(self) -> MPoly:
        return self.F.dehomogenize(CHART_X, 0, [1, 2])

    def chart_y(self) -> MPoly:
        return self.F.dehomogenize(CHART_Y, 1, [0, 2])


def _affine_candidates(f: MPoly, g: MPoly, what: str) -> list[tuple[Fraction, Fraction]]:
    """Common rational zeros of a pair defining a finite set."""
    if f.is_zero or g.is_zero:
        raise InvariantCurveError(f"{what} locus is a whole curve, not a finite set")
    if f.total_degree() == 0 or g.total_degree() == 0:
        return []  # a nonzero constant vanishes nowhere
    try:
        return rational_common_zeros(f, g)
    except IrrationalPointError as exc:
        raise IrrationalPointError(f"irrational {what} point: {exc}") from exc
    except ComputationError as exc:
        raise InvariantCurveError(f"{what} locus is not finite: {exc}") from exc


def _line_candidates(a: MPoly, b: MPoly, what: str) -> list[Fraction]:
    """Common rational zeros on the line at infinity; a, b univariate."""
    if a.is_zero and b.is_zero:
        raise InvariantCurveError(f"{what} locus contains the line at infinity")
    h = b if a.is_zero else a if b.is_zero else poly_gcd(a, b)
    if h.total_degree() == 0:
        return []
    try:
        return [r for r, _ in rational_roots(h)]
    except IrrationalPointError as exc:
        raise IrrationalPointError(
            f"irrational {what} point on the line at infinity: {exc}"
        ) from exc


@dataclass(frozen=True)
class PointContribution:
    point: tuple[Fraction, Fraction, Fraction]  # projective coordinates
    mu: int
    tang: int
    tau: int

    @property
    def term(self) -> int:
        return self.mu + self.tang - self.tau


def _contribution_at(
    fol: PlaneFoliation,
    curve_chart: MPoly,
    chart_point: tuple[Fraction, Fraction],
    proj_point: tuple[Fraction, Fraction, Fraction],
) -> PointContribution:
    local = fol.translate(chart_point)
    mu = local.milnor()
    if mu == INFINITY:
        raise ComputationError(f"non-isolated foliation singularity at {proj_point}")
    phi_local = curve_chart.translate(chart_point)
    if phi_local.constant_term() != 0:
        return PointContribution(proj_point, int(mu), 0, 0)
    # The local form is saturated, so its GSV index is the tangency order.
    pair = LocalPair(local.form, HypersurfaceGerm(phi_local))
    if pair.gsv == INFINITY:
        raise InvariantCurveError(f"a branch of the curve at {proj_point} is invariant")
    return PointContribution(proj_point, int(mu), int(pair.gsv), int(pair.tau0))


@dataclass(frozen=True)
class MilnorSumReport:
    """Milnor numbers of all singular points against d^2 + d + 1."""

    d: int  # foliation degree
    points: tuple[PointContribution, ...]

    @property
    def mu_sum(self) -> int:
        return sum(p.mu for p in self.points)

    @property
    def expected(self) -> int:
        return self.d * self.d + self.d + 1

    def values(self) -> dict:
        return {
            "d": self.d,
            "mu_sum": self.mu_sum,
            "expected": self.expected,
            "points": [[str(c) for c in p.point] + [p.mu] for p in self.points],
        }

    def checks(self) -> list[Check]:
        return [Check.equal("milnor_sum", self.mu_sum, self.expected)]


@dataclass(frozen=True)
class GlobalReport(MilnorSumReport):
    """Two sides of the global tangency sum on the projective plane; the
    points are the singular points of the foliation and the tangency points
    of the curve, so their Milnor numbers still sum to d^2 + d + 1."""

    r: int  # curve degree

    @property
    def lhs(self) -> int:
        return sum(p.term for p in self.points)

    @property
    def tau_total(self) -> int:
        return sum(p.tau for p in self.points)

    @property
    def total(self) -> int:
        """d^2 + d + 1 + r(d + r - 1), the sum of mu_p + tang_p."""
        return self.expected + self.r * (self.d + self.r - 1)

    @property
    def rhs(self) -> int:
        return self.total - self.tau_total

    def values(self) -> dict:
        return {
            "d": self.d,
            "r": self.r,
            "lhs": self.lhs,
            "rhs": self.rhs,
            "mu_sum": self.mu_sum,
            "tau_total": self.tau_total,
            "points": [
                [str(c) for c in p.point] + [p.mu, p.tang, p.tau] for p in self.points
            ],
        }

    def checks(self) -> list[Check]:
        return [
            Check.equal("global_sum", self.lhs, self.rhs),
            *super().checks(),
            Check.at_most("tjurina_bound", self.tau_total, self.total),
        ]


def _walk(
    pf: ProjectiveFoliation, pc: ProjectiveCurve | None = None
) -> tuple[PointContribution, ...]:
    """The contributions of every singular point of pf and, given a curve pc,
    of every tangency point against it, walking the three regions in order.
    Without a curve every contribution is the Milnor number alone."""
    out: list[PointContribution] = []

    # Region 1: the affine chart z = 1.
    fol = pf.chart_z()
    phi = fol.ring.one() if pc is None else pc.chart_z()
    seen: set[tuple[Fraction, Fraction]] = set()
    if not (fol.A.is_zero or fol.B.is_zero):
        seen.update(_affine_candidates(fol.A, fol.B, "singular"))
    if pc is not None:
        vphi = fol.tangent_field_applied(phi)
        if vphi.is_zero:
            raise InvariantCurveError("the curve is invariant by the foliation")
        seen.update(_affine_candidates(phi, vphi, "tangency"))
    for pt in sorted(seen):
        out.append(_contribution_at(fol, phi, pt, (pt[0], pt[1], Fraction(1))))

    # Region 2: the line at infinity minus [0:1:0], in the chart x = 1.
    fol = pf.chart_x()
    phi = fol.ring.one() if pc is None else pc.chart_x()
    line_pts = set(_line_candidates(fol.A.restrict(1), fol.B.restrict(1), "singular"))
    if pc is not None:
        vphi = fol.tangent_field_applied(phi)
        line_pts.update(_line_candidates(phi.restrict(1), vphi.restrict(1), "tangency"))
    for u0 in sorted(line_pts):
        out.append(
            _contribution_at(fol, phi, (u0, Fraction(0)), (Fraction(1), u0, Fraction(0)))
        )

    # Region 3: the single remaining point [0:1:0].  Without a curve phi is 1,
    # which is never tangent.
    fol = pf.chart_y()
    phi = fol.ring.one() if pc is None else pc.chart_y()
    tangent_here = (
        phi.constant_term() == 0
        and fol.tangent_field_applied(phi).constant_term() == 0
    )
    if fol.is_singular_at_origin() or tangent_here:
        out.append(
            _contribution_at(
                fol,
                phi,
                (Fraction(0), Fraction(0)),
                (Fraction(0), Fraction(1), Fraction(0)),
            )
        )
    return tuple(out)


def global_br_check(omega: OneForm, phi: MPoly) -> GlobalReport:
    """Sum the local contributions over the whole projective plane.

    omega and phi are given in the affine chart z = 1.  Every candidate point
    must be rational; the curve may pass through infinity but no branch of it
    may be invariant.
    """
    pf = ProjectiveFoliation.from_affine(omega)
    pc = ProjectiveCurve.from_affine(phi)
    return GlobalReport(d=pf.degree, r=pc.r, points=_walk(pf, pc))


def foliation_milnor_sum(omega: OneForm) -> MilnorSumReport:
    """Locate all singular points of the extended foliation and sum mu_p."""
    pf = ProjectiveFoliation.from_affine(omega)
    return MilnorSumReport(d=pf.degree, points=_walk(pf))
