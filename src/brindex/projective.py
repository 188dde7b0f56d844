"""Foliations of the projective plane and the global tangency ledger.

A polynomial 1-form A dx + B dy extends to a homogeneous form
P dx + Q dy + R dz with x P + y Q + z R = 0, built by homogenizing the
coefficients and dividing out the common factor z of the resulting triple
when there is one.  The coefficients then have degree d + 1 where d is the
degree of the foliation.

The global check sums mu_p + tang_p - tau_p over all singular points of the
foliation together with the tangency points against an invariant-free curve
of degree r, and compares with d^2 + d + 1 + r(d + r - 1) - tau(X).  Every
point lies in one of three disjoint regions, each read in one affine chart,
a row of ``CHARTS``:

    0  the affine plane                  chart z = 1, the input's own variables
    1  the line at infinity but [0:1:0]  chart x = 1, (u, v) = (y/x, z/x), at v = 0
    2  the point [0:1:0]                 chart y = 1, (s, w) = (x/y, z/y), at the origin

A ``ProjectiveFoliation`` owns its regions; region 0 is the affine form and
curve as given, their variables read by position.  Each region owns its
singular points with their Milnor numbers, read by the Milnor sum; the
global check adds the tangency points, each point's tang sharing its mu's
recentred foliation.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property

from .elim import common_rational_roots, is_squarefree, rational_common_zeros
from .errors import ComputationError, InvariantCurveError, IrrationalPointError
from .foliation import PlaneFoliation
from .invariants import Check, HypersurfaceGerm, LocalPair
from .localalg import INFINITY
from .poly import MPoly, OneForm, exact_divide, ring

PROJ_RING = ring("x", "y", "z")
Point = tuple[Fraction, Fraction]


def _affine_zeros(f: MPoly, g: MPoly, what: str) -> list[Point]:
    """Common rational zeros of a pair defining a finite set in the chart z = 1."""
    # A nonzero constant vanishes nowhere; so does a saturated form with a
    # zero coefficient, whose other coefficient is a constant.
    if f.total_degree() == 0 or g.total_degree() == 0:
        return []
    if f.is_zero or g.is_zero:
        raise InvariantCurveError(f"{what} locus is a whole curve, not a finite set")
    try:
        return rational_common_zeros(f, g)
    except IrrationalPointError as exc:
        raise IrrationalPointError(f"irrational {what} point: {exc}") from exc
    except ComputationError as exc:
        raise InvariantCurveError(f"{what} locus is not finite: {exc}") from exc


def _line_zeros(f: MPoly, g: MPoly, what: str) -> list[Point]:
    """Common rational zeros on the line at infinity v = 0 of the chart x = 1."""
    a, b = f.restrict(1), g.restrict(1)
    if a.is_zero and b.is_zero:
        raise InvariantCurveError(f"{what} locus contains the line at infinity")
    try:
        roots = common_rational_roots(a, b)
    except IrrationalPointError as exc:
        msg = f"irrational {what} point on the line at infinity: {exc}"
        raise IrrationalPointError(msg) from exc
    return [(u, Fraction(0)) for u in roots]


def _origin_zeros(f: MPoly, g: MPoly, what: str) -> list[Point]:
    """The origin of the chart y = 1, that is [0:1:0], if f and g vanish there."""
    zero = Fraction(0)
    return [(zero, zero)] if f.constant_term() == 0 == g.constant_term() else []


# Per region: the chart ring (none for the affine input), the variable set to
# 1, the variables kept, and the common zeros of two chart polynomials there.
CHARTS = (
    (None, 2, (0, 1), _affine_zeros),
    (ring("u", "v"), 0, (1, 2), _line_zeros),
    (ring("s", "w"), 1, (0, 2), _origin_zeros),
)


@dataclass(frozen=True)
class Region:
    """One of the three regions of P^2, with the foliation in its chart."""

    k: int  # row of CHARTS
    fol: PlaneFoliation

    def point(self, p: Point) -> tuple[Fraction, Fraction, Fraction]:
        """Projective coordinates of the chart point p."""
        keep = CHARTS[self.k][2]
        coords = [Fraction(1)] * 3
        coords[keep[0]], coords[keep[1]] = p
        return tuple(coords)

    def zeros(self, f: MPoly, g: MPoly, what: str) -> list[Point]:
        """The sorted common zeros of f and g here, all rational, in the chart."""
        return CHARTS[self.k][3](f, g, what)

    @cached_property
    def singular_zeros(self) -> list[Point]:
        return self.zeros(self.fol.A, self.fol.B, "singular")

    @cached_property
    def singular_points(self) -> dict[Point, int]:
        """The singular points of this region with their Milnor numbers.

        The candidates are the common zeros of A and B here.  At any other
        point A or B is a unit, so mu is 0 there without a colength.
        """
        out: dict[Point, int] = {}
        for p in self.singular_zeros:
            mu = self.fol.translate(p).form.mu0
            if mu == INFINITY:
                raise ComputationError(f"non-isolated foliation singularity at {self.point(p)}")
            out[p] = int(mu)
        return out


@dataclass(frozen=True)
class ProjectiveFoliation:
    """Saturated homogeneous 1-form P dx + Q dy + R dz with Euler relation,
    and the saturated affine form it extends.  The charts are saturated by
    construction (the proof is in ``PlaneFoliation``).
    """

    P: MPoly
    Q: MPoly
    R: MPoly
    degree: int
    form: OneForm  # the affine form, not its foliation, which caches self

    @classmethod
    def from_affine(cls, fol: PlaneFoliation) -> "ProjectiveFoliation":
        """Homogenize the saturated A dx + B dy to degree m = max(deg A,
        deg B) as Ahat, Bhat, and divide the gcd out of the triple
        (z Ahat, z Bhat, R) with R = -(x Ahat + y Bhat).

        A and B are coprime, so their homogenizations are; Ahat and Bhat are
        these times powers of z, and the one of degree m has none, so
        gcd(z Ahat, z Bhat) = z.  The gcd of the triple is thus z when z
        divides R, that is when x A_m + y B_m = 0 for the degree-m parts
        A_m, B_m, and 1 otherwise.
        """
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
        return cls(P, Q, R, d, fol.form)

    def chart(self, k: int) -> PlaneFoliation:
        """The foliation in the chart of region k: the affine form for region
        0, else the coefficients of the kept variables, dehomogenized."""
        if k == 0:
            return PlaneFoliation(self.form)
        R2, which, keep, _ = CHARTS[k]
        triple = (self.P, self.Q, self.R)
        coeffs = tuple(triple[i].dehomogenize(R2, which, keep) for i in keep)
        return PlaneFoliation(OneForm(R2, coeffs))

    @cached_property
    def regions(self) -> tuple[Region, ...]:
        return tuple(Region(k, self.chart(k)) for k in range(3))


@dataclass(frozen=True)
class ProjectiveCurve:
    """Reduced homogeneous curve equation of degree r >= 1, and the affine
    equation phi it closes."""

    F: MPoly
    r: int
    phi: MPoly

    @classmethod
    def from_affine(cls, phi: MPoly) -> "ProjectiveCurve":
        if phi.is_zero or phi.total_degree() < 1:
            raise ComputationError("curve equation must be nonconstant")
        r = phi.total_degree()
        F = phi.homogenize(PROJ_RING, 2, r)
        if not is_squarefree(F):
            raise ComputationError("projective curve equation is not reduced")
        return cls(F, r, phi)

    def chart(self, k: int) -> MPoly:
        if k == 0:
            return self.phi
        R2, which, keep, _ = CHARTS[k]
        return self.F.dehomogenize(R2, which, keep)


@dataclass(frozen=True)
class PointContribution:
    point: tuple[Fraction, Fraction, Fraction]  # projective coordinates
    mu: int
    tang: int
    tau: int

    @property
    def term(self) -> int:
        return self.mu + self.tang - self.tau


def _contribution_at(region: Region, curve: MPoly, p: Point, mu: int) -> PointContribution:
    """mu at p, with tang and tau when the curve's chart equation passes
    through p."""
    point = region.point(p)
    phi_local = curve.translate(p)
    if phi_local.constant_term() != 0:
        return PointContribution(point, mu, 0, 0)
    # The local form is saturated, so its GSV index is the tangency order.
    pair = LocalPair(region.fol.translate(p).form, HypersurfaceGerm(phi_local))
    if pair.gsv == INFINITY:
        raise InvariantCurveError(f"a branch of the curve at {point} is invariant")
    return PointContribution(point, mu, int(pair.gsv), int(pair.tau0))


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


def global_br_check(fol: PlaneFoliation, phi: MPoly) -> GlobalReport:
    """Sum the local contributions over the whole projective plane.

    The saturated foliation and phi are given in the affine chart z = 1.
    Every candidate point must be rational; the curve may pass through
    infinity but no branch of it may be invariant.  In each region, in turn,
    the singular and then the tangency points are found before any Milnor
    number, tang or tau, so a zero-finding error comes before a colength one.
    """
    pf = fol.projective
    pc = ProjectiveCurve.from_affine(phi)
    points: list[PointContribution] = []
    for region in pf.regions:
        singular = region.singular_zeros
        curve = pc.chart(region.k)
        vphi = region.fol.tangent_field_applied(curve)
        # Only in the affine chart: in the others the curve's equation may be
        # a constant (the line x or y), which no field moves.
        if region.k == 0 and vphi.is_zero:
            raise InvariantCurveError("the curve is invariant by the foliation")
        tangency = region.zeros(curve, vphi, "tangency")
        milnor = region.singular_points
        for p in sorted({*singular, *tangency}):
            points.append(_contribution_at(region, curve, p, milnor.get(p, 0)))
    return GlobalReport(d=pf.degree, r=pc.r, points=tuple(points))


def foliation_milnor_sum(fol: PlaneFoliation) -> MilnorSumReport:
    """Sum mu_p over the singular points of the saturated foliation's
    extension to P^2."""
    pf = fol.projective
    points = tuple(
        PointContribution(region.point(p), mu, 0, 0)
        for region in pf.regions
        for p, mu in region.singular_points.items()
    )
    return MilnorSumReport(d=pf.degree, points=points)
