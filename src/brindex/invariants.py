"""Local invariants of hypersurface germs and 1-forms at an isolated singularity.

Everything reduces to colengths of explicitly constructed ideals, each built
by the one object that measures it:

* mu0(omega)        coefficient ideal of the form (``OneForm.mu0``)
* mu0(X), tau0(X)   mu0 of the germ's differential (``HypersurfaceGerm.dform``)
                    and ``HypersurfaceGerm.tjurina_ideal``
* GSV index         ``LocalPair.gsv_ideal``: <phi> + the coefficients of
                    omega ∧ dphi
* Bruce-Roberts     GSV + mu0(omega) - tau0(X); equivalently the colength of
                    ``LocalPair.trivial_ideal``, the evaluation of omega on
                    the trivial tangent fields (phi d_i and the Hamiltonian
                    fields of phi), minus tau0
* relative version  GSV - tau0
* radial index      GSV - mu0(X)
* Euler obstruction (plane curves) radial index - (multiplicity - 1)
* tangency order    (plane curves) GSV of the saturated form

The identities connecting the routes are exercised by the test suite on both
curated and randomized inputs.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field
from functools import cached_property
from typing import Sequence

from .elim import coprime_at_origin
from .errors import (
    ComputationError,
    InvariantCurveError,
    NonIsolatedError,
    NotTangentError,
    UnsupportedError,
)
from .localalg import INFINITY, LocalIdeal, colength
from .poly import MPoly, OneForm, exact_divide, wedge_coeffs


@dataclass(frozen=True)
class Check:
    """One identity check: its name, both sides, and whether it held."""

    name: str
    lhs: object
    rhs: object
    passed: bool

    @classmethod
    def equal(cls, name: str, lhs, rhs) -> "Check":
        return cls(name, lhs, rhs, lhs == rhs)

    @classmethod
    def at_most(cls, name: str, lhs, rhs) -> "Check":
        return cls(name, lhs, rhs, lhs <= rhs)


def _fin(value) -> object:
    """Colengths go to JSON as ints, or the literal string \"infinity\"."""
    if value == INFINITY:
        return "infinity"
    return int(value)


@dataclass(frozen=True)
class HypersurfaceGerm:
    """A reduced hypersurface germ (X, 0) = {phi = 0}.

    phi must vanish at the origin and be reduced there: phi and its partials
    share no factor through the origin.  The germ holds its differential
    (whose mu0 is mu0(X)), its tau0 and its pairs, each made on first use; it
    hashes and compares by phi alone.
    """

    phi: MPoly
    _pairs: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.phi.is_zero:
            raise ComputationError("the zero polynomial does not define a germ")
        if self.phi.constant_term() != 0:
            raise ComputationError("the hypersurface must pass through the origin")
        if not coprime_at_origin(self.phi, *self.dphi):
            raise ComputationError("hypersurface equation is not reduced at the origin")

    @property
    def ring(self):
        return self.phi.ring

    @property
    def n(self) -> int:
        return self.phi.ring.n

    dform = cached_property(lambda self: OneForm.differential(self.phi))
    dphi = property(lambda self: list(self.dform.coeffs))

    def multiplicity(self) -> int:
        return int(self.phi.order())

    tjurina_ideal = cached_property(
        lambda self: LocalIdeal.make(self.ring, [self.phi, *self.dphi])
    )
    # mu0(X) and tau0(X); a raise is not kept, so it is computed again if asked.
    mu0 = property(lambda self: self.dform.mu0)
    tau0 = cached_property(lambda self: colength(self.tjurina_ideal))

    def pair(self, omega: OneForm) -> "LocalPair":
        """The one LocalPair of omega along this germ."""
        return self._pairs.setdefault(omega, LocalPair(omega, self))


@dataclass(frozen=True)
class ThetaGenerators:
    """Polynomial vector fields claimed to generate the tangent module of X."""

    fields: tuple[tuple[MPoly, ...], ...]

    def __post_init__(self):
        if not self.fields:
            raise ValueError("need at least one vector field")
        n = len(self.fields[0])
        for xi in self.fields:
            if len(xi) != n:
                raise ValueError("vector fields of mixed dimension")

    def verify_tangent(self, X: HypersurfaceGerm) -> None:
        """Check dphi(xi) in <phi> for every field, by exact division."""
        for k, xi in enumerate(self.fields):
            if len(xi) != X.n:
                raise ValueError("vector field dimension does not match the germ")
            value = X.dform.apply(list(xi))
            if not value.is_zero and exact_divide(value, X.phi) is None:
                raise NotTangentError(
                    f"generator {k} is not tangent to the hypersurface"
                )


def intersection_mult(f: MPoly, g: MPoly) -> int | float:
    """Local intersection multiplicity i_0(f, g) = colength <f, g>."""
    if f.ring != g.ring:
        raise ValueError("mixed rings in intersection multiplicity")
    return colength(LocalIdeal.make(f.ring, [f, g]))


def gsv_icis(omega: OneForm, fs: Sequence[MPoly]) -> int | float:
    """GSV index of omega along the ICIS {f_1 = ... = f_k = 0}: the colength
    of <f_1, ..., f_k> + the coefficients of df_1 ∧ ... ∧ df_k ∧ omega."""
    if not fs:
        raise ValueError("need at least one equation")
    ring_ = omega.ring
    if len(fs) >= ring_.n:
        raise UnsupportedError("too many equations: not an ICIS of positive dimension")
    for f in fs:
        if f.ring != ring_:
            raise ValueError("equations must share the ring of the form")
        if f.is_zero:
            raise ComputationError("the zero polynomial does not define an ICIS")
        if f.constant_term() != 0:
            raise ComputationError("ICIS equations must vanish at the origin")
    minors = wedge_coeffs(*map(OneForm.differential, fs), omega).values()
    return colength(LocalIdeal.make(ring_, [*fs, *minors]))


def bruce_roberts_user_theta(
    omega: OneForm, X: HypersurfaceGerm, theta: ThetaGenerators
) -> int:
    """mu_BR from a user-supplied generating set of the tangent module.

    Each field is verified tangent (dphi(xi) in <phi>); the result is the
    colength of <omega(xi_1), ..., omega(xi_r)>.
    """
    theta.verify_tangent(X)
    values = [omega.apply(list(xi)) for xi in theta.fields]
    if all(v.is_zero for v in values):
        raise NonIsolatedError("omega vanishes on all supplied tangent fields")
    result = colength(LocalIdeal.make(omega.ring, values))
    if result == INFINITY:
        raise NonIsolatedError(
            "evaluation ideal has infinite colength; the generating set may be incomplete"
        )
    return int(result)


def icis_pair_milnor(X: HypersurfaceGerm, f: MPoly) -> int:
    """mu0(phi, f): Milnor number of the curve ICIS (phi, f), by the
    difference GSV(df; X) - mu0(X)."""
    if f.ring != X.ring:
        raise ValueError("function and hypersurface live in different rings")
    if f.constant_term() != 0:
        raise ComputationError("the function must vanish at the origin")
    pair = LocalPair(OneForm.differential(f), X)
    if pair.mu0_X == INFINITY:
        raise NonIsolatedError("the hypersurface singularity is not isolated")
    if pair.gsv == INFINITY:
        raise InvariantCurveError("(phi, f) is not an ICIS pair")
    return int(pair.gsv - pair.mu0_X)


def br_function(f: MPoly, X: HypersurfaceGerm) -> int:
    """mu_BR(f, X) for a function: mu_BR of its differential.

    The GSV route is compared with the trivial tangent-field evaluation, an
    independent ideal; a mismatch is reported as an internal error.
    """
    check = LocalPair(OneForm.differential(f), X).gsv_decomposition()
    if not check.passed:
        raise ComputationError(
            f"function Bruce-Roberts routes disagree: {check.rhs} vs {check.lhs}"
        )
    return check.rhs


@dataclass(frozen=True)
class InvariantReport:
    """All local invariants of a (form, hypersurface) pair at the origin."""

    n: int
    multiplicity: int
    mu0_omega: int
    mu0_X: int
    tau0: int
    gsv: int
    mu_br: int
    mu_br_rel: int
    rad: int
    tang: int | None  # plane curves only
    eu: int | None  # plane curves only

    def as_dict(self) -> dict:
        """The invariants by name, in field order; tang and eu only when set."""
        return {k: v for k, v in asdict(self).items() if v is not None}


# The value each base quantity must not take, and the typed error if it does.
_REJECT = {
    "mu0_omega": (INFINITY, NonIsolatedError, "the 1-form does not have an isolated zero"),
    "mu0_X": (INFINITY, NonIsolatedError, "the hypersurface singularity is not isolated"),
    "tau0": (INFINITY, NonIsolatedError, "the hypersurface singularity is not isolated"),
    "invariant": (True, InvariantCurveError, "the hypersurface is invariant by the form"),
    "gsv": (
        INFINITY, InvariantCurveError, "a branch of the hypersurface is invariant by the form"
    ),
}


class LocalPair:
    """A (form, hypersurface) pair at the origin.  omega ∧ dphi, the GSV and
    trivial-evaluation ideals and their colengths, the invariance test and the
    saturation are each computed at most once; mu0(omega) is the form's, and
    mu0(X) and tau0(X) are the germ's.  Every invariant is a difference of
    them and raises the typed error of the first base quantity it needs that
    fails, checked in a fixed order."""

    def __init__(self, omega: OneForm, X: HypersurfaceGerm):
        self.omega = omega
        self.X = X

    mu0_omega = property(lambda self: self.omega.mu0)
    mu0_X = property(lambda self: self.X.mu0)
    tau0 = property(lambda self: self.X.tau0)
    # omega ∧ dphi, computed once: the invariance test reads it, and the GSV
    # and trivial-evaluation ideals take its coefficients as generators.
    wedge = cached_property(lambda self: wedge_coeffs(self.omega, self.X.dform))

    @cached_property
    def gsv_ideal(self) -> LocalIdeal:
        """<phi> + the coefficients of omega ∧ dphi."""
        return LocalIdeal.make(self.X.ring, [self.X.phi, *self.wedge.values()])

    @cached_property
    def trivial_ideal(self) -> LocalIdeal:
        """omega evaluated on the tangent fields that exist for every X:
        phi * d_i and the Hamiltonian fields phi_{x_j} d_k - phi_{x_k} d_j.
        It is independent of the GSV ideal, so the two Bruce-Roberts routes
        stay an independent check of each other."""
        phi = self.X.phi
        return LocalIdeal.make(
            self.X.ring, [*(phi * a for a in self.omega.coeffs), *self.wedge.values()]
        )

    # GSV(omega, X): infinite exactly when some branch of X is invariant.
    gsv = cached_property(lambda self: colength(self.gsv_ideal))
    trivial = cached_property(lambda self: colength(self.trivial_ideal))

    @cached_property
    def invariant(self) -> bool:
        """True when omega ∧ dphi vanishes on X, i.e. phi divides every
        coefficient of the wedge; then X is invariant by the foliation of
        omega."""
        phi = self.X.phi
        return all(
            c.is_zero or exact_divide(c, phi) is not None for c in self.wedge.values()
        )

    @cached_property
    def saturation(self) -> tuple["LocalPair", int | float]:
        """The pair of omega/g along X, and i_0(g, phi), where g is the
        common factor of omega's coefficients; (self, 0) when g is constant.
        The form saturates itself; the saturated pair is not the germ's."""
        coeffs, g = self.omega.saturation
        if g.total_degree() == 0:
            return self, 0
        saturated = LocalPair(OneForm(self.omega.ring, coeffs), self.X)
        return saturated, intersection_mult(g, self.X.phi)

    def _require(self, *names: str) -> None:
        for name in names:
            bad, error, message = _REJECT[name]
            if getattr(self, name) == bad:
                raise error(message)

    def bruce_roberts(self) -> int:
        """mu_BR = GSV + mu0(omega) - tau0(X)."""
        self._require("mu0_omega", "tau0", "invariant", "gsv")
        return int(self.gsv + self.mu0_omega - self.tau0)

    def bruce_roberts_trivial(self) -> int:
        """mu_BR as the colength of the trivial tangent-field evaluation minus
        tau0."""
        self._require("tau0")
        if self.trivial == INFINITY:
            raise InvariantCurveError(
                "trivial tangent-field evaluation has infinite colength"
            )
        return int(self.trivial - self.tau0)

    def tangency(self) -> int:
        """Plane curves only: the tangency order tang(F, X) of the foliation
        F of omega, which is the GSV index of the saturated pair.  GSV(omega)
        itself is tang(F, X) + i_0(g, phi)."""
        if self.X.n != 2:
            raise ComputationError("plane foliations need exactly two variables")
        saturated, _ = self.saturation
        if saturated.invariant:
            raise InvariantCurveError("the curve is invariant; tangency order is infinite")
        if saturated.gsv == INFINITY:
            raise InvariantCurveError("a branch of the curve is invariant")
        return int(saturated.gsv)

    def gsv_by_tangency(self) -> object:
        """Plane curves only: tang(F, X) + i_0(g, phi), which equals
        GSV(omega, X) for omega = g * omega'; "infinity" when g shares a branch
        with X."""
        return _fin(self.tangency() + self.saturation[1])

    def br_relative(self) -> int:
        """mu_BR^- = GSV - tau0(X)."""
        self._require("tau0", "gsv")
        return int(self.gsv - self.tau0)

    def radial_index(self) -> int:
        """Radial (Schwartz) index: GSV - mu0(X)."""
        self._require("mu0_X", "gsv")
        return int(self.gsv - self.mu0_X)

    def euler_obstruction(self) -> int:
        """Plane curves only: radial index - (multiplicity - 1)."""
        if self.X.n != 2:
            raise UnsupportedError(
                "Euler obstruction is implemented for plane curves only"
            )
        return self.radial_index() - (self.X.multiplicity() - 1)

    def report(self) -> InvariantReport:
        """The full battery of invariants; everything must be finite."""
        self._require("mu0_omega", "mu0_X", "tau0", "invariant", "gsv")
        n, m = self.X.n, self.X.multiplicity()
        rad = self.radial_index()
        return InvariantReport(
            n=n,
            multiplicity=m,
            mu0_omega=int(self.mu0_omega),
            mu0_X=int(self.mu0_X),
            tau0=int(self.tau0),
            gsv=int(self.gsv),
            mu_br=self.bruce_roberts(),
            mu_br_rel=self.br_relative(),
            rad=rad,
            tang=int(self.gsv) if n == 2 else None,
            eu=rad - (m - 1) if n == 2 else None,
        )

    # -- identity checks: each one built here and nowhere else -------------

    def gsv_decomposition(self) -> Check:
        """The trivial-evaluation route to mu_BR against the main theorem's
        GSV + mu0(omega) - tau0(X); the theorem's route is evaluated first."""
        value = self.bruce_roberts()
        return Check.equal("gsv_decomposition", self.bruce_roberts_trivial(), value)

    def trivial_evaluation(self) -> Check:
        """The trivial-evaluation colength against GSV + mu0(omega): the
        comparison of gsv_decomposition with tau0(X) added to both sides."""
        return Check.equal(
            "trivial_evaluation", _fin(self.trivial), _fin(self.gsv + self.mu0_omega)
        )

    def relative_split(self) -> Check:
        """mu_BR against mu0(omega) + mu_BR^-, an arithmetic identity of the
        two differences; mu_BR^- is evaluated first."""
        relative = self.br_relative()
        return Check.equal(
            "relative_split", self.bruce_roberts(), _fin(self.mu0_omega + relative)
        )

    def tang_equals_gsv(self) -> Check:
        """tang(F, X) + i_0(g, phi) against GSV(omega, X); definitional for a
        saturated form, whose tangency order is its own GSV index."""
        return Check.equal("tang_equals_gsv", self.gsv_by_tangency(), _fin(self.gsv))
