"""Local invariants of (1-form, hypersurface) pairs at the origin."""

from __future__ import annotations

import itertools
import random
import signal

import pytest

from brindex.errors import (
    ComputationError,
    InvariantCurveError,
    NonIsolatedError,
    NotTangentError,
)
from brindex.invariants import (
    HypersurfaceGerm,
    InvariantReport,
    LocalPair,
    ThetaGenerators,
    br_function,
    bruce_roberts_user_theta,
    gsv_hyp,
    gsv_icis,
    gsv_ideal,
    icis_pair_milnor,
    is_invariant,
    milnor_form,
    milnor_hyp,
    tjurina,
    trivial_evaluation_ideal,
)
from brindex.localalg import INFINITY, colength, colength_oracle_auto, minors
from brindex.parsing import parse_form, parse_poly
from brindex.poly import MPoly, OneForm, ring, wedge_coeffs

R2 = ring("x", "y")
R3 = ring("x", "y", "z")


def _germ(text: str, ring_=R2) -> HypersurfaceGerm:
    return HypersurfaceGerm(parse_poly(text, ring_))


def _form(text: str, ring_=R2) -> OneForm:
    return parse_form(text, ring_)


CUSP = _germ("y^2 - x^3")


# -- germs ------------------------------------------------------------------------


def test_germ_validation():
    with pytest.raises(ComputationError):
        HypersurfaceGerm(R2.zero())
    with pytest.raises(ComputationError):
        _germ("x + 1")
    with pytest.raises(ComputationError):
        _germ("x^2")  # not reduced
    with pytest.raises(ComputationError):
        _germ("x^2*y + x^2*y^2")  # x^2 divides both terms
    assert _germ("x^2*y - x*y^2").phi is not None  # xy(x - y) is reduced
    assert _germ("x*y").multiplicity() == 2
    assert CUSP.multiplicity() == 2


def test_reducedness_is_tested_at_the_origin():
    # (x - 1)^2 is a unit germ at 0: the germ is the reduced cusp.
    far = _germ("(y^2 - x^3)*(x - 1)^2")
    assert milnor_hyp(far) == milnor_hyp(CUSP) == 2
    assert tjurina(far) == tjurina(CUSP) == 2
    with pytest.raises(ComputationError, match="not reduced"):
        _germ("(x^2 + y^3 + z^5)^2", R3)


def test_milnor_and_tjurina_of_knowns():
    assert milnor_hyp(CUSP) == 2
    assert tjurina(CUSP) == 2
    quasi = _germ("y^3 - x^7")
    assert milnor_hyp(quasi) == 12
    assert tjurina(quasi) == 12
    # A curve with mu != tau.
    wild = _germ("y^3 - x^7 + x^5*y")
    assert milnor_hyp(wild) == 12
    assert tjurina(wild) == 11
    node = _germ("x*y")
    assert milnor_hyp(node) == 1
    assert tjurina(node) == 1


def test_milnor_form():
    assert milnor_form(_form("x dx + y dy")) == 1
    assert milnor_form(_form("y dx + x dy")) == 1
    assert milnor_form(_form("(-3*x^2) dx + 2*y dy")) == 2
    assert milnor_form(_form("x dx + 0 dy")) == INFINITY


def test_is_invariant():
    # The level curves of phi are invariant by dphi.
    assert is_invariant(OneForm.differential(CUSP.phi), CUSP)
    assert not is_invariant(_form("y dx + x dy"), CUSP)
    line = _germ("y - x")
    assert is_invariant(_form("y dx + x dy"), _germ("x*y"))
    assert not is_invariant(_form("y dx + x dy"), line)


# -- the dual Bruce-Roberts routes -------------------------------------------------


def test_space_curve_worked_example():
    # Cyclic 1-form on a space curve: every invariant in one report.
    X = _germ("x^3 + y*z^2 + y^3 + x*y^4", R3)
    omega = _form("z dx + x dy + y dz", R3)
    rep = LocalPair(omega, X).report()
    assert rep.n == 3
    assert rep.mu0_omega == 1
    assert rep.mu0_X == 8
    assert rep.tau0 == 8
    assert rep.gsv == 21
    assert rep.mu_br == 14
    assert rep.mu_br_rel == 13
    assert rep.rad == 13
    assert rep.tang is None and rep.eu is None
    assert rep.mu_br == rep.gsv + rep.mu0_omega - rep.tau0
    assert rep.as_dict()["mu_br"] == 14
    assert "tang" not in rep.as_dict()


@pytest.mark.parametrize("p,q,expected", [(2, 5, 7), (7, 3, 10), (11, 13, 24)])
def test_monomial_curves_all_routes(p, q, expected):
    X = _germ(f"y^{p} - x^{q}")
    omega = _form("y dx + x dy")
    pair = LocalPair(omega, X)
    assert pair.bruce_roberts() == expected
    assert pair.bruce_roberts_trivial() == expected
    theta = ThetaGenerators(
        (
            (parse_poly(f"{p}*x", R2), parse_poly(f"{q}*y", R2)),
            (parse_poly(f"{p}*y^{p - 1}", R2), parse_poly(f"{q}*x^{q - 1}", R2)),
        )
    )
    assert bruce_roberts_user_theta(omega, X, theta) == expected
    assert pair.br_relative() == expected - 1  # mu0(omega) = 1 splits off


def test_mu_br_relative_knowns():
    assert LocalPair(_form("y dx + x dy"), _germ("y^2 - x^5")).br_relative() == 6
    assert LocalPair(_form("y dx + x dy"), _germ("y^11 - x^13")).br_relative() == 23


def test_plane_curve_report_with_distinct_forms():
    # Two different forms on the same quasi-homogeneous curve share tau and
    # mu0 but are distinguished by nothing else here: both reports are equal
    # value by value, which is the known coincidence for this pair.
    X = _germ("y^7 - x^3")
    omega = _form("(y^3 + y^2 - x*y) dx + (-2*x*y^2 - x*y + x^2) dy")
    eta = _form("(2*y^2 + x^3) dx + (-2*x*y) dy")
    for om in (omega, eta):
        rep = LocalPair(om, X).report()
        assert rep.mu0_omega == 5
        assert rep.tau0 == 12
        assert rep.mu_br == 17
        assert rep.mu_br_rel == 12
        assert rep.tang == 24
        assert rep.mu_br == rep.mu0_omega + rep.mu_br_rel


def test_user_theta_must_be_tangent():
    theta = ThetaGenerators(((R2.one(), R2.zero()),))
    with pytest.raises(NotTangentError):
        bruce_roberts_user_theta(_form("y dx + x dy"), CUSP, theta)


def test_theta_generators_validation():
    with pytest.raises(ValueError):
        ThetaGenerators(())
    with pytest.raises(ValueError):
        ThetaGenerators(((R2.one(),), (R2.one(), R2.zero())))


# -- indices on singular varieties --------------------------------------------------


def test_radial_and_euler_obstruction():
    X = _germ("y^2 - x^5")
    pair = LocalPair(_form("(-3*y) dx + 2*x dy"), X)
    assert pair.radial_index() == 6
    assert pair.euler_obstruction() == 5
    # Radial index of a radial form on a smooth point-like curve germ.
    radial = LocalPair(_form("x dx + y dy"), _germ("y"))
    assert radial.radial_index() == 1
    assert radial.euler_obstruction() == 1


def test_gsv_knowns():
    assert gsv_hyp(_form("y dx + x dy"), _germ("y^2 - x^5")) == 10
    assert gsv_hyp(OneForm.differential(parse_poly("x", R2)), CUSP) == 3
    assert gsv_hyp(OneForm.differential(CUSP.phi), CUSP) == INFINITY


@pytest.mark.parametrize(
    "phi, gsv",
    [
        ("x^2 + y^3 + z^5", 15),
        ("x^3 + y^3 + z^3", 21),
        ("x^2*y + y^4 + z^2", 12),
        ("x^2 + y^5 + z^7", 35),
        ("x^3 + y^4 + z^5", 41),
        ("x^2 + y^3 + z^4", 13),
        ("x^2 + y^2 + z^6", 12),
        ("x^2 + y^3 + y*z^3", 14),
    ],
)
def test_surface_colengths_agree_with_the_oracle(phi, gsv):
    # The standard-basis route in three variables, highest-corner cutoff
    # included, against the linear-algebra oracle.
    X = _germ(phi, R3)
    omega = _form("(x + y^2) dx + (y + z^2) dy + (z + x^2) dz", R3)
    ideals = (X.jacobian_ideal(), X.tjurina_ideal(), gsv_ideal(omega, X))
    values = [colength(I) for I in ideals]
    assert values == [colength_oracle_auto(I) for I in ideals]
    assert values[2] == gsv


_SMALL_SURFACES = (
    "x^2 + y^3 + z^5",
    "x^3 + y^3 + z^3",
    "x^2*y + y^4 + z^2",
    "x^3 + y^4 + z^5",
    "x^2 + y^3 + z^4",
    "x^2 + y^2 + z^6",
    "x^2 + y^3 + y*z^3",
)


def _random_surface_form(rng: random.Random) -> OneForm:
    # x_i plus random quadratic terms in each coefficient.
    quadratic = [e for e in itertools.product(range(3), repeat=3) if sum(e) == 2]
    coeffs = []
    for i in range(3):
        terms = {tuple(int(i == j) for j in range(3)): 1}
        for e in quadratic:
            if rng.random() < 1 / 3:
                terms[e] = rng.choice((-2, -1, 1, 2))
        coeffs.append(MPoly(R3, terms))
    return OneForm(R3, tuple(coeffs))


def _within(seconds: float, fn, *args):
    """fn(*args), or TimeoutError once `seconds` of wall time have passed."""

    def stop(signum, frame):
        raise TimeoutError

    previous = signal.signal(signal.SIGALRM, stop)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        return fn(*args)
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


def test_seeded_surface_colengths_agree_with_the_oracle():
    # Tjurina, GSV and trivial-evaluation ideals of one seeded random form per
    # germ.  In three variables the standard-basis route has no truncation and
    # its integer coefficients can grow without bound (its step budget does
    # not bound the time), so it gets a wall-time budget.  Every ideal it
    # finishes must agree with the oracle; the others are reported as an
    # expected failure after the comparisons.
    rng = random.Random(1)
    runaway = []
    for phi in _SMALL_SURFACES:
        X = _germ(phi, R3)
        omega = _random_surface_form(rng)
        ideals = {
            "tjurina": X.tjurina_ideal(),
            "gsv": gsv_ideal(omega, X),
            "trivial": trivial_evaluation_ideal(omega, X),
        }
        for name, I in ideals.items():
            expected = colength_oracle_auto(I)
            try:
                value = _within(0.25, colength, I)
            except TimeoutError:
                runaway.append(f"{name} of {phi} (oracle {expected})")
                continue
            assert value == expected, (name, phi, omega)
    if runaway:
        pytest.xfail("standard-basis route did not finish in 0.25 s: " + "; ".join(runaway))


def test_gsv_icis_smoke():
    omega = _form("x dx + y dy + z dz", R3)
    fs = [parse_poly("x", R3), parse_poly("y", R3)]
    assert gsv_icis(omega, fs) == 1
    # gsv_hyp takes omega ∧ dphi from wedge_coeffs, gsv_icis the 2x2 minors
    # of (dphi; A): the same polynomials up to sign, so the same index.
    X = _germ("x^3 + y*z^2 + y^3 + x*y^4", R3)
    omega = _form("z dx + x dy + y dz", R3)
    wedge = list(wedge_coeffs(omega, X.phi).values())
    assert wedge == [-m for m in minors([X.dphi, list(omega.coeffs)], 2)]
    assert gsv_hyp(omega, X) == gsv_icis(omega, [X.phi])


def test_icis_pair_milnor():
    # Checked against the Le-Greuel relation mu(pair) + mu(X) = i0(phi, f_y).
    assert icis_pair_milnor(CUSP, parse_poly("x", R2)) == 1
    assert icis_pair_milnor(CUSP, parse_poly("y", R2)) == 2
    with pytest.raises(ComputationError):
        icis_pair_milnor(CUSP, parse_poly("x + 1", R2))


def test_br_function_routes_agree():
    assert br_function(parse_poly("x", R2), CUSP) == 1
    assert br_function(parse_poly("y", R2), CUSP) == 2
    assert br_function(parse_poly("x^2 + y^3", R2), CUSP) == 5


# -- degenerate inputs ---------------------------------------------------------------


def test_report_rejects_non_isolated_form():
    with pytest.raises(NonIsolatedError):
        LocalPair(_form("x dx + 0 dy"), CUSP).report()


def test_report_rejects_invariant_pair():
    with pytest.raises(InvariantCurveError):
        LocalPair(OneForm.differential(CUSP.phi), CUSP).report()
