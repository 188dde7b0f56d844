"""LocalPair: base colengths computed once per (form, germ), errors unchanged,
cross-check routes that compare independent colengths, and the tangency
order of a form with a common factor."""

from __future__ import annotations

import sys
from collections import Counter

import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

import brindex.localalg as localalg
from brindex.corpus import run_identity_sweep
from brindex.errors import BrindexError, ComputationError, InvariantCurveError
from brindex.invariants import HypersurfaceGerm, LocalPair, br_function
from brindex.localalg import LocalIdeal
from brindex.parsing import parse_form, parse_poly
from brindex.poly import OneForm, ring
from brindex.session import run_session_text

R2 = ring("x", "y")

# The shape of one benchmark problem: a unit times y^p - x^q, a form with a
# nondegenerate linear part, a parametrized branch, and every directive a
# user runs on one (form, curve) pair.
CURVE = "(y^3 - x^8)*(1 + x - 2*y)"
FORM = "(2*x - y + x*y) dx + (x + 3*y - y^2) dy"
DEEP_SESSION = f"""
ring x, y
curve X = {CURVE}
form w = {FORM}
param c = (t^3, t^8)
compute invariants w X
compute br w X
compute br-rel w X
compute tang w X
compute radial w X
compute euler w X
compute pullback-order w c X
"""


def _patch_colength(monkeypatch, fake) -> None:
    """Route every module's ``colength`` through ``fake``."""
    original = localalg.colength
    for name, module in list(sys.modules.items()):
        if name.startswith("brindex") and getattr(module, "colength", None) is original:
            monkeypatch.setattr(module, "colength", fake)


def _count_colength(monkeypatch) -> Counter:
    """Count the colength calls per ideal from here on."""
    calls: Counter = Counter()
    original = localalg.colength

    def counting(ideal, *args, **kwargs):
        calls[ideal] += 1
        return original(ideal, *args, **kwargs)

    _patch_colength(monkeypatch, counting)
    return calls


def _ideals():
    X = HypersurfaceGerm(parse_poly(CURVE, R2))
    omega = parse_form(FORM, R2)
    return omega, X


# -- reuse ---------------------------------------------------------------------


def test_a_session_computes_each_base_colength_once(monkeypatch):
    calls = _count_colength(monkeypatch)
    records = run_session_text(DEEP_SESSION)
    assert all(c.passed for r in records for c in r.checks)

    omega, X = _ideals()
    pair = LocalPair(omega, X)
    assert calls == Counter({
        LocalIdeal.make(R2, list(omega.coeffs)): 1,  # mu0(omega)
        LocalIdeal.make(R2, X.dphi): 1,  # mu0(X)
        X.tjurina_ideal: 1,  # tau0(X)
        pair.gsv_ideal: 1,  # GSV
        pair.trivial_ideal: 1,  # read by invariants and br
    })
    assert sum(calls.values()) == 5


def test_a_pair_computes_each_base_quantity_at_most_once(monkeypatch):
    received = []
    original = localalg.colength

    def recording(ideal, *args, **kwargs):
        received.append(ideal)
        return original(ideal, *args, **kwargs)

    _patch_colength(monkeypatch, recording)
    omega, X = _ideals()
    pair = LocalPair(omega, X)
    first = (pair.report(), pair.bruce_roberts(), pair.br_relative(),
             pair.radial_index(), pair.euler_obstruction(), pair.bruce_roberts_trivial())
    again = (pair.report(), pair.bruce_roberts(), pair.br_relative(),
             pair.radial_index(), pair.euler_obstruction(), pair.bruce_roberts_trivial())
    assert first == again
    assert pair.gsv_ideal is pair.gsv_ideal
    # colength measures the owners' own ideal objects, each once; mu0(omega)
    # and mu0(X) are colengths of ideals that each form builds.
    owned = [X.tjurina_ideal, pair.gsv_ideal, pair.trivial_ideal]
    built = [LocalIdeal.make(R2, list(omega.coeffs)), LocalIdeal.make(R2, X.dphi)]
    assert len(received) == 5
    assert all(sum(I is own for I in received) == 1 for own in owned)
    assert all(received.count(I) == 1 for I in built)


def test_a_saturated_pair_is_its_own_saturation(monkeypatch):
    calls = _count_colength(monkeypatch)
    omega, X = _ideals()
    pair = LocalPair(omega, X)
    assert pair.saturation == (pair, 0)
    assert pair.tangency() == pair.gsv
    assert calls == Counter({pair.gsv_ideal: 1})


def test_a_common_factor_splits_off_its_intersection_number():
    X = HypersurfaceGerm(parse_poly("y^2 - x^3", R2))
    pair = LocalPair(parse_form("x*y dx + x^2 dy", R2), X)
    saturated, i0 = pair.saturation
    assert saturated.omega == parse_form("y dx + x dy", R2)
    assert i0 == 2  # i_0(x, y^2 - x^3)
    assert (pair.tangency(), pair.gsv) == (6, 8)


# -- unchanged errors ------------------------------------------------------------

# (curve, form, separatrix, param) of each input.
INPUTS = {
    "non-isolated-form": ("y^2 - x^3", "x*y dx + x^2 dy", "x*y", "(t^2, t^3)"),
    "invariant-curve": ("y^2 - x^3", "-3*x^2 dx + 2*y dy", "y^2 - x^3", "(t^2, t^3)"),
    "invariant-branch": ("x*y", "(x + y) dx + x dy", "x", "(0, t)"),
}

BRANCH = "a branch of the hypersurface is invariant by the form"
WHOLE = "the hypersurface is invariant by the form"
NOT_ISOLATED = "the 1-form does not have an isolated zero"
PULLS_BACK = "the form pulls back to zero: the parametrized branch is invariant"

# Outcome per (input, directive): the typed error class and message, or the
# values of a directive that succeeds (the form saturates to y dx + x dy, and
# the radial index never needs mu0 of the form).
EXPECTED = {
    ("non-isolated-form", "invariants"): ("NonIsolatedError", NOT_ISOLATED),
    ("non-isolated-form", "br"): ("NonIsolatedError", NOT_ISOLATED),
    ("non-isolated-form", "br-rel"): ("NonIsolatedError", NOT_ISOLATED),
    ("non-isolated-form", "tang"): {"tang": 6},
    ("non-isolated-form", "radial"): {"radial": 6},
    ("non-isolated-form", "euler"): {"euler_obstruction": 5, "radial": 6, "multiplicity": 2},
    ("non-isolated-form", "pullback-order"): {"order": 6},
    ("non-isolated-form", "blowup-verify"): {
        "nu": 1, "m": 2, "k": 1, "dicritical": False, "mu_br_origin": 5,
        "mu_br_q": 3, "mu_br_rel_origin": 4, "mu_br_rel_q": 2, "sum_mu_other": 1,
        "sum_mu_all": 2, "mu0_F": 1, "delta_drop": 1, "q_chart": "xt", "q_coord": "0",
    },
    ("non-isolated-form", "gc-check"): {
        "delta": 0, "mu0_F": 1, "mu0_dsep": 1, "mu_br_F": 5, "mu_br_sep": 5,
        "mu_br_rel_F": 4, "mu_br_rel_sep": 4, "is_generalized_curve": True,
    },
    ("invariant-curve", "invariants"): ("InvariantCurveError", WHOLE),
    ("invariant-curve", "br"): ("InvariantCurveError", WHOLE),
    ("invariant-curve", "br-rel"): ("InvariantCurveError", BRANCH),
    ("invariant-curve", "tang"): (
        "InvariantCurveError", "the curve is invariant; tangency order is infinite"
    ),
    ("invariant-curve", "radial"): ("InvariantCurveError", BRANCH),
    ("invariant-curve", "euler"): ("InvariantCurveError", BRANCH),
    ("invariant-curve", "pullback-order"): ("InvariantCurveError", PULLS_BACK),
    ("invariant-curve", "blowup-verify"): ("InvariantCurveError", WHOLE),
    ("invariant-curve", "gc-check"): ("InvariantCurveError", WHOLE),
    ("invariant-branch", "invariants"): ("InvariantCurveError", BRANCH),
    ("invariant-branch", "br"): ("InvariantCurveError", BRANCH),
    ("invariant-branch", "br-rel"): ("InvariantCurveError", BRANCH),
    ("invariant-branch", "tang"): ("InvariantCurveError", "a branch of the curve is invariant"),
    ("invariant-branch", "radial"): ("InvariantCurveError", BRANCH),
    ("invariant-branch", "euler"): ("InvariantCurveError", BRANCH),
    ("invariant-branch", "pullback-order"): ("InvariantCurveError", PULLS_BACK),
    ("invariant-branch", "blowup-verify"): ("InvariantCurveError", BRANCH),
    ("invariant-branch", "gc-check"): ("InvariantCurveError", BRANCH),
}

ARGS = {"pullback-order": "w c X", "gc-check": "w sep X"}


@pytest.mark.parametrize("key", sorted(EXPECTED), ids=lambda k: f"{k[0]}-{k[1]}")
def test_directive_outcomes_are_pinned(key):
    name, directive = key
    curve, form, sep, param = INPUTS[name]
    text = (
        f"ring x, y\ncurve X = {curve}\nform w = {form}\npoly sep = {sep}\n"
        f"param c = {param}\ncompute {directive} {ARGS.get(directive, 'w X')}\n"
    )
    want = EXPECTED[key]
    try:
        (record,) = run_session_text(text)
    except BrindexError as exc:
        assert (type(exc).__name__, str(exc)) == (want[0], f"line 6: {want[1]}")
        return
    assert record.values == want


# -- cross-checks stay independent -----------------------------------------------


def _off_by_one_on(monkeypatch, target: LocalIdeal) -> None:
    original = localalg.colength

    def skewed(ideal, *args, **kwargs):
        value = original(ideal, *args, **kwargs)
        return value + 1 if ideal == target else value

    _patch_colength(monkeypatch, skewed)


def _failed_checks(records) -> dict[str, set[str]]:
    return {r.directive: {c.name for c in r.checks if not c.passed} for r in records}


def test_a_wrong_trivial_evaluation_colength_is_caught(monkeypatch):
    omega, X = _ideals()
    target = LocalPair(omega, X).trivial_ideal
    calls = _count_colength(monkeypatch)
    _off_by_one_on(monkeypatch, target)
    failed = _failed_checks(run_session_text(DEEP_SESSION))
    # Computed once per pair, the wrong value still fails both directives.
    assert calls[target] == 1
    assert failed["invariants"] == {"trivial_evaluation"}
    assert failed["br"] == {"gsv_decomposition"}
    assert not failed["br-rel"] and not failed["tang"] and not failed["pullback-order"]


def test_a_wrong_gsv_colength_is_caught(monkeypatch):
    omega, X = _ideals()
    _off_by_one_on(monkeypatch, LocalPair(omega, X).gsv_ideal)
    failed = _failed_checks(run_session_text(DEEP_SESSION))
    assert failed["invariants"] == {"trivial_evaluation"}
    assert failed["br"] == {"gsv_decomposition"}
    assert failed["pullback-order"] == {"pullback_order_identity", "radial_pullback"}
    # For a saturated form tang is the GSV index by definition.
    assert not failed["tang"] and not failed["br-rel"]


# The form x * (y dx + x dy): tang 6, i_0(x, y^2 - x^3) = 2, GSV 8.
NON_SATURATED_SESSION = """
ring x, y
curve X = y^2 - x^3
form w = x*y dx + x^2 dy
param c = (t^2, t^3)
compute tang w X
compute pullback-order w c X
"""


def test_a_wrong_intersection_number_is_caught(monkeypatch):
    i0_ideal = LocalIdeal.make(R2, [parse_poly("x", R2), parse_poly("y^2 - x^3", R2)])
    _off_by_one_on(monkeypatch, i0_ideal)
    failed = _failed_checks(run_session_text(NON_SATURATED_SESSION))
    assert failed == {
        "tang": {"tang_equals_gsv"},
        "pullback-order": {"pullback_order_identity"},
    }


def test_a_wrong_trivial_colength_fails_the_sweep_checks_that_read_it(monkeypatch):
    cached = LocalPair.trivial
    monkeypatch.setattr(LocalPair, "trivial", property(lambda pair: cached.__get__(pair) + 1))
    record = run_identity_sweep(n=3)
    assert {c.name: c.lhs for c in record.checks} == {
        "gsv_decomposition": 0,
        "trivial_evaluation": 0,
        "relative_split": 3,
        "tang_equals_gsv": 3,
        "multiplicity_bound": 3,
        "oracle_agreement": 0,
    }


def test_function_routes_compare_independent_ideals(monkeypatch):
    X = HypersurfaceGerm(parse_poly("y^2 - x^3", R2))
    f = parse_poly("x^2 + y^3", R2)
    assert br_function(f, X) == 5
    _off_by_one_on(monkeypatch, LocalPair(OneForm.differential(f), X).trivial_ideal)
    with pytest.raises(ComputationError, match="function Bruce-Roberts routes disagree"):
        br_function(f, X)


# -- tangency of forms with a common factor -----------------------------------------


def _checks(records) -> list[tuple[str, object, object, bool]]:
    return [(c.name, c.lhs, c.rhs, c.passed) for r in records for c in r.checks]


def test_a_common_factor_is_added_back_to_the_tangency_order():
    records = run_session_text(NON_SATURATED_SESSION)
    assert [r.values for r in records] == [{"tang": 6}, {"order": 6}]
    assert _checks(records) == [
        ("tang_equals_gsv", 8, 8, True),
        ("pullback_order_identity", 8, 8, True),
        ("radial_pullback", 6, 6, True),
    ]


def test_a_common_factor_along_a_branch_makes_both_sides_infinite():
    (record,) = run_session_text(
        "ring x, y\ncurve L = y - x^2\n"
        "form w = x*(y - x^2) dx + y*(y - x^2) dy\ncompute tang w L\n"
    )
    assert record.values == {"tang": 1}
    assert _checks([record]) == [("tang_equals_gsv", "infinity", "infinity", True)]


# (p, q) of the pool curves y^p - x^q with coprime exponents.
MONOMIAL_CURVES = ((2, 3), (2, 5), (3, 4), (3, 5), (2, 7), (3, 7))
COEFF = st.integers(-2, 2)


@given(
    curve=st.sampled_from(MONOMIAL_CURVES),
    g=st.sampled_from(("1 + x", "x", "y", "x + y^2")),
    a=st.tuples(COEFF, COEFF, COEFF),
    b=st.tuples(COEFF, COEFF, COEFF),
)
def test_tangency_ignores_a_common_factor(curve, g, a, b):
    assume(any(a) or any(b))
    p, q = curve
    A = f"({a[0]})*x + ({a[1]})*y + ({a[2]})*x*y"
    B = f"({b[0]})*x + ({b[1]})*y + ({b[2]})*y^2"
    head = f"ring x, y\ncurve X = y^{p} - x^{q}\nparam c = (t^{p}, t^{q})\n"
    directives = "compute tang w X\ncompute pullback-order w c X\n"
    try:
        base = run_session_text(f"{head}form w = {A} dx + {B} dy\n{directives}")
    except InvariantCurveError:
        assume(False)  # an invariant branch has no finite tangency order
    records = run_session_text(
        f"{head}form w = ({g})*({A}) dx + ({g})*({B}) dy\n{directives}"
    )
    assert all(c.passed for r in base + records for c in r.checks)
    assert records[0].values["tang"] == base[0].values["tang"]
