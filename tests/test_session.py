"""Session files: grammar, error reporting, directives, and output formats."""

from __future__ import annotations

import json
from pathlib import Path

import pytest
from hypothesis import given

from brindex.config import reset_limits, set_limits
from brindex.corpus import CASES, run_identity_sweep
from brindex.errors import (
    BrindexError,
    ComputationError,
    InvariantCurveError,
    ResourceLimitError,
    SessionError,
)
from brindex.invariants import HypersurfaceGerm
from brindex.localalg import LocalIdeal
from brindex.parsing import parse_form, parse_poly
from brindex.poly import ring
from brindex.session import Session, render_human, render_jsonl, run_session_text
from tests_util import CallSpy, affine_forms, with_form_examples

DEMO = Path(__file__).resolve().parents[1] / "scripts" / "demo.session"
# Every corpus session and the demo, by id.
SESSIONS = {case.id: case.session for case in CASES} | {"demo": DEMO.read_text()}


@pytest.fixture(autouse=True)
def _fresh_limits():
    reset_limits()
    yield
    reset_limits()


GOOD_SESSION = """
# A monomial curve with its Saito fields.
ring x, y
curve X = y^2 - x^5
form w = y dx + x dy
theta T = [2*x, 5*y; 2*y, 5*x^4]
poly f = x*y

compute invariants w X
compute br w X T
compute br-rel w X
compute tang w X
"""


# -- grammar -----------------------------------------------------------------------


def test_good_session_runs():
    records = run_session_text(GOOD_SESSION)
    assert [r.directive for r in records] == ["invariants", "br", "br-rel", "tang"]
    inv = records[0]
    assert inv.values["mu_br"] == 7
    assert inv.values["tang"] == 10
    assert all(c.passed for r in records for c in r.checks)
    br = records[1]
    assert br.values["mu_br_theta"] == 7
    assert br.inputs == ("w", "X", "T")


def test_any_whitespace_ends_a_statement_keyword():
    tabbed = GOOD_SESSION.replace("ring ", "ring\t").replace("compute ", "compute \t ")
    assert render_jsonl(run_session_text(tabbed)) == render_jsonl(
        run_session_text(GOOD_SESSION)
    )


def test_comments_and_blank_lines_are_skipped():
    assert run_session_text("# nothing\n\n   \n# more nothing\n") == []


@pytest.mark.parametrize(
    "text,fragment",
    [
        ("poly f = x", "ring"),  # no ring declared yet
        ("ring x, y\nring x, y", "already declared"),
        ("ring x, y\npoly x = y", "ring variable"),
        ("ring x, y\npoly f = x\npoly f = y", "already"),
        ("ring x, y\npoly 2f = x", "name"),
        ("ring x, y\ncompute frobnicate f", "unknown directive"),
        ("ring x, y\nform w = y dx + x dy\ncompute tang w", "usage"),
        ("ring x, y\ncompute tang w X", "w"),
        ("ring x, y\nbogus statement here", "statement"),
        ("ring x, y\npoly f = x +", "expected a number"),
        ("ring x, y\ntheta T = [x, y", "theta"),
        ("ring x, y\nparam c = t^2, t^3", "param"),
        ("ring x, y\nparam c = (0, 0)", "zero map"),
    ],
)
def test_malformed_sessions_raise(text, fragment):
    with pytest.raises(SessionError) as err:
        run_session_text(text)
    assert fragment.lower() in str(err.value).lower()


def test_param_with_one_zero_component_is_valid():
    text = "ring x, y\nparam c = (t^2, 0)\nform w = x dx + y dy\ncompute pullback-order w c"
    (record,) = run_session_text(text)
    assert record.values["order"] == 3


def test_errors_carry_line_numbers():
    text = "ring x, y\n\n# comment\npoly f = x +"
    with pytest.raises(SessionError) as err:
        run_session_text(text)
    assert "line 4" in str(err.value)


def test_math_errors_keep_their_type_and_line():
    text = "ring x, y\ncurve X = y^2 - x^3\nform w = -3*x^2 dx + 2*y dy\ncompute tang w X"
    with pytest.raises(InvariantCurveError) as err:
        run_session_text(text)
    assert "line 4" in str(err.value)
    assert isinstance(err.value, ComputationError)


def test_curve_must_be_reduced():
    with pytest.raises(ComputationError):
        run_session_text("ring x, y\ncurve X = x^2")


# -- all directives ----------------------------------------------------------------


def test_every_directive_smokes():
    text = """
    ring x, y
    curve X = y^2 - x^5
    curve C = y - x^2
    form w = y dx + x dy
    form lin = -3*y dx + 2*x dy
    form rad = -y dx + x dy
    poly sep = x*y
    param c = (t^2, t^5)
    theta T = [2*x, 5*y; 2*y, 5*x^4]
    compute invariants w X
    compute br w X T
    compute br-rel w X
    compute gsv w X
    compute milnor X
    compute tjurina X
    compute tang w X
    compute radial w X
    compute euler w X
    compute blowup lin
    compute blowup-verify lin X
    compute pullback-order w c X
    compute gc-check lin sep X
    compute p2-check rad C
    """
    records = run_session_text(text)
    by_directive = {r.directive: r for r in records}
    assert len(records) == 14
    assert by_directive["gsv"].values["gsv"] == 10
    assert by_directive["milnor"].values["milnor"] == 4
    assert by_directive["tjurina"].values["tjurina"] == 4
    assert by_directive["tang"].values["tang"] == 10
    assert by_directive["radial"].values["radial"] == 6
    assert by_directive["euler"].values["euler_obstruction"] == 5
    assert by_directive["blowup"].values["nu"] == 1
    assert by_directive["blowup-verify"].values["mu_br_origin"] == 7
    assert by_directive["pullback-order"].values["order"] == 6
    assert by_directive["gc-check"].values["delta"] == 0
    assert by_directive["p2-check"].values["lhs"] == by_directive["p2-check"].values["rhs"]
    assert all(c.passed for r in records for c in r.checks)


def test_milnor_directive_dispatches_on_kind():
    text = """
    ring x, y
    curve X = y^3 - x^4
    form w = x dx + y dy
    poly f = x^2 + y^3
    compute milnor X
    compute milnor w
    compute milnor f
    """
    values = [r.values["milnor"] for r in run_session_text(text)]
    assert values == [6, 1, 2]


def test_infinite_values_serialize_as_string():
    text = "ring x, y\nform w = x dx + 0 dy\ncompute milnor w"
    records = run_session_text(text)
    assert records[0].values["milnor"] == "infinity"
    obj = json.loads(render_jsonl(records))
    assert obj["values"]["milnor"] == "infinity"


def test_gsv_icis_arity():
    text = """
    ring x, y, z
    form w = x dx + y dy + z dz
    poly f1 = x
    poly f2 = y
    compute gsv w f1 f2
    """
    records = run_session_text(text)
    assert records[0].values["gsv"] == 1


# -- output formats ------------------------------------------------------------------


def test_json_schema_is_exact():
    records = run_session_text(GOOD_SESSION)
    payload = render_jsonl(records)
    lines = payload.split("\n")
    assert len(lines) == len(records)
    for line in lines:
        obj = json.loads(line)
        assert set(obj) == {"directive", "inputs", "values", "checks"}
        assert isinstance(obj["inputs"], list)
        for check in obj["checks"]:
            assert set(check) == {"name", "lhs", "rhs", "pass"}
            assert isinstance(check["pass"], bool)
        assert "elapsed" not in obj


def test_jsonl_is_deterministic():
    a = render_jsonl(run_session_text(GOOD_SESSION))
    b = render_jsonl(run_session_text(GOOD_SESSION))
    assert a == b


def test_human_rendering():
    records = run_session_text(GOOD_SESSION)
    out = render_human(records)
    assert "[PASS]" in out
    assert "ms)" in out
    assert out.rstrip().endswith("failed")
    assert "mu_br" in out


# -- one owner per fact -----------------------------------------------------------------


def test_a_session_saturates_blows_up_and_walks_each_form_once(monkeypatch):
    saturations = CallSpy(monkeypatch, "elim", "saturate")
    blowups = CallSpy(monkeypatch, "foliation", "blowup")
    zeros = CallSpy(monkeypatch, "elim", "rational_common_zeros")
    colengths = CallSpy(monkeypatch, "localalg", "colength")
    text = """
    ring x, y
    form w = y dx + x dy
    curve C = y - x^2
    compute blowup w
    compute blowup-verify w C
    compute p2-check w
    compute p2-check w C
    """
    records = run_session_text(text)
    assert all(c.passed for r in records for c in r.checks)
    assert len(saturations.args) == 1
    assert len(blowups.args) == 1
    # The singular points of the affine chart are the common zeros of (y, x).
    assert [tuple(map(str, args)) for args in zeros.args].count(("y", "x")) == 1
    # mu0 of w is <y, x>, once: the affine region of P^2 reads w itself.
    R = ring("x", "y")
    assert colengths.args.count((LocalIdeal.make(R, [R.var(1), R.var(0)]),)) == 1


@pytest.mark.parametrize("case_id", list(SESSIONS))
def test_reuse_computes_each_colength_once(monkeypatch, case_id):
    spy = CallSpy(monkeypatch, "localalg", "colength")
    run_session_text(SESSIONS[case_id])
    distinct = {ideal for ideal, in spy.args}
    assert len(spy.args) == len(distinct)


def test_reuse_of_a_germ_keeps_no_raise():
    R = ring("x", "y")
    X = HypersurfaceGerm(parse_poly("y^3 - x^7 + x^5*y", R))
    set_limits(max_reduction_steps=1)
    with pytest.raises(ResourceLimitError):
        X.tau0
    reset_limits()
    assert X.tau0 == 11
    # The germ holds one pair per form, and still compares by its equation.
    omega = parse_form("y dx + x dy", R)
    assert X.pair(omega) is X.pair(omega)
    assert X == HypersurfaceGerm(X.phi) and hash(X) == hash(HypersurfaceGerm(X.phi))


def test_reuse_of_pool_germs_gives_equal_sweeps():
    first = run_identity_sweep(n=6, seed=11)
    assert run_identity_sweep(n=6, seed=11).to_json_obj() == first.to_json_obj()


def _outcome(session: Session, text: str):
    """The last record of running text in session, as JSON, or the error."""
    try:
        return session.execute_text(text)[-1].to_json_obj()
    except BrindexError as exc:
        return type(exc).__name__, str(exc)


def _assert_reuse_changes_nothing(text: str) -> None:
    """Each compute line gives the same record, or the same error, in the
    shared session as alone in a fresh one with the same bindings.  Line
    numbers are kept by padding, so error texts compare as they are."""
    lines = text.splitlines()
    computes = [i for i, line in enumerate(lines) if line.strip().startswith("compute")]
    shared = Session()
    done = 0
    for i in computes:
        for j in range(done, i):  # bindings and comments since the last compute
            shared.execute_text("\n" * j + lines[j])
        done = i + 1
        alone = "\n".join(
            "" if j in computes and j != i else line for j, line in enumerate(lines[: i + 1])
        )
        assert _outcome(shared, "\n" * i + lines[i]) == _outcome(Session(), alone), lines[i]


@pytest.mark.parametrize("text", SESSIONS.values(), ids=list(SESSIONS))
def test_reuse_changes_no_record_of_a_corpus_session(text):
    _assert_reuse_changes_nothing(text)


@given(form=affine_forms())
@with_form_examples
def test_reuse_changes_no_record_of_a_random_form(form):
    A, B = form
    curves = {"L": "x + 2*y", "Q": "y - x^2 + 2*x*y", "K": "y^2 - x^3"}
    text = "\n".join(
        ["ring x, y", f"form w = ({A}) dx + ({B}) dy"]
        + [f"curve {name} = {phi}" for name, phi in curves.items()]
        + ["compute blowup w", "compute p2-check w", "compute invariants w Q"]
        + [f"compute blowup-verify w {name}" for name in curves]
        + [f"compute p2-check w {name}" for name in curves]
        + ["compute tang w K", "compute invariants w K"]
    )
    _assert_reuse_changes_nothing(text)

