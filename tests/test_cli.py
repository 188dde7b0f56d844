"""Command line behavior: exit codes, flags, and the embedded corpus."""

from __future__ import annotations

import io
import json
import os
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest
from hypothesis import given
from hypothesis import strategies as st

import brindex
from brindex.cli import main
from brindex.config import reset_limits
from brindex.corpus import (
    CASES,
    corpus_failures,
    render_corpus_human,
    run_corpus,
    run_identity_sweep,
)
from brindex.session import render_jsonl, run_session_text


@pytest.fixture(autouse=True)
def _fresh_limits():
    reset_limits()
    yield
    reset_limits()


GOOD = """ring x, y
curve X = y^2 - x^5
form w = y dx + x dy
compute br w X
"""


def _write(tmp_path, text: str) -> str:
    p = tmp_path / "session.txt"
    p.write_text(text, encoding="utf-8")
    return str(p)


# -- exit codes ---------------------------------------------------------------------


def test_run_success(tmp_path, capsys):
    assert main(["run", _write(tmp_path, GOOD)]) == 0
    out = capsys.readouterr().out
    assert "[PASS] gsv_decomposition" in out
    assert "mu_br" in out


def test_run_json(tmp_path, capsys):
    assert main(["run", _write(tmp_path, GOOD), "--json"]) == 0
    out = capsys.readouterr().out.strip()
    obj = json.loads(out)
    assert obj["directive"] == "br"
    assert obj["values"]["mu_br"] == 7


def test_parse_error_exits_1(tmp_path, capsys):
    assert main(["run", _write(tmp_path, "ring x, y\npoly f = x +")]) == 1
    assert "error" in capsys.readouterr().err


def test_missing_file_exits_1(tmp_path, capsys):
    """A missing file, and a file that is not UTF-8, end in exit 1."""
    not_utf8 = tmp_path / "latin1.session"
    not_utf8.write_bytes(b"ring x, y\n# \xff\n")
    for path in ("/does/not/exist.session", str(not_utf8)):
        assert main(["run", path]) == 1
        err = capsys.readouterr().err
        assert "error" in err and "Traceback" not in err


def test_math_domain_error_exits_2(tmp_path, capsys):
    text = (
        "ring x, y\n"
        "curve X = y^2 - x^3\n"
        "form w = -3*x^2 dx + 2*y dy\n"
        "compute tang w X\n"
    )
    assert main(["run", _write(tmp_path, text)]) == 2
    assert "invariant" in capsys.readouterr().err


def test_a_zero_icis_equation_exits_2(tmp_path, capsys):
    """{0 = 0, y = 0} is not an ICIS, so its GSV index is refused, not infinite."""
    text = (
        "ring x, y, z\n"
        "form w = x dx + y dy + z dz\n"
        "poly f = 0\n"
        "poly g = y\n"
        "compute gsv w f g\n"
    )
    assert main(["run", _write(tmp_path, text)]) == 2
    err = capsys.readouterr().err
    assert "line 5: the zero polynomial does not define an ICIS" in err
    assert "Traceback" not in err


def test_a_byte_order_mark_is_not_part_of_the_first_statement(tmp_path, capsys):
    assert main(["run", _write(tmp_path, GOOD), "--json"]) == 0
    want = capsys.readouterr().out
    (tmp_path / "bom.session").write_text(GOOD, encoding="utf-8-sig")
    assert main(["run", str(tmp_path / "bom.session"), "--json"]) == 0
    assert capsys.readouterr().out == want


def test_a_byte_order_mark_is_stripped_for_library_callers():
    # A caller that reads a session file itself gets the mark as text.
    with_mark = run_session_text("\ufeff" + GOOD)
    assert render_jsonl(with_mark) == render_jsonl(run_session_text(GOOD))


@pytest.mark.parametrize("value", ["3", "0"])
def test_milnor_of_a_constant_poly_exits_2(tmp_path, capsys, value):
    text = f"ring x, y\npoly f = {value}\ncompute milnor f\n"
    assert main(["run", _write(tmp_path, text)]) == 2
    err = capsys.readouterr().err
    assert "line 3: a constant polynomial has no Milnor number" in err
    assert "Traceback" not in err


def test_resource_limit_exits_3(tmp_path, capsys):
    text = "ring x, y\ncurve X = y^3 - x^7 + x^5*y\ncompute milnor X\n"
    assert main(["run", _write(tmp_path, text), "--steps", "1"]) == 3
    assert "resource limit" in capsys.readouterr().err


@pytest.mark.parametrize(
    "text",
    [
        "ring x, y, z\nparam c = (t^2, t^5)\nform w = y dx + x dy + z dz\n"
        "compute pullback-order w c\n",
        "ring x, y\nparam c = (1 + t, t^5)\n",
        "ring x, y\nparam c = (0, 0)\nform w = y dx + x dy\ncompute pullback-order w c\n",
        "ring x, y\ntheta T = [x]\ncurve X = y^2 - x^5\nform w = y dx + x dy\n"
        "compute br w X T\n",
        "ring x, y\ncurve X = " + "(" * 3000 + "x" + ")" * 3000 + "\n",
        "ring x, y\ncurve X = y^2 - x^1001\n",
        "ring x, y\nform w = (x^600*y^600) dx + x dy\n",
    ],
    ids=[
        "param-width", "param-off-origin", "param-zero", "theta-width", "deep-nesting",
        "curve-degree", "form-degree",
    ],
)
def test_bad_bindings_exit_1(tmp_path, capsys, text):
    assert main(["run", _write(tmp_path, text)]) == 1
    assert "line 2" in capsys.readouterr().err


def test_perturbed_corpus_exits_4(capsys):
    assert main(["corpus", "--filter", "monomial-curve-p2q5", "--perturb"]) == 4
    assert "FAIL" in capsys.readouterr().out


def test_empty_session_is_fine(tmp_path, capsys):
    assert main(["run", _write(tmp_path, "# only a comment\n")]) == 0
    assert "0 directives, 0 checks, 0 failed" in capsys.readouterr().out


def test_corpus_filter_runs_a_subset(capsys):
    assert main(["corpus", "--filter", "suzuki"]) == 0
    out = capsys.readouterr().out
    assert "suzuki" in out
    assert "ok" in out


def test_flags_are_accepted(tmp_path, capsys):
    assert main(["run", _write(tmp_path, GOOD), "--steps", "100000"]) == 0
    # --bound caps the oracle, which only the corpus's identity sweep runs.
    code = main(["corpus", "--filter", "sweep", "--bound", "48", "--steps", "100000"])
    assert code == 0
    capsys.readouterr()


def test_a_low_oracle_cap_exits_3(capsys):
    # With the cap at 4 the oracle tries bound 4 only, which some ideal of the
    # default sweep cannot certify.
    assert main(["corpus", "--filter", "sweep", "--bound", "4"]) == 3
    err = capsys.readouterr().err
    assert "colength oracle did not stabilize below bound 4" in err


@pytest.mark.parametrize("flag", ["--steps", "--bound"])
@pytest.mark.parametrize("value", ["0", "-5"])
def test_non_positive_limits_are_rejected(tmp_path, capsys, flag, value):
    command = ["corpus"] if flag == "--bound" else ["run", _write(tmp_path, GOOD)]
    with pytest.raises(SystemExit) as exc:
        main([*command, flag, value])
    assert exc.value.code == 1
    assert f"must be a positive integer, got {int(value)}" in capsys.readouterr().err


# The command line is rejected while it is parsed, before the file is read.
@pytest.mark.parametrize(
    "args, message",
    [
        (["run", "s.session", "--steps", "abc"], "argument --steps: invalid int value: 'abc'"),
        (["corpus", "--bound", "1.5"], "argument --bound: invalid int value: '1.5'"),
        (["run", "s.session", "--frobnicate"], "unrecognized arguments: --frobnicate"),
        (["run", "s.session", "--bound", "48"], "unrecognized arguments: --bound 48"),
    ],
)
def test_usage_errors_exit_1_not_the_domain_error_code(capsys, args, message):
    with pytest.raises(SystemExit) as exc:
        main(args)
    assert exc.value.code == 1
    err = capsys.readouterr().err
    assert err.startswith("usage: brindex") and f"error: {message}\n" in err


def test_help_exits_0(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--help"])
    assert exc.value.code == 0
    assert "usage: brindex" in capsys.readouterr().out


IRRATIONAL = """ring x, y
form w = (2*x - y - x*y) dx + (-x - 12*y + 2*x^2 - 3*x*y + 3*y^2) dy
curve C = -2*x + 2*y - 3*x*y - 2*y^2
compute blowup w
compute blowup-verify w C
compute p2-check w
compute p2-check w C
"""


def test_no_runtime_path_imports_sympy(tmp_path, capsys):
    """The corpus and a P^2 session that ends in IrrationalPointError give the
    same bytes and exit codes with sympy made unimportable."""
    blocked = (
        "import sys; sys.modules['sympy'] = None; from brindex.cli import main; "
        "sys.exit(main(sys.argv[1:]))"
    )
    src = str(Path(brindex.__file__).resolve().parent.parent)
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    session = _write(tmp_path, IRRATIONAL)
    for argv, code in ((["corpus", "--json"], 0), (["run", session, "--json"], 2)):
        run = subprocess.run(
            [sys.executable, "-c", blocked, *argv], capture_output=True, text=True, env=env
        )
        assert main(argv) == code
        direct = capsys.readouterr()
        assert (run.returncode, run.stdout, run.stderr) == (code, direct.out, direct.err)
    assert run.stderr == (
        "error: line 6: irrational singular point: polynomial -25*x - 18*x^2 - 3*x^3 "
        "+ 2*x^4 has a root not in Q (factor 2*x**3 - 3*x**2 - 18*x - 25)\n"
    )


# -- fuzzing -------------------------------------------------------------------------

# The arguments each directive takes, as bound by every fuzzed session.
USAGE = {
    "invariants": "w X", "br": "w X T", "br-rel": "w X", "gsv": "w X", "milnor": "w",
    "tjurina": "X", "tang": "w X", "radial": "w X", "euler": "w X", "blowup": "w",
    "blowup-verify": "w X", "pullback-order": "w c X", "gc-check": "w f X",
    "p2-check": "w f", "bogus": "w",
}


CURVES = ("y^2 - x^3", "y^3 - x^4", "x*y", "y - x^2", "(y^2 - x^3)*(1 + x)")


@st.composite
def _poly(draw) -> str:
    """A polynomial of degree at most 4 in x and y, or now and then a
    malformed one."""
    terms = draw(st.lists(
        st.tuples(st.integers(-2, 2), st.integers(0, 2), st.integers(0, 2)), max_size=3
    ))
    text = " + ".join(f"({c})*x^{i}*y^{j}" for c, i, j in terms) or "0"
    return draw(st.sampled_from((text,) * 15 + ("x +", "x^^2", "(x")))


@st.composite
def _compute(draw) -> str:
    directive = draw(st.sampled_from(sorted(USAGE)))
    args = draw(st.sampled_from(
        (USAGE[directive].split(),) * 3 + (["X"], ["w", "nope"], [])
    ))
    return " ".join(["compute", directive, *args])


@st.composite
def _session(draw) -> str:
    head = draw(st.sampled_from(("ring x, y",) * 4 + ("ring x, y, z", "ring x, x", "")))
    a, b = draw(st.integers(0, 4)), draw(st.integers(0, 4))
    lines = [
        head,
        f"curve X = {draw(st.sampled_from(CURVES) | _poly())}",
        f"form w = {draw(_poly())} dx + {draw(_poly())} dy",
        f"poly f = {draw(_poly())}",
        f"param c = (t^{a}, t^{b})",
        f"theta T = [{draw(_poly())}, {draw(_poly())}; {draw(_poly())}, x]",
        *draw(st.lists(_compute(), min_size=1, max_size=3)),
    ]
    if draw(st.integers(0, 4)) == 0:
        garbage = draw(st.text(alphabet="xyz t=+-*^(),;[]d#", max_size=12))
        lines.insert(draw(st.integers(0, len(lines))), garbage)
    return "\n".join(lines) + "\n"


GOOD_FLAGS = (["--json"], ["--steps", "1"], ["--steps", "3000"])
FLAGS = GOOD_FLAGS * 4 + (
    ["--steps", "0"], ["--steps", "x"], ["--bound", "8"], ["--perturb"], ["--filter", "p2"],
    ["--frobnicate"], ["--help"],
)
# Corpus cases small enough to run in every example.
CHEAP_CASES = ("p2-milnor-sum", "space-icis", "pullback-m2q5", "no-such-case")


# Valid sessions, in two and three variables, that need more than one
# reduction step: under --steps 1 each must end in exit 3.
STARVED = (
    GOOD,
    """ring x, y, z
curve X = x^2 + y^3 + z^3
form w = (x + y*z) dx + y dy + z dz
compute gsv w X
""",
)


@st.composite
def _fuzzed_run(draw) -> tuple[str, str, list[list[str]], set[int]]:
    """A small session, command and flags, with the exit codes allowed."""
    return (
        draw(_session()),
        draw(st.sampled_from(("run", "run", "run", "corpus", "bogus"))),
        draw(st.lists(st.sampled_from(FLAGS), max_size=2)),
        {0, 1, 2, 3, 4},
    )


@st.composite
def _starved_run(draw) -> tuple[str, str, list[list[str]], set[int]]:
    """A valid session under a one-step budget: the route to exit 3."""
    return draw(st.sampled_from(STARVED)), "run", [["--steps", "1"]], {3}


@given(run=_fuzzed_run() | _starved_run(), case=st.sampled_from(CHEAP_CASES))
def test_any_session_and_command_line_ends_in_an_exit_code(tmp_path_factory, run, case):
    """main runs in this process on a small session and argv: every outcome is
    an exit code from 0 to 4, with no traceback."""
    text, command, flags, allowed = run
    path = tmp_path_factory.getbasetemp() / "fuzz.session"
    path.write_text(text, encoding="utf-8")
    head = {"run": ["run", str(path)], "corpus": ["corpus", "--filter", case]}
    argv = [*head.get(command, [command]), *(a for flag in flags for a in flag)]
    err = io.StringIO()
    try:
        with redirect_stdout(io.StringIO()), redirect_stderr(err):
            try:
                code = main(argv)
            except SystemExit as exc:
                code = exc.code
    finally:
        reset_limits()
    assert code in allowed
    assert "Traceback" not in err.getvalue()


# -- corpus API ------------------------------------------------------------------------


def test_corpus_ids_are_unique():
    ids = [c.id for c in CASES]
    assert len(ids) == len(set(ids))
    assert len(ids) >= 15


def test_full_corpus_is_green():
    groups = run_corpus(None, False)
    # Every curated case plus the seeded identity sweep.
    assert len(groups) == len(CASES) + 1
    assert groups[-1][0] == "sweep-identities-2var"
    assert corpus_failures(groups) == 0
    human = render_corpus_human(groups)
    assert "FAIL" not in human
    for case_id, _ in groups:
        assert case_id in human


def test_perturbed_corpus_reports_failures():
    groups = run_corpus(None, True)
    assert corpus_failures(groups) >= 1


def test_identity_sweep_smoke():
    record = run_identity_sweep(n=6)
    assert record.directive == "sweep"
    assert record.values["cases"] == 6
    assert all(c.passed for c in record.checks)
    names = {c.name for c in record.checks}
    assert "oracle_agreement" in names
    assert "tang_equals_gsv" in names
