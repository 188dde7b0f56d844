"""Acceptance gate: ten criteria, one visible pass/fail line each.

Every criterion is checked at tolerance zero; the verdict line is written
to the terminal with capture suspended so it shows up on every run.
"""

from __future__ import annotations

import io
from contextlib import redirect_stdout

from brindex.cli import main as cli_main
from brindex.foliation import PlaneFoliation, verify_blowup_formula
from brindex.invariants import (
    HypersurfaceGerm,
    LocalPair,
    ThetaGenerators,
    bruce_roberts_user_theta,
)
from brindex.parsing import parse_form, parse_poly
from brindex.poly import ring
from brindex.projective import global_br_check

R2 = ring("x", "y")
R3 = ring("x", "y", "z")


def _verdict(capfd, num: int, ok: bool, detail: str) -> None:
    line = f"criterion {num:>2}: {'PASS' if ok else 'FAIL'} - {detail}"
    with capfd.disabled():
        print(line, flush=True)
    assert ok, line


def test_criterion_01_space_curve_invariants(capfd):
    ok, detail = False, ""
    try:
        X = HypersurfaceGerm(parse_poly("x^3 + y*z^2 + y^3 + x*y^4", R3))
        omega = parse_form("z dx + x dy + y dz", R3)
        rep = LocalPair(omega, X).report()
        got = (rep.mu_br, rep.gsv, rep.mu0_omega, rep.tau0)
        ok = got == (14, 21, 1, 8)
        detail = f"space curve example: (mu_br, gsv, mu0, tau0) = {got}"
    except Exception as exc:
        detail = f"space curve example raised {exc!r}"
    _verdict(capfd, 1, ok, detail)


def test_criterion_02_monomial_curves_all_routes(capfd):
    ok, detail = False, ""
    try:
        omega = parse_form("y dx + x dy", R2)
        results = []
        for p, q in ((2, 5), (7, 3), (11, 13)):
            X = HypersurfaceGerm(parse_poly(f"y^{p} - x^{q}", R2))
            theta = ThetaGenerators(
                (
                    (parse_poly(f"{p}*x", R2), parse_poly(f"{q}*y", R2)),
                    (
                        parse_poly(f"{p}*y^{p - 1}", R2),
                        parse_poly(f"{q}*x^{q - 1}", R2),
                    ),
                )
            )
            pair = LocalPair(omega, X)
            routes = (
                pair.bruce_roberts(),
                pair.bruce_roberts_trivial(),
                bruce_roberts_user_theta(omega, X, theta),
            )
            results.append((p, q, routes))
        ok = all(r == (p + q, p + q, p + q) for p, q, r in results)
        detail = "monomial mu_br routes: " + "; ".join(
            f"({p},{q})->{r}" for p, q, r in results
        )
    except Exception as exc:
        detail = f"monomial curves raised {exc!r}"
    _verdict(capfd, 2, ok, detail)


def test_criterion_03_two_forms_same_curve(capfd):
    ok, detail = False, ""
    try:
        X = HypersurfaceGerm(parse_poly("y^7 - x^3", R2))
        omega = parse_form("(y^3 + y^2 - x*y) dx + (-2*x*y^2 - x*y + x^2) dy", R2)
        eta = parse_form("(2*y^2 + x^3) dx + (-2*x*y) dy", R2)
        reports = [LocalPair(om, X).report() for om in (omega, eta)]
        got = [
            (r.mu_br, r.mu0_omega, r.tang, r.tau0, r.mu_br_rel) for r in reports
        ]
        ok = all(g == (17, 5, 24, 12, 12) for g in got)
        detail = f"quasi-homogeneous pair: (mu_br, mu0, tang, tau, rel) = {got}"
    except Exception as exc:
        detail = f"two-form comparison raised {exc!r}"
    _verdict(capfd, 3, ok, detail)


def test_criterion_04_relative_bruce_roberts(capfd):
    ok, detail = False, ""
    try:
        omega = parse_form("y dx + x dy", R2)
        a = LocalPair(omega, HypersurfaceGerm(parse_poly("y^2 - x^5", R2))).br_relative()
        b = LocalPair(omega, HypersurfaceGerm(parse_poly("y^11 - x^13", R2))).br_relative()
        ok = (a, b) == (6, 23)
        detail = f"relative mu_br: (2,5) -> {a}, (11,13) -> {b}"
    except Exception as exc:
        detail = f"relative mu_br raised {exc!r}"
    _verdict(capfd, 4, ok, detail)


def test_criterion_05_blowup_ledgers(capfd):
    ok, detail = False, ""
    try:
        rep1 = verify_blowup_formula(
            PlaneFoliation.from_form(parse_form("(-3*y) dx + 2*x dy", R2)),
            HypersurfaceGerm(parse_poly("y^2 - x^5", R2)),
        )
        g1 = (
            rep1.mu_br_origin,
            rep1.nu,
            rep1.m,
            rep1.mu_br_q,
            rep1.sum_mu_other,
            rep1.delta_drop,
            rep1.dicritical,
        )
        passed1 = {c.name: c.passed for c in rep1.checks()}
        ok1 = (
            g1 == (7, 1, 2, 5, 1, 1, False)
            and passed1["blowup_nondicritical"]
            and passed1["blowup_relative"]
        )
        rep2 = verify_blowup_formula(
            PlaneFoliation.from_form(
                parse_form("(2*x^7 + 5*y^5) dx + (-5*x*y^4 - 3*x^6*y^2) dy", R2)
            ),
            HypersurfaceGerm(parse_poly("y^3 - x^7", R2)),
        )
        g2 = (
            rep2.mu_br_origin,
            rep2.nu,
            rep2.m,
            rep2.mu_br_q,
            rep2.sum_mu_all,
            rep2.mu0_F,
            rep2.delta_drop,
            rep2.dicritical,
        )
        ok2 = g2 == (56, 5, 3, 9, 4, 33, 3, True) and all(
            c.passed for c in rep2.checks()
        )
        ok = ok1 and ok2
        detail = f"blow-up ledgers: non-dicritical {g1}, dicritical {g2}"
    except Exception as exc:
        detail = f"blow-up ledgers raised {exc!r}"
    _verdict(capfd, 5, ok, detail)


def test_criterion_06_randomized_identity_suite(capfd, suite_a):
    ok, detail = False, ""
    try:
        cases = suite_a["cases"]
        mismatches = {
            "dual_route": sum(1 for c in cases if c["mu_br"] != c["direct"]),
            "relative_split": sum(
                1 for c in cases if c["mu_br"] != c["mu0"] + (c["gsv"] - c["tau"])
            ),
            "trivial_evaluation": sum(
                1 for c in cases if c["trivial"] != c["gsv"] + c["mu0"]
            ),
            "additivity": sum(
                1
                for c in cases
                if c["additivity"] is not None
                and c["additivity"][0] != c["additivity"][1]
            ),
            "tang_equals_gsv": sum(1 for c in cases if c["tang"] != c["gsv"]),
            "multiplicity_bound": sum(
                1 for c in cases if 2 * c["milnor_F"] < c["nu"] * (c["nu"] + 1)
            ),
        }
        ok = len(cases) >= 200 and not any(mismatches.values())
        detail = f"{len(cases)} random cases; mismatches {mismatches}"
    except Exception as exc:
        detail = f"identity suite raised {exc!r}"
    _verdict(capfd, 6, ok, detail)


def test_criterion_07_parametrized_branches(capfd, suite_b):
    ok, detail = False, ""
    try:
        cases = suite_b["cases"]
        bad_tang = sum(1 for c in cases if c["tang"] != c["order"] + c["mu0_X"])
        bad_rad = sum(1 for c in cases if c["rad"] != c["order"])
        ok = (
            suite_b["monomial_curves"] >= 20
            and suite_b["hand_built"] >= 5
            and bad_tang == 0
            and bad_rad == 0
        )
        detail = (
            f"{suite_b['monomial_curves']} monomial + {suite_b['hand_built']} "
            f"hand-built curves, {len(cases)} form pairings; "
            f"tang mismatches {bad_tang}, radial mismatches {bad_rad}"
        )
    except Exception as exc:
        detail = f"parametrized branches raised {exc!r}"
    _verdict(capfd, 7, ok, detail)


def test_criterion_08_oracle_agreement(capfd, suite_a, suite_b):
    ok, detail = False, ""
    try:
        pairs = [
            p
            for suite in (suite_a, suite_b)
            for c in suite["cases"]
            for p in c["colengths"]
        ]
        bad = sum(1 for primary, oracle in pairs if primary != oracle)
        ok = len(pairs) >= 200 and bad == 0
        detail = f"{len(pairs)} finite colengths cross-checked, {bad} disagreements"
    except Exception as exc:
        detail = f"oracle agreement raised {exc!r}"
    _verdict(capfd, 8, ok, detail)


def test_criterion_09_global_projective_sums(capfd):
    ok, detail = False, ""
    try:
        cases = {
            "pencil-line": ("y dx + x dy", "x + y - 1"),
            "radial-line": ("(-y) dx + x dy", "x + y - 1"),
            "pencil-conic": ("y dx + x dy", "y - x^2"),
            "radial-cusp": ("(-y) dx + x dy", "y^2 - x^3"),
        }
        reports = {
            k: global_br_check(PlaneFoliation.from_form(parse_form(w, R2)), parse_poly(c, R2))
            for k, (w, c) in cases.items()
        }
        sums = {k: (r.lhs, r.rhs) for k, r in reports.items()}
        ok = (
            sums["pencil-line"] == (4, 4)
            and sums["radial-line"] == (1, 1)
            and all(
                c.passed
                for r in reports.values()
                for c in r.checks()
                if c.name in ("global_sum", "tjurina_bound")
            )
        )
        detail = "global sums " + ", ".join(
            f"{k}: {l}={r}" for k, (l, r) in sums.items()
        )
    except Exception as exc:
        detail = f"global sums raised {exc!r}"
    _verdict(capfd, 9, ok, detail)


def test_criterion_10_corpus_json_reproducible(capfd):
    ok, detail = False, ""
    try:
        buf1, buf2 = io.StringIO(), io.StringIO()
        with redirect_stdout(buf1):
            code1 = cli_main(["corpus", "--json"])
        with redirect_stdout(buf2):
            code2 = cli_main(["corpus", "--json"])
        out1, out2 = buf1.getvalue(), buf2.getvalue()
        ok = code1 == 0 and code2 == 0 and out1 == out2 and len(out1) > 0
        detail = (
            f"corpus --json: exit codes ({code1}, {code2}), "
            f"{len(out1.splitlines())} records, byte-identical: {out1 == out2}"
        )
    except Exception as exc:
        detail = f"corpus reproducibility raised {exc!r}"
    _verdict(capfd, 10, ok, detail)
