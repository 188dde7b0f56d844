"""Line-oriented session files: named bindings plus compute directives.

Grammar (one statement per line, ``#`` starts a comment):

    ring x, y
    poly  NAME = EXPR
    form  NAME = EXPR dx + EXPR dy
    curve NAME = EXPR            # validated germ: vanishes at 0, reduced
    theta NAME = [EXPR, ...; EXPR, ...]
    param NAME = (EXPR_t, EXPR_t)
    compute DIRECTIVE ARG...

Directives: invariants, br, br-rel, gsv, milnor, tjurina, tang, radial,
euler, blowup, blowup-verify, pullback-order, gc-check, p2-check.

Each compute line yields one ResultRecord; the JSON form carries exactly the
keys directive, inputs, values, checks (timing is human-output only, so two
runs of the same session are byte-identical).

A session keeps one ``HypersurfaceGerm`` per polynomial, holding its
differential, tau0 and one ``LocalPair`` per form, and one ``PlaneFoliation``
per form, whose form is the declared one when that is saturated.  The
foliation holds its blow-up, its extension to P^2 (whose affine region reads
the same form) and one recentred foliation per point.  Each form holds its
mu0 and its saturation; each is computed once.  Nothing outlives the session;
a failed computation is not kept.
"""

from __future__ import annotations

import json
import re
import time
from dataclasses import dataclass, field

from .errors import BrindexError, ComputationError, ExprParseError, SessionError
from .foliation import (
    T_RING,
    Parametrization,
    PlaneFoliation,
    generalized_curve_check,
    order_pullback,
    verify_blowup_formula,
)
from .invariants import (
    Check,
    HypersurfaceGerm,
    LocalPair,
    ThetaGenerators,
    _fin,
    bruce_roberts_user_theta,
    gsv_icis,
)
from .parsing import parse_form, parse_poly
from .poly import MPoly, OneForm, Ring, ring
from .projective import foliation_milnor_sum, global_br_check

_NAME_RE = re.compile(r"^[A-Za-z_][A-Za-z0-9_]*$")


@dataclass
class ResultRecord:
    directive: str
    inputs: tuple[str, ...]
    values: dict
    checks: list[Check] = field(default_factory=list)
    elapsed: float = 0.0  # seconds; shown in the table, never in JSON

    @property
    def all_passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def to_json_obj(self) -> dict:
        return {
            "directive": self.directive,
            "inputs": list(self.inputs),
            "values": self.values,
            "checks": [
                {"name": c.name, "lhs": c.lhs, "rhs": c.rhs, "pass": c.passed}
                for c in self.checks
            ],
        }


class Session:
    """Holds the declared ring and named objects while a file executes."""

    def __init__(self):
        self.ring: Ring | None = None
        self.polys: dict[str, MPoly] = {}
        self.forms: dict[str, OneForm] = {}
        self.curves: dict[str, HypersurfaceGerm] = {}
        self.thetas: dict[str, ThetaGenerators] = {}
        self.params: dict[str, Parametrization] = {}
        # One germ per polynomial, from ``curve`` or ``poly``, with its pairs.
        self.germs: dict[MPoly, HypersurfaceGerm] = {}
        self.foliations: dict[OneForm, PlaneFoliation] = {}
        self.records: list[ResultRecord] = []

    # -- name plumbing ---------------------------------------------------

    def _check_name(self, name: str, line: int) -> None:
        if not _NAME_RE.match(name):
            raise SessionError(f"invalid name {name!r}", line)
        if self.ring is not None and name in self.ring.names:
            raise SessionError(f"name {name!r} collides with a ring variable", line)
        for space in (self.polys, self.forms, self.curves, self.thetas, self.params):
            if name in space:
                raise SessionError(f"name {name!r} is already bound", line)

    def _need_ring(self, line: int) -> Ring:
        if self.ring is None:
            raise SessionError("no ring declared yet", line)
        return self.ring

    def _get(self, space: dict, name: str, kind: str, line: int):
        if name not in space:
            raise SessionError(f"no {kind} named {name!r}", line)
        return space[name]

    def _get_poly_like(self, name: str, line: int) -> MPoly:
        if name in self.polys:
            return self.polys[name]
        if name in self.curves:
            return self.curves[name].phi
        raise SessionError(f"no poly or curve named {name!r}", line)

    def _germ(self, phi: MPoly) -> HypersurfaceGerm:
        if phi not in self.germs:  # validates, so built only once
            self.germs[phi] = HypersurfaceGerm(phi)
        return self.germs[phi]

    def _germ_of(self, name: str, line: int) -> HypersurfaceGerm:
        if name in self.curves:
            return self.curves[name]
        if name in self.polys:
            return self._germ(self.polys[name])
        raise SessionError(f"no curve named {name!r}", line)

    def _pair(self, form_name: str, curve_name: str, line: int) -> LocalPair:
        omega = self._get(self.forms, form_name, "form", line)
        return self._germ_of(curve_name, line).pair(omega)

    def _foliation(self, omega: OneForm) -> PlaneFoliation:
        if omega not in self.foliations:  # saturates, so built only once
            self.foliations[omega] = PlaneFoliation.from_form(omega)
        return self.foliations[omega]

    # -- statement execution ----------------------------------------------

    def execute_text(self, text: str) -> list[ResultRecord]:
        text = text.removeprefix("\ufeff")  # a byte order mark is no statement
        for no, raw in enumerate(text.splitlines(), start=1):
            stmt = raw.split("#", 1)[0].strip()
            if not stmt:
                continue
            try:
                self._statement(stmt, no)
            except SessionError:
                raise
            except ExprParseError as exc:
                raise SessionError(f"{exc}", no) from exc
            except BrindexError as exc:
                raise type(exc)(f"line {no}: {exc}") from exc
        return self.records

    def _statement(self, stmt: str, line: int) -> None:
        head, rest = (stmt.split(None, 1) + [""])[:2]
        if head == "ring":
            if self.ring is not None:
                raise SessionError("ring is already declared", line)
            names = [n.strip() for n in rest.replace(",", " ").split()]
            if not names:
                raise SessionError("ring needs at least one variable", line)
            for n in names:
                if not _NAME_RE.match(n):
                    raise SessionError(f"invalid variable name {n!r}", line)
            if len(set(names)) != len(names):
                raise SessionError("repeated ring variable", line)
            self.ring = ring(*names)
            return
        if head in ("poly", "form", "curve", "theta", "param"):
            R = self._need_ring(line)
            name, eq, rhs = rest.partition("=")
            name = name.strip()
            rhs = rhs.strip()
            if not eq or not rhs:
                raise SessionError(f"{head} needs NAME = EXPR", line)
            self._check_name(name, line)
            if head == "poly":
                self.polys[name] = parse_poly(rhs, R)
            elif head == "form":
                self.forms[name] = parse_form(rhs, R)
            elif head == "curve":
                self.curves[name] = self._germ(parse_poly(rhs, R))
            elif head == "theta":
                self.thetas[name] = self._parse_theta(rhs, R, line)
            else:
                self.params[name] = self._parse_param(rhs, R, line)
            return
        if head == "compute":
            parts = rest.split()
            if not parts:
                raise SessionError("compute needs a directive", line)
            directive, args = parts[0], parts[1:]
            started = time.perf_counter()
            record = self._dispatch(directive, args, line)
            record.elapsed = time.perf_counter() - started
            self.records.append(record)
            return
        raise SessionError(f"unknown statement {head!r}", line)

    def _parse_theta(self, rhs: str, R: Ring, line: int) -> ThetaGenerators:
        if not (rhs.startswith("[") and rhs.endswith("]")):
            raise SessionError("theta needs [EXPR, ...; EXPR, ...]", line)
        rows = []
        for chunk in rhs[1:-1].split(";"):
            entries = [e.strip() for e in chunk.split(",")]
            if not all(entries):
                raise SessionError("empty entry in theta row", line)
            if len(entries) != R.n:
                raise SessionError(
                    f"theta row has width {len(entries)}; the ring has {R.n} variables",
                    line,
                )
            rows.append(tuple(parse_poly(e, R) for e in entries))
        return ThetaGenerators(tuple(rows))

    def _parse_param(self, rhs: str, R: Ring, line: int) -> Parametrization:
        if not (rhs.startswith("(") and rhs.endswith(")")):
            raise SessionError("param needs (EXPR_t, EXPR_t)", line)
        entries = [e.strip() for e in rhs[1:-1].split(",")]
        if len(entries) < 2 or not all(entries):
            raise SessionError("param needs one expression per variable", line)
        if len(entries) != R.n:
            raise SessionError(
                f"param has {len(entries)} components; the ring has {R.n} variables",
                line,
            )
        comps = tuple(parse_poly(e, T_RING) for e in entries)
        if any(c.constant_term() != 0 for c in comps):
            raise SessionError("param must pass through the origin (x_i(0) = 0)", line)
        if all(c.is_zero for c in comps):
            raise SessionError("param must not be the zero map", line)
        return Parametrization(comps)

    # -- directives --------------------------------------------------------

    def _dispatch(self, directive: str, args: list[str], line: int) -> ResultRecord:
        handlers = {
            "invariants": self._run_invariants,
            "br": self._run_br,
            "br-rel": self._run_br_rel,
            "gsv": self._run_gsv,
            "milnor": self._run_milnor,
            "tjurina": self._run_tjurina,
            "tang": self._run_tang,
            "radial": self._run_radial,
            "euler": self._run_euler,
            "blowup": self._run_blowup,
            "blowup-verify": self._run_blowup_verify,
            "pullback-order": self._run_pullback_order,
            "gc-check": self._run_gc_check,
            "p2-check": self._run_p2_check,
        }
        if directive not in handlers:
            raise SessionError(f"unknown directive {directive!r}", line)
        return handlers[directive](args, line)

    def _need_args(self, args: list[str], counts: tuple[int, ...], usage: str, line: int):
        if len(args) not in counts:
            raise SessionError(f"usage: compute {usage}", line)

    def _run_invariants(self, args, line) -> ResultRecord:
        self._need_args(args, (2,), "invariants FORM CURVE", line)
        pair = self._pair(args[0], args[1], line)
        rep = pair.report()
        checks = [pair.trivial_evaluation(), pair.relative_split()]
        if rep.n == 2:
            checks.append(pair.tang_equals_gsv())
        return ResultRecord("invariants", tuple(args), rep.as_dict(), checks)

    def _run_br(self, args, line) -> ResultRecord:
        self._need_args(args, (2, 3), "br FORM CURVE [THETA]", line)
        pair = self._pair(args[0], args[1], line)
        value = pair.bruce_roberts()
        checks = [pair.gsv_decomposition()]
        values = {"mu_br": value}
        if len(args) == 3:
            theta = self._get(self.thetas, args[2], "theta", line)
            via_theta = bruce_roberts_user_theta(pair.omega, pair.X, theta)
            values["mu_br_theta"] = via_theta
            checks.append(Check.equal("user_theta_route", via_theta, value))
        return ResultRecord("br", tuple(args), values, checks)

    def _run_br_rel(self, args, line) -> ResultRecord:
        self._need_args(args, (2,), "br-rel FORM CURVE", line)
        pair = self._pair(args[0], args[1], line)
        value = pair.br_relative()
        return ResultRecord(
            "br-rel", tuple(args), {"mu_br_rel": value}, [pair.relative_split()]
        )

    def _run_gsv(self, args, line) -> ResultRecord:
        if len(args) < 2:
            raise SessionError("usage: compute gsv FORM CURVE | gsv FORM F1 F2 ...", line)
        if len(args) == 2:
            value = self._pair(args[0], args[1], line).gsv
        else:
            omega = self._get(self.forms, args[0], "form", line)
            fs = [self._get_poly_like(a, line) for a in args[1:]]
            value = gsv_icis(omega, fs)
        return ResultRecord("gsv", tuple(args), {"gsv": _fin(value)}, [])

    def _run_milnor(self, args, line) -> ResultRecord:
        self._need_args(args, (1,), "milnor FORM|CURVE|POLY", line)
        name = args[0]
        if name in self.forms:
            value = self.forms[name].mu0
        elif name in self.curves:
            value = self.curves[name].mu0
        elif name in self.polys:
            df = OneForm.differential(self.polys[name])
            if df.is_zero:
                raise ComputationError("a constant polynomial has no Milnor number")
            value = df.mu0
        else:
            raise SessionError(f"no form, curve or poly named {name!r}", line)
        return ResultRecord("milnor", tuple(args), {"milnor": _fin(value)}, [])

    def _run_tjurina(self, args, line) -> ResultRecord:
        self._need_args(args, (1,), "tjurina CURVE", line)
        X = self._germ_of(args[0], line)
        return ResultRecord("tjurina", tuple(args), {"tjurina": _fin(X.tau0)}, [])

    def _run_tang(self, args, line) -> ResultRecord:
        self._need_args(args, (2,), "tang FORM CURVE", line)
        pair = self._pair(args[0], args[1], line)
        value = pair.tangency()
        return ResultRecord("tang", tuple(args), {"tang": value}, [pair.tang_equals_gsv()])

    def _run_radial(self, args, line) -> ResultRecord:
        self._need_args(args, (2,), "radial FORM CURVE", line)
        pair = self._pair(args[0], args[1], line)
        return ResultRecord("radial", tuple(args), {"radial": pair.radial_index()}, [])

    def _run_euler(self, args, line) -> ResultRecord:
        self._need_args(args, (2,), "euler FORM CURVE", line)
        pair = self._pair(args[0], args[1], line)
        values = {
            "euler_obstruction": pair.euler_obstruction(),
            "radial": pair.radial_index(),
            "multiplicity": pair.X.multiplicity(),
        }
        return ResultRecord("euler", tuple(args), values, [])

    def _run_blowup(self, args, line) -> ResultRecord:
        self._need_args(args, (1,), "blowup FORM", line)
        omega = self._get(self.forms, args[0], "form", line)
        bl = self._foliation(omega).blown_up
        values = {
            "nu": bl.nu,
            "k": bl.k,
            "dicritical": bl.dicritical,
            "chart_xt": [str(bl.chart_xt.A), str(bl.chart_xt.B)],
            "chart_uy": [str(bl.chart_uy.A), str(bl.chart_uy.B)],
        }
        return ResultRecord("blowup", tuple(args), values, [])

    def _run_blowup_verify(self, args, line) -> ResultRecord:
        self._need_args(args, (2,), "blowup-verify FORM CURVE", line)
        omega = self._get(self.forms, args[0], "form", line)
        X = self._germ_of(args[1], line)
        rep = verify_blowup_formula(self._foliation(omega), X)
        return ResultRecord("blowup-verify", tuple(args), rep.values(), rep.checks())

    def _run_pullback_order(self, args, line) -> ResultRecord:
        self._need_args(args, (2, 3), "pullback-order FORM PARAM [CURVE]", line)
        omega = self._get(self.forms, args[0], "form", line)
        param = self._get(self.params, args[1], "param", line)
        checks: list[Check] = []
        if len(args) == 3:
            pair = self._pair(args[0], args[2], line)
            order = order_pullback(omega, param, pair.X)
            checks.append(
                Check.equal(
                    "pullback_order_identity", pair.gsv_by_tangency(), _fin(order + pair.mu0_X)
                )
            )
            checks.append(Check.equal("radial_pullback", pair.radial_index(), order))
        else:
            order = order_pullback(omega, param)
        return ResultRecord(
            "pullback-order", tuple(args), {"order": order}, checks
        )

    def _run_gc_check(self, args, line) -> ResultRecord:
        self._need_args(args, (3,), "gc-check FORM SEPARATRIX CURVE", line)
        omega = self._get(self.forms, args[0], "form", line)
        sep = self._get_poly_like(args[1], line)
        X = self._germ_of(args[2], line)
        rep = generalized_curve_check(self._foliation(omega), self._germ(sep), X)
        return ResultRecord("gc-check", tuple(args), rep.values(), rep.checks())

    def _run_p2_check(self, args, line) -> ResultRecord:
        self._need_args(args, (1, 2), "p2-check FORM [CURVE]", line)
        omega = self._get(self.forms, args[0], "form", line)
        if len(args) == 1:
            rep = foliation_milnor_sum(self._foliation(omega))
        else:
            phi = self._get_poly_like(args[1], line)
            rep = global_br_check(self._foliation(omega), phi)
        return ResultRecord("p2-check", tuple(args), rep.values(), rep.checks())


def run_session_text(text: str) -> list[ResultRecord]:
    return Session().execute_text(text)


def render_jsonl(records: list[ResultRecord]) -> str:
    return "\n".join(json.dumps(r.to_json_obj()) for r in records)


def render_human(records: list[ResultRecord]) -> str:
    lines: list[str] = []
    for r in records:
        args = " ".join(r.inputs)
        lines.append(f"compute {r.directive} {args}    ({r.elapsed * 1000:.0f} ms)")
        for key, val in r.values.items():
            if key == "points":
                lines.append(f"  {key}:")
                for row in val:
                    lines.append("    " + "  ".join(str(c) for c in row))
                continue
            lines.append(f"  {key:<18} {val}")
        for c in r.checks:
            verdict = "PASS" if c.passed else "FAIL"
            lines.append(f"  [{verdict}] {c.name}: {c.lhs} vs {c.rhs}")
        lines.append("")
    total = sum(len(r.checks) for r in records)
    failed = sum(1 for r in records for c in r.checks if not c.passed)
    lines.append(f"{len(records)} directives, {total} checks, {failed} failed")
    return "\n".join(lines)
