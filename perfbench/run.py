#!/usr/bin/env python3
"""Closed-loop benchmark of brindex on seeded problem workloads.

    python3 perfbench/run.py --workload curve-deep --seed 1 --seconds 30 --trace 0

One client runs one problem at a time: the next problem starts only after
the previous one returned.  Every output is checked: the identity checks each
directive emits must pass, a typed domain error must be one of the expected
kinds, and at the default seed every output must match its stored digest
(``reference/<workload>.json``).  Each problem runs under a SIGALRM deadline;
a miss counts as a failure at its elapsed time.

With ``--trace 0`` the last line of output is a JSON object with the
end-to-end metrics.  With ``--trace 1`` the untraced loop runs first, then
the same problems run again in a fresh interpreter with every public function
of each brindex module wrapped (see ``spans.py``); the last line then holds
the per-layer metrics, and the spans are written to ``perfbench/out/``.

The program is imported from ``src/`` of the checkout this file lives in;
without it the benchmark exits with code 2 and prints no result.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import resource
import signal
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass
from pathlib import Path

import spans
import workloads as wl

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
REFERENCE_DIR = HERE / "reference"
OUT_DIR = HERE / "out"

SETUP_PROBES = 4  # fresh interpreters timed for setup_s, besides this one
TAIL_LADDER = (99.0, 95.0, 90.0, 85.0, 75.0, 50.0)
WRONG = ("identity", "mismatch", "error")  # a wrong output: correct is false
FAILURES = WRONG + ("deadline",)


class DeadlineExceeded(BaseException):
    """Raised from the SIGALRM handler.  Not an Exception, so no handler in
    the program can swallow it."""


def _on_alarm(signum, frame):
    raise DeadlineExceeded


class MissingProgram(RuntimeError):
    pass


def load_brindex():
    """Import brindex from this checkout's src/, and nowhere else."""
    if not (SRC / "brindex" / "__init__.py").is_file():
        raise MissingProgram(f"no brindex package under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import brindex
    import brindex.corpus
    import brindex.session

    if not Path(brindex.__file__).resolve().is_relative_to(SRC):
        raise MissingProgram(f"brindex was imported from {brindex.__file__}")
    return brindex


@dataclass
class Outcome:
    index: int
    seconds: float
    status: str  # "ok", "expected_error" or one of FAILURES
    digest: str

    @property
    def failed(self) -> bool:
        return self.status in FAILURES


def _execute(problem: wl.Problem) -> str:
    """Run one problem through the public entry point; returns its output as
    JSON lines, or raises.  Looks the entry points up at call time so a
    traced run goes through the wrappers."""
    brindex = sys.modules["brindex"]
    if problem.kind == "sweep":
        records = [
            brindex.corpus.run_identity_sweep(n=problem.sweep_n, seed=problem.sweep_seed)
        ]
    else:
        records = brindex.session.run_session_text(problem.text)
    text = "\n".join(json.dumps(r.to_json_obj()) for r in records)
    return text if all(r.all_passed for r in records) else "IDENTITY\n" + text


def run_problem(problem: wl.Problem, deadline_s: float, reference: list | None) -> Outcome:
    brindex = sys.modules["brindex"]
    signal.signal(signal.SIGALRM, _on_alarm)
    start = time.perf_counter()
    try:
        signal.setitimer(signal.ITIMER_REAL, deadline_s)
        try:
            output = _execute(problem)
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
        elapsed = time.perf_counter() - start
        status = "identity" if output.startswith("IDENTITY\n") else "ok"
    except DeadlineExceeded:
        elapsed = time.perf_counter() - start
        return Outcome(problem.index, elapsed, "deadline", "")
    except brindex.BrindexError as exc:
        elapsed = time.perf_counter() - start
        output = f"{type(exc).__name__}: {exc}"
        status = "expected_error" if type(exc).__name__ in wl.EXPECTED_ERRORS else "error"
    except Exception as exc:  # an untyped escape is a counted failure
        elapsed = time.perf_counter() - start
        output = f"{type(exc).__name__}: {exc}"
        status = "error"
        print(f"problem {problem.index}: untyped {output}", file=sys.stderr)
        traceback.print_exc(limit=3, file=sys.stderr)
    digest = hashlib.sha256(output.encode()).hexdigest()[:16]
    if (
        reference is not None
        and problem.index < len(reference)
        and reference[problem.index] is not None
        and status in ("ok", "expected_error")
        and digest != reference[problem.index]
    ):
        status = "mismatch"
    return Outcome(problem.index, elapsed, status, digest)


def timed_loop(workload: wl.Workload, seed: int, seconds: float,
               reference: list | None, tracer: spans.Tracer | None = None):
    """Run whole rounds of problems until ``seconds`` have passed."""
    outcomes: list[Outcome] = []
    start = time.perf_counter()
    stop = start + seconds
    for batch in wl.problems(workload, seed):
        for problem in batch:
            if tracer is not None:
                tracer.begin(problem.index)
            outcome = run_problem(problem, workload.deadline_s, reference)
            if tracer is not None:
                tracer.end(not outcome.failed)
            outcomes.append(outcome)
        if time.perf_counter() >= stop:
            break
    return outcomes, time.perf_counter() - start


def load_reference(workload: wl.Workload, seed: int) -> list | None:
    """Stored digests, used only at the default seed."""
    path = REFERENCE_DIR / f"{workload.name}.json"
    if seed != wl.DEFAULT_SEED or not path.is_file():
        return None
    return json.loads(path.read_text())["digests"]


def tail_percentile(n: int, wanted: float) -> float:
    """The workload's percentile, or the highest lower one on the ladder with
    at least ten samples beyond it."""
    for pct in TAIL_LADDER:
        if pct <= wanted and n * (1 - pct / 100) >= 10:
            return pct
    return 50.0


def end_to_end(outcomes: list[Outcome], wall: float, workload: wl.Workload):
    lat = sorted(o.seconds for o in outcomes)
    completed = sum(not o.failed for o in outcomes)
    pct = tail_percentile(len(lat), workload.tail_pct)
    if pct > 50:
        tail = statistics.quantiles(lat, n=100, method="inclusive")[int(pct) - 1]
    else:
        tail = statistics.median(lat)
    return {
        "problems_per_s": (completed / wall, "1/s"),
        "latency_p50_ms": (statistics.median(lat) * 1000, "ms"),
        "latency_tail_ms": (tail * 1000, "ms"),
        "completed_share": (completed / len(outcomes), "ratio"),
    }, pct


def setup_sample(workload: wl.Workload) -> float:
    """import brindex plus the workload's warm-up problem, in seconds."""
    start = time.perf_counter()
    load_brindex()
    outcome = run_problem(workload.warmup, workload.deadline_s, None)
    if outcome.failed:
        raise RuntimeError(f"warm-up problem failed: {outcome.status}")
    return time.perf_counter() - start


def probe_setup(workload: wl.Workload) -> float:
    proc = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
         "--workload", workload.name],
        capture_output=True, text=True, timeout=120, check=True,
    )
    return float(proc.stdout.strip().splitlines()[-1])


def fmt_metrics(metrics: dict) -> dict:
    return {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}


def print_summary(workload, seed, outcomes, wall, pct, e2e, label="") -> None:
    failed = [o for o in outcomes if o.failed]
    kinds = {s: sum(o.status == s for o in outcomes)
             for s in ("ok", "expected_error") + FAILURES}
    print(f"{workload.name} seed {seed}{label}: {len(outcomes)} problems in "
          f"{wall:.2f} s, {kinds}")
    print(f"  latency_tail_ms is p{pct:g} over {len(outcomes)} samples")
    print(f"  failed_share {len(failed) / len(outcomes):.4f}")
    for o in failed[:10]:
        print(f"  failed problem {o.index}: {o.status} after {o.seconds:.2f} s")
    for k, (v, u) in e2e.items():
        print(f"  {k:<22} {v:12.4f} {u}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(wl.WORKLOADS))
    parser.add_argument("--seed", type=int, default=wl.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--traced-child", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    workload = wl.WORKLOADS[args.workload]

    try:
        first_setup = setup_sample(workload)
    except MissingProgram as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    if args.setup_probe:
        print(repr(first_setup))
        return 0
    reference = load_reference(workload, args.seed)
    if args.traced_child:
        traced_loop(workload, args.seed, args.seconds, reference)
        return 0
    setup = [first_setup] + [probe_setup(workload) for _ in range(SETUP_PROBES)]

    outcomes, wall = timed_loop(workload, args.seed, args.seconds, reference)
    e2e, pct = end_to_end(outcomes, wall, workload)
    e2e["setup_s"] = (statistics.median(setup), "s")
    e2e["peak_rss_mb"] = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB")
    print_summary(workload, args.seed, outcomes, wall, pct, e2e)
    metrics = e2e

    if args.trace:
        child = run_traced_child(workload, args.seed, args.seconds)
        t_outcomes = [Outcome(i, sec, status, "") for i, sec, status in child["outcomes"]]
        t_e2e, t_pct = end_to_end(t_outcomes, child["wall"], workload)
        print_summary(workload, args.seed, t_outcomes, child["wall"], t_pct, t_e2e, " (traced)")
        print(f"  {child['spans']} spans written to {child['path']}")
        metrics = per_layer(child["totals"], e2e, t_e2e)
        print_layers(metrics)
        outcomes += t_outcomes

    print(json.dumps({
        "correct": not any(o.status in WRONG for o in outcomes),
        "attempted": len(outcomes),
        "failed": sum(o.failed for o in outcomes),
        "metrics": fmt_metrics(metrics),
    }))
    return 0


def traced_loop(workload: wl.Workload, seed: int, seconds: float, reference) -> None:
    """The traced timed loop; prints its outcomes and the tracer's totals as
    one JSON line and writes the spans."""
    tracer = spans.Tracer()
    tracer.install()
    outcomes, wall = timed_loop(workload, seed, seconds, reference, tracer)
    tracer.uninstall()
    path = OUT_DIR / f"spans-{workload.name}-seed{seed}.jsonl.gz"
    tracer.write(path)
    print(json.dumps({
        "wall": wall,
        "outcomes": [(o.index, o.seconds, o.status) for o in outcomes],
        "totals": tracer.totals(),
        "spans": len(tracer.spans),
        "path": str(path.relative_to(HERE.parent)),
    }))


def run_traced_child(workload: wl.Workload, seed: int, seconds: float) -> dict:
    """Run the traced loop in a fresh interpreter.  In this process the same
    problems already ran once and left results in the program's caches (sympy
    caches polynomial operations), which would make the traced loop look
    faster than the untraced one."""
    proc = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--traced-child",
         "--workload", workload.name, "--seed", str(seed), "--seconds", str(seconds)],
        stdout=subprocess.PIPE, text=True, timeout=150, check=True,
    )
    return json.loads(proc.stdout.strip().splitlines()[-1])


def per_layer(totals: dict, e2e: dict, t_e2e: dict) -> dict:
    n = max(totals["problems"], 1)
    out = {}
    for name in spans.span_names():
        out[f"{name}.calls"] = (totals["calls"][name] / n, "calls/problem")
        out[f"{name}.self_ms"] = (totals["self_s"][name] * 1000 / n, "ms/problem")
    calls = totals["calls"][spans.COLENGTH]
    distinct = totals["distinct"]
    out["localalg.colength.distinct"] = (distinct / n, "ideals/problem")
    out["localalg.colength.reuse_ratio"] = (distinct / calls if calls else 1.0, "ratio")
    out["localalg.colength.cells"] = (totals["cells"] / n, "cells/problem")
    for name, lines in spans.line_counts(SRC).items():
        out[name] = (lines, "lines")
    untraced = e2e["problems_per_s"][0]
    traced = t_e2e["problems_per_s"][0]
    out["trace.problems"] = (totals["problems"], "count")
    out["trace.problems_per_s_untraced"] = (untraced, "1/s")
    out["trace.problems_per_s_traced"] = (traced, "1/s")
    out["trace.overhead_pct"] = (100 * (untraced - traced) / untraced if untraced else 0.0, "%")
    return out


def print_layers(metrics: dict) -> None:
    print("  per layer (per completed problem, traced run):")
    for name in spans.span_names():
        calls = metrics[f"{name}.calls"][0]
        if calls:
            print(f"    {name:<44} {calls:10.2f} calls {metrics[f'{name}.self_ms'][0]:10.3f} ms self")
    for key in ("localalg.colength.distinct", "localalg.colength.reuse_ratio",
                "localalg.colength.cells", "trace.problems_per_s_untraced",
                "trace.problems_per_s_traced", "trace.overhead_pct", "src.lines"):
        value, unit = metrics[key]
        print(f"    {key:<44} {value:12.4f} {unit}")


if __name__ == "__main__":
    sys.exit(main())
