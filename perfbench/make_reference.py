#!/usr/bin/env python3
"""Write or check the default-seed reference of each workload.

    python3 perfbench/make_reference.py [--workload NAME] [--check]

Runs the first ``reference_problems`` problems of the default seed, traced,
and stores in ``perfbench/reference/<workload>.json``:

* one digest per problem (sha256 of the records' JSON lines, or of the typed
  error class and message), null for a problem that missed its deadline;
* the exact call counts of every traced function plus the colength extras,
  over completed problems only, so a later change can cite count changes as
  counts;
* the problems that missed the deadline.

With ``--check`` nothing is written: digests and counts are recomputed and
compared with the stored file.  A digest that differs is an error (exit 1);
count differences are printed.
"""

from __future__ import annotations

import argparse
import json
import sys

import run
import spans
import workloads as wl


def compute(workload: wl.Workload) -> dict:
    run.load_brindex()
    tracer = spans.Tracer()
    tracer.install()
    digests, misses, failures = [], [], []
    try:
        for batch in wl.problems(workload, wl.DEFAULT_SEED):
            for problem in batch:
                tracer.begin(problem.index)
                outcome = run.run_problem(problem, workload.deadline_s, None)
                tracer.end(not outcome.failed)
                if outcome.status == "deadline":
                    misses.append({"index": problem.index, "input": problem.text})
                    digests.append(None)
                elif outcome.failed:
                    failures.append((problem.index, outcome.status))
                    digests.append(None)
                else:
                    digests.append(outcome.digest)
                print(f"{workload.name} {problem.index}: {outcome.status} "
                      f"{outcome.seconds:.3f} s", file=sys.stderr)
            if len(digests) >= workload.reference_problems:
                break
    finally:
        tracer.uninstall()
    if failures:
        raise RuntimeError(f"{workload.name}: failed problems {failures}")
    counts = {f"{name}.calls": tracer.calls[name] for name in spans.span_names()}
    counts["localalg.colength.distinct"] = tracer.distinct
    counts["localalg.colength.cells"] = tracer.cells
    return {
        "workload": workload.name,
        "seed": wl.DEFAULT_SEED,
        "deadline_s": workload.deadline_s,
        "problems": len(digests),
        "completed": tracer.problems,
        "counts": counts,
        "deadline_misses": misses,
        "digests": digests,
    }


def check(workload: wl.Workload, fresh: dict) -> bool:
    stored = json.loads((run.REFERENCE_DIR / f"{workload.name}.json").read_text())
    ok = True
    for i, (a, b) in enumerate(zip(stored["digests"], fresh["digests"])):
        if a != b:
            print(f"{workload.name} problem {i}: digest {b} != stored {a}")
            ok = False
    for key, value in stored["counts"].items():
        now = fresh["counts"].get(key, 0)
        if now != value:
            print(f"{workload.name} {key}: {now} (stored {value}, {now - value:+d})")
    return ok


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(wl.WORKLOADS))
    parser.add_argument("--check", action="store_true")
    args = parser.parse_args()
    names = [args.workload] if args.workload else sorted(wl.WORKLOADS)
    ok = True
    for name in names:
        workload = wl.WORKLOADS[name]
        fresh = compute(workload)
        if args.check:
            ok = check(workload, fresh) and ok
            continue
        run.REFERENCE_DIR.mkdir(exist_ok=True)
        path = run.REFERENCE_DIR / f"{name}.json"
        path.write_text(json.dumps(fresh, indent=1) + "\n")
        print(f"wrote {path.relative_to(run.HERE.parent)}: {fresh['problems']} problems, "
              f"{len(fresh['deadline_misses'])} deadline misses")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
