"""Tests of the benchmark itself.

    python3 -m pytest perfbench/test_perfbench.py
"""

from __future__ import annotations

import itertools
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import run
import spans
import workloads as wl


@pytest.fixture(scope="module", autouse=True)
def brindex():
    return run.load_brindex()


def _inputs(name: str, seed: int, rounds: int = 2) -> str:
    batches = itertools.islice(wl.problems(wl.WORKLOADS[name], seed), rounds)
    return "\n--\n".join(p.text for batch in batches for p in batch)


@pytest.mark.parametrize("name", sorted(wl.WORKLOADS))
def test_same_seed_same_inputs_other_seed_other_inputs(name):
    assert _inputs(name, 7).encode() == _inputs(name, 7).encode()
    assert _inputs(name, 7) != _inputs(name, 8)


def test_generated_sessions_avoid_plus_minus():
    # The parser rejects a unary minus right after a binary operator.
    for name in ("curve-deep", "global-p2", "surface-n3"):
        text = _inputs(name, 3)
        assert "+ -" not in text and "- -" not in text


def test_corrupted_reference_digest_counts_as_failure():
    workload = wl.WORKLOADS["sweep-shallow"]
    reference = run.load_reference(workload, wl.DEFAULT_SEED)
    assert reference is not None
    outcomes, wall = run.timed_loop(workload, wl.DEFAULT_SEED, 0, reference)
    assert [o.status for o in outcomes] == ["ok"]
    corrupted = ["0" * 16] + reference[1:]
    outcomes, wall = run.timed_loop(workload, wl.DEFAULT_SEED, 0, corrupted)
    assert [o.status for o in outcomes] == ["mismatch"]
    metrics, _ = run.end_to_end(outcomes, wall, workload)
    assert metrics["completed_share"][0] == 0.0


def test_tiny_deadline_is_a_counted_failure_and_the_process_recovers():
    workload = wl.WORKLOADS["curve-deep"]
    problem = next(wl.problems(workload, wl.DEFAULT_SEED))[0]
    missed = run.run_problem(problem, 0.001, None)
    assert missed.status == "deadline" and missed.failed
    again = run.run_problem(problem, workload.deadline_s, None)
    assert again.status == "ok"
    reference = run.load_reference(workload, wl.DEFAULT_SEED)
    assert again.digest == reference[problem.index]


def test_tracer_rebinds_every_importer_and_restores():
    import brindex.foliation
    import brindex.invariants
    import brindex.localalg

    original = brindex.localalg.colength
    tracer = spans.Tracer()
    tracer.install()
    try:
        wrapped = brindex.localalg.colength
        assert wrapped is not original
        assert brindex.invariants.colength is wrapped
        assert brindex.foliation.colength is wrapped
        problem = next(wl.problems(wl.WORKLOADS["curve-deep"], wl.DEFAULT_SEED))[0]
        tracer.begin(problem.index)
        outcome = run.run_problem(problem, 60, None)
        tracer.end(not outcome.failed)
    finally:
        tracer.uninstall()
    assert brindex.localalg.colength is original
    assert brindex.invariants.colength is original
    assert tracer.problems == 1
    assert tracer.calls["localalg.colength"] > tracer.distinct > 0
    assert tracer.calls["session.run_session_text"] == 1
    assert all(s is not None for s in tracer.spans)


def test_without_the_program_the_benchmark_fails_without_a_result(tmp_path):
    here = Path(run.__file__).resolve().parent
    shutil.copytree(here, tmp_path / here.name,
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(here.parent / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    command = json.loads((tmp_path / "BENCHMARK.json").read_text())["command"]
    proc = subprocess.run(
        [sys.executable] + command[1:] + ["--workload", "sweep-shallow", "--seed", "1",
                                          "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_traced_run_reports_every_per_layer_metric_and_writes_spans():
    here = Path(run.__file__).resolve().parent
    bench = json.loads((here.parent / "BENCHMARK.json").read_text())
    proc = subprocess.run(
        [sys.executable] + bench["command"][1:] + ["--workload", "sweep-shallow", "--seed", "5",
                                                   "--seconds", "0", "--trace", "1"],
        cwd=here.parent, capture_output=True, text=True, timeout=180,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["correct"] and result["failed"] == 0
    assert set(result["metrics"]) == {m["name"] for m in bench["per_layer"]}
    for m in bench["per_layer"]:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]
    assert result["metrics"]["corpus.run_identity_sweep.calls"]["value"] == 1
    assert (here / "out" / "spans-sweep-shallow-seed5.jsonl.gz").is_file()
