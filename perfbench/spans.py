"""Per-layer tracing from outside the program.

The tracer wraps the public functions of each ``brindex`` module and re-binds
each wrapper in every ``brindex`` module that imported the function by name
(``colength`` also lives in ``invariants``, ``foliation``, ``session`` and
``corpus``), so every call goes through the wrapper whichever module makes it.
A wrapper records one span (name, start, end, parent span, problem) in
memory.  Self time is a span's duration minus the durations of its direct
children; spans nest strictly because the benchmark runs one problem at a
time on one thread.

A module or function the program no longer has is skipped and reads as zero,
so the benchmark keeps running across refactors that delete code.
"""

from __future__ import annotations

import functools
import gzip
import importlib
import json
import sys
from pathlib import Path
from time import perf_counter

LAYERS = {
    "localalg": (
        "colength",
        "standard_basis",
        "colength_from_leading",
        "colength_oracle_auto",
        "minors",
    ),
    "invariants": (
        "invariant_report",
        "bruce_roberts",
        "bruce_roberts_trivial_direct",
        "br_relative",
        "gsv_hyp",
        "milnor_form",
        "milnor_hyp",
        "tjurina",
        "radial_index",
        "is_invariant",
    ),
    "elim": (
        "poly_gcd",
        "is_squarefree",
        "resultant",
        "rational_roots",
        "rational_common_zeros",
    ),
    "foliation": (
        "tangency_order",
        "order_pullback",
        "blowup",
        "strict_transform_curve",
        "verify_blowup_formula",
    ),
    "projective": ("global_br_check",),
    "series": ("pullback_form",),
    "parsing": ("parse_poly", "parse_form"),
    "poly": ("exact_divide", "wedge_coeffs"),
    "session": ("run_session_text",),
    "corpus": ("run_identity_sweep",),
}

# Modules whose line counts are reported; "init" is the package __init__.py.
MODULES = (
    "init", "cli", "config", "corpus", "elim", "errors", "foliation",
    "invariants", "localalg", "parsing", "poly", "projective", "series",
    "session",
)

COLENGTH = "localalg.colength"
ROOT_SPAN = "problem"


def span_names() -> list[str]:
    return [f"{mod}.{fn}" for mod, fns in LAYERS.items() for fn in fns]


class Tracer:
    """Records spans around the wrapped functions, one problem at a time.

    Totals (calls, self time, and the colength extras) accumulate only over
    problems that ``end`` marks as completed.
    """

    def __init__(self):
        self.spans: list = []  # (name, start, end, parent index, problem index)
        self._stack: list[int] = []
        self._problem = -1
        self._first = 0
        self._ideals: set = set()
        self._cells = 0
        self._restore: list = []
        self.calls = dict.fromkeys(span_names(), 0)
        self.self_s = dict.fromkeys(span_names(), 0.0)
        self.distinct = 0
        self.cells = 0
        self.problems = 0

    # -- installation --------------------------------------------------------

    def install(self) -> None:
        modules = [m for n, m in list(sys.modules.items())
                   if m is not None and (n == "brindex" or n.startswith("brindex."))]
        for mod_name, fns in LAYERS.items():
            try:
                home = importlib.import_module(f"brindex.{mod_name}")
            except ImportError:
                continue
            for fn in fns:
                original = getattr(home, fn, None)
                if original is None:
                    continue
                wrapper = self._wrap(f"{mod_name}.{fn}", original)
                for mod in modules:
                    for attr, value in list(vars(mod).items()):
                        if value is original:
                            setattr(mod, attr, wrapper)
                            self._restore.append((mod, attr, original))

    def uninstall(self) -> None:
        for mod, attr, original in reversed(self._restore):
            setattr(mod, attr, original)
        self._restore.clear()

    def _wrap(self, name: str, fn):
        spans, stack = self.spans, self._stack
        is_colength = name == COLENGTH

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
                if is_colength:
                    self._ideals.add(args[0] if args else kwargs.get("ideal"))
                    if result != float("inf"):
                        self._cells += int(result)
                return result
            finally:
                end = perf_counter()
                if stack and stack[-1] == index:
                    stack.pop()
                spans[index] = (name, start, end, parent, self._problem)

        return traced

    # -- problems ---------------------------------------------------------------

    def begin(self, problem: int) -> None:
        self._problem = problem
        self._first = len(self.spans)
        self._ideals = set()
        self._cells = 0
        self._stack.clear()
        self._stack.append(self._first)
        self.spans.append((ROOT_SPAN, perf_counter(), None, -1, problem))

    def end(self, completed: bool) -> None:
        root = self.spans[self._first]
        self.spans[self._first] = (root[0], root[1], perf_counter(), -1, root[4])
        self._stack.clear()
        if not completed:
            return
        first = self._first
        child = {}
        for name, start, end, parent, _ in self.spans[first + 1:]:
            child[parent] = child.get(parent, 0.0) + (end - start)
        for i, (name, start, end, _, _) in enumerate(self.spans[first + 1:], first + 1):
            self.calls[name] += 1
            self.self_s[name] += (end - start) - child.get(i, 0.0)
        self.distinct += len(self._ideals)
        self.cells += self._cells
        self.problems += 1

    # -- output -------------------------------------------------------------------

    def totals(self) -> dict:
        return {
            "calls": self.calls,
            "self_s": self.self_s,
            "distinct": self.distinct,
            "cells": self.cells,
            "problems": self.problems,
        }

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with gzip.open(path, "wt") as out:
            for span in self.spans:
                if span is not None:
                    out.write(json.dumps(span) + "\n")


def line_counts(src: Path) -> dict[str, int]:
    """``<module>.lines`` for every module in MODULES, plus ``src.lines``."""
    pkg = src / "brindex"
    out = {}
    for mod in MODULES:
        path = pkg / ("__init__.py" if mod == "init" else f"{mod}.py")
        out[f"{mod}.lines"] = (
            len(path.read_text().splitlines()) if path.is_file() else 0
        )
    out["src.lines"] = sum(
        len(p.read_text().splitlines()) for p in sorted(pkg.rglob("*.py"))
    )
    return out
