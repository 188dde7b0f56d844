"""Small helpers shared by the test modules."""

from __future__ import annotations

import importlib
import traceback
from fractions import Fraction

from hypothesis import assume, example
from hypothesis import strategies as st

from brindex.poly import MPoly, ring


def describe_case(case: dict) -> str:
    parts = [f"{k}={v!r}" for k, v in case.items() if k != "colengths"]
    return "failing case: " + ", ".join(parts)


# -- plane 1-forms and saturation ------------------------------------------------------

R2 = ring("x", "y")
_EXPS = [(i, j) for i in range(4) for j in range(4 - i)]


def _poly(terms: dict) -> MPoly:
    return MPoly(R2, {e: Fraction(c) for e, c in terms.items()})


@st.composite
def affine_forms(draw) -> tuple[MPoly, MPoly]:
    """Integer coefficients (A, B), not both zero, of degree <= 3; the tests
    saturate them with ``PlaneFoliation.from_form``.  In half of the draws
    the parts of top degree m satisfy x A_m + y B_m = 0, so the homogenized
    triple has the common factor z."""
    coeffs = st.integers(-3, 3)
    a = draw(st.dictionaries(st.sampled_from(_EXPS), coeffs, max_size=6))
    b = draw(st.dictionaries(st.sampled_from(_EXPS), coeffs, max_size=6))
    if draw(st.booleans()):
        m = draw(st.integers(1, 3))
        s = draw(st.lists(coeffs.filter(bool), min_size=m, max_size=m))
        a = {e: c for e, c in a.items() if sum(e) < m}
        b = {e: c for e, c in b.items() if sum(e) < m}
        for i, c in enumerate(s):  # A_m = y S, B_m = -x S, S of degree m - 1
            a[(i, m - i)] = c
            b[(i + 1, m - 1 - i)] = -c
    A, B = _poly(a), _poly(b)
    assume(not (A.is_zero and B.is_zero))
    return A, B


class CallSpy:
    """Records each call of ``brindex.<home>.<name>``, in every module that
    imported it: its arguments, and the names of the functions on its stack."""

    def __init__(self, monkeypatch, home: str, name: str):
        self.args: list[tuple] = []
        self.stacks: list[set[str]] = []
        original = getattr(importlib.import_module(f"brindex.{home}"), name)

        def spy(*args):
            self.args.append(args)
            self.stacks.append({frame.name for frame in traceback.extract_stack()})
            return original(*args)

        for module in ("elim", "foliation", "invariants", "localalg", "projective", "session"):
            mod = importlib.import_module(f"brindex.{module}")
            if getattr(mod, name, None) is original:
                monkeypatch.setattr(mod, name, spy)

    def calls_under(self, *functions: str) -> int:
        return sum(1 for names in self.stacks if names.intersection(functions))


def with_form_examples(test):
    """Also run a Hypothesis test of ``form`` on edge forms: a zero
    coefficient, x A_m + y B_m = 0, and the radial form, whose homogenized R
    is zero."""
    for a, b in (("1", "0"), ("0", "1"), ("1 - x*y", "x^2"), ("-y", "x")):
        test = example(form=(R2.parse(a), R2.parse(b)))(test)
    return test
