"""Shared fixtures: hypothesis profiles and the randomized identity suites.

The identity suites are session-scoped because several modules (and the
acceptance gate) assert different identities over the same generated cases;
generating once keeps the run fast and the verdicts consistent.
"""

from __future__ import annotations

import os
import random

import pytest
from hypothesis import settings

from brindex.elim import is_squarefree, resultant
from brindex.errors import InvariantCurveError
from brindex.foliation import (
    T_RING,
    Parametrization,
    PlaneFoliation,
    order_pullback,
)
from brindex.invariants import HypersurfaceGerm, LocalPair, intersection_mult
from brindex.localalg import INFINITY, LocalIdeal, colength, colength_oracle_auto
from brindex.parsing import parse_poly
from brindex.poly import MPoly, OneForm, ring

settings.register_profile("default", max_examples=60, deadline=None, derandomize=True)
settings.register_profile("thorough", max_examples=400, deadline=None)
settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "default"))

R2 = ring("x", "y")

SUITE_A_SEED = 20260815
SUITE_A_SIZE = 200

# Curve pool for the randomized suite; mixed multiplicities and torsion.
SUITE_A_CURVES = (
    "y^2 - x^3",
    "y^2 - x^5",
    "y^3 - x^4",
    "y^3 - x^5",
    "y^2 - x^7",
    "x*y",
    "y^3 - x^7",
    "x^3 - y^4",
)


def _with_oracle(I: LocalIdeal) -> tuple[int, int]:
    """colength(I) and the oracle's value for I.  The oracle starts at the
    first bound that can certify, the staircase's depth + 2; every bound that
    certifies gives the same value, so the start costs no strength."""
    value = colength(I)
    return int(value), int(colength_oracle_auto(I, start=value.depth + 2))


def _random_poly(rng: random.Random, max_deg: int) -> MPoly:
    acc = {}
    for i in range(max_deg + 1):
        for j in range(max_deg + 1 - i):
            c = rng.choice((-2, -1, 0, 0, 0, 1, 2))
            if c:
                acc[(i, j)] = c
    return MPoly(R2, acc)


@pytest.fixture(scope="session")
def suite_a():
    """Randomized 1-forms (coefficient degree <= 4) against pool curves.

    Every quantity is read from one LocalPair per case; tests assert the
    identities.  The oracle list calls ``colength`` directly, so the pair's
    colengths are checked against an independent computation.  Cases where
    the form is non-isolated, invariant, or has infinite index are skipped,
    as they carry no finite statement to check.
    """
    rng = random.Random(SUITE_A_SEED)
    germs = [HypersurfaceGerm(parse_poly(s, R2)) for s in SUITE_A_CURVES]
    cases = []
    skipped = 0
    while len(cases) < SUITE_A_SIZE:
        X = rng.choice(germs)
        max_deg = rng.choice((1, 2, 3, 4, 4))
        A = _random_poly(rng, max_deg)
        B = _random_poly(rng, max_deg)
        if A.is_zero and B.is_zero:
            continue
        omega = OneForm(R2, (A, B))
        pair = LocalPair(omega, X)
        if pair.mu0_omega == INFINITY or pair.invariant or pair.gsv == INFINITY:
            skipped += 1
            continue
        fol = PlaneFoliation.from_form(omega)
        additivity = None
        if not (A.is_zero or B.is_zero):
            lhs = intersection_mult(X.phi, A * B)
            if lhs != INFINITY:
                additivity = (
                    int(lhs),
                    int(intersection_mult(X.phi, A))
                    + int(intersection_mult(X.phi, B)),
                )
        ideals = [LocalIdeal.make(R2, [A, B]), X.tjurina_ideal, pair.trivial_ideal]
        cases.append(
            {
                "X": str(X.phi),
                "omega": (str(A), str(B)),
                "mu0": int(pair.mu0_omega),
                "gsv": int(pair.gsv),
                "tau": int(pair.tau0),
                "mu_br": pair.bruce_roberts(),
                "direct": pair.bruce_roberts_trivial(),
                "trivial": int(pair.trivial),
                "tang": pair.tangency(),
                "nu": fol.multiplicity(),
                "milnor_F": int(fol.form.mu0),
                "additivity": additivity,
                "colengths": [_with_oracle(I) for I in ideals],
            }
        )
    return {"cases": cases, "skipped": skipped}


def _coprime_pairs(limit: int) -> list[tuple[int, int]]:
    import math

    out = []
    for p in range(2, limit + 1):
        for q in range(p + 1, limit + 1):
            if math.gcd(p, q) == 1:
                out.append((p, q))
    return out


def _hand_built_curves() -> list[tuple[MPoly, Parametrization]]:
    """Irreducible non-monomial branches with polynomial parametrizations."""

    def par(*exprs: str) -> Parametrization:
        return Parametrization(tuple(parse_poly(e, T_RING) for e in exprs))

    explicit = [
        ("(y - x^2)^2 - x^3", par("t^2", "t^3 + t^4")),
        ("y^2 - x^5 - 2*x^6 - x^7", par("t^2", "t^5 + t^7")),
    ]
    out = [(parse_poly(s, R2), pm) for s, pm in explicit]
    # Remaining branches are eliminated from their parametrizations and
    # verified again at collection time.
    for xs, ys in (("t^3", "t^4 + t^5"), ("t^4", "t^6 + t^7"), ("t^3", "t^5 + t^7")):
        pm = par(xs, ys)
        tx = parse_poly("x", ring("t", "x", "y"))
        ty = parse_poly("y", ring("t", "x", "y"))
        R3 = ring("t", "x", "y")
        fx = tx - parse_poly(xs, T_RING).subs(R3, [parse_poly("t", R3)])
        fy = ty - parse_poly(ys, T_RING).subs(R3, [parse_poly("t", R3)])
        res = resultant(fx, fy, "t")
        phi = MPoly(R2, {(e[1], e[2]): c for e, c in res.terms()})
        out.append((phi, pm))
    for phi, pm in out:
        assert pm.lies_on(phi), str(phi)
        assert is_squarefree(phi), str(phi)
        assert phi.constant_term() == 0
    return out


@pytest.fixture(scope="session")
def suite_b():
    """Parametrized branches: monomial curves plus hand-built ones.

    Each case pairs the curve with non-invariant 1-forms and records the
    pullback order, the tangency order, the radial index, and the oracle
    cross-check data for the tangency ideal, which is the GSV ideal of the
    saturated form.
    """
    rng = random.Random(SUITE_A_SEED + 1)
    curves: list[tuple[MPoly, Parametrization]] = []
    monomial = 0
    for p, q in _coprime_pairs(9) + [(7, 3), (5, 2), (9, 4)]:
        phi = parse_poly(f"y^{p} - x^{q}", R2)
        pm = Parametrization(
            (parse_poly(f"t^{p}", T_RING), parse_poly(f"t^{q}", T_RING))
        )
        curves.append((phi, pm))
        monomial += 1
    hand_built = _hand_built_curves()
    curves.extend(hand_built)

    cases = []
    for phi, pm in curves:
        X = HypersurfaceGerm(phi)
        mu0_X = int(X.mu0)
        forms = [OneForm(R2, (parse_poly("y", R2), parse_poly("x", R2)))]
        A = _random_poly(rng, 2)
        B = _random_poly(rng, 2)
        if not (A.is_zero and B.is_zero):
            forms.append(OneForm(R2, (A, B)))
        for omega in forms:
            pair = LocalPair(omega, X)
            if pair.mu0_omega == INFINITY or pair.invariant:
                continue
            try:
                order = order_pullback(omega, pm, X)
            except InvariantCurveError:
                continue
            cases.append(
                {
                    "phi": str(phi),
                    "param": tuple(str(c) for c in pm.components),
                    "omega": tuple(str(c) for c in omega.coeffs),
                    "mu0_X": mu0_X,
                    "order": order,
                    "tang": pair.tangency(),
                    "rad": pair.radial_index(),
                    "colengths": [_with_oracle(pair.saturation[0].gsv_ideal)],
                }
            )
    return {"cases": cases, "monomial_curves": monomial, "hand_built": len(hand_built)}
