"""Curated corpus: worked examples with frozen values plus identity sweeps.

Each case is a session text together with the expected values per record;
the runner appends ``expect_*`` checks to the records so both human and JSON
output surface any mismatch with both sides printed.  The sweep cases draw
seeded random 1-forms over a fixed pool of curve germs and count how many
satisfy each identity, cross-checking every finite colength against the
linear-algebra oracle.
"""

from __future__ import annotations

import functools
import random
from dataclasses import dataclass
from textwrap import dedent

from .config import get_limits
from .errors import ComputationError
from .invariants import Check, HypersurfaceGerm, LocalPair
from .localalg import INFINITY, LocalIdeal, colength_oracle_auto
from .parsing import parse_poly
from .poly import MPoly, OneForm, ring
from .session import ResultRecord, run_session_text


@dataclass(frozen=True)
class CorpusCase:
    id: str
    tags: tuple[str, ...]
    session: str
    expect: tuple[dict, ...]  # one dict of expected values per record


def _case(id_, tags, session, *expect) -> CorpusCase:
    return CorpusCase(id_, tuple(tags), dedent(session).strip() + "\n", tuple(expect))


def _monomial_case(p: int, q: int, tang: int, theta_row2: str) -> CorpusCase:
    tau = (p - 1) * (q - 1)
    return _case(
        f"monomial-curve-p{p}q{q}",
        ("monomial", "relative", "theta"),
        f"""
        ring x, y
        curve X = y^{p} - x^{q}
        form w = y dx + x dy
        theta T = [{p}*x, {q}*y; {theta_row2}]
        compute invariants w X
        compute br w X T
        compute br-rel w X
        compute tang w X
        """,
        {
            "mu0_omega": 1,
            "tang": tang,
            "tau0": tau,
            "mu_br": p + q,
            "mu_br_rel": p + q - 1,
        },
        {"mu_br": p + q, "mu_br_theta": p + q},
        {"mu_br_rel": p + q - 1},
        {"tang": tang},
    )


CASES: tuple[CorpusCase, ...] = (
    _case(
        "space-cyclic",
        ("invariants", "space"),
        """
        ring x, y, z
        curve X = x^3 + y*z^2 + y^3 + x*y^4
        form w = z dx + x dy + y dz
        compute invariants w X
        compute br w X
        """,
        {
            "mu_br": 14,
            "gsv": 21,
            "mu0_omega": 1,
            "tau0": 8,
            "mu0_X": 8,
            "mu_br_rel": 13,
            "rad": 13,
        },
        {"mu_br": 14},
    ),
    _monomial_case(2, 5, 10, "2*y, 5*x^4"),
    _monomial_case(7, 3, 21, "7*y^6, 3*x^2"),
    _monomial_case(11, 13, 143, "11*y^10, 13*x^12"),
    _case(
        "suzuki",
        ("invariants", "suzuki"),
        """
        ring x, y
        curve X = y^7 - x^3
        form w = y^3 + y^2 - x*y dx - 2*x*y^2 - x*y + x^2 dy
        form eta = 2*y^2 + x^3 dx - 2*x*y dy
        compute invariants w X
        compute invariants eta X
        compute milnor w
        compute milnor eta
        """,
        {"mu0_omega": 5, "tang": 24, "tau0": 12, "mu_br": 17, "mu_br_rel": 12},
        {"mu0_omega": 5, "tang": 24, "tau0": 12, "mu_br": 17, "mu_br_rel": 12},
        {"milnor": 5},
        {"milnor": 5},
    ),
    _case(
        "blowup-nondicritical",
        ("blowup",),
        """
        ring x, y
        curve X = y^2 - x^5
        form w = -3*y dx + 2*x dy
        compute blowup w
        compute blowup-verify w X
        compute euler w X
        """,
        {"nu": 1, "k": 1, "dicritical": False},
        {
            "nu": 1,
            "m": 2,
            "dicritical": False,
            "mu_br_origin": 7,
            "mu_br_q": 5,
            "sum_mu_other": 1,
            "delta_drop": 1,
            "mu_br_rel_origin": 6,
        },
        {"euler_obstruction": 5, "radial": 6},
    ),
    _case(
        "blowup-dicritical",
        ("blowup",),
        """
        ring x, y
        curve X = y^3 - x^7
        form w = 2*x^7 + 5*y^5 dx - 5*x*y^4 - 3*x^6*y^2 dy
        compute blowup w
        compute blowup-verify w X
        """,
        {"nu": 5, "k": 6, "dicritical": True},
        {
            "nu": 5,
            "m": 3,
            "dicritical": True,
            "mu_br_origin": 56,
            "mu_br_q": 9,
            "sum_mu_other": 0,
            "sum_mu_all": 4,
            "delta_drop": 3,
            "mu0_F": 33,
            "mu_br_rel_origin": 23,
        },
    ),
    _case(
        "generalized-curve",
        ("gc",),
        """
        ring x, y
        curve X = y^2 - x^5
        curve L = y - x
        poly sep = x*y
        form lin = -3*y dx + 2*x dy
        form sn = y dx - x^2 dy
        compute gc-check lin sep X
        compute gc-check sn sep L
        """,
        {"delta": 0, "is_generalized_curve": True},
        {"delta": 1, "is_generalized_curve": False, "mu0_F": 2, "mu0_dsep": 1},
    ),
    _case(
        "pullback-m2q5",
        ("pullback",),
        """
        ring x, y
        curve X = y^2 - x^5
        form w = y dx + x dy
        param c = (t^2, t^5)
        compute pullback-order w c X
        """,
        {"order": 6},
    ),
    _case(
        "pullback-m3q4",
        ("pullback",),
        """
        ring x, y
        curve X = y^3 - x^4
        form w = y dx + x dy
        param c = (t^3, t^4)
        compute pullback-order w c X
        """,
        {"order": 6},
    ),
    _case(
        "pullback-m2q7",
        ("pullback",),
        """
        ring x, y
        curve X = y^2 - x^7
        form w = y dx + x dy
        param c = (t^2, t^7)
        compute pullback-order w c X
        """,
        {"order": 8},
    ),
    _case(
        "p2-pencil-line",
        ("p2",),
        """
        ring x, y
        form w = y dx + x dy
        poly C = x + y - 1
        compute p2-check w C
        """,
        {"d": 1, "r": 1, "lhs": 4, "rhs": 4, "mu_sum": 3, "tau_total": 0},
    ),
    _case(
        "p2-radial-line",
        ("p2",),
        """
        ring x, y
        form w = -y dx + x dy
        poly C = x + y - 1
        compute p2-check w C
        """,
        {"d": 0, "r": 1, "lhs": 1, "rhs": 1},
    ),
    _case(
        "p2-pencil-conic",
        ("p2",),
        """
        ring x, y
        form w = y dx + x dy
        poly C = y - x^2
        compute p2-check w C
        """,
        {"d": 1, "r": 2, "lhs": 7, "rhs": 7, "tau_total": 0},
    ),
    _case(
        "p2-radial-cusp",
        ("p2",),
        """
        ring x, y
        form w = -y dx + x dy
        poly C = y^2 - x^3
        compute p2-check w C
        """,
        {"d": 0, "r": 3, "lhs": 5, "rhs": 5, "tau_total": 2},
    ),
    _case(
        "p2-milnor-sum",
        ("p2",),
        """
        ring x, y
        form w = -3*x^2 dx + 2*y dy
        compute p2-check w
        """,
        {"d": 2, "mu_sum": 7, "expected": 7},
    ),
    _case(
        "space-icis",
        ("icis", "space"),
        """
        ring x, y, z
        form w = x dx + y dy + z dz
        poly f1 = x
        poly f2 = y
        compute gsv w f1 f2
        """,
        {"gsv": 1},
    ),
)


# -- seeded identity sweep ------------------------------------------------

_POOL_CURVES = (
    "y^2 - x^3",
    "y^2 - x^5",
    "y^3 - x^4",
    "y^3 - x^5",
    "y^2 - x^7",
    "x*y",
    "y^3 - x^7",
    "x^3 - y^4",
)

_SWEEP_SEED = 74207281


@functools.cache
def _pool_germs() -> tuple[HypersurfaceGerm, ...]:
    # Process-wide germs: they keep mu0 and tau0, which the oracle checks anew.
    R2 = ring("x", "y")
    return tuple(HypersurfaceGerm(parse_poly(s, R2)) for s in _POOL_CURVES)


def _random_poly(rng: random.Random, R, max_deg: int) -> MPoly:
    acc = {}
    for i in range(max_deg + 1):
        for j in range(max_deg + 1 - i):
            c = rng.choice((-2, -1, 0, 0, 0, 1, 2))
            if c:
                acc[(i, j)] = c
    return MPoly(R, {e: c for e, c in acc.items()})


def run_identity_sweep(n: int = 25, seed: int = _SWEEP_SEED) -> ResultRecord:
    """Random 1-forms against pool curves; counts per identity, with every
    finite colength cross-checked against the linear-algebra oracle."""
    rng = random.Random(seed)
    R2 = ring("x", "y")
    germs = _pool_germs()
    cap = get_limits().oracle_bound

    attempted = 0
    skipped = 0
    wins = {
        "gsv_decomposition": 0,
        "trivial_evaluation": 0,
        "relative_split": 0,
        "tang_equals_gsv": 0,
        "multiplicity_bound": 0,
        "oracle_agreement": 0,
    }
    while attempted < n:
        X = rng.choice(germs)
        A = _random_poly(rng, R2, 3)
        B = _random_poly(rng, R2, 3)
        if A.is_zero and B.is_zero:
            continue
        omega = OneForm(R2, (A, B))
        pair = LocalPair(omega, X)
        if pair.mu0_omega == INFINITY or pair.invariant or pair.gsv == INFINITY:
            skipped += 1
            continue
        attempted += 1
        for check in (
            pair.gsv_decomposition(),
            pair.trivial_evaluation(),
            pair.relative_split(),
            pair.tang_equals_gsv(),
        ):
            wins[check.name] += check.passed
        # The foliation of omega: its saturated pair, which is the pair itself
        # unless the coefficients share a nonconstant factor.
        saturated, _ = pair.saturation
        nu = int(min(c.order() for c in saturated.omega.coeffs))
        if saturated.mu0_omega >= nu * (nu + 1) // 2:
            wins["multiplicity_bound"] += 1
        # The oracle checks the standard-basis colengths the pair and the germ
        # already computed, on the ideals they measured, starting at the first
        # bound that can certify: the depth of the value's staircase + 2 (the
        # lowest bound for a value without one), clamped to the cap.
        checked = [
            (LocalIdeal.make(R2, [A, B]), pair.mu0_omega),
            (X.tjurina_ideal, pair.tau0),
            (pair.trivial_ideal, pair.trivial),
        ]
        agreed = all(
            colength_oracle_auto(I, start=min(getattr(value, "depth", 0) + 2, cap), cap=cap)
            == value
            for I, value in checked
        )
        if agreed:
            wins["oracle_agreement"] += 1

    values = {"cases": attempted, "skipped": skipped}
    checks = [Check.equal(name, got, attempted) for name, got in wins.items()]
    record = ResultRecord("sweep", ("identities-2var",), values, checks)
    return record


# -- runner -----------------------------------------------------------------

SWEEP_ID = "sweep-identities-2var"


def _matches(case_id: str, tags: tuple[str, ...], filter_str: str | None) -> bool:
    if not filter_str:
        return True
    return filter_str in case_id or any(filter_str in t for t in tags)


def run_corpus(
    filter_str: str | None = None, perturb: bool = False
) -> list[tuple[str, list[ResultRecord]]]:
    """Run every matching case; returns (case id, records) groups with
    expectation checks appended.  ``perturb`` deliberately corrupts the first
    expected value to prove the harness surfaces failures."""
    groups: list[tuple[str, list[ResultRecord]]] = []
    must_perturb = perturb
    for case in CASES:
        if not _matches(case.id, case.tags, filter_str):
            continue
        records = run_session_text(case.session)
        if len(records) != len(case.expect):
            raise ComputationError(
                f"corpus case {case.id}: {len(records)} records, "
                f"{len(case.expect)} expectations"
            )
        for rec, exp in zip(records, case.expect):
            for key in sorted(exp):
                want = exp[key]
                if must_perturb:
                    want = (not want) if isinstance(want, bool) else want + 1
                    must_perturb = False
                rec.checks.append(Check.equal(f"expect_{key}", rec.values.get(key), want))
        groups.append((case.id, records))
    if _matches(SWEEP_ID, ("sweep",), filter_str):
        record = run_identity_sweep()
        if must_perturb:
            record.checks.append(Check.equal("expect_cases", record.values["cases"], -1))
        groups.append((SWEEP_ID, [record]))
    return groups


def corpus_failures(groups: list[tuple[str, list[ResultRecord]]]) -> int:
    return sum(
        1 for _, recs in groups for r in recs for c in r.checks if not c.passed
    )


def render_corpus_human(groups: list[tuple[str, list[ResultRecord]]]) -> str:
    lines: list[str] = []
    total_checks = 0
    total_failed = 0
    for case_id, records in groups:
        n_checks = sum(len(r.checks) for r in records)
        failures = [
            (r, c) for r in records for c in r.checks if not c.passed
        ]
        total_checks += n_checks
        total_failed += len(failures)
        verdict = "ok" if not failures else "FAIL"
        lines.append(f"{case_id:<28} {len(records):>2} records  {n_checks:>3} checks  {verdict}")
        for r, c in failures:
            lines.append(
                f"    {r.directive} {' '.join(r.inputs)}: {c.name} {c.lhs} vs {c.rhs}"
            )
    lines.append(
        f"corpus: {len(groups)} cases, {total_checks} checks, {total_failed} failed"
    )
    return "\n".join(lines)
