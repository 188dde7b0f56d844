"""Seeded problem generators for the benchmark workloads.

A problem is one generated input handed to a public entry point of brindex:
a session text for ``brindex.session.run_session_text``, or one call of
``brindex.corpus.run_identity_sweep``.  Generation uses only this module's
own polynomial helpers, so the program under test sees nothing but the
generated inputs.

Every workload draws its problems in rounds.  A round holds one problem per
stratum (a curve pair, a germ, a curve and foliation shape), in a seeded
order, and the timed loop only stops at a round boundary.  Each run therefore
measures the same mix of problem shapes, and the seed varies only the
coefficients; that is what keeps medians and tails steady from seed to seed.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Callable, Iterator

DEFAULT_SEED = 1

# Typed domain errors that are valid answers, not failures.
EXPECTED_ERRORS = ("IrrationalPointError", "InvariantCurveError", "NonIsolatedError")


@dataclass(frozen=True)
class Problem:
    """One input: ``kind`` is "session" (``text`` is the session file) or
    "sweep" (``sweep_n`` cases drawn from ``sweep_seed``)."""

    index: int
    kind: str
    text: str
    sweep_n: int = 0
    sweep_seed: int = 0


@dataclass(frozen=True)
class Workload:
    name: str
    strata: tuple
    make: Callable[[random.Random, object], Problem]
    warmup: Problem
    deadline_s: float  # per-problem SIGALRM deadline
    # Latency percentile reported as latency_tail_ms: a 30 s run keeps well
    # over ten samples beyond it, so a slower machine still reports the same
    # percentile.
    tail_pct: float
    reference_problems: int  # default-seed problems with a stored digest


# -- exact integer polynomials in a fixed variable order ----------------------
# A polynomial is a dict {exponent tuple: int}.


def _add(f: dict, g: dict) -> dict:
    out = dict(f)
    for e, c in g.items():
        v = out.get(e, 0) + c
        if v:
            out[e] = v
        else:
            out.pop(e, None)
    return out


def _mul(f: dict, g: dict) -> dict:
    out: dict = {}
    for e1, c1 in f.items():
        for e2, c2 in g.items():
            e = tuple(a + b for a, b in zip(e1, e2))
            v = out.get(e, 0) + c1 * c2
            if v:
                out[e] = v
            else:
                out.pop(e, None)
    return out


def _scale(f: dict, k: int) -> dict:
    return {e: c * k for e, c in f.items()} if k else {}


def _linear(coeffs) -> dict:
    n = len(coeffs)
    return {
        tuple(int(i == j) for j in range(n)): c for i, c in enumerate(coeffs) if c
    }


def _monomials(n: int, degree: int) -> list[tuple]:
    if n == 1:
        return [(degree,)]
    return [
        (k,) + rest for k in range(degree, -1, -1) for rest in _monomials(n - 1, degree - k)
    ]


def _random_poly(rng: random.Random, n: int, degrees, density: float) -> dict:
    out = {}
    for d in degrees:
        for e in _monomials(n, d):
            if rng.random() < density:
                out[e] = rng.choice((1, 2, 3, -1, -2, -3))
    return out


def _fmt(f: dict, names) -> str:
    """Session syntax; signs go between terms (``x - 2*y``), never ``+ -``."""
    if not f:
        return "0"
    parts = []
    for e in sorted(f, key=lambda e: (sum(e), tuple(-k for k in e))):
        c = f[e]
        mono = "*".join(
            v if k == 1 else f"{v}^{k}" for v, k in zip(names, e) if k
        )
        a = abs(c)
        body = mono if a == 1 and mono else (f"{a}*{mono}" if mono else str(a))
        if not parts:
            parts.append(("-" if c < 0 else "") + body)
        else:
            parts.append(("- " if c < 0 else "+ ") + body)
    return " ".join(parts)


def _form(coeffs, names) -> str:
    return " + ".join(f"({_fmt(c, names)}) d{v}" for c, v in zip(coeffs, names))


def _nonzero(f: dict, n: int) -> dict:
    """An empty draw becomes the first variable, so no coefficient list is zero."""
    return f or _linear((1,) + (0,) * (n - 1))


def _small(rng: random.Random) -> int:
    return rng.choice((1, 2, 3, -1, -2, -3))


XY = ("x", "y")
XYZ = ("x", "y", "z")


# -- curve-deep ----------------------------------------------------------------
# Plane curves y^p - x^q with large Tjurina numbers, half of them multiplied
# by a unit 1 + a*x + b*y (higher terms that keep (t^p, t^q) on the curve),
# against random degree <= 2 forms with no constant term.  One session
# applies every directive a user runs on one (form, curve) pair.

CURVE_DEEP_STRATA = (
    (3, 7, False),
    (3, 8, True),
    (4, 5, False),
    (4, 7, True),
    (5, 6, False),
    (5, 7, True),
    (5, 8, False),
    (6, 7, True),
)


def _curve_deep(rng: random.Random, stratum) -> Problem:
    p, q, unit = stratum
    phi = {(0, p): 1, (q, 0): -1}
    if unit:
        a, b = rng.choice((1, 2, -1, -2)), rng.choice((1, 2, -1, -2))
        phi = _mul(phi, {(0, 0): 1, (1, 0): a, (0, 1): b})
    # A nondegenerate linear part keeps mu0(w) = 1, so every draw does the
    # full session and the cost varies with the curve, not with the form.
    while True:
        a1, a2, b1, b2 = (_small(rng) for _ in range(4))
        if a1 * b2 != a2 * b1:
            break
    A = _add(_linear((a1, a2)), _random_poly(rng, 2, (2,), 0.5))
    B = _add(_linear((b1, b2)), _random_poly(rng, 2, (2,), 0.5))
    text = (
        "ring x, y\n"
        f"curve X = {_fmt(phi, XY)}\n"
        f"form w = {_form((A, B), XY)}\n"
        f"param c = (t^{p}, t^{q})\n"
        "compute invariants w X\n"
        "compute br w X\n"
        "compute br-rel w X\n"
        "compute tang w X\n"
        "compute radial w X\n"
        "compute euler w X\n"
        "compute pullback-order w c X\n"
    )
    return Problem(0, "session", text)


# -- sweep-shallow ---------------------------------------------------------------
# The library's own seeded identity sweep in small batches: degree <= 3 forms
# on the eight pool curves, every finite colength cross-checked by the
# linear-algebra oracle.

SWEEP_BATCH = 2


def _sweep(rng: random.Random, stratum) -> Problem:
    seed = rng.getrandbits(31)
    return Problem(0, "sweep", f"run_identity_sweep(n={SWEEP_BATCH}, seed={seed})",
                   SWEEP_BATCH, seed)


# -- global-p2 ---------------------------------------------------------------------
# Plane foliations whose linear part has rational eigenvalues and
# eigenvectors, so the blow-up divisor and the points at infinity are
# rational: a node (distinct eigenvalues), the node plus a radial quadratic
# term (still degree one), the node plus a general quadratic term, and the
# dicritical linear part (equal eigenvalues) plus a quadratic term.  Each is
# drawn against a line, a smooth conic or a cusp through the origin.  A line
# is redrawn while the linear part leaves it invariant, and the dicritical
# part, which leaves every line through the origin invariant, gets no line:
# an invariant curve ends the session at once, and such cheap problems would
# make the mix of a run depend on the seed.  Points that come out irrational
# end the session in a typed IrrationalPointError.

GLOBAL_P2_STRATA = tuple(
    (fol, curve)
    for fol in ("node", "radial", "quadratic", "dicritical")
    for curve in ("line", "conic", "cusp")
    if (fol, curve) != ("dicritical", "line")
)


def _eigen_linear_field(rng: random.Random, dicritical: bool) -> tuple[dict, dict]:
    """(P, Q) = det(S) * S diag(l1, l2) S^-1 (x, y), integer coefficients."""
    while True:
        s11, s12, s21, s22 = (_small(rng) for _ in range(4))
        if s11 * s22 != s12 * s21:
            break
    l1 = l2 = _small(rng)
    while not dicritical and l2 == l1:
        l2 = _small(rng)
    # S diag(l1, l2) adj(S), with adj(S) = [[s22, -s12], [-s21, s11]]
    m11 = s11 * l1 * s22 - s12 * l2 * s21
    m12 = -s11 * l1 * s12 + s12 * l2 * s11
    m21 = s21 * l1 * s22 - s22 * l2 * s21
    m22 = -s21 * l1 * s12 + s22 * l2 * s11
    return _linear((m11, m12)), _linear((m21, m22))


def _invariant_line(P: dict, Q: dict, a: int, b: int) -> bool:
    """Whether the linear field (P, Q) maps the line a*x + b*y = 0 into itself,
    i.e. v(L) = a*P + b*Q is proportional to L."""
    vx = a * P.get((1, 0), 0) + b * Q.get((1, 0), 0)
    vy = a * P.get((0, 1), 0) + b * Q.get((0, 1), 0)
    return vx * b == vy * a


def _global_p2(rng: random.Random, stratum) -> Problem:
    fol, curve = stratum
    P, Q = _eigen_linear_field(rng, fol == "dicritical")
    P1, Q1 = P, Q
    if fol == "radial":
        ell = _linear((_small(rng), _small(rng)))
        P = _add(P, _mul(ell, _linear((1, 0))))
        Q = _add(Q, _mul(ell, _linear((0, 1))))
    elif fol in ("quadratic", "dicritical"):
        P = _add(P, _random_poly(rng, 2, (2,), 0.4))
        Q = _add(Q, _random_poly(rng, 2, (2,), 0.4))
    # The tangent field of A dx + B dy is -B d/dx + A d/dy.
    A, B = Q, _scale(P, -1)
    a1, b1 = _small(rng), _small(rng)
    while curve == "line" and _invariant_line(P1, Q1, a1, b1):
        a1, b1 = _small(rng), _small(rng)
    L1 = _linear((a1, b1))
    if curve == "line":
        phi = L1
    elif curve == "conic":
        phi = _add(L1, _random_poly(rng, 2, (2,), 0.7) or {(2, 0): 1})
    else:
        # L1^2 - L2^3 with independent L1, L2: a cusp in skew coordinates.
        a2, b2 = _small(rng), _small(rng)
        while a1 * b2 == a2 * b1:
            a2, b2 = _small(rng), _small(rng)
        L2 = _linear((a2, b2))
        phi = _add(_mul(L1, L1), _scale(_mul(_mul(L2, L2), L2), -1))
    text = (
        "ring x, y\n"
        f"form w = {_form((A, B), XY)}\n"
        f"curve C = {_fmt(phi, XY)}\n"
        "compute blowup w\n"
        "compute blowup-verify w C\n"
        "compute p2-check w\n"
        "compute p2-check w C\n"
    )
    return Problem(0, "session", text)


# -- surface-n3 ----------------------------------------------------------------------
# Isolated surface singularities against random forms with linear and
# quadratic coefficients: the n >= 3 standard-basis route, no sympy.  Some
# draws of x^2 + y^5 + z^7 take seconds or never finish; the deadline turns
# them into counted failures.

SURFACE_GERMS = (
    "x^2 + y^3 + z^5",
    "x^3 + y^3 + z^3",
    "x^2*y + y^4 + z^2",
    "x^2 + y^5 + z^7",
    "x^3 + y^4 + z^5",
    "x^2 + y^3 + z^4",
    "x^2 + y^2 + z^6",
    "x^2 + y^3 + y*z^3",
)


def _surface_n3(rng: random.Random, germ) -> Problem:
    coeffs = [_nonzero(_random_poly(rng, 3, (1, 2), 0.5), 3) for _ in range(3)]
    text = (
        "ring x, y, z\n"
        f"curve X = {germ}\n"
        f"form w = {_form(coeffs, XYZ)}\n"
        "compute invariants w X\n"
        "compute br w X\n"
    )
    return Problem(0, "session", text)


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "curve-deep",
            CURVE_DEEP_STRATA,
            _curve_deep,
            Problem(-1, "session", _curve_deep(random.Random(0), (2, 3, False)).text),
            deadline_s=60.0,
            tail_pct=85.0,
            reference_problems=256,
        ),
        Workload(
            "sweep-shallow",
            (None,),
            _sweep,
            Problem(-1, "sweep", "run_identity_sweep(n=1, seed=0)", 1, 0),
            deadline_s=60.0,
            tail_pct=90.0,
            reference_problems=400,
        ),
        Workload(
            "global-p2",
            GLOBAL_P2_STRATA,
            _global_p2,
            Problem(-1, "session", _global_p2(random.Random(0), ("node", "line")).text),
            deadline_s=60.0,
            tail_pct=90.0,
            reference_problems=880,
        ),
        Workload(
            "surface-n3",
            SURFACE_GERMS,
            _surface_n3,
            Problem(-1, "session", _surface_n3(random.Random(0), "x^2 + y^2 + z^2").text),
            deadline_s=5.0,
            tail_pct=75.0,
            reference_problems=48,
        ),
    )
}


def problems(workload: Workload, seed: int) -> Iterator[list[Problem]]:
    """Endless rounds of problems; the same seed gives the same inputs."""
    rng = random.Random(f"{workload.name}/{seed}")
    index = 0
    while True:
        order = list(workload.strata)
        rng.shuffle(order)
        batch = []
        for stratum in order:
            p = workload.make(rng, stratum)
            batch.append(Problem(index, p.kind, p.text, p.sweep_n, p.sweep_seed))
            index += 1
        yield batch
