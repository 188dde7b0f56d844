"""Resource budgets shared by the algebraic kernel.

All computations are exact, so the only tunables are hard budgets that turn
a runaway computation into a clean error instead of a hang.
"""

from __future__ import annotations

from dataclasses import dataclass, replace


@dataclass(frozen=True)
class Limits:
    # Local normal-form reduction steps allowed per standard-basis run.
    max_reduction_steps: int = 200_000
    # Degree cap for the linear-algebra colength cross-check.
    oracle_bound: int = 64


DEFAULT_LIMITS = Limits()

# Module-wide current limits.  The CLI overrides these once at startup;
# library callers can also pass explicit limits to the low-level entry points.
_current = DEFAULT_LIMITS


def get_limits() -> Limits:
    return _current


def set_limits(**kwargs) -> Limits:
    """Replace selected fields of the module-wide limits; returns the result."""
    global _current
    _current = replace(_current, **kwargs)
    return _current


def reset_limits() -> None:
    global _current
    _current = DEFAULT_LIMITS
