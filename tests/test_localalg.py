"""Standard bases for the local order, colengths, and the linear-algebra oracle."""

from __future__ import annotations

import itertools
import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

from brindex.elim import coprime_at_origin
from brindex.errors import ResourceLimitError
from brindex.localalg import (
    INFINITY,
    LocalIdeal,
    _staircase,
    colength,
    colength_from_leading,
    colength_oracle,
    colength_oracle_auto,
    leading_exponents,
    minors,
    standard_basis,
)
from brindex.parsing import parse_poly
from brindex.poly import MPoly, local_key, monomial_divides, ring

R1 = ring("t")
R2 = ring("x", "y")
R3 = ring("x", "y", "z")


def _ideal(ring_, *texts: str) -> LocalIdeal:
    return LocalIdeal.make(ring_, [parse_poly(t, ring_) for t in texts])


# -- known colengths -------------------------------------------------------------


def test_monomial_ideal():
    assert colength(_ideal(R2, "x^2", "y^3")) == 6


def test_cusp_jacobian():
    assert colength(_ideal(R2, "3*x^2", "2*y")) == 2


def test_unit_ideal_in_the_local_ring():
    assert colength(_ideal(R2, "1 + x")) == 0
    assert colength(_ideal(R2, "2 + x", "y^5")) == 0


def test_unit_factors_are_invisible_locally():
    # x - x^2 = x(1 - x) and 1 - x is invertible at the origin.
    assert colength(_ideal(R2, "x - x^2", "y")) == 1


def test_principal_ideal_is_infinite_in_two_variables():
    assert colength(_ideal(R2, "x")) == INFINITY
    assert colength(_ideal(R2, "y^2 - x^3")) == INFINITY


def test_common_factor_forces_infinity():
    assert colength(_ideal(R2, "x^2*y", "x*y^2")) == INFINITY
    assert colength(_ideal(R2, "x + x*y", "x + x^2")) == INFINITY


def test_one_variable_route():
    assert colength(_ideal(R1, "t^3 + t^5")) == 3
    assert colength(_ideal(R1, "t^4", "t^7 + t^6")) == 4
    assert colength(_ideal(R1, "1 + t")) == 0


def test_three_variable_route():
    assert colength(_ideal(R3, "x", "y", "z")) == 1
    assert colength(_ideal(R3, "x^2", "y^2", "z^2")) == 8
    assert colength(_ideal(R3, "x", "y")) == INFINITY


def test_large_staircase_forces_bound_doubling():
    # Needs the truncation degree to grow past 41 before it certifies.
    assert colength(_ideal(R2, "x^40", "y^2")) == 80


def test_coprime_at_origin():
    x, y, unit = (parse_poly(t, R2) for t in ("x", "y", "1 + x"))
    assert coprime_at_origin(x, y)
    assert coprime_at_origin(x * unit, unit)
    assert not coprime_at_origin(x * y, x * (y + unit), x * x)
    assert not coprime_at_origin(x, R2.zero())  # the zero germ is divisible by x
    assert coprime_at_origin(unit, R2.zero())


def test_common_factor_with_a_large_staircase_is_infinite():
    # Neither truncation at degree 8 nor at 16 certifies, so the gcd decides.
    assert colength(_ideal(R2, "x*(y^11 - x^13)", "x*(y^2 - x^5)")) == INFINITY


# -- standard bases ---------------------------------------------------------------


def test_completion_finds_the_hidden_power():
    basis = standard_basis(_ideal(R2, "x*y", "y^2 - x^3"))
    exps = leading_exponents(basis)
    assert (4, 0) in exps
    assert colength(_ideal(R2, "x*y", "y^2 - x^3")) == 5


def test_standard_basis_is_monic_and_deterministic():
    I = _ideal(R2, "y^2 - x^3 + x*y^2", "x*y - y^4")
    b1 = standard_basis(I)
    b2 = standard_basis(I)
    assert b1 == b2
    assert all(g.leading_coeff() == 1 for g in b1)


def test_colength_from_leading():
    assert colength_from_leading(R2, [(2, 0), (1, 1), (0, 4)]) == 5
    assert colength_from_leading(R2, [(1, 1)]) == INFINITY
    assert colength_from_leading(R2, [(0, 0)]) == 0


def _box_staircase(n: int, exps: list) -> tuple | None:
    """Brute-force reference for _staircase: scan the bounding box."""
    box = []
    for i in range(n):
        pure = [e[i] for e in exps if not any(e[:i] + e[i + 1 :])]
        if not pure:
            return None
        box.append(min(pure))
    cells = [
        p
        for p in itertools.product(*(range(k) for k in box))
        if not any(monomial_divides(e, p) for e in exps)
    ]
    return len(cells), max(cells, key=local_key, default=(0,) * n)


@st.composite
def _exponent_sets(draw):
    n = draw(st.integers(1, 3))
    exp = st.tuples(*[st.integers(0, 5)] * n)
    exps = draw(st.lists(exp, max_size=8))
    if draw(st.booleans()):  # a pure power of every variable
        for i in range(n):
            exps.append(tuple(draw(st.integers(1, 6)) if j == i else 0 for j in range(n)))
    if exps and draw(st.booleans()):
        exps.append(draw(st.sampled_from(exps)))  # a duplicate
    if draw(st.integers(0, 7)) == 0:
        exps.append((0,) * n)
    return n, draw(st.permutations(exps))


@given(_exponent_sets())
def test_staircase_matches_a_box_scan(case):
    n, exps = case
    assert _staircase(n, exps) == _box_staircase(n, exps)


def test_budget_exhaustion_raises():
    I = _ideal(
        R2,
        "y^3 - x^7",
        "6*x*y^2 - 3*y^3 + 3*x^2*y^2 + 6*x*y^3 + 3*y^4 + 3*x^3*y^2"
        " + 7*x^6 + 7*x^8 + 7*x^7*y + 14*x^9",
    )
    with pytest.raises(ResourceLimitError):
        colength(I, max_steps=1)


def test_regression_previously_divergent_reduction():
    # This pair once made the reduction loop swell instead of terminate.
    I = _ideal(
        R2,
        "y^3 - x^7",
        "6*x*y^2 - 3*y^3 + 3*x^2*y^2 + 6*x*y^3 + 3*y^4 + 3*x^3*y^2"
        " + 7*x^6 + 7*x^8 + 7*x^7*y + 14*x^9",
    )
    assert colength(I) == 17


# -- the oracle -------------------------------------------------------------------


def test_oracle_on_knowns():
    assert colength_oracle_auto(_ideal(R2, "x^2", "y^3")) == 6
    assert colength_oracle_auto(_ideal(R2, "x*y", "y^2 - x^3")) == 5
    assert colength_oracle(_ideal(R2, "x^2", "y^3"), bound=10) == 6
    # Too small a window cannot certify stability.
    assert colength_oracle(_ideal(R2, "x^5", "y^5"), bound=3) is None


@given(
    st.lists(
        st.tuples(
            st.tuples(st.integers(0, 3), st.integers(0, 3)), st.integers(-2, 2)
        ),
        min_size=1,
        max_size=4,
    ),
    st.lists(
        st.tuples(
            st.tuples(st.integers(0, 3), st.integers(0, 3)), st.integers(-2, 2)
        ),
        min_size=1,
        max_size=4,
    ),
)
def test_oracle_agrees_with_standard_basis(fpairs, gpairs):
    f = MPoly(R2, dict(fpairs))
    g = MPoly(R2, dict(gpairs))
    if f.is_zero or g.is_zero:
        return
    I = LocalIdeal.make(R2, [f, g])
    value = colength(I)
    if value == INFINITY:
        return
    assert colength_oracle_auto(I) == value


# -- minors -----------------------------------------------------------------------


def test_minors_of_a_jacobian_block():
    x = R3.var("x")
    y = R3.var("y")
    z = R3.var("z")
    rows = [[x, y, z], [z, x, y]]
    out = minors(rows, 2)
    assert len(out) == 3
    assert x * x - y * z in out
    assert x * y - z * z in out
    assert y * y - x * z in out


def test_colength_values_are_plain_ints():
    v = colength(_ideal(R2, "x^2", "y^3"))
    assert isinstance(v, int) and not isinstance(v, bool)
    assert math.isinf(colength(_ideal(R2, "x")))
