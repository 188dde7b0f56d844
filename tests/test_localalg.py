"""Standard bases for the local order, colengths, and the linear-algebra oracle."""

from __future__ import annotations

import itertools
import math
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from brindex.config import reset_limits, set_limits
from brindex.elim import coprime_at_origin
from brindex.errors import ResourceLimitError
from brindex.localalg import (
    INFINITY,
    LocalIdeal,
    _monomials_below,
    _pivot_columns,
    _staircase,
    colength,
    colength_oracle,
    colength_oracle_auto,
    minors,
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
    # Non-monomial generators: the pair loop runs before the staircase of the
    # leading exponents is read.  Two generators in three variables cut out at
    # least a curve (Krull), so their colength is infinite.
    I = _ideal(R3, "x^2 + y^3", "x*y + z^2", "y^2 - x*z")
    assert colength(I) == colength_oracle_auto(I) == 8
    assert colength(_ideal(R3, "x*y - z^2", "x^2 - y*z")) == INFINITY
    assert colength(_ideal(R3, "x^2 + y^3 + z^5")) == INFINITY


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
    # x^4 = y*(x*y) - x*(y^2 - x^3) lies in the ideal; without it the leading
    # exponents (1, 1) and (0, 2) leave the staircase unbounded.
    assert colength(_ideal(R2, "x*y", "y^2 - x^3")) == 5


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


def test_colength_from_leading():
    assert _staircase(2, [(2, 0), (1, 1), (0, 4)]) == (5, (0, 3))
    assert _staircase(2, [(1, 1)]) is None  # no pure power: infinite colength
    assert _staircase(2, [(0, 0)]) == (0, (0, 0))  # the unit ideal: no cells


@given(_exponent_sets())
def test_staircase_matches_a_box_scan(case):
    n, exps = case
    assert _staircase(n, exps) == _box_staircase(n, exps)


def test_budget_exhaustion_raises():
    ideals = [
        _ideal(
            R2,
            "y^3 - x^7",
            "6*x*y^2 - 3*y^3 + 3*x^2*y^2 + 6*x*y^3 + 3*y^4 + 3*x^3*y^2"
            " + 7*x^6 + 7*x^8 + 7*x^7*y + 14*x^9",
        ),
        _ideal(R3, "x^2 + y^3", "x*y + z^2", "y^2 - x*z"),
    ]
    set_limits(max_reduction_steps=1)
    try:
        for I in ideals:
            with pytest.raises(ResourceLimitError):
                colength(I)
    finally:
        reset_limits()
    assert all(colength(I) < INFINITY for I in ideals)


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
    # Each generator's denominators are cleared as a whole: with numerators
    # only, x/2 + y/3 and x/3 + y/2 would both become x + y and give 2.
    x, y = R2.var("x"), R2.var("y")
    third, half = R2.constant(Fraction(1, 3)), R2.constant(Fraction(1, 2))
    I = LocalIdeal.make(R2, [half * x + third * y, third * x + half * y, x * x])
    assert colength_oracle_auto(I) == 1


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


@st.composite
def _ideals(draw, ring_):
    """Two generators of order >= 2 and, half the time, u*f + v*g with units
    u, v: its truncated multiples are exact combinations of theirs down to the
    lowest degree, so the rank depends on every coefficient being right."""
    coeffs = st.fractions(-3, 3, max_denominator=3).filter(bool)

    def poly(min_degree: int) -> MPoly:
        exps = st.tuples(*[st.integers(0, 3)] * ring_.n).filter(lambda e: sum(e) >= min_degree)
        return MPoly(ring_, draw(st.dictionaries(exps, coeffs, min_size=1, max_size=4)))

    f, g = poly(2), poly(2)
    if draw(st.booleans()):
        u, v = (poly(1) + ring_.constant(draw(coeffs)) for _ in range(2))
        return LocalIdeal.make(ring_, [f, g, u * f + v * g])
    return LocalIdeal.make(ring_, [f, g])


def _sympy_dims(I: LocalIdeal, bound: int) -> list[int]:
    """[d(1), ..., d(bound)], d(b) = dim O_n/(I + m^b), each from its own matrix:
    the monomials of degree < b minus the rank over Q of the multiples x^m g
    truncated below degree b."""
    pytest.importorskip("sympy")
    from sympy import QQ
    from sympy.polys.matrices import DomainMatrix

    dims = []
    for b in range(1, bound + 1):
        cols = [e for e in itertools.product(range(b), repeat=I.ring.n) if sum(e) < b]
        index = {e: i for i, e in enumerate(cols)}
        rows = []
        for g in I.gens:
            for m in cols:
                row = [QQ(0)] * len(cols)
                for e, c in g.mono_mul(m, 1).terms():
                    if e in index:
                        row[index[e]] = QQ(c.numerator, c.denominator)
                rows.append(row)
        dims.append(len(cols) - DomainMatrix(rows, (len(rows), len(cols)), QQ).rank())
    return dims


@pytest.mark.parametrize("ring_, max_bound", [(R2, 6), (R3, 4)], ids=["n2", "n3"])
@given(data=st.data())
def test_oracle_dimensions_match_sympy(ring_, max_bound, data):
    I = data.draw(_ideals(ring_))
    bound = data.draw(st.integers(2, max_bound))
    expected = _sympy_dims(I, bound)
    # Every d(b), b <= bound, from the pivots of the one elimination at bound.
    monomials = _monomials_below(I.ring, bound)
    pivots = _pivot_columns(I, monomials, bound)
    dims = [
        sum(sum(e) < b for e in monomials) - sum(sum(monomials[i]) < b for i in pivots)
        for b in range(1, bound + 1)
    ]
    assert dims == expected
    # None exactly when the top degree is not full, that is when d(b-1) != d(b).
    for b in range(2, bound + 1):
        top_full = expected[b - 2] == expected[b - 1]
        assert colength_oracle(I, b) == (expected[b - 1] if top_full else None)


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
