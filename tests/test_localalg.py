"""Standard bases for the local order, colengths, and the linear-algebra oracle."""

from __future__ import annotations

import itertools
import math
import operator
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from brindex import poly
from brindex.config import reset_limits, set_limits
from brindex.corpus import run_identity_sweep
from brindex.elim import coprime_at_origin
from brindex.errors import ResourceLimitError
from brindex.invariants import HypersurfaceGerm, LocalPair
from brindex.localalg import (
    INFINITY,
    Colength,
    LocalIdeal,
    _Budget,
    _field_width,
    _int_from_poly,
    _int_record,
    _integer_terms,
    _pivot_columns,
    _staircase,
    _staircase_of,
    colength,
    colength_oracle,
    colength_oracle_auto,
)
from brindex.parsing import parse_form, parse_poly
from brindex.poly import MPoly, OneForm, _packer, local_key, ring, wedge_coeffs
from tests_util import CallSpy

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
        if not any(all(map(operator.le, e, p)) for e in exps)
    ]
    return len(cells), max(cells, key=local_key, default=(0,) * n)


@st.composite
def _exponent_sets(draw):
    n = draw(st.integers(2, 3))
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


# Reduction steps the pair loop spends on fixed ideals.  The exponent
# representation decides no pair, reductor or tie-break, so no change to it may
# move these counts.
_STEP_PINS = [
    (
        lambda: LocalPair(
            parse_form("(y + x^3) dx + (x + y^4 + x*y^2) dy", R2),
            HypersurfaceGerm(parse_poly("y^7 - x^10", R2)),
        ).trivial_ideal,
        71,
        43,
    ),
    (lambda: _ideal(R2, "x*y", "y^2 - x^3"), 5, 1),  # the hidden power
    (lambda: _ideal(R3, "x^2 + y^3", "x*y + z^2", "y^2 - x*z"), 8, 9),
]


@pytest.mark.parametrize("make, value, steps", _STEP_PINS, ids=["y7-x10", "hidden", "n3"])
def test_reduction_steps_are_pinned(make, value, steps):
    I = make()
    try:
        set_limits(max_reduction_steps=steps)
        assert colength(I) == value
        set_limits(max_reduction_steps=steps - 1)
        with pytest.raises(ResourceLimitError):
            colength(I)
    finally:
        reset_limits()


def test_regression_previously_divergent_reduction():
    # This pair once made the reduction loop swell instead of terminate.
    I = _ideal(
        R2,
        "y^3 - x^7",
        "6*x*y^2 - 3*y^3 + 3*x^2*y^2 + 6*x*y^3 + 3*y^4 + 3*x^3*y^2"
        " + 7*x^6 + 7*x^8 + 7*x^7*y + 14*x^9",
    )
    assert colength(I) == 17


# -- packed exponents -------------------------------------------------------------

# Up to four variables of degree < 2^28 each: every sum of two packs in 32 bits.
_packed_pairs = st.integers(2, 4).flatmap(
    lambda n: st.tuples(
        *[st.tuples(*[st.one_of(st.integers(0, 4), st.integers(0, 2**28 - 1))] * n)] * 2
    )
)


@given(_packed_pairs)
def test_packed_exponents_agree_with_tuples(pair):
    a, b = pair
    P = _packer(len(a))
    pa, pb = P.pack(a), P.pack(b)
    assert P.unpack(pa) == a and P.unpack(pb) == b
    assert (pa < pb) == (local_key(a) < local_key(b))
    assert pa + pb == P.pack(tuple(map(operator.add, a, b)))
    divides = ((pb | P.guards) - pa) & P.guards == P.guards
    assert divides == all(map(operator.le, a, b))
    if divides:
        assert pb - pa == P.pack(tuple(map(operator.sub, b, a)))
    assert P.lcm(pa, pb) == P.pack(tuple(map(max, a, b)))


@pytest.mark.parametrize(
    "field_bits, gens",
    [
        (4, (R2, "x^8 + y", "x")),  # a generator of degree 8
        (3, (R3, "x^2 + y^3", "x*y + z^2", "y^2 - x*z")),  # an s-polynomial
        (5, (R3, "z + y^7", "x^2*y^3*z^2 + x^3*y^2*z^3")),  # a reduction step
    ],
    ids=["packing", "s-polynomial", "reduction"],
)
def test_packed_degree_overflow_raises(monkeypatch, field_bits, gens):
    monkeypatch.setattr(poly, "_FIELD_BITS", field_bits)
    monkeypatch.setattr(poly, "_PACKERS", {})
    with pytest.raises(ResourceLimitError, match="does not fit"):
        colength(_ideal(*gens))


def test_cap_is_never_packed(monkeypatch):
    # Degree 8 does not fit 4-bit fields, yet the first bound is b = 8: the
    # exponents of m^8 reach the staircase only as a cap, so nothing of
    # degree 8 is packed.
    monkeypatch.setattr(poly, "_FIELD_BITS", 4)
    monkeypatch.setattr(poly, "_PACKERS", {})
    assert colength(_ideal(R2, "x*y", "y^2 - x^3")) == 5


# Up to four terms of degree <= 3 in each variable, coefficients in [-2, 2].
_r2_terms = st.lists(
    st.tuples(st.tuples(st.integers(0, 3), st.integers(0, 3)), st.integers(-2, 2)),
    min_size=1,
    max_size=4,
)


@pytest.mark.parametrize("bound", [8, 16])
@given(st.lists(_r2_terms, min_size=1, max_size=3))
def test_capped_staircase_matches_power_records(bound, gens_terms):
    # The cap must leave every pair, reduction step and staircase as the m^b
    # records did, not only the answer: the two budgets end equal.
    polys = [MPoly(R2, dict(t)) for t in gens_terms]
    polys = [f for f in polys if not f.is_zero]
    if not polys:
        return
    packer = _packer(2)
    gens = [_int_record(_int_from_poly(f), packer) for f in polys]
    cap = [(bound - k, k) for k in range(bound + 1)]
    power = [({p: 1}, p, 0) for p in map(packer.pack, cap)]
    capped, recorded = _Budget(10**6), _Budget(10**6)
    assert _staircase_of(packer, gens, capped, cap) == _staircase_of(
        packer, gens + power, recorded
    )
    assert capped.remaining == recorded.remaining


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


@given(_r2_terms, _r2_terms)
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
    # Every d(b), b <= bound, from the degrees of the pivot codes of the one
    # elimination at bound: the degree is the code's top field.
    n = ring_.n
    shift = n * _field_width(bound)
    pivots = _pivot_columns(n, [_integer_terms(g) for g in I.gens], bound)
    degrees = [p >> shift for p in pivots]
    dims = [
        math.comb(n + b - 1, n) - sum(d < b for d in degrees)
        for b in range(1, bound + 1)
    ]
    assert dims == expected
    # None exactly when the top degree is not full, that is when d(b-1) != d(b).
    for b in range(2, bound + 1):
        top_full = expected[b - 2] == expected[b - 1]
        assert colength_oracle(I, b) == (expected[b - 1] if top_full else None)


def _content_free(row: dict) -> dict:
    g = math.gcd(*row.values())
    return {c: v // g for c, v in row.items()}


def _tuple_pivots(I: LocalIdeal, bound: int) -> set[tuple[int, ...]]:
    """The oracle's elimination on exponent tuples, with the content divided
    out after every row operation: the reference for the coded pivots."""
    monomials = sorted(
        (e for e in itertools.product(range(bound), repeat=I.ring.n) if sum(e) < bound),
        key=local_key,
    )
    col = {e: i for i, e in enumerate(monomials)}
    pivots: dict[int, dict] = {}
    for g in I.gens:
        terms, _ = g.integer_terms()
        g_ord = min(sum(e) for e, _ in terms)
        for m in monomials:
            if sum(m) + g_ord >= bound:
                break
            row = {}
            for e, c in terms:
                prod = tuple(map(operator.add, e, m))
                if prod in col:
                    row[col[prod]] = c
            while row:
                lead = min(row)
                pivot = pivots.get(lead)
                if pivot is None:
                    pivots[lead] = _content_free(row)
                    break
                k = math.gcd(row[lead], pivot[lead])
                mr, mp = pivot[lead] // k, row[lead] // k
                row = {c: v * mr for c, v in row.items()}
                for c, v in pivot.items():
                    row[c] = row.get(c, 0) - v * mp
                row = {c: v for c, v in row.items() if v}
                if row:
                    row = _content_free(row)
    return {monomials[i] for i in pivots}


@pytest.mark.parametrize("ring_, max_bound", [(R2, 8), (R3, 5)], ids=["n2", "n3"])
@given(data=st.data())
def test_oracle_pivots_match_a_tuple_reference(ring_, max_bound, data):
    I = data.draw(_ideals(ring_))
    bound = data.draw(st.integers(2, max_bound))
    n, width = ring_.n, _field_width(bound)
    decoded = set()
    for code in _pivot_columns(n, [_integer_terms(g) for g in I.gens], bound):
        e = tuple(code >> i * width & (1 << width) - 1 for i in range(n))
        assert code >> n * width == sum(e)
        decoded.add(e)
    assert decoded == _tuple_pivots(I, bound)


@pytest.mark.parametrize("ring_, max_bound", [(R2, 8), (R3, 5)], ids=["n2", "n3"])
@given(data=st.data())
def test_oracle_pivots_do_not_depend_on_the_generator_order(ring_, max_bound, data):
    # The rows a generator skips are the pivots of the generators before it;
    # a skip that also read the generator's own pivots would lose rows.
    I = data.draw(_ideals(ring_))
    bound = data.draw(st.integers(2, max_bound))
    gens = [_integer_terms(g) for g in I.gens]
    assert _pivot_columns(ring_.n, gens, bound) == _pivot_columns(ring_.n, gens[::-1], bound)


@st.composite
def _finite_ideals(draw, ring_, max_power):
    """`_ideals` and a power of each variable, so the colength is finite."""
    I = draw(_ideals(ring_))
    powers = [ring_.var(i) ** draw(st.integers(2, max_power)) for i in range(ring_.n)]
    return LocalIdeal.make(ring_, [*I.gens, *powers])


@pytest.mark.parametrize("ring_, max_power", [(R2, 4), (R3, 3)], ids=["n2", "n3"])
@given(data=st.data())
def test_oracle_start_sets_only_where_the_search_begins(ring_, max_power, data):
    I = data.draw(_finite_ideals(ring_, max_power))
    value = colength(I)
    # The first bound that certifies is the depth of the staircase + 2.
    first = next(b for b in range(2, 65) if colength_oracle(I, b) is not None)
    assert first == value.depth + 2
    expected = colength_oracle_auto(I)
    assert expected == value
    for start in range(2, first + 5):
        assert colength_oracle_auto(I, start=start) == expected


def test_oracle_runs_one_elimination_per_sweep_check(monkeypatch):
    spy = CallSpy(monkeypatch, "localalg", "_oracle_at")
    record = run_identity_sweep(n=25)
    # Three colengths per case: mu0(omega), tau0(X) and the trivial evaluation.
    assert record.values["cases"] == 25
    assert len(spy.args) == 3 * 25


def test_oracle_disagreement_still_fails_the_sweep(monkeypatch):
    # A trivial-evaluation value one too high that keeps its depth: the oracle
    # starts at a bound that certifies, and its value differs.
    trivial = LocalPair.trivial.func

    def off_by_one(pair):
        value = trivial(pair)
        return Colength(value + 1, value.depth)

    monkeypatch.setattr(LocalPair, "trivial", property(off_by_one))
    agreement = {c.name: c for c in run_identity_sweep(n=6).checks}["oracle_agreement"]
    assert agreement.lhs < agreement.rhs == 6


def test_oracle_exponent_past_the_code_field():
    # y^70000 fills no field of the code: a generator term of degree >= the
    # bound is dropped before coding, so no field carries into the next.
    f = MPoly(R2, {(2, 0): 1, (0, 70000): 1})
    I = LocalIdeal.make(R2, [f, MPoly(R2, {(0, 3): 1})])
    assert colength_oracle_auto(I) == 6
    assert colength_oracle(I, 8) == 6


# -- minors -----------------------------------------------------------------------


def test_minors_of_a_jacobian_block():
    # The 2 x 2 minors of the rows (x, y, z) and (z, x, y) are the
    # coefficients of the wedge of the two forms, in column-subset order.
    x = R3.var("x")
    y = R3.var("y")
    z = R3.var("z")
    out = wedge_coeffs(OneForm(R3, (x, y, z)), OneForm(R3, (z, x, y)))
    assert out == {(0, 1): x * x - y * z, (0, 2): x * y - z * z, (1, 2): y * y - x * z}


def test_colength_values_are_plain_ints():
    v = colength(_ideal(R2, "x^2", "y^3"))
    assert isinstance(v, int) and not isinstance(v, bool)
    assert math.isinf(colength(_ideal(R2, "x")))
    # Each also carries the degree of its deepest staircase cell: x*y^2, t^3,
    # x*y*z, and the origin for an empty staircase.
    assert v.depth == 3
    assert colength(_ideal(R1, "t^4", "t^7 + t^6")).depth == 3
    assert colength(_ideal(R3, "x^2", "y^2", "z^2")).depth == 3
    assert colength(_ideal(R2, "1 + x")).depth == 0
