"""Sparse polynomial arithmetic, the local order, and 1-forms."""

from __future__ import annotations

import math
import time
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from brindex.elim import poly_gcd
from brindex.errors import ExprParseError, ResourceLimitError
from brindex.parsing import MAX_DEGREE, MAX_NESTING, MAX_TERMS, parse_form, parse_poly
from brindex.poly import (
    MPoly,
    OneForm,
    exact_divide,
    local_key,
    ring,
    wedge_coeffs,
)

R2 = ring("x", "y")
R3 = ring("x", "y", "z")


def _poly_strategy(ring_, max_exp=4, max_terms=5):
    exp = st.tuples(*[st.integers(0, max_exp)] * ring_.n)
    coeff = st.one_of(
        st.integers(-4, 4),
        st.builds(Fraction, st.integers(-6, 6), st.integers(1, 4)),
    )
    return st.builds(
        lambda pairs: MPoly(ring_, dict(pairs)),
        st.lists(st.tuples(exp, coeff), max_size=max_terms),
    )


polys2 = _poly_strategy(R2)
points2 = st.tuples(st.integers(-3, 3), st.integers(-3, 3))


# -- parsing ------------------------------------------------------------------


def test_parse_known_strings():
    assert parse_poly("x^2 - 2*x*y + 1", R2) == MPoly(
        R2, {(2, 0): 1, (1, 1): -2, (0, 0): 1}
    )
    assert parse_poly("-x + (x + y)^2", R2) == MPoly(
        R2, {(1, 0): -1, (2, 0): 1, (1, 1): 2, (0, 2): 1}
    )
    assert parse_poly("3/4*y^3", R2) == MPoly(R2, {(0, 3): Fraction(3, 4)})
    assert parse_poly("0", R2).is_zero


def test_parse_rejects_garbage():
    for bad in ("x +", "x^", "w", "x**2", "(x + y", "2x"):
        with pytest.raises(ExprParseError):
            parse_poly(bad, R2)


@pytest.mark.parametrize(
    "text,message,position",
    [
        ("x^²", "unexpected character '²'", 2),
        ("x^٣", "unexpected character '٣'", 2),
        ("12²", "unexpected character '²'", 2),
        ("x² + 1", "unknown variable 'x²'", 0),
    ],
)
def test_parse_reads_only_ascii_digits_as_integers(text, message, position):
    # str.isdigit() also holds for superscripts and other scripts' digits;
    # names keep every alphanumeric character, as before.
    with pytest.raises(ExprParseError, match=message) as exc:
        parse_poly(text, R2)
    assert exc.value.position == position


def test_parse_caps_parenthesis_nesting():
    def nested(depth: int) -> str:
        return "(" * depth + "x" + ")" * depth

    assert parse_poly(nested(MAX_NESTING), R2) == R2.var(0)
    with pytest.raises(ExprParseError) as exc:
        parse_poly(nested(3000), R2)
    assert exc.value.position == MAX_NESTING
    with pytest.raises(ExprParseError):
        parse_form(nested(MAX_NESTING + 1) + " dx", R2)


@pytest.mark.parametrize(
    "text,position",
    [
        ("x^1001", 2),
        ("x^600*y^600", 5),
        ("x^99999999999", 2),
        ("(1 + x)^1001", 8),
        ("(x^2)^501", 6),
        ("2^1001", 2),
        ("x^" + "9" * 5000, 2),
        ("9" * 5000 + "*x", 0),
    ],
)
def test_parse_caps_degree_before_forming_the_power(text, position):
    # Each input is rejected from its exponents alone, before any power or
    # product is formed; the last two overflow int()'s digit limit.  Inputs
    # whose power would exhaust memory are not run: without the cap this
    # test must fail, not take the machine down.
    with pytest.raises(ExprParseError) as exc:
        parse_poly(text, R2)
    assert exc.value.position == position


def test_parse_accepts_degree_up_to_the_cap():
    assert MAX_DEGREE == 1000
    assert parse_poly("x^1000", R2).total_degree() == 1000
    assert parse_poly("x^500*y^500", R2).total_degree() == 1000
    assert parse_form("x^1000 dx", R2).coeffs[0].total_degree() == 1000


@pytest.mark.parametrize(
    "text,position",
    [("(x + y + 1)^1000", 11), ("(x + y + 1)^60*(x + y + 1)^60", 14)],
)
def test_parse_caps_the_term_count_of_a_product(text, position):
    # The degree cap admits both, but forming them would take from seconds
    # to hours; the term cap refuses them at the operator.
    start = time.perf_counter()
    with pytest.raises(ExprParseError) as exc:
        parse_poly(text, R2)
    assert time.perf_counter() - start < 1
    assert exc.value.position == position


def test_parse_term_cap_counts_monomials_not_term_pairs():
    assert MAX_TERMS == 5000
    assert len(parse_poly("(x + y + 1)^40", R2).as_dict()) == 861
    # 501 * 501 term pairs, but only 1001 monomials of degree <= 1000.
    assert len(parse_poly("(x + 1)^1000", ring("x")).as_dict()) == 1001


def test_parse_form():
    om = parse_form("y dx + (x - 1) dy", R2)
    assert om.coeffs[0] == parse_poly("y", R2)
    assert om.coeffs[1] == parse_poly("x - 1", R2)
    with pytest.raises(ExprParseError):
        parse_form("y dx + x", R2)


@given(polys2)
def test_repr_parse_round_trip(f):
    assert R2.parse(repr(f)) == f


# -- the local order ------------------------------------------------------------


def test_local_order_ranks_by_degree_then_reversed():
    # Lower total degree always wins; ties break toward earlier variables.
    ranked = sorted([(0, 2), (2, 0), (1, 1), (0, 1), (1, 0), (0, 0)], key=local_key)
    assert ranked == [(0, 0), (1, 0), (0, 1), (2, 0), (1, 1), (0, 2)]


@given(polys2)
def test_leading_exp_is_minimal_in_local_order(f):
    if f.is_zero:
        return
    exps = [e for e, _ in f.terms()]
    assert f.leading_exp() == min(exps, key=local_key)


# -- ring axioms ---------------------------------------------------------------


@given(polys2, polys2, polys2)
def test_ring_axioms(f, g, h):
    assert (f + g) + h == f + (g + h)
    assert f + g == g + f
    assert f * g == g * f
    assert (f * g) * h == f * (g * h)
    assert f * (g + h) == f * g + f * h
    assert f + R2.zero() == f
    assert f * R2.one() == f
    assert (f - f).is_zero


@given(polys2)
def test_power_matches_repeated_product(f):
    assert f**3 == f * f * f
    assert f**0 == R2.one()


@given(polys2, polys2)
def test_degree_and_order_are_additive(f, g):
    if f.is_zero or g.is_zero:
        assert (f * g).is_zero
        return
    p = f * g
    assert p.total_degree() == f.total_degree() + g.total_degree()
    assert p.order() == f.order() + g.order()
    assert p.ecart() == p.total_degree() - p.order() >= 0


def test_degree_conventions_for_zero():
    z = R2.zero()
    assert z.total_degree() == -1
    assert z.order() == math.inf
    assert z.is_zero


# -- calculus and substitution --------------------------------------------------


@given(polys2, polys2)
def test_partial_product_rule(f, g):
    for i in range(2):
        lhs = (f * g).partial(i)
        rhs = f.partial(i) * g + f * g.partial(i)
        assert lhs == rhs


@given(polys2, points2)
def test_translate_moves_the_evaluation_point(f, p):
    assert f.translate(p).eval_at((0, 0)) == f.eval_at(p)
    back = [-c for c in p]
    assert f.translate(p).translate(back) == f


@given(
    _poly_strategy(R3),
    st.tuples(*[st.builds(Fraction, st.integers(-3, 3), st.integers(1, 3))] * 3),
)
def test_translate_is_the_substitution_x_plus_p(f, p):
    images = [R3.var(i) + R3.constant(c) for i, c in enumerate(p)]
    assert f.translate(p) == f.subs(R3, images)


@given(polys2, polys2, polys2, points2)
def test_subs_commutes_with_evaluation(f, g1, g2, p):
    composed = f.subs(R2, [g1, g2])
    assert composed.eval_at(p) == f.eval_at((g1.eval_at(p), g2.eval_at(p)))


@given(polys2)
def test_homogenize_dehomogenize_round_trip(f):
    if f.is_zero:
        return
    F = f.homogenize(R3, "z")
    # Every term of F has the total degree of f.
    assert {sum(e) for e, _ in F.terms()} == {f.total_degree()}
    assert F.dehomogenize(R2, "z", keep=("x", "y")) == f


@given(polys2, polys2)
def test_exact_divide_recovers_the_cofactor(f, g):
    if f.is_zero or g.is_zero:
        return
    q = exact_divide(f * g, g)
    assert q == f


def test_exact_divide_rejects_non_multiples():
    x = R2.var("x")
    y = R2.var("y")
    assert exact_divide(x, y) is None
    assert exact_divide(x * x + y, x) is None


@given(polys2, st.tuples(st.integers(0, 3), st.integers(0, 3)), st.integers(-3, 3))
def test_mono_mul_matches_product(f, e, c):
    assert f.mono_mul(e, c) == f * MPoly(R2, {e: c})


# -- canonical coefficients -----------------------------------------------------

# Integral values are also drawn as Fraction(k, 1), which must come back as k.
scalars = st.one_of(
    st.integers(-3, 3),
    st.builds(Fraction, st.integers(-6, 6), st.integers(1, 3)),
)


def _assert_canonical(f: MPoly) -> None:
    for _, c in f.terms():
        assert type(c) is int or (type(c) is Fraction and c.denominator != 1), (f, c)


@pytest.mark.parametrize("ring_", [R2, R3], ids=["n2", "n3"])
@given(data=st.data())
def test_canonical_coefficients_under_every_operation(ring_, data):
    """Every coefficient is an int, or a Fraction whose denominator is not 1."""
    n = ring_.n
    f = data.draw(_poly_strategy(ring_, max_exp=3, max_terms=4), "f")
    g = data.draw(_poly_strategy(ring_, max_exp=2, max_terms=3), "g")
    c = data.draw(scalars, "c")
    point = data.draw(st.tuples(*[scalars] * n), "point")
    exp = data.draw(st.tuples(*[st.integers(0, 2)] * n), "exp")
    images = [data.draw(_poly_strategy(ring_, max_exp=1, max_terms=3)) for _ in range(n)]
    homog = ring(*ring_.names, "h")
    results = [
        f,
        f + g,
        f - g,
        f * g,
        f + c,
        c - f,
        f * c,
        -f,
        (f + g) ** 2,
        ring_.constant(c),
        ring_.monomial(exp, c),
        f.mono_mul(exp, c),
        f.subs(ring_, images),
        f.translate(point),
        f.homogenize(homog, "h"),
        f.homogenize(homog, "h").dehomogenize(ring_, "h", keep=ring_.names),
        parse_poly(repr(f), ring_),
    ]
    results += [f.partial(i) for i in range(n)]
    if n == 2:
        results += [f.restrict(i, point[i]) for i in range(n)]
    if not g.is_zero:
        results.append(exact_divide(f * g, g))
        results.append(exact_divide(f, g) or ring_.zero())
    for h in results:
        _assert_canonical(h)
    value = f.eval_at(point)
    assert type(value) is int or value.denominator != 1


def test_canonical_pinned_cases():
    x, y = R2.var("x"), R2.var("y")
    half = exact_divide(x + 1, 2 * x + 2)
    assert half == R2.constant(Fraction(1, 2))
    assert type(half.constant_term()) is Fraction
    d = poly_gcd(2 * x + 2 * y, 4 * x + 4 * y)
    assert d == x + y
    assert all(type(c) is int for _, c in d.terms())
    assert R2.constant(Fraction(6, 3)).constant_term() == 2
    assert type(R2.constant(Fraction(6, 3)).constant_term()) is int
    assert type(x.coeff((0, 0))) is int
    with pytest.raises(TypeError):
        R2.constant(0.5)
    with pytest.raises(TypeError):
        MPoly(R2, {(1, 0): 0.5})


# -- packed exponents against a tuple-exponent reference --------------------
# The reference keeps a polynomial as a dict {exponent tuple: coefficient} with
# no zero coefficients, the representation MPoly had before exponents were
# packed; every operation below is computed both ways.


def _ref_clean(d: dict) -> dict:
    return {e: c for e, c in d.items() if c}


def _ref_add(f: dict, g: dict, sign: int = 1) -> dict:
    out = dict(f)
    for e, c in g.items():
        out[e] = out.get(e, 0) + sign * c
    return _ref_clean(out)


def _ref_mul(f: dict, g: dict) -> dict:
    out: dict = {}
    for e1, c1 in f.items():
        for e2, c2 in g.items():
            e = tuple(a + b for a, b in zip(e1, e2))
            out[e] = out.get(e, 0) + c1 * c2
    return _ref_clean(out)


def _ref_pow(f: dict, k: int, n: int) -> dict:
    out = {(0,) * n: 1}
    for _ in range(k):
        out = _ref_mul(out, f)
    return out


def _ref_partial(f: dict, i: int) -> dict:
    return {
        e[:i] + (e[i] - 1,) + e[i + 1 :]: c * e[i] for e, c in f.items() if e[i]
    }


def _ref_subs(f: dict, images: list[dict], n: int) -> dict:
    out: dict = {}
    for e, c in f.items():
        term = {(0,) * n: c}
        for img, k in zip(images, e):
            term = _ref_mul(term, _ref_pow(img, k, n))
        out = _ref_add(out, term)
    return out


def _ref_repr(f: dict, names) -> str:
    chunks = []
    for e in sorted(f, key=local_key):
        c = f[e]
        mono = "*".join(
            name if k == 1 else f"{name}^{k}" for name, k in zip(names, e) if k
        )
        body = mono if mono and abs(c) == 1 else f"{abs(c)}*{mono}" if mono else str(abs(c))
        chunks.append(("-" if c < 0 else "+", body))
    if not chunks:
        return "0"
    text = ("-" if chunks[0][0] == "-" else "") + chunks[0][1]
    return text + "".join(f" {sign} {body}" for sign, body in chunks[1:])


def _ref_polys(n: int, max_exp: int, max_terms: int):
    exp = st.tuples(*[st.integers(0, max_exp)] * n)
    coeff = st.one_of(
        st.integers(-4, 4), st.builds(Fraction, st.integers(-6, 6), st.integers(1, 4))
    )
    return st.dictionaries(exp, coeff, max_size=max_terms).map(
        lambda d: {e: _scalar_of(c) for e, c in d.items() if c}
    )


def _scalar_of(c):
    c = Fraction(c)
    return c.numerator if c.denominator == 1 else c


def _as_ref(f: MPoly) -> dict:
    """The tuple-exponent dict of f, checking on the way that terms() lists
    the exponents in local_key order."""
    exps = [e for e, _ in f.terms()]
    assert exps == sorted(exps, key=local_key)
    return dict(f.terms())


@pytest.mark.parametrize("ring_", [R2, R3], ids=["n2", "n3"])
@given(data=st.data())
def test_packed_arithmetic_matches_tuple_reference(ring_, data):
    n = ring_.n
    f = data.draw(_ref_polys(n, 3, 4), "f")
    g = data.draw(_ref_polys(n, 2, 3), "g")
    images = [data.draw(_ref_polys(n, 1, 3), f"image {i}") for i in range(n)]
    point = data.draw(st.tuples(*[st.integers(-3, 3)] * n), "point")
    k = data.draw(st.integers(0, 3), "k")
    F, G = MPoly(ring_, f), MPoly(ring_, g)
    assert _as_ref(F) == f and F.as_dict() == f
    assert _as_ref(F + G) == _ref_add(f, g)
    assert _as_ref(F - G) == _ref_add(f, g, -1)
    assert _as_ref(F * G) == _ref_mul(f, g)
    assert _as_ref(F**k) == _ref_pow(f, k, n)
    for i in range(n):
        assert _as_ref(F.partial(i)) == _ref_partial(f, i)
    subs = F.subs(ring_, [MPoly(ring_, img) for img in images])
    assert _as_ref(subs) == _ref_subs(f, images, n)
    units = [tuple(int(j == i) for j in range(n)) for i in range(n)]
    shifted = [{units[i]: 1, (0,) * n: p} if p else {units[i]: 1} for i, p in enumerate(point)]
    assert _as_ref(F.translate(point)) == _ref_subs(f, shifted, n)
    homog = ring(*ring_.names, "h")
    if f:
        degree = max(map(sum, f))
        assert _as_ref(F.homogenize(homog, "h")) == {
            e + (degree - sum(e),): c for e, c in f.items()
        }
    assert repr(F) == _ref_repr(f, ring_.names)
    if f:
        lead = min(f, key=local_key)
        assert F.leading_exp() == lead and F.order() == sum(lead)
        assert F.total_degree() == max(map(sum, f))
    assert F.constant_term() == f.get((0,) * n, 0)
    if g:
        assert _as_ref(exact_divide(F * G, G)) == f
        q = exact_divide(F, G)
        if q is not None:
            assert _ref_mul(_as_ref(q), g) == f


def test_packed_degree_past_the_field_raises():
    big = 2**30  # fits: the degree field holds degrees below 2^31
    x_big = R2.monomial((big, 0))
    assert x_big.total_degree() == big
    with pytest.raises(ResourceLimitError, match="does not fit"):
        x_big * x_big
    with pytest.raises(ResourceLimitError, match="does not fit"):
        (x_big + R2.var("y")) * (x_big + 1)
    with pytest.raises(ResourceLimitError, match="does not fit"):
        x_big**2
    with pytest.raises(ResourceLimitError, match="does not fit"):
        x_big.mono_mul((0, big), 1)
    with pytest.raises(ResourceLimitError, match="does not fit"):
        MPoly(R2, {(big, big): 1})  # each field fits, the degree does not
    with pytest.raises(ResourceLimitError, match="does not fit"):
        MPoly(R2, {(2**31, 0): 1})


def test_packed_exponent_must_be_nonnegative_and_of_the_ring_length():
    with pytest.raises(ValueError, match="bad exponent"):
        MPoly(R2, {(-1, 2): 1})
    with pytest.raises(ValueError, match="bad exponent"):
        MPoly(R2, {(1,): 1})
    with pytest.raises(ValueError, match="bad exponent"):
        MPoly(R2, {(1, 0, 0): 1})
    with pytest.raises(ValueError, match="bad exponent"):
        R2.monomial((0, -1))


# -- the parser against MPoly arithmetic ------------------------------------
# Random expression trees are rendered to text and parsed; the parse must equal
# the tree evaluated with MPoly arithmetic.  The renderer parenthesizes only
# where the grammar needs it, so precedence and the leading sign are exercised.

_SUM, _TERM, _POWER, _ATOM = range(4)


def _trees(names):
    leaves = st.one_of(
        st.tuples(st.just("int"), st.integers(0, 12)),
        st.tuples(st.just("frac"), st.integers(0, 12), st.integers(1, 5)),
        st.tuples(st.just("var"), st.sampled_from(names)),
    )

    def extend(children):
        return st.one_of(
            st.tuples(st.sampled_from(["+", "-", "*"]), children, children),
            st.tuples(st.just("^"), children, st.integers(0, 3)),
            st.tuples(st.just("neg"), children),
        )

    return st.recursive(leaves, extend, max_leaves=8)


def _render(tree, space: str) -> tuple[str, int]:
    """(text, precedence level) of a tree."""

    def wrapped(child, level):
        text, child_level = _render(child, space)
        return text if child_level >= level else f"({text})"

    kind = tree[0]
    if kind == "int":
        return str(tree[1]), _ATOM
    if kind == "frac":
        return f"{tree[1]}/{tree[2]}", _ATOM
    if kind == "var":
        return tree[1], _ATOM
    if kind == "^":
        return f"{wrapped(tree[1], _ATOM)}^{tree[2]}", _POWER
    if kind == "neg":
        return f"-{space}{wrapped(tree[1], _TERM)}", _SUM
    if kind == "*":
        return f"{wrapped(tree[1], _POWER)}{space}*{space}{wrapped(tree[2], _POWER)}", _TERM
    left = wrapped(tree[1], _SUM)  # a leading sign may open a sum
    return f"{left}{space}{kind}{space}{wrapped(tree[2], _TERM)}", _SUM


def _evaluate(tree, ring_) -> MPoly:
    kind = tree[0]
    if kind == "int":
        return ring_.constant(tree[1])
    if kind == "frac":
        return ring_.constant(Fraction(tree[1], tree[2]))
    if kind == "var":
        return ring_.var(tree[1])
    if kind == "^":
        return _evaluate(tree[1], ring_) ** tree[2]
    if kind == "neg":
        return -_evaluate(tree[1], ring_)
    a, b = _evaluate(tree[1], ring_), _evaluate(tree[2], ring_)
    return a + b if kind == "+" else a - b if kind == "-" else a * b


@pytest.mark.parametrize("ring_", [R2, R3], ids=["n2", "n3"])
@given(data=st.data())
def test_parse_matches_mpoly_arithmetic_on_random_trees(ring_, data):
    space = data.draw(st.sampled_from(["", " "]), "space")
    trees = [data.draw(_trees(ring_.names), f"tree {i}") for i in range(3)]
    texts = [_render(t, space)[0] for t in trees]
    values = [_evaluate(t, ring_) for t in trees]
    assert parse_poly(texts[0], ring_) == values[0], texts[0]
    # A form: the first and third trees are both dx_0 components and add up.
    first, second = ring_.names[0], ring_.names[1]
    form_text = f"({texts[0]}) d{first} + ({texts[1]}) d{second} - ({texts[2]}) d{first}"
    expected = [values[0] - values[2], values[1]] + [ring_.zero()] * (ring_.n - 2)
    assert parse_form(form_text, ring_) == OneForm(ring_, tuple(expected)), form_text


# -- 1-forms --------------------------------------------------------------------


@given(polys2)
def test_differential_coeffs_are_partials(f):
    df = OneForm.differential(f)
    assert df.coeffs == (f.partial(0), f.partial(1))


@given(polys2, polys2, polys2)
def test_form_applied_to_a_field(f, v1, v2):
    df = OneForm.differential(f)
    assert df.apply((v1, v2)) == v1 * f.partial(0) + v2 * f.partial(1)


@given(polys2, polys2)
def test_wedge_with_own_differential_vanishes(f, g):
    # df wedge df = 0; df wedge dg picks up the Jacobian determinant.
    df, dg = OneForm.differential(f), OneForm.differential(g)
    zero = wedge_coeffs(df, df)
    assert all(p.is_zero for p in zero.values())
    jac = wedge_coeffs(df, dg)
    expected = f.partial(0) * g.partial(1) - f.partial(1) * g.partial(0)
    assert jac == {(0, 1): expected}
