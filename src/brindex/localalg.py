"""Colengths in local rings: one standard-basis engine and an independent oracle.

`colength` is the one entry to the standard-basis engine.  The normal form is
Mora's tangent-cone reduction for the negative degree reverse lexicographic
order: reductors are chosen with minimal ecart (ties go to the first listed)
and the intermediate polynomial may itself join the reductor list, which is
what makes the local division terminate.  Once the staircase of the partial
basis is finite, terms deeper than its corner are discarded during reduction
(they already lie in the ideal), which keeps intermediate polynomials small
and makes reductions to zero cheap.  The pair loop applies the same
highest-corner criterion (Mora; Greuel-Pfister, 1.7): a pair whose lcm lies
past the corner is never formed.

Colength (the vector-space dimension of O_n / I) is read off the staircase of
the completed basis's leading exponents, in every dimension; one routine
(`_staircase`) gives both its cell count and its deepest cell.  The staircase
of a set of exponents is that of its minimal elements, so the basis is never
minimalized or made monic.  Infinite colength is detected structurally: some
variable has no pure power in the leading ideal.

A second, independent route (`colength_oracle`) computes dim O_n/(I + m^b) by
exact fraction-free elimination over Z on truncated multiples of the
generators, lowest column first with the columns in ascending degree, and is
used throughout the tests to cross-check the standard-basis route.  In that
echelon form the rank on the columns of degree < b is the number of pivots of
degree < b, so one elimination at the bound gives d(b) for every smaller b.
"""

from __future__ import annotations

import functools
import heapq
import itertools
import math
import operator
from dataclasses import dataclass
from typing import Iterable, Sequence

from .config import get_limits
from .elim import coprime_at_origin
from .errors import ResourceLimitError
from .poly import (
    Exp,
    MPoly,
    Ring,
    exp_add,
    exp_lcm,
    exp_sub,
    local_key,
    monomial_divides,
)

INFINITY = math.inf


@dataclass(frozen=True)
class LocalIdeal:
    """An ideal of the local ring at the origin, given by polynomial generators.

    Zero generators are dropped at construction; the list must stay nonempty.
    """

    ring: Ring
    gens: tuple[MPoly, ...]

    def __post_init__(self):
        kept = tuple(g for g in self.gens if not g.is_zero)
        for g in kept:
            if g.ring != self.ring:
                raise ValueError("ideal generators must share the ring")
        if not kept:
            raise ValueError("refusing the zero ideal (no nonzero generators)")
        object.__setattr__(self, "gens", kept)

    @classmethod
    def make(cls, ring_: Ring, gens: Iterable[MPoly]) -> "LocalIdeal":
        return cls(ring_, tuple(gens))


class _Budget:
    __slots__ = ("remaining",)

    def __init__(self, steps: int):
        self.remaining = steps

    def spend(self):
        self.remaining -= 1
        if self.remaining < 0:
            raise ResourceLimitError(
                "reduction step budget exhausted; raise the limit with --steps"
            )


# -- integer reduction core ---------------------------------------------------
# Working polynomials are plain dict[Exp, int] with content 1 and positive
# leading coefficient.  Reduction steps are pseudo-reductions (cross-multiply
# by leading coefficients, then strip the content), so no Fraction arithmetic
# happens at all: the colength needs only the leading exponents.  Reductors
# are carried as (terms, leading exponent, ecart) records.


def _int_strip(d: dict) -> dict:
    if not d:
        return d
    g = 0
    for c in d.values():
        g = math.gcd(g, c)
    if d[min(d, key=local_key)] < 0:
        g = -g
    if g != 1:
        return {e: c // g for e, c in d.items()}
    return d


def _int_from_poly(f: MPoly) -> dict:
    den = 1
    for _, c in f.terms():
        den = den * c.denominator // math.gcd(den, c.denominator)
    return _int_strip({e: int(c * den) for e, c in f.terms()})


def _int_record(d: dict) -> tuple:
    lt = min(d, key=local_key)
    return (d, lt, max(sum(e) for e in d) - sum(lt))


def _int_combine(h: dict, ch: int, g: dict, cg: int, shift: Exp) -> dict:
    """cg/k * h - ch/k * x^shift * g with k = gcd; leading terms must cancel."""
    k = math.gcd(ch, cg)
    mh, mg = cg // k, ch // k
    out = dict(h) if mh == 1 else {e: c * mh for e, c in h.items()}
    for e, c in g.items():
        ne = exp_add(e, shift)
        v = out.get(ne, 0) - c * mg
        if v:
            out[ne] = v
        elif ne in out:
            del out[ne]
    return out


def _int_spoly(f_rec: tuple, g_rec: tuple) -> dict:
    ft, fe, _ = f_rec
    gt, ge, _ = g_rec
    lcm = exp_lcm(fe, ge)
    shifted = {exp_add(e, exp_sub(lcm, fe)): c for e, c in ft.items()}
    return _int_combine(shifted, shifted[lcm], gt, gt[ge], exp_sub(lcm, ge))


def _staircase(n: int, exps: Sequence[Exp]) -> tuple[int, Exp] | None:
    """(cell count, deepest cell under local_key) of the staircase of ``exps``.

    Cells are the monomials no exponent divides (an empty staircase reports
    the origin); None when some variable has no pure power.  Two variables:
    one pass over the minimal exponents by x-exponent, column heights b_i on
    a_i <= x < a_{i+1}, deepest cell at an inner corner.  Otherwise recurse on
    the slices of the last variable.
    """
    if n == 1:
        if not exps:
            return None
        a = min(e[0] for e in exps)
        return a, (max(a - 1, 0),)
    if n == 2:
        minimal: list[Exp] = []
        for e in sorted(exps):
            if not minimal or e[1] < minimal[-1][1]:
                minimal.append(e)
        if not minimal or minimal[0][0] != 0 or minimal[-1][1] != 0:
            return None
        count, deepest = 0, (0, 0)
        for (a, b), (a_next, _) in zip(minimal, minimal[1:]):
            count += (a_next - a) * b
            deepest = max(deepest, (a_next - 1, b - 1), key=local_key)
        return count, deepest
    pure = [e[-1] for e in exps if not any(e[:-1])]
    if not pure:
        return None
    count, deepest = 0, (0,) * n
    for c in range(min(pure)):
        cut = _staircase(n - 1, [e[:-1] for e in exps if e[-1] <= c])
        if cut is None:
            return None
        count += cut[0]
        deepest = max(deepest, cut[1] + (c,), key=local_key)
    return count, deepest


def _int_cut(d: dict, corner: tuple | None) -> dict:
    """Discard the terms deeper than the staircase corner; they lie in the ideal."""
    if corner is None or not d:
        return d
    kept = {e: c for e, c in d.items() if local_key(e) <= corner}
    return kept if len(kept) != len(d) else d


def _mora_nf(
    f: dict, reductors: Sequence[tuple], budget: _Budget, corner: tuple | None = None
) -> dict:
    """Mora weak normal form of f against the list of reductor records."""
    h = _int_strip(_int_cut(f, corner))
    allowed = list(reductors)
    while h:
        he = min(h, key=local_key)
        usable = [r for r in allowed if monomial_divides(r[1], he)]
        if not usable:
            return h
        g = min(usable, key=lambda r: r[2])
        h_ecart = max(sum(e) for e in h) - sum(he)
        if g[2] > h_ecart:
            allowed.append((h, he, h_ecart))
        budget.spend()
        h = _int_strip(
            _int_cut(_int_combine(h, h[he], g[0], g[0][g[1]], exp_sub(he, g[1])), corner)
        )
    return h


def _complete_records(ring_: Ring, basis: list, budget: _Budget) -> list:
    """Buchberger pair loop over reductor records, Mora normal forms.

    Pairs of single monomials are skipped: their s-polynomial is identically
    zero.  Every monomial deeper than the deepest staircase cell (the
    corner) lies in the leading ideal, so any polynomial supported past the
    corner lies in the ideal (corner theorem for local degree orders).  Hence
    a pair whose lcm lies past the corner is never formed, and since the heap
    pops lcms in increasing key order while the corner, refreshed whenever the
    basis grows, only moves shallower, the loop ends at the first lcm past it.
    """
    heap: list = []
    counter = itertools.count()

    def corner_key() -> tuple | None:
        stairs = _staircase(ring_.n, [r[1] for r in basis])
        return None if stairs is None else local_key(stairs[1])

    def past(key: tuple) -> bool:
        return corner is not None and key > corner

    def push_pairs(new_index: int):
        g = basis[new_index]
        for i in range(new_index):
            if len(g[0]) == 1 and len(basis[i][0]) == 1:
                continue
            key = local_key(exp_lcm(basis[i][1], g[1]))
            if not past(key):
                heapq.heappush(heap, (key, next(counter), i, new_index))

    corner = corner_key()
    for j in range(1, len(basis)):
        push_pairs(j)

    while heap:
        key, _, i, j = heapq.heappop(heap)
        if past(key):
            break
        budget.spend()
        h = _mora_nf(_int_spoly(basis[i], basis[j]), basis, budget, corner)
        if h:
            basis.append(_int_record(h))
            push_pairs(len(basis) - 1)
            corner = corner_key()
    return basis


def _staircase_of(ideal: LocalIdeal, extra: list, budget: _Budget) -> tuple | None:
    """`_staircase` of a standard basis of I plus the ``extra`` records."""
    records = [_int_record(_int_from_poly(g)) for g in ideal.gens] + extra
    records = _complete_records(ideal.ring, records, budget)
    return _staircase(ideal.ring.n, [r[1] for r in records])


def _colength_bounded(ideal: LocalIdeal, bound: int, budget: _Budget) -> int | None:
    """Colength via a standard basis of I + m^bound, or None if uncertified.

    Two variables.  The staircase of I + m^bound is the staircase of I cut at
    degree < bound.  A staircase cell of degree d forces divisor cells at every
    degree below d, so if no cell reaches degree bound - 1 the cut changed
    nothing and the count is the colength of I itself.
    """
    power = [({(bound - k, k): 1}, (bound - k, k), 0) for k in range(bound + 1)]
    count, deepest = _staircase_of(ideal, power, budget)
    return None if sum(deepest) >= bound - 1 else count


_BOUND_CAP = 256


def colength(ideal: LocalIdeal) -> int | float:
    """dim_Q O_n / I as a local ring quotient; inf for non-isolated ideals.

    In two variables the staircase is computed through certified truncations
    I + m^b with doubling b, which keeps every intermediate polynomial degree
    bounded.  An ideal of infinite colength never certifies; once the
    truncations at b = 8 and b = 16 have both failed, a common factor of the
    generators through the origin (their gcd) decides infinitude exactly.  In
    three or more variables the staircase of a standard basis of I itself is
    read.  One budget of `Limits.max_reduction_steps` covers the whole call.
    """
    if ideal.ring.n == 1:
        return int(min(g.order() for g in ideal.gens))
    budget = _Budget(get_limits().max_reduction_steps)
    if ideal.ring.n == 2:
        bound = 8
        while bound <= _BOUND_CAP:
            value = _colength_bounded(ideal, bound, budget)
            if value is not None:
                return value
            if bound == 16 and not coprime_at_origin(*ideal.gens):
                return INFINITY
            bound *= 2
        raise ResourceLimitError(
            f"staircase does not close below degree {_BOUND_CAP}"
        )
    stairs = _staircase_of(ideal, [], budget)
    return INFINITY if stairs is None else stairs[0]


# -- independent truncated linear-algebra route ------------------------------


def _monomials_below(ring_: Ring, bound: int) -> list[Exp]:
    """All exponents of total degree < bound, sorted by the local order."""
    out: list[Exp] = []

    def rec(prefix: list[int], remaining: int, pos: int):
        if pos == ring_.n - 1:
            for k in range(remaining + 1):
                out.append(tuple(prefix + [k]))
            return
        for k in range(remaining + 1):
            rec(prefix + [k], remaining - k, pos + 1)

    rec([], bound - 1, 0)
    out.sort(key=local_key)
    return out


def _content_free(row: dict[int, int]) -> dict[int, int]:
    # reduce, not gcd(*values): its argument tuples fill the tuple free lists.
    g = functools.reduce(math.gcd, row.values(), 0)
    return row if g == 1 else {c: v // g for c, v in row.items()}


def _integer_terms(g: MPoly) -> list[tuple[Exp, int]]:
    """The terms of g times the lcm of its denominators: the same ideal over Z."""
    den = functools.reduce(math.lcm, (c.denominator for _, c in g.terms()), 1)
    return [(e, c.numerator * (den // c.denominator)) for e, c in g.terms()]


def _pivot_columns(ideal: LocalIdeal, monomials: list[Exp], bound: int) -> set[int]:
    """Pivot columns of the echelon form of the truncated generator multiples.

    Columns follow `monomials` (ascending degree); a row's pivot is its lowest
    column, and rows are reduced over Z by cross-multiplication with the pivot
    row's leading coefficient, then divided by their content.
    """
    col = {e: i for i, e in enumerate(monomials)}
    pivots: dict[int, dict[int, int]] = {}
    for g in ideal.gens:
        terms = _integer_terms(g)
        g_ord = g.order()
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
                row = {c: v * mr for c, v in row.items()} if mr != 1 else row
                for c, v in pivot.items():
                    nv = row.get(c, 0) - v * mp
                    if nv:
                        row[c] = nv
                    else:
                        row.pop(c, None)
                row = _content_free(row)
    return set(pivots)


def colength_oracle(ideal: LocalIdeal, bound: int) -> int | None:
    """Truncated-dimension route to the colength.

    d(b) = dim O_n/(I + m^b) is the number of monomials of degree < b that
    are not pivots.  Returns d(bound) when it equals d(bound-1), i.e.
    when every monomial of degree bound-1 is a pivot (which certifies it
    equals the colength), and None when the staircase does not fit under the
    bound.  Shares no code with the standard-basis route.
    """
    if bound < 2:
        raise ValueError("bound must be at least 2")
    monomials = _monomials_below(ideal.ring, bound)
    pivots = _pivot_columns(ideal, monomials, bound)
    if all(i in pivots for i, e in enumerate(monomials) if sum(e) == bound - 1):
        return len(monomials) - len(pivots)
    return None


def colength_oracle_auto(ideal: LocalIdeal, start: int = 4, cap: int = 64) -> int:
    """Raise the oracle bound until the dimension stabilizes."""
    bound = max(start, 2)
    while bound <= cap:
        value = colength_oracle(ideal, bound)
        if value is not None:
            return value
        bound += 2
    raise ResourceLimitError(f"colength oracle did not stabilize below bound {cap}")


# -- minors -------------------------------------------------------------------


def _det(matrix: list[list[MPoly]], ring_: Ring) -> MPoly:
    k = len(matrix)
    if k == 1:
        return matrix[0][0]
    total = ring_.zero()
    for j in range(k):
        entry = matrix[0][j]
        if entry.is_zero:
            continue
        sub = [row[:j] + row[j + 1 :] for row in matrix[1:]]
        cofactor = _det(sub, ring_)
        term = entry * cofactor
        total = total + (term if j % 2 == 0 else -term)
    return total


def minors(rows: Sequence[Sequence[MPoly]], k: int) -> list[MPoly]:
    """All k x k minors of the matrix, in sorted row/column-subset order."""
    if not rows:
        raise ValueError("empty matrix")
    ring_ = rows[0][0].ring
    n_rows = len(rows)
    n_cols = len(rows[0])
    for row in rows:
        if len(row) != n_cols:
            raise ValueError("ragged matrix")
    if k < 1 or k > n_rows or k > n_cols:
        raise ValueError(f"cannot take {k}x{k} minors of a {n_rows}x{n_cols} matrix")
    out = []
    for ris in itertools.combinations(range(n_rows), k):
        for cis in itertools.combinations(range(n_cols), k):
            sub = [[rows[r][c] for c in cis] for r in ris]
            out.append(_det(sub, ring_))
    return out
