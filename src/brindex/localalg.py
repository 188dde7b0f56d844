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

The reduction core works on the packed exponents that `MPoly` stores (the
layout, `poly._Packer`, is described in the ``poly`` module docstring):
integer order is the local order, a monomial product is one addition and a
quotient one subtraction, divisibility is the guard-bit test, and the lcm
takes each field from the operand whose guard survives (a | G) - b.  The
generators' terms are read as stored, and exponents are unpacked only for
`_staircase`.  A degree of 2^(F-1) or more does not fit: `colength` then
raises ResourceLimitError rather than return a value.

In two variables `colength` reads the staircase of I + m^b for b = 8, 16, 32,
... up to `_BOUND_CAP`, so no kept term reaches degree b.  The exponents of
m^b reach `_staircase` only as a cap, never as records: the capped corner has
degree < b, so a pair with an m^b monomial would lie past it and a term of
degree >= b is cut before any reductor is chosen.

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
The oracle codes monomials as integers of its own, whose order is the local
order, so a row is built by adding codes; a row's content is divided out only
when the row is stored as a pivot.  A row m * g_i is not built when m is
already a pivot of the rows of earlier generators (the F5 criterion; the span
argument is at `_pivot_columns`).  The start bound of `colength_oracle_auto`
sets only where its search begins, never the value it returns.
"""

from __future__ import annotations

import functools
import heapq
import itertools
import math
from dataclasses import dataclass
from typing import Iterable, Sequence

from .config import get_limits
from .elim import coprime_at_origin
from .errors import ResourceLimitError
from .poly import Exp, MPoly, Ring, _Packer, _packer, local_key

INFINITY = math.inf


class Colength(int):
    """A finite colength that also carries ``depth``, the degree of the
    deepest cell of its certified staircase (0 when the staircase is empty).

    It is an int, so every caller that reads a number keeps reading one; the
    depth goes wherever the value is stored, and arithmetic drops it.
    """

    def __new__(cls, count: int, depth: int):
        self = super().__new__(cls, count)
        self.depth = depth
        return self


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
# Working polynomials are plain dict[packed exponent, int] with content 1 and
# positive leading coefficient.  Reduction steps are pseudo-reductions
# (cross-multiply by leading coefficients, then strip the content), so no
# Fraction arithmetic happens at all: the colength needs only the leading
# exponents.  Reductors are carried as (terms, leading exponent, ecart) records.
# The generators' exponents fit the layout since their MPoly was built; the
# degree check runs wherever a record could outgrow it: on each s-polynomial
# and on each reduction step.


def _int_strip(d: dict) -> dict:
    if not d:
        return d
    g = 0
    for c in d.values():
        g = math.gcd(g, c)
    if d[min(d)] < 0:
        g = -g
    if g != 1:
        return {e: c // g for e, c in d.items()}
    return d


def _int_from_poly(f: MPoly) -> dict:
    terms, _ = f._integer_packed()
    return _int_strip(dict(terms))


def _int_record(d: dict, packer: _Packer) -> tuple:
    lt = min(d)
    return (d, lt, (max(d) >> packer.shift) - (lt >> packer.shift))


def _int_combine(h: dict, ch: int, g: dict, cg: int, shift: int) -> dict:
    """cg/k * h - ch/k * x^shift * g with k = gcd; leading terms must cancel."""
    k = math.gcd(ch, cg)
    mh, mg = cg // k, ch // k
    out = dict(h) if mh == 1 else {e: c * mh for e, c in h.items()}
    for e, c in g.items():
        ne = e + shift
        v = out.get(ne, 0) - c * mg
        if v:
            out[ne] = v
        elif ne in out:
            del out[ne]
    return out


def _int_spoly(f_rec: tuple, g_rec: tuple, lcm: int, packer: _Packer) -> dict:
    ft, fe, f_ecart = f_rec
    gt, ge, g_ecart = g_rec
    packer.check(lcm + (max(f_ecart, g_ecart) << packer.shift))
    f_shift = lcm - fe
    shifted = {e + f_shift: c for e, c in ft.items()}
    return _int_combine(shifted, shifted[lcm], gt, gt[ge], lcm - ge)


def _staircase(n: int, exps: Sequence[Exp]) -> tuple[int, Exp] | None:
    """(cell count, deepest cell under local_key) of the staircase of ``exps``
    in n >= 2 variables.

    Cells are the monomials no exponent divides (an empty staircase reports
    the origin); None when some variable has no pure power.  Two variables:
    one pass over the minimal exponents by x-exponent, column heights b_i on
    a_i <= x < a_{i+1}, deepest cell at an inner corner.  Otherwise recurse on
    the slices of the last variable.
    """
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


def _int_cut(d: dict, corner: int | None) -> dict:
    """Discard the terms deeper than the staircase corner; they lie in the ideal."""
    if corner is None or not d:
        return d
    kept = {e: c for e, c in d.items() if e <= corner}
    return kept if len(kept) != len(d) else d


def _mora_nf(
    f: dict,
    reductors: Sequence[tuple],
    budget: _Budget,
    packer: _Packer,
    corner: int | None = None,
) -> dict:
    """Mora weak normal form of f against the list of reductor records."""
    guards, shift = packer.guards, packer.shift
    h = _int_strip(_int_cut(f, corner))
    allowed = list(reductors)
    while h:
        he = min(h)
        he_guarded = he | guards
        usable = [r for r in allowed if (he_guarded - r[1]) & guards == guards]
        if not usable:
            return h
        g = min(usable, key=lambda r: r[2])
        h_ecart = (max(h) >> shift) - (he >> shift)
        if g[2] > h_ecart:
            allowed.append((h, he, h_ecart))
        budget.spend()
        packer.check(he + (g[2] << shift))  # the top degree of x^shift * g
        h = _int_strip(
            _int_cut(_int_combine(h, h[he], g[0], g[0][g[1]], he - g[1]), corner)
        )
    return h


def _staircase_of(
    packer: _Packer, records: list, budget: _Budget, cap: Sequence[Exp] = ()
) -> tuple | None:
    """`_staircase` of a standard basis of the ideal of the records and the cap.

    Buchberger pair loop over reductor records, Mora normal forms.  Pairs of
    single monomials are skipped: their s-polynomial is identically zero.
    Every monomial deeper than the deepest staircase cell (the corner) lies in
    the leading ideal, so any polynomial supported past the corner lies in the
    ideal (corner theorem for local degree orders).  Hence a pair whose lcm
    lies past the corner is never formed, and since the heap pops lcms in
    increasing order while the corner, refreshed whenever the basis grows,
    only moves shallower, the loop ends at the first lcm past it.

    ``cap`` holds exponents of monomials past the corner of the capped
    staircase (those of m^b): they join the leads `_staircase` reads, nothing
    else, as their pairs and reductions would all be cut at the corner.
    """
    basis = list(records)
    leads = [packer.unpack(r[1]) for r in basis] + list(cap)
    heap: list = []
    counter = itertools.count()

    def past(lcm: int) -> bool:
        return corner is not None and lcm > corner

    def push_pairs(new_index: int):
        g = basis[new_index]
        for i in range(new_index):
            if len(g[0]) == 1 and len(basis[i][0]) == 1:
                continue
            lcm = packer.lcm(basis[i][1], g[1])
            if not past(lcm):
                heapq.heappush(heap, (lcm, next(counter), i, new_index))

    stairs = _staircase(packer.n, leads)
    corner = None if stairs is None else packer.pack(stairs[1])
    for j in range(1, len(basis)):
        push_pairs(j)

    while heap:
        lcm, _, i, j = heapq.heappop(heap)
        if past(lcm):
            break
        budget.spend()
        s = _int_spoly(basis[i], basis[j], lcm, packer)
        h = _mora_nf(s, basis, budget, packer, corner)
        if h:
            basis.append(_int_record(h, packer))
            leads.append(packer.unpack(basis[-1][1]))
            push_pairs(len(basis) - 1)
            stairs = _staircase(packer.n, leads)
            corner = None if stairs is None else packer.pack(stairs[1])
    return stairs


_BOUND_CAP = 256


def colength(ideal: LocalIdeal) -> int | float:
    """dim_Q O_n / I as a local ring quotient; inf for non-isolated ideals.

    A finite value is a `Colength`, which also gives the degree of the deepest
    cell of the staircase it was read from.

    In two variables the staircase of I + m^b is read for doubling b.  A cell
    of degree d forces divisor cells at every degree below d, so when no cell
    reaches degree b - 1 the cut changed nothing and the count is the
    colength of I.  An ideal of infinite colength never certifies; once b = 8
    and b = 16 have both failed, a common factor of the generators through the
    origin (their gcd) decides infinitude exactly.  In three or more variables
    the staircase of a standard basis of I itself is read.  One budget of
    `Limits.max_reduction_steps` covers the whole call.
    """
    if ideal.ring.n == 1:
        count = int(min(g.order() for g in ideal.gens))
        return Colength(count, max(count - 1, 0))
    budget = _Budget(get_limits().max_reduction_steps)
    packer = _packer(ideal.ring.n)
    gens = [_int_record(_int_from_poly(g), packer) for g in ideal.gens]
    if ideal.ring.n == 2:
        bound = 8
        while bound <= _BOUND_CAP:
            cap = [(bound - k, k) for k in range(bound + 1)]
            count, deepest = _staircase_of(packer, gens, budget, cap)
            if sum(deepest) < bound - 1:
                return Colength(count, sum(deepest))
            if bound == 16 and not coprime_at_origin(*ideal.gens):
                return INFINITY
            bound *= 2
        raise ResourceLimitError(
            f"staircase does not close below degree {_BOUND_CAP}"
        )
    stairs = _staircase_of(packer, gens, budget)
    return INFINITY if stairs is None else Colength(stairs[0], sum(stairs[1]))


# -- independent truncated linear-algebra route ------------------------------
# The oracle codes a monomial of degree < b as one integer of its own: the
# degree in the top field, then the exponents from the last variable to the
# first, each field `_field_width(b)` bits wide.  Integer order is then the
# local order and a product is one addition.  Generator terms of degree >= b
# are dropped before coding, so every field of a coded term or multiplier is
# below b, a sum of two fields stays below 2^width, and no field carries.


def _field_width(bound: int) -> int:
    """Bits per field of the oracle's code below degree ``bound``."""
    return bound.bit_length() + 1


def _encode(e: Exp, width: int) -> int:
    code = sum(e)
    for k in reversed(e):
        code = code << width | k
    return code


def _monomials_below(n: int, bound: int, width: int) -> list[int]:
    """Codes of all monomials of degree < bound, in ascending order."""
    out: list[int] = []

    def rec(code: int, remaining: int, var: int):
        if var == 0:
            out.append(code + remaining)
            return
        for k in range(remaining + 1):
            rec(code + (k << var * width), remaining - k, var - 1)

    for degree in range(bound):
        rec(degree << n * width, degree, n - 1)
    return out


def _content_free(row: dict[int, int]) -> dict[int, int]:
    # reduce, not gcd(*values): its argument tuples fill the tuple free lists.
    g = functools.reduce(math.gcd, row.values(), 0)
    return row if g == 1 else {c: v // g for c, v in row.items()}


def _integer_terms(g: MPoly) -> list[tuple[Exp, int]]:
    """The terms of g times the lcm of its denominators: the same ideal over Z.

    The oracle keeps this copy of ``MPoly.integer_terms`` because it shares no
    code with the standard-basis route it checks.
    """
    terms = list(g.terms())
    den = functools.reduce(math.lcm, (c.denominator for _, c in terms), 1)
    return [(e, c.numerator * (den // c.denominator)) for e, c in terms]


def _pivot_columns(n: int, gens: list[list[tuple[Exp, int]]], bound: int) -> set[int]:
    """Pivot columns, as codes, of the echelon form of the generator multiples
    truncated below degree ``bound``.

    ``gens`` holds the `_integer_terms` of each generator.  Columns ascend in
    code order; a row's pivot is its lowest column, and rows are reduced over
    Z by cross-multiplication with the pivot row's leading coefficient.  The
    content is divided out only when a row is stored as a pivot: scaling a
    row moves neither its support nor its lowest column.

    The row m * g_i is skipped when m is a pivot of the rows of g_1 ... g_(i-1)
    (F5 criterion, Macaulay-matrix form).  Such a pivot leads some row r of
    their span, r = m + later columns, and r * g_i lies in that span too, so
    m * g_i is r * g_i minus rows m' * g_i with m' > m: the row adds nothing
    to the span, and the pivot set, which the span alone fixes, is the same.
    """
    width = _field_width(bound)
    limit = bound << n * width
    monomials = _monomials_below(n, bound, width)
    pivots: dict[int, dict[int, int]] = {}
    for terms in gens:
        coded = [(_encode(e, width), c) for e, c in terms if sum(e) < bound]
        low = min((e for e, _ in coded), default=limit)
        earlier = set(pivots)
        for m in monomials:
            if low + m >= limit:
                break
            if m in earlier:
                continue
            row = {e + m: c for e, c in coded if e + m < limit}
            while row:
                lead = min(row)
                pivot = pivots.get(lead)
                if pivot is None:
                    pivots[lead] = _content_free(row)
                    break
                k = math.gcd(row[lead], pivot[lead])
                mr, mp = pivot[lead] // k, row[lead] // k
                if mr != 1:
                    row = {c: v * mr for c, v in row.items()}
                for c, v in pivot.items():
                    nv = row.get(c, 0) - v * mp
                    if nv:
                        row[c] = nv
                    else:
                        del row[c]
    return set(pivots)


def _oracle_at(n: int, gens: list, bound: int) -> int | None:
    """`colength_oracle` on the `_integer_terms` of the generators."""
    pivots = _pivot_columns(n, gens, bound)
    top = (bound - 1) << n * _field_width(bound)
    if sum(p >= top for p in pivots) == math.comb(n + bound - 2, n - 1):
        return math.comb(n + bound - 1, n) - len(pivots)
    return None


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
    return _oracle_at(ideal.ring.n, [_integer_terms(g) for g in ideal.gens], bound)


def colength_oracle_auto(ideal: LocalIdeal, start: int = 4, cap: int = 64) -> int:
    """Raise the oracle bound by 2 from ``start`` until the dimension
    stabilizes, at most to ``cap``.

    Bound b certifies exactly when no staircase cell has degree b - 1 or
    more, and each bound that certifies gives the colength, so ``start`` sets
    only where the search begins: the staircase's depth + 2 makes the search
    one elimination, and a wrong start costs time, never a different value.
    """
    gens = [_integer_terms(g) for g in ideal.gens]
    bound = max(start, 2)
    while bound <= cap:
        value = _oracle_at(ideal.ring.n, gens, bound)
        if value is not None:
            return value
        bound += 2
    raise ResourceLimitError(f"colength oracle did not stabilize below bound {cap}")

