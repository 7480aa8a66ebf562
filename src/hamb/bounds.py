"""Upper bounds on Hamiltonian cycle counts, with sound upward rounding.

Three bounds are computed from out-degrees r_i:

* minc:       prod (r_i + 1) / 2            (permanent bound, exact rational)
* bregman:    prod (r_i!)^(1/r_i)           (permanent bound, log space)
* symmetric:  prod r_i / 2^(n-1)            (cycle bound for symmetric
                                             digraphs with n >= 3, exact)

The symmetric bound never exceeds the minc bound; against bregman it wins in
a region mapped empirically (see ``dominance_compare`` and the CLI sweep).
For an undirected graph the directed bounds of its doubled image halve, which
gives (1/2^(n+1)) prod (d_i+1), (1/2^n) prod d_i, and (1/2) prod (d_i!)^(1/d_i).

Rational bounds are exact; only bregman needs floats, kept as a natural-log
upper value where every term is rounded up by a relative guard of 1e-13 (well
under the documented 1e-12 budget), so exp(log_upper) >= the true bound.
``Fraction`` loads only where a rational is built, so the Bregman cap that
bounds an exact permanent loads neither ``fractions`` nor ``decimal``.
"""
from __future__ import annotations

import math
from typing import TYPE_CHECKING, NamedTuple, Sequence

from .graphs import DiGraph, UndiGraph, check_integer, is_symmetric, row_sums

if TYPE_CHECKING:
    from fractions import Fraction

_REL_GUARD = 1e-13
_EXP_OVERFLOW_LOG = 700.0


def _up(x: float) -> float:
    """Round a log-space value upward by the documented relative guard."""
    return x + (abs(x) + 1.0) * _REL_GUARD


def _log_up_fraction(q: Fraction) -> float:
    if q == 0:
        return float("-inf")
    return _up(math.log(q.numerator) - math.log(q.denominator))


def _cap_from_log(log_upper: float) -> int | None:
    if log_upper == float("-inf"):
        return 0
    if log_upper > _EXP_OVERFLOW_LOG:
        return None
    return math.floor(math.exp(log_upper) * (1.0 + 1e-12))


class BoundValue(NamedTuple):
    """One bound: optional exact rational, upward-rounded natural log, and an
    integer cap valid for any count the bound dominates."""

    exact: Fraction | None
    log_upper: float
    integer_cap: int | None


class BoundReport(NamedTuple):
    """The applicable bounds for one graph; ``symmetric`` is present only for
    symmetric digraphs with n >= 3 (always, for undirected reports)."""

    minc: BoundValue
    bregman: BoundValue
    symmetric: BoundValue | None
    applicable_minimum: str


class DominanceRecord(NamedTuple):
    """Bound values for one degree sequence plus dominance flags."""

    symmetric: BoundValue
    minc: BoundValue
    bregman: BoundValue
    new_le_minc: bool
    new_le_bregman: bool


def _check_degrees(r: Sequence[int]) -> tuple[int, ...]:
    vals = tuple(check_integer(x, "degree") for x in r)
    if not vals:
        raise ValueError("degree sequence must be non-empty")
    return vals


def _exact_bound(q: Fraction) -> BoundValue:
    return BoundValue(exact=q, log_upper=_log_up_fraction(q), integer_cap=math.floor(q))


def minc_bound(r: Sequence[int]) -> BoundValue:
    """Permanent bound prod (r_i + 1) / 2, exact."""
    from fractions import Fraction

    vals = _check_degrees(r)
    return _exact_bound(Fraction(math.prod(x + 1 for x in vals), 2 ** len(vals)))


def _bregman_term(x: int) -> float:
    """log (x!)^(1/x), one row's factor of the Bregman bound (x >= 1)."""
    return math.log(math.factorial(x)) / x


def _bregman_value(vals: Sequence[int], log_upper: float) -> BoundValue:
    """Add every non-zero row's upward-rounded term to ``log_upper``, in row
    order; a zero row pins the integer cap to 0."""
    for x in vals:
        if x > 0:
            log_upper += _up(_bregman_term(x))
    cap = 0 if 0 in vals else _cap_from_log(log_upper)
    return BoundValue(exact=None, log_upper=log_upper, integer_cap=cap)


def bregman_bound(r: Sequence[int]) -> BoundValue:
    """Permanent bound prod (r_i!)^(1/r_i), as an upward-rounded log.

    A zero row forces the permanent to zero, so such rows pin the integer cap
    to 0 and are omitted from the log (their factor is conventionally 1).
    """
    return _bregman_value(_check_degrees(r), 0.0)


def symmetric_product_value(r: Sequence[int]) -> Fraction:
    """The raw value prod r_i / 2^(n-1) for a degree sequence."""
    from fractions import Fraction

    vals = _check_degrees(r)
    return Fraction(math.prod(vals), 2 ** (len(vals) - 1))


def symmetric_bound(g: DiGraph) -> BoundValue:
    """Cycle bound prod r_i / 2^(n-1), exact; needs symmetry and n >= 3."""
    if g.n < 3:
        raise ValueError(f"the symmetric cycle bound needs n >= 3, got n={g.n}")
    if not is_symmetric(g):
        raise ValueError("the symmetric cycle bound requires a symmetric digraph")
    return _exact_bound(symmetric_product_value(row_sums(g)))


def _report(minc: BoundValue, bregman: BoundValue, symmetric: BoundValue | None) -> BoundReport:
    """Name the smallest applicable bound by log value; ties go to symmetric,
    then bregman."""
    candidates = [("symmetric", symmetric), ("bregman", bregman), ("minc", minc)]
    name = min((c for c in candidates if c[1] is not None), key=lambda c: c[1].log_upper)[0]
    return BoundReport(minc=minc, bregman=bregman, symmetric=symmetric, applicable_minimum=name)


def digraph_bounds(g: DiGraph) -> BoundReport:
    """Bound report for a digraph; the symmetric bound joins when it applies."""
    r = row_sums(g)
    symmetric = _exact_bound(symmetric_product_value(r)) if g.n >= 3 and is_symmetric(g) else None
    return _report(minc_bound(r), bregman_bound(r), symmetric)


def undirected_bounds(g: UndiGraph) -> BoundReport:
    """The three undirected bounds, each half of the doubled image's bound.

    Slots keep the name of the directed bound they derive from: minc holds
    (1/2^(n+1)) prod (d_i+1), symmetric holds (1/2^n) prod d_i, and bregman
    holds (1/2) prod (d_i!)^(1/d_i).  The rationals halve exactly; the bregman
    log starts from the rounded-up log 1/2, so it is not the image's
    ``log_upper`` plus that term (float addition is not associative).
    """
    if g.n < 3:
        raise ValueError(f"undirected bounds need n >= 3, got n={g.n}")
    d = row_sums(g)
    return _report(
        _exact_bound(minc_bound(d).exact / 2),
        _bregman_value(d, _up(-math.log(2.0))),
        _exact_bound(symmetric_product_value(d) / 2),
    )


def dominance_compare(r: Sequence[int]) -> DominanceRecord:
    """Evaluate all three bounds on a degree sequence and compare.

    ``new_le_minc`` is an exact rational comparison and holds for every
    sequence; ``new_le_bregman`` is a plain float log comparison reported as
    an observation, never asserted.
    """
    vals = _check_degrees(r)
    minc = minc_bound(vals)
    bregman = bregman_bound(vals)
    sym_q = symmetric_product_value(vals)
    symmetric = _exact_bound(sym_q)
    new_le_minc = sym_q <= minc.exact
    if sym_q == 0:
        new_le_bregman = True
    else:
        log_new = math.log(sym_q.numerator) - math.log(sym_q.denominator)
        log_breg = sum(_bregman_term(x) for x in vals if x > 0)
        new_le_bregman = log_new <= log_breg
    return DominanceRecord(
        symmetric=symmetric,
        minc=minc,
        bregman=bregman,
        new_le_minc=new_le_minc,
        new_le_bregman=new_le_bregman,
    )
