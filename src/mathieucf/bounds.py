"""Classical two-sided bounds for S(r), continued-fraction refinements,
and the crossover radii where the refinements overtake the classical forms.

All bounds share the shape 1/(r^2 + c): larger c, smaller bound.  The
classical constants are c = 1/2 (lower) and c = 1/6 (upper, sharp as
r -> infinity); the sharp lower constant is c = 1/(2*zeta(3)), attained as
r -> 0, with zeta(3) read from ``series``, the one module this one
imports.  A separate upper bound from term-by-term monotonicity is
1/(r^2 + 1/4) for r <= sqrt(3)/2 and 1/(sqrt(1+4r^2) - 1) beyond.  The
classical pairs and closed forms are rounded outward, as their ends are
sharp: to nearest, the classical upper misses S(r) from r of about 5.5e3.

Truncating the continued-fraction representation after finitely many terms
gives closed-form rational bounds in r^2 that beat the classical constants
on a middle range of r; ``crossover_analysis`` locates the endpoints of
that range by bisection.
"""

from __future__ import annotations

import math
from typing import Callable, Optional

from . import series
from .series import (_EPS, _TINY, ZETA3, _Record, _overflow, _require_positive_r, _set,
                     mathieu_partial_sum)

__all__ = [
    "BoundResult",
    "CrossoverReport",
    "makai_bounds",
    "alzer_bounds",
    "mp_upper",
    "cf_bounds",
    "closed_form_bounds",
    "crossover_analysis",
]


class BoundResult(_Record):
    """A named lower/upper pair for S(r); one side may be absent."""

    __slots__ = _fields = ("method", "lower", "upper")

    def __init__(self, method: str, lower: Optional[float], upper: Optional[float]):
        if lower is not None and upper is not None and not (lower <= upper):
            raise ValueError(f"{method}: lower={lower!r} exceeds upper={upper!r}")
        _set(self, "method", method)
        _set(self, "lower", lower)
        _set(self, "upper", upper)

    @property
    def width(self) -> float:
        if self.lower is None or self.upper is None:
            return math.inf
        return self.upper - self.lower


def _squared(r: float) -> float:
    """r^2 for a positive r, or a named OverflowError where it overflows
    float64: 1/(r^2 + c) would pass 0.0 off as an upper bound."""
    _require_positive_r(r)
    rr = r * r
    if rr == math.inf:
        raise _overflow(r, "r^2")
    return rr


def _reciprocal(rr: float, c: float, away: float) -> float:
    """1/(r^2 + c) from rr = r*r, rounded toward -away: rr, c and each rounded
    operation step one float that way (the standard model, ``cf`` docstring)."""
    d = math.nextafter(math.nextafter(rr, away) + math.nextafter(c, away), away)
    return math.nextafter(1 / d, -away)


def _classical(method: str, r: float, c: float) -> BoundResult:
    """1/(r^2 + c) < S(r) < 1/(r^2 + 1/6), each end rounded away from S(r).
    The float 1/(2 ZETA3) is 4.1e-18 below 1/(2 zeta(3)), within one step."""
    rr = _squared(r)
    return BoundResult(method, _reciprocal(rr, c, math.inf), _reciprocal(rr, 1 / 6, -math.inf))


def makai_bounds(r: float) -> BoundResult:
    """1/(r^2 + 1/2) < S(r) < 1/(r^2 + 1/6)."""
    return _classical("makai", r, 0.5)


def alzer_bounds(r: float) -> BoundResult:
    """1/(r^2 + 1/(2 zeta(3))) < S(r) < 1/(r^2 + 1/6).

    Both constants are sharp: the lower as r -> 0 (where S(0) = 2 zeta(3)),
    the upper as r -> infinity.
    """
    return _classical("alzer", r, 1 / (2 * ZETA3))


def mp_upper(r: float) -> BoundResult:
    """Upper bound from term-by-term monotonicity, piecewise in r.

    1/(r^2 + 1/4) for r <= sqrt(3)/2, else 1/(sqrt(1+4r^2) - 1); the two
    branches agree at the break.  No lower companion.
    """
    _require_positive_r(r)
    if r <= math.sqrt(3) / 2:
        value = 1 / (r * r + 0.25)
    else:
        rr4 = 4 * r * r
        if rr4 == math.inf:
            raise _overflow(r, "4r^2")
        value = 1 / (math.sqrt(1 + rr4) - 1)
    return BoundResult("mp", None, value)


def cf_bounds(r: float, k: int, l: int) -> BoundResult:
    """Certified bounds from l bracketing pairs of the tail fraction at x = k:

        head(k) + f_{2l}  <  S(r)  <  head(k) + f_{2l-1},

    where f_n is the n-th approximant of the tail fraction (even index
    below, odd above; valid since z = k^2 - k >= 0): ``theorem1_to_width``
    at width 0 and 2l terms, read from ``series`` at each call for tracers.
    """
    if l < 1:
        raise ValueError(f"l must be a positive integer; got {l}")
    enclosure = series.theorem1_to_width(r, k, 0.0, 2 * l)[0]
    return BoundResult(f"cf(k={k},l={l})", enclosure.lower, enclosure.upper)


def closed_form_bounds(r: float, k: int) -> BoundResult:
    """The l = 1 fraction bounds at k in {2, 3}, written out in r^2:

        k=2:  2/(1+r^2)^2 + 1/(r^2 + 5/2)  <  S(r)  <  2/(1+r^2)^2 + 1/(r^2 + 2)
        k=3:  ... + 4/(4+r^2)^2 + 1/(r^2 + 13/2)  <  S(r)  <  ... + 1/(r^2 + 6)

    (the head is ``mathieu_partial_sum(r, k)``; the first approximant of the
    tail at x = k is 1/(r^2 + z), z = k^2 - k, and the second adds 1/2 to
    the denominator), each end rounded away from S(r).  Their agreement with
    ``cf_bounds(r, k, 1)`` is pinned in tests/test_bounds.py.
    """
    rr = _squared(r)
    if k not in (2, 3):
        raise ValueError(f"closed forms are available for k in {{2, 3}}; got {k}")
    head, z = mathieu_partial_sum(r, k), k * k - k
    # A head of at most two terms is within 7.03 eps head + 2^-1073 of its exact
    # sum (``cf`` docstring, "The direct route's rounding", (b)): slack covers
    # that and the rounding of head -+ slack; each sum then steps one float out.
    slack = 9 * head * _EPS + 3 * _TINY
    lower = head - slack + _reciprocal(rr, z + 0.5, math.inf)
    upper = head + slack + _reciprocal(rr, z, -math.inf)
    return BoundResult(f"closed_form({k})", math.nextafter(lower, -math.inf),
                       math.nextafter(upper, math.inf))


def _bisect(f: Callable[[float], float], lo: float, hi: float, tol: float) -> float:
    flo, fhi = f(lo), f(hi)
    if flo == 0:
        return lo
    if fhi == 0:
        return hi
    if (flo < 0) == (fhi < 0):
        raise RuntimeError(f"no sign change on [{lo}, {hi}]: f(lo)={flo!r}, f(hi)={fhi!r}")
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        fmid = f(mid)
        if fmid == 0:
            return mid
        if (fmid < 0) == (flo < 0):
            lo, flo = mid, fmid
        else:
            hi = mid
    return 0.5 * (lo + hi)


class CrossoverReport(_Record):
    """Radii where the k = 2 closed-form bounds overtake the classical ones.

    ``upper_crossover``: below this r the closed-form upper is tighter;
    above it the monotonicity upper (1/(r^2+1/4), then 1/(sqrt(1+4r^2)-1))
    wins (exact radius sqrt(sqrt(7) - 2) = 0.8035865...).

    ``lower_interval``: inside (low, high) the closed-form lower beats the
    sharp-constant lower 1/(r^2 + 1/(2 zeta(3))); outside it loses.

    ``alzer_upper_crossover``: where the closed-form upper meets the shared
    classical upper 1/(r^2 + 1/6) (exact radius sqrt(sqrt(11) - 2)); a
    secondary diagnostic on the same family.
    """

    __slots__ = _fields = (
        "upper_crossover", "lower_interval", "alzer_upper_crossover", "bisection_tol"
    )


def crossover_analysis(tol: float = 1e-9) -> CrossoverReport:
    """Locate the crossover radii by bisection to within ``tol``."""
    if not (0 < tol < 0.1):
        raise ValueError(f"tol must be in (0, 0.1); got {tol!r}")

    def upper_gap(r: float) -> float:
        return closed_form_bounds(r, 2).upper - mp_upper(r).upper

    def lower_gap(r: float) -> float:
        return closed_form_bounds(r, 2).lower - alzer_bounds(r).lower

    def alzer_upper_gap(r: float) -> float:
        return closed_form_bounds(r, 2).upper - alzer_bounds(r).upper

    upper = _bisect(upper_gap, 0.1, math.sqrt(3) / 2, tol)
    low = _bisect(lower_gap, 0.01, 0.5, tol)
    high = _bisect(lower_gap, 0.5, 25.0, tol)
    alzer_upper = _bisect(alzer_upper_gap, 0.5, 3.0, tol)
    return CrossoverReport(upper, (low, high), alzer_upper, tol)
