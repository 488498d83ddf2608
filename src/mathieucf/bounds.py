"""Classical two-sided bounds for S(r), continued-fraction refinements,
and the crossover radii where the refinements overtake the classical forms.

All bounds share the shape 1/(r^2 + c): larger c, smaller bound.  The
classical constants are c = 1/2 (lower) and c = 1/6 (upper, sharp as
r -> infinity); the sharp lower constant is c = 1/(2*zeta(3)), attained as
r -> 0.  A separate upper bound from term-by-term monotonicity is
1/(r^2 + 1/4) for r <= sqrt(3)/2 and 1/(sqrt(1+4r^2) - 1) beyond.

Truncating the continued-fraction representation after finitely many terms
gives closed-form rational bounds in r^2 that beat the classical constants
on a middle range of r; ``crossover_analysis`` locates the endpoints of
that range by bisection.
"""

from __future__ import annotations

import math
from typing import Callable, Optional, Tuple

from .oracles import ZETA3
from .series import _Record, _require_positive_r, _set, mathieu_theorem1

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


def makai_bounds(r: float) -> BoundResult:
    """1/(r^2 + 1/2) < S(r) < 1/(r^2 + 1/6)."""
    _require_positive_r(r)
    rr = r * r
    return BoundResult("makai", 1 / (rr + 0.5), 1 / (rr + 1 / 6))


def alzer_bounds(r: float) -> BoundResult:
    """1/(r^2 + 1/(2 zeta(3))) < S(r) < 1/(r^2 + 1/6).

    Both constants are sharp: the lower as r -> 0 (where S(0) = 2 zeta(3)),
    the upper as r -> infinity.
    """
    _require_positive_r(r)
    rr = r * r
    return BoundResult("alzer", 1 / (rr + 1 / (2 * ZETA3)), 1 / (rr + 1 / 6))


def mp_upper(r: float) -> BoundResult:
    """Upper bound from term-by-term monotonicity, piecewise in r.

    1/(r^2 + 1/4) for r <= sqrt(3)/2, else 1/(sqrt(1+4r^2) - 1); the two
    branches agree at the break.  No lower companion.
    """
    _require_positive_r(r)
    if r <= math.sqrt(3) / 2:
        value = 1 / (r * r + 0.25)
    else:
        value = 1 / (math.sqrt(1 + 4 * r * r) - 1)
    return BoundResult("mp", None, value)


def cf_bounds(r: float, k: int, l: int) -> BoundResult:
    """Certified bounds from l bracketing pairs of the tail fraction at x = k:

        head(k) + f_{2l}  <  S(r)  <  head(k) + f_{2l-1},

    where f_n is the n-th approximant of the tail fraction (even index
    below, odd above; valid since z = k^2 - k >= 0): ``mathieu_theorem1``
    with 2l terms.
    """
    if l < 1:
        raise ValueError(f"l must be a positive integer; got {l}")
    enclosure = mathieu_theorem1(r, k, 2 * l)
    return BoundResult(f"cf(k={k},l={l})", enclosure.lower, enclosure.upper)


def closed_form_bounds(r: float, k: int) -> BoundResult:
    """The l = 1 fraction bounds at k in {2, 3}, written out in r^2:

        k=2:  2/(1+r^2)^2 + 1/(r^2 + 5/2)  <  S(r)  <  2/(1+r^2)^2 + 1/(r^2 + 2)
        k=3:  ... + 4/(4+r^2)^2 + 1/(r^2 + 13/2)  <  S(r)  <  ... + 1/(r^2 + 6)

    (the first approximant of the tail at x = k is 1/(r^2 + k^2 - k), the
    second adds 1/2 to the denominator).  Their agreement with
    ``cf_bounds(r, k, 1)`` is pinned by ``test_closed_forms_match_fraction_bounds``
    in tests/test_bounds.py.
    """
    _require_positive_r(r)
    rr = r * r
    if k == 2:
        head = 2 / (1 + rr) ** 2
        return BoundResult("closed_form(2)", head + 1 / (rr + 2.5), head + 1 / (rr + 2.0))
    if k == 3:
        head = 2 / (1 + rr) ** 2 + 4 / (4 + rr) ** 2
        return BoundResult("closed_form(3)", head + 1 / (rr + 6.5), head + 1 / (rr + 6.0))
    raise ValueError(f"closed forms are available for k in {{2, 3}}; got {k}")


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

    def __init__(self, upper_crossover: float, lower_interval: Tuple[float, float],
                 alzer_upper_crossover: float, bisection_tol: float):
        _set(self, "upper_crossover", upper_crossover)
        _set(self, "lower_interval", lower_interval)
        _set(self, "alzer_upper_crossover", alzer_upper_crossover)
        _set(self, "bisection_tol", bisection_tol)


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
