"""The tail interval of T(r, 1): float arithmetic for ``series.tail_enclosure``
at z = 0, which holds the plan of when it serves and at what level.

At x = 1 the fraction's even/odd bracket narrows only like 1/n.  The tail
interval is S_N(V_N): the contracted fraction (``cf.kappa_lambda_form``) at
level N with its tail in V_N = [L_N + c_N, L_N + c_N + 2h_N], where c_N =
7/16 + (8 rho^2 + 8 rho + 3)/(16(2N - 1)) - (rho + 1)^4/(12N^2(2N - 3))
and h_N = (rho + 1)^4 (rho^2 + 4 rho + 8)/(96N^5) for rho = r^2, which put
the set's ends h_N either side of the tail's asymptotic offset to fifth
order, evaluated with its roundings directed outward: the start and level
0 step each rounding one float outward, and each level above rounds to
nearest, 10 float operations for both ends, against g_j (1 +- 2^-53)^6
rounded outward.  S_N(V_N) is about W(rho) N^-8 wide, with W(rho) =
(rho + 1)^4 (rho^2 + 4 rho + 8)/48 D(r) and D(r) = 2 (pi r)^3 cosh(pi
r)/sinh(pi r)^3: a law measured, not proven (the recipe is in
``_search``), which only picks N.  The search passes first at max(N_0,
the level that law predicts for the width), and again only where a pass
falls short.  The proof that V_N holds the tail from N_0(rho) on, and
the rounding argument, are in the ``cf`` module docstring.  A pass reads
each level's constants, which do not depend on rho, from one table
(``_levels_down``).  The module imports nothing from the package;
``tail_enclosure`` loads it on its first z = 0 call with a width, so an
eval at k >= 2 never compiles it.
"""

from __future__ import annotations

import math
from itertools import chain
from math import inf, nextafter
from typing import Iterator

# Only where N_0 exceeds this level does a walk run first (the plan is in
# ``series.tail_enclosure``).
PROBE_LEVEL = 32
# The highest level of a pass: the rounding argument for ``bounds_at`` (``cf``
# docstring) holds only below 2^23.
MAX_LEVEL = (1 << 23) - 1


# For a float x >= 2^-1021, x * _DOWN is the float below x and x / _DOWN the
# float above it (the lemma is in the ``cf`` module docstring).
_DOWN = 1 - 2.0 ** -53
# A level's end g_j (j^2 + 4 rho)/(m_j + rho - u) rounds five times to
# nearest, twice in its denominator; g_j times (1 + 2^-53) and (1 - 2^-53)
# to this power, rounded outward, covers all five (``cf`` docstring).
_G_POWER = 6
_G_UP, _G_DN = (2 ** 53 + 1) ** _G_POWER, (2 ** 53 - 1) ** _G_POWER

# _level(j) at index j (index 0 unused), through the largest level a pass
# has asked for, up to _TABLE_LEVELS: 176 bytes a level, 2.9 MB in all (a
# width of 1e-12 needs fewer than 100 levels for r <= 2.5; the default cap
# can ask for 100,000).  It grows by rebinding to a longer list, never in
# place, so a pass never holds a half-grown one.
_LEVELS = [None]
_TABLE_LEVELS = 1 << 14


def _rounded(p: int, q: int, toward: float) -> float:
    """p/q for ints p, q > 0, rounded toward ``toward`` (inf or -inf)."""
    v = p / q  # correctly rounded to nearest
    n, d = v.as_integer_ratio()
    if n * q != p * d and (n * q < p * d) == (toward > 0):
        v = nextafter(v, toward)
    return v


def _level(j: int) -> tuple[float, float, float, float]:
    """The constants of level j, none of which depends on rho: m_j = (j^2 +
    j + 1)/2 and j^2, exact below 2^26, and g_j = j^4/(4(4j^2 - 1)) times
    (1 + 2^-53)^``_G_POWER`` rounded up and times (1 - 2^-53)^``_G_POWER``
    rounded down, each from one exact int quotient."""
    jj = j * j
    den = (16 * jj - 4) << (53 * _G_POWER)
    g_up = _rounded(jj * jj * _G_UP, den, inf)
    g_dn = _rounded(jj * jj * _G_DN, den, -inf)
    return (jj + j + 1) / 2, float(jj), g_up, g_dn


def _levels_down(n: int) -> Iterator[tuple[float, float, float, float]]:
    """_level(n - 1), ..., _level(1): from the table, and above
    _TABLE_LEVELS one at a time."""
    global _LEVELS
    top = min(n, _TABLE_LEVELS)
    table = _LEVELS
    if len(table) < top:
        table = _LEVELS = table + [_level(j) for j in range(len(table), top)]
    return chain(map(_level, range(n - 1, top - 1, -1)), table[top - 1:0:-1])


def n0_bound(rho_hi: float) -> float:
    """N_0 for every rho <= rho_hi, rounded up; inf for huge rho."""
    quad = nextafter(nextafter(16 * rho_hi * nextafter(rho_hi + 1, inf), inf) / 27, inf)
    return max(4.0, nextafter(2 * rho_hi + 2, inf), nextafter(quad + 1, inf))


def offsets(rho_lo: float, rho_hi: float, n: int) -> tuple[float, float]:
    """c_n - 7/16 rounded down and c_n + 2h_n - 7/16 rounded up, for every
    rho in [rho_lo, rho_hi]: a ``nextafter`` after each rounding, so sound
    for every n >= 1 below 2^26, where n^2 and 48n are exact floats (12
    n^2 (2n - 3) is not above about 2^17).  G = (rho + 1)^4/(12 n^2 (2n -
    3)) is bounded through its size, as its sign flips at n = 1."""
    den = 32 * n - 16  # 16 (2n - 1)
    a_hi = nextafter(nextafter(8 * rho_hi * nextafter(rho_hi + 1, inf), inf) + 3, inf)
    a_lo = nextafter(nextafter(8 * rho_lo * nextafter(rho_lo + 1, -inf), -inf) + 3, -inf)
    nn, k = n * n, abs(24 * n - 36)  # 12 |2n - 3|
    p_hi = nextafter(rho_hi + 1, inf)  # then (rho + 1)^4/n^2, rounded up
    p_hi = nextafter(p_hi * p_hi, inf)
    p_hi = nextafter(nextafter(p_hi * p_hi, inf) / nn, inf)
    p_lo = nextafter(rho_lo + 1, -inf)  # and rounded down
    p_lo = nextafter(p_lo * p_lo, -inf)
    p_lo = nextafter(nextafter(p_lo * p_lo, -inf) / nn, -inf)
    g_hi, g_lo = nextafter(p_hi / k, inf), nextafter(p_lo / k, -inf)
    if n < 2:
        g_hi, g_lo = -g_lo, -g_hi
    b = nextafter(nextafter(rho_hi * nextafter(rho_hi + 4, inf), inf) + 8, inf)
    h2 = nextafter(nextafter(nextafter(p_hi * b, inf) / nn, inf) / (48 * n), inf)  # 2h_n
    lo = nextafter(nextafter(a_lo / den, -inf) - g_hi, -inf)
    return lo, nextafter(nextafter(nextafter(a_hi / den, inf) - g_lo, inf) + h2, inf)


def start(r: float, x: float, width: float, max_terms: int):
    """(r^2 bracketed, N_0, terms of the walk first) when the tail interval
    may serve ``tail_enclosure(r, x, width, max_terms)``, else None, as the
    plan in ``series.tail_enclosure`` sets out.  The walk has N_0 // 2
    terms where N_0 > ``PROBE_LEVEL``, and 0 below.  A walk term costs
    about 1.25 times a level (pinned, at r = 3 and 4.2), so the walk costs
    about 0.6 times the first pass, which runs at max(N_0,
    ``_predicted_level``) levels; on r in [2.6, 4.8] at width 1e-12,
    N_0 // 3 and N_0 // 4 terms were no faster."""
    # An int runs as a float does; an exact (Fraction) run is left to the walk.
    if not (0 < width and x == 1 and isinstance(r, (int, float))
            and isinstance(x, (int, float))):
        return None
    rr = r * r  # an int past float range raises OverflowError, as the walk would
    rho = max(nextafter(rr, -inf), 0.0), nextafter(rr, inf)
    floor = n0_bound(rho[1])
    if not floor <= min(max_terms // 2, MAX_LEVEL):
        return None
    n0 = math.ceil(floor)
    return rho, n0, n0 // 2 if n0 > PROBE_LEVEL else 0


def bounds_at(rho_lo: float, rho_hi: float, n: int) -> tuple[float, float]:
    """S_n(V_n) for r^2 in [rho_lo, rho_hi], its ends moved outward: one
    backward pass of t -> a'_{j+1}/(b'_{j+1} + t), j = n - 1 .. 1, written
    -g_j (j^2 + 4 rho)/(m_j + rho + t), then 1/(1/2 + rho + t).  It carries
    u = -t, from [-(L_n + c_n + 2h_n), -(L_n + c_n)], whose ends are rounded
    with ``nextafter``.  A level is 10 float operations, none of them
    stepped: each end rounds to nearest twice in its denominator and three
    times in its numerator, covered by g_j (1 +- 2^-53)^``_G_POWER``
    rounded outward.  At level 0 ``* dn`` steps a result one float down,
    ``/ dn`` one float up.  Each level's m_j, j^2 and g_j rounded out each
    way come from ``_levels_down``; they and k are exact floats for n below
    2^26, and the rounding argument holds for n below 2^23 (``MAX_LEVEL``
    caps n)."""
    dn = _DOWN
    rho4_lo, rho4_hi = 4 * rho_lo, 4 * rho_hi
    e_lo, e_hi = offsets(rho_lo, rho_hi, n)
    k = 2 * n * n - 3 * n + 6  # -(8 L_n + 4 rho)
    u_hi = nextafter(nextafter(rho4_hi + k, inf) - 3.5, inf)
    u_hi = nextafter(u_hi / 8 - e_lo, inf)  # -(L_n + c_n)
    u_lo = nextafter(nextafter(rho4_lo + k, -inf) - 3.5, -inf)
    u_lo = nextafter(u_lo / 8 - e_hi, -inf)  # -(L_n + c_n + 2h_n)
    for m, j2, g_up, g_dn in _levels_down(n):
        d_lo = m + rho_lo - u_hi
        if not d_lo > 0:
            level = math.isqrt(int(j2))  # j^2 is an exact int below 2^52
            raise ArithmeticError(f"tail interval lost its bound at level {level}")
        d_hi = m + rho_hi - u_lo
        u_hi = (j2 + rho4_hi) * g_up / d_lo
        u_lo = (j2 + rho4_lo) * g_dn / d_hi
    d_lo = ((0.5 + rho_lo) * dn - u_hi) * dn
    d_hi = ((0.5 + rho_hi) / dn - u_lo) / dn
    if not d_lo > 0:
        raise ArithmeticError("tail interval lost its bound at level 0")
    return 1 / d_hi * dn, 1 / d_lo / dn


def _predicted_level(rho_hi: float, width: float) -> int:
    """The least n at which the width law W(rho) n^-8 (``_search``) meets
    ``width``, or 2^-52/(rho_hi + 1/2) where that is wider, with a 2% margin:
    an int >= 1 for every rho_hi >= 0 up to where N_0 passes ``MAX_LEVEL``,
    never lower for a narrower width.  D(r) is written with
    q = e^(-2 pi r), as f^3 q (1 + q) for f = 2 pi r/(1 - q), so that it
    neither overflows (sinh(pi r)^3 does from r of about 75) nor loses its
    limit D = 2 as r goes to 0."""
    # Makai's 1/(rho + 1/2) <= S(r) stands in for hi in the floor stop's hi 2^-52.
    aim = max(width, 2.0 ** -52 / (rho_hi + 0.5))
    x = 2 * math.pi * math.sqrt(rho_hi)
    q = math.exp(-x)
    f = x / -math.expm1(-x) if x else 1.0
    law = (rho_hi + 1) ** 4 * (rho_hi * (rho_hi + 4) + 8) / 48 * (f ** 3 * q * (1 + q))
    return max(1, math.ceil(1.02 * (law / aim) ** (1 / 8)))


def _search(rho: tuple[float, float], width: float, n0: int,
            n_max: int) -> tuple[float, float, int]:
    """S_n(V_n) as (lower, upper, n), at an n in [n0, n_max] that meets
    ``width``; n_max <= MAX_LEVEL, as the rounding argument for
    ``bounds_at`` holds only below 2^23.  The width falls like W(rho)
    n^-8, with W(rho) = (rho + 1)^4 (rho^2 + 4 rho + 8)/48 D(r) and D(r) =
    2 (pi r)^3 cosh(pi r)/sinh(pi r)^3 (2 at r = 0): V_n is (rho + 1)^4
    (rho^2 + 4 rho + 8)/(48 n^5) wide, and D(r) n^-3 is the slope of S_n
    in its tail, the shape of Euler's product sinh(pi r)/(pi r) = prod (1 +
    r^2/j^2).  The law is measured, not proven, and only picks n:
    ``bounds_at``'s width times n^8/W(rho_hi) reads 1.18-1.25 at n = 8,
    1.09-1.12 at 16, 1.05-1.08 at 32 and 1.04-1.06 at 48, for r from 0.01
    to 3 where n >= N_0 and the width is at least 2^10 ulp of hi, rho
    bracketed as ``start`` brackets it.  So the first pass runs at max(n0,
    ``_predicted_level``), which meets the width, or hi 2^-52 where that
    is wider, everywhere but near the rounding floor.
    A pass that falls short predicts again from its own width, at least
    1.25 times as deep (its level was already aimed), up to n_max.  Near
    the floor the width stops falling: a pass no wider than hi 2^-52, more
    than twice as wide as the previous pass aimed at, or no narrower than
    the previous pass is returned, unmet."""
    n = min(max(n0, _predicted_level(rho[1], width)), n_max)
    aimed = last = math.inf
    while True:
        lo, hi = bounds_at(*rho, n)
        aim = max(width, hi * 2.0 ** -52)
        if hi - lo <= aim or n == n_max or hi - lo > 2 * aimed or hi - lo >= last:
            return lo, hi, n
        target = n * max(1.25, 1.01 * ((hi - lo) / aim) ** (1 / 8))
        n = math.ceil(target) if target < n_max else n_max
        aimed, last = aim, hi - lo
