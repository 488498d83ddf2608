"""The tail interval of T(r, 1): float arithmetic for ``series.tail_enclosure``
at z = 0, which holds the plan of when it serves and at what level.

At x = 1 the fraction's even/odd bracket narrows only like 1/n.  The tail
interval is S_N(V_N): the contracted fraction (``cf.kappa_lambda_form``) at
level N with its tail in V_N = [L_N + c-_N, L_N + c+_N], where c+_N = 7/16 +
(8 rho^2 + 8 rho + 3)/(16(2N - 1)) and c-_N = c+_N - (rho + 1)^4/(12N^3) for
rho = r^2, which put the set's ends the same distance either side of the
tail's asymptotic offset to third order, evaluated with its roundings
directed outward: the start, the denominators and level 0 step each
rounding one float outward, and each numerator rounds to nearest three
times against a g_j stepped four floats outward.  S_N(V_N) is about
W(rho) N^-6 wide, with W(rho) = (rho + 1)^4/12 D(r) and D(r) = 2 (pi r)^3
cosh(pi r)/sinh(pi r)^3: a law measured, not proven (the recipe is in
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
from typing import Iterator

# Only where N_0 exceeds this level does a walk run first (the plan is in
# ``series.tail_enclosure``).
PROBE_LEVEL = 32
# The highest level of a pass: ``bounds_at`` is exact only below 2^26.
MAX_LEVEL = (1 << 26) - 1


def _up(v: float) -> float:
    return math.nextafter(v, math.inf)


def _down(v: float) -> float:
    return math.nextafter(v, -math.inf)


# For a float x >= 2^-1021, x * _DOWN is the float below x and x / _DOWN the
# float above it (the lemma is in the ``cf`` module docstring).
_DOWN = 1 - 2.0 ** -53
# A numerator -g_j (j^2 + 4 rho)/d rounds three times to nearest; g_j
# stepped this many floats outward covers all three (``cf`` docstring).
_G_STEPS = 4

# _level(j) at index j (index 0 unused), through the largest level a pass
# has asked for, up to _TABLE_LEVELS: 176 bytes a level, 2.9 MB in all (a
# width of 1e-12 needs fewer than 100 levels for r <= 2.5; the default cap
# can ask for 100,000).  It grows by rebinding to a longer list, never in
# place, so a pass never holds a half-grown one.
_LEVELS = [None]
_TABLE_LEVELS = 1 << 14


def _level(j: int) -> tuple[float, float, float, float]:
    """The constants of level j, none of which depends on rho: m_j = (j^2 +
    j + 1)/2 and j^2, exact below 2^26, and g_j = j^4/(4(4j^2 - 1)),
    correctly rounded (one int quotient), stepped ``_G_STEPS`` floats up
    and as many down."""
    jj = j * j
    g_up = g_dn = jj * jj / (16 * jj - 4)
    for _ in range(_G_STEPS):
        g_up, g_dn = _up(g_up), _down(g_dn)
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
    return max(4.0, _up(2 * rho_hi + 2), _up(_up(_up(16 * rho_hi * _up(rho_hi + 1)) / 27) + 1))


def offsets(rho_lo: float, rho_hi: float, n: int) -> tuple[float, float]:
    """c-_n - 7/16 rounded down and c+_n - 7/16 rounded up, for every rho
    in [rho_lo, rho_hi]: a ``nextafter`` after each rounding, so sound at
    any magnitude (12 n^3 is not an exact float above about 2^17)."""
    den = 32 * n - 16  # 16 (2n - 1)
    hi = _up(_up(_up(8 * rho_hi * _up(rho_hi + 1)) + 3) / den)
    gap = _up(rho_hi + 1)
    gap = _up(gap * gap)
    gap = _up(_up(_up(_up(gap * gap) / n) / n) / (12 * n))  # (rho + 1)^4/(12 n^3)
    lo = _down(_down(_down(_down(8 * rho_lo * _down(rho_lo + 1)) + 3) / den) - gap)
    return lo, hi


def start(params, width: float, max_terms: int):
    """For ``series.MathieuCFParams`` params: (r^2 bracketed, N_0, terms of
    the walk first) when the tail interval may serve, else None, as the plan
    in ``series.tail_enclosure`` sets out.  The walk has N_0 // 2 terms
    where N_0 > ``PROBE_LEVEL`` (a term costs about what a level does, so
    the walk costs at most about half the first pass, which runs at
    max(N_0, ``_predicted_level``)), and 0 below."""
    r, x = params.r, params.x
    # An int runs as a float does; an exact (Fraction) run is left to the walk.
    if not (0 < width and params.z == 0 and isinstance(r, (int, float))
            and isinstance(x, (int, float))):
        return None
    rr = r * r  # an int past float range raises OverflowError, as the walk would
    rho = max(_down(rr), 0.0), _up(rr)
    floor = n0_bound(rho[1])
    if not floor <= min(max_terms // 2, MAX_LEVEL):
        return None
    n0 = math.ceil(floor)
    return rho, n0, n0 // 2 if n0 > PROBE_LEVEL else 0


def bounds_at(rho_lo: float, rho_hi: float, n: int) -> tuple[float, float]:
    """S_n(V_n) for r^2 in [rho_lo, rho_hi], its ends moved outward: one
    backward pass of t -> a'_{j+1}/(b'_{j+1} + t), j = n - 1 .. 1, written
    -g_j (j^2 + 4 rho)/(m_j + rho + t), then 1/(1/2 + rho + t).  It carries
    u = -t, from [-(L_n + c+_n), -(L_n + c-_n)], whose ends are rounded
    with ``nextafter``.  In the denominators and at level 0 ``* dn`` steps
    a result one float down, ``/ dn`` one float up; each numerator end
    rounds to nearest three times, covered by its g_j stepped
    ``_G_STEPS`` floats outward.  Each level's m_j, j^2 and g_j stepped
    each way come from ``_levels_down``; they and k are exact floats for n
    below 2^26 (``MAX_LEVEL`` caps n)."""
    dn = _DOWN
    rho4_lo, rho4_hi = 4 * rho_lo, 4 * rho_hi
    e_lo, e_hi = offsets(rho_lo, rho_hi, n)
    k = 2 * n * n - 3 * n + 6  # -(8 L_n + 4 rho)
    u_hi = _up(_up(_up(rho4_hi + k) - 3.5) / 8 - e_lo)  # -(L_n + c-_n)
    u_lo = _down(_down(_down(rho4_lo + k) - 3.5) / 8 - e_hi)  # -(L_n + c+_n)
    for m, j2, g_up, g_dn in _levels_down(n):
        d_lo = ((m + rho_lo) * dn - u_hi) * dn
        if not d_lo > 0:
            level = math.isqrt(int(j2))  # j^2 is an exact int below 2^52
            raise ArithmeticError(f"tail interval lost its bound at level {level}")
        d_hi = ((m + rho_hi) / dn - u_lo) / dn
        u_hi = (j2 + rho4_hi) * g_up / d_lo
        u_lo = (j2 + rho4_lo) * g_dn / d_hi
    d_lo = ((0.5 + rho_lo) * dn - u_hi) * dn
    d_hi = ((0.5 + rho_hi) / dn - u_lo) / dn
    if not d_lo > 0:
        raise ArithmeticError("tail interval lost its bound at level 0")
    return 1 / d_hi * dn, 1 / d_lo / dn


def _predicted_level(rho_hi: float, width: float) -> int:
    """The least n at which the width law W(rho) n^-6 (``_search``) meets
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
    law = (rho_hi + 1) ** 4 / 12 * (f ** 3 * q * (1 + q))  # W(rho_hi)
    return max(1, math.ceil(1.02 * (law / aim) ** (1 / 6)))


def _search(rho: tuple[float, float], width: float, n0: int,
            n_max: int) -> tuple[float, float, int]:
    """S_n(V_n) as (lower, upper, n), at an n in [n0, n_max] that meets
    ``width``; n_max <= MAX_LEVEL, as ``bounds_at`` is exact only below
    2^26.  The width falls like W(rho) n^-6, with W(rho) = (rho + 1)^4/12
    D(r) and D(r) = 2 (pi r)^3 cosh(pi r)/sinh(pi r)^3 (2 at r = 0): V_n is
    (rho + 1)^4/(12 n^3) wide, and D(r) n^-3 is the slope of S_n in its tail,
    the shape of Euler's product sinh(pi r)/(pi r) = prod (1 + r^2/j^2).
    The law is measured, not proven, and only picks n: ``bounds_at``'s
    width times n^6/W(rho_hi) reads about 1 + 1.6/n (1.18-1.21 at n = 8,
    1.09-1.13 at 16, 1.04-1.06 at 40, 1.02-1.03 at 80, for r from 0.01 to
    3 where n >= N_0, rho bracketed as ``start`` brackets it).  So the first
    pass runs at max(n0, ``_predicted_level``), which meets the width, or
    hi 2^-52 where that is wider, everywhere but near the rounding floor.
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
        target = n * max(1.25, 1.01 * ((hi - lo) / aim) ** (1 / 6))
        n = math.ceil(target) if target < n_max else n_max
        aimed, last = aim, hi - lo
