"""The tail interval of T(r, 1), for ``series.tail_enclosure`` at z = 0.

At x = 1 the fraction's even/odd bracket narrows only like 1/n.  When a
short walk leaves the width unmet, the enclosure is S_N(V_N) instead: the
contracted fraction (``cf.kappa_lambda_form``) at level N with its tail in
V_N = [L_N + c-_N, L_N + c+_N], where c+_N = 7/16 + (8 rho^2 + 8 rho +
3)/(16(2N - 1)) and c-_N = c+_N - (rho + 1)^4/(12N^3) for rho = r^2, which
put the set's ends the same distance either side of the tail's asymptotic
offset to third order, evaluated with every rounding directed outward;
S_N(V_N) is then about N^-6 wide.  The proof that V_N holds the tail from
N_0(rho) on, and the rounding argument, are in the ``cf`` module docstring.
``tail_enclosure`` loads this module on its first z = 0 call with a width,
so an eval at k >= 2 never compiles it.
"""

from __future__ import annotations

import math
from itertools import chain
from typing import Iterator

from .series import Enclosure, MathieuCFParams, TailBracket, _walk

# The first pass runs at level max(N_0, this), after a walk of twice as many
# terms.
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

# _g(j) at index j (index 0 unused), through the largest level a pass has
# asked for, up to _TABLE_LEVELS (32 bytes a level; the default cap needs
# 100,000).  It grows by rebinding to a longer list, never in place, so a
# pass never holds a half-grown one.
_G = [0.0]
_TABLE_LEVELS = 1 << 17


def _g(j: int) -> float:
    """g_j = j^4/(4(4j^2 - 1)), correctly rounded: one int quotient."""
    return j * j * j * j / (16 * j * j - 4)


def _g_down(n: int) -> Iterator[float]:
    """g_{n-1}, ..., g_1: from the table, and above _TABLE_LEVELS one
    quotient a level."""
    global _G
    top = min(n, _TABLE_LEVELS)
    table = _G
    if len(table) < top:
        table = _G = table + [_g(j) for j in range(len(table), top)]
    return chain(map(_g, range(n - 1, top - 1, -1)), table[top - 1:0:-1])


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


def start(params: MathieuCFParams, width: float, max_terms: int):
    """(r^2 bracketed, N_0, terms of the walk first) when the tail interval
    may serve, else None: the walk alone answers."""
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
    return rho, n0, min(max_terms, 2 * max(n0, PROBE_LEVEL))


def bounds_at(rho_lo: float, rho_hi: float, n: int) -> tuple[float, float]:
    """S_n(V_n) for r^2 in [rho_lo, rho_hi], every rounding outward: one
    backward pass of t -> a'_{j+1}/(b'_{j+1} + t), j = n - 1 .. 1, written
    -g_j (j^2 + 4 rho)/(m_j + rho + t), then 1/(1/2 + rho + t).  It carries
    u = -t, from [-(L_n + c+_n), -(L_n + c-_n)], whose ends are rounded
    with ``nextafter``; in the loop ``* dn`` steps a result one float down,
    ``/ dn`` one float up.  j, j^2, m_j (m_{j-1} = m_j - j) and k are exact
    floats for n below 2^26 (``MAX_LEVEL`` caps n)."""
    dn = _DOWN
    rho4_lo, rho4_hi = 4 * rho_lo, 4 * rho_hi
    e_lo, e_hi = offsets(rho_lo, rho_hi, n)
    k = 2 * n * n - 3 * n + 6  # -(8 L_n + 4 rho)
    u_hi = _up(_up(_up(rho4_hi + k) - 3.5) / 8 - e_lo)  # -(L_n + c-_n)
    u_lo = _down(_down(_down(rho4_lo + k) - 3.5) / 8 - e_hi)  # -(L_n + c+_n)
    j = float(n)
    m = (j * j + j + 1) / 2
    for g in _g_down(n):
        m -= j
        j -= 1.0
        j2 = j * j
        d_lo = ((m + rho_lo) * dn - u_hi) * dn
        if not d_lo > 0:
            raise ArithmeticError(f"tail interval lost its bound at level {int(j)}")
        d_hi = ((m + rho_hi) / dn - u_lo) / dn
        u_hi = (j2 + rho4_hi) / dn * (g / dn) / dn / d_lo / dn
        u_lo = (j2 + rho4_lo) * dn * (g * dn) * dn / d_hi * dn
    d_lo = ((0.5 + rho_lo) * dn - u_hi) * dn
    d_hi = ((0.5 + rho_hi) / dn - u_lo) / dn
    if not d_lo > 0:
        raise ArithmeticError("tail interval lost its bound at level 0")
    return 1 / d_hi * dn, 1 / d_lo / dn


def _search(rho: tuple[float, float], width: float, n0: int, n_max: int) -> TailBracket:
    """S_n(V_n) at an n in [n0, n_max] that meets ``width``, as 2n terms;
    n_max <= MAX_LEVEL, as ``bounds_at`` is exact only below 2^26.  The
    width falls like n^-6 (V_n is about n^-3 wide, times the n^-3 that a
    width-1 tail set gives): a pass at max(n0, PROBE_LEVEL) predicts the n
    that meets the width, or hi 2^-52 where that is wider, and a pass that
    falls short predicts again from its own width, at least 1.25 times as
    deep, up to n_max.  Near the rounding floor the width stops falling: a
    pass no wider than hi 2^-52, more than twice as wide as the previous
    pass aimed at, or no narrower than the previous pass is returned,
    unmet."""
    n = min(max(n0, PROBE_LEVEL), n_max)
    growth = 1.0
    aimed = last = math.inf
    while True:
        lo, hi = bounds_at(*rho, n)
        aim = max(width, hi * 2.0 ** -52)
        if hi - lo <= aim or n == n_max or hi - lo > 2 * aimed or hi - lo >= last:
            break
        target = n * max(growth, 1.01 * ((hi - lo) / aim) ** (1 / 6))
        n = math.ceil(target) if target < n_max else n_max
        aimed, last = aim, hi - lo
        growth = 1.25
    enclosure = Enclosure(lo, hi)
    return TailBracket(enclosure, 2 * n, enclosure.width <= width)


def enclosure(params: MathieuCFParams, width: float, max_terms: int) -> TailBracket:
    """``series.tail_enclosure`` at x = 1 with width > 0: the walk's bracket
    when it meets the width within its 2 max(N_0, PROBE_LEVEL) terms (or when N_0
    exceeds max_terms/2 or MAX_LEVEL), else the tail interval."""
    plan = start(params, width, max_terms)
    if plan is None:
        return _walk(params, width, max_terms)
    rho, n0, warm_terms = plan
    try:
        bracket = _walk(params, width, warm_terms)
    except ValueError:  # the walk failed, as where r^2 underflows
        pass
    else:
        if bracket.achieved:
            return bracket
    return _search(rho, width, n0, min(max_terms // 2, MAX_LEVEL))
