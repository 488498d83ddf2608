"""The tail interval of T(r, 1), for ``series.tail_enclosure`` at z = 0.

At x = 1 the fraction's even/odd bracket narrows only like 1/n.  When a
short walk leaves the width unmet, the enclosure is S_N(V_N) instead: the
contracted fraction (``cf.kappa_lambda_form``) at level N with its tail in
V_N = [L_N + 7/16, L_N + 7/16 + w_N], w_N = min(9/16, (8 rho^2 + 8 rho +
3)/(24N - 7)), about 1/(8N) wide for small rho = r^2, evaluated with every
rounding directed outward; S_N(V_N) is then about N^-4 wide.  The proof
that V_N holds the tail from N_0(rho) on, and the rounding argument, are
in the ``cf`` module docstring.  ``tail_enclosure`` loads this module on
its first z = 0 call with a width, so an eval at k >= 2 never compiles it.
"""

from __future__ import annotations

import math
from itertools import chain
from typing import Iterator

from .series import Enclosure, MathieuCFParams, TailBracket, _walk

# The first pass runs at level max(N_0, this), after a walk of twice as many
# terms.
PROBE_LEVEL = 64
# The highest level of a pass: ``bounds_at`` is exact only below 2^26.
MAX_LEVEL = (1 << 26) - 1


def _up(v: float) -> float:
    return math.nextafter(v, math.inf)


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


def width_bound(rho_hi: float, n: int) -> float:
    """The width w_n of V_n for every rho <= rho_hi, rounded up."""
    return min(0.5625, _up(_up(_up(8 * rho_hi * _up(rho_hi + 1)) + 3) / (24 * n - 7)))


def start(params: MathieuCFParams, width: float, max_terms: int):
    """(r^2 bracketed, N_0, terms of the walk first) when the tail interval
    may serve, else None: the walk alone answers."""
    r, x = params.r, params.x
    if not (0 < width and params.z == 0 and isinstance(r, float) and isinstance(x, float)):
        return None
    rr = r * r
    rho = max(math.nextafter(rr, -math.inf), 0.0), _up(rr)
    floor = n0_bound(rho[1])
    if not floor <= min(max_terms // 2, MAX_LEVEL):
        return None
    n0 = math.ceil(floor)
    return rho, n0, min(max_terms, 2 * max(n0, PROBE_LEVEL))


def bounds_at(rho_lo: float, rho_hi: float, n: int) -> tuple[float, float]:
    """S_n(V_n) for r^2 in [rho_lo, rho_hi], every rounding outward: one
    backward pass of t -> a'_{j+1}/(b'_{j+1} + t), j = n - 1 .. 1, written
    -g_j (j^2 + 4 rho)/(m_j + rho + t), then 1/(1/2 + rho + t).  It carries
    u = -t, from [-(L_n + 7/16) - w_n, -(L_n + 7/16)]; ``* dn`` steps a
    result one float down, ``/ dn`` one float up.  j, j^2, m_j
    (m_{j-1} = m_j - j) and k are exact floats for n below 2^26
    (``MAX_LEVEL`` caps n)."""
    dn = _DOWN
    rho4_lo, rho4_hi = 4 * rho_lo, 4 * rho_hi
    k = 2 * n * n - 3 * n + 6  # -(8 L_n + 4 rho)
    u_hi = ((rho4_hi + k) / dn - 3.5) / dn / 8  # -(L_n + 7/16)
    u_lo = (((rho4_lo + k) * dn - 3.5) * dn / 8 - width_bound(rho_hi, n)) * dn
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
    width falls like n^-4 (w_n about 1/(8n) times the n^-3 that a width-1
    tail set gives): a pass at max(n0, PROBE_LEVEL) predicts n,
    and a prediction that falls short is at least doubled, up to n_max.
    Near the rounding floor the width stops falling: a pass more than twice
    as wide as the previous pass predicted is returned, unmet."""
    n = min(max(n0, PROBE_LEVEL), n_max)
    growth = 1.0
    predicted = math.inf
    while True:
        lo, hi = bounds_at(*rho, n)
        if hi - lo <= width or n == n_max or hi - lo > 2 * predicted:
            break
        target = n * max(growth, 1.01 * ((hi - lo) / width) ** (1 / 4))
        n_next = math.ceil(target) if target < n_max else n_max
        predicted = (hi - lo) * (n / n_next) ** 4
        n = n_next
        growth = 2.0
    enclosure = Enclosure(lo, hi)
    return TailBracket(enclosure, 2 * n, enclosure.width <= width)


def enclosure(params: MathieuCFParams, width: float, max_terms: int) -> TailBracket:
    """``series.tail_enclosure`` at x = 1 with width > 0: the walk's bracket
    when it meets the width within its 2 max(N_0, 64) terms (or when N_0
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
