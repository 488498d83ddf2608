"""The tail interval of T(r, 1), for ``series.tail_enclosure`` at z = 0.

At x = 1 the fraction's even/odd bracket narrows only like 1/n.  When a
short walk leaves the width unmet, the enclosure is S_N(V_N) instead: the
contracted fraction (``cf.kappa_lambda_form``) at level N with its tail in
an interval V_N of width 1, evaluated with every rounding directed outward.
The proof that V_N holds the tail from N_0(rho) on, rho = r^2, and the
rounding argument are in the ``cf`` module docstring.  ``tail_enclosure``
loads this module on its first z = 0 call with a width, so an eval at
k >= 2 never compiles it.
"""

from __future__ import annotations

import math

from .series import Enclosure, MathieuCFParams, TailBracket, _walk

# The first pass runs at level max(N_0, this), after a walk of twice as many
# terms.
PROBE_LEVEL = 64


def _up(v: float) -> float:
    return math.nextafter(v, math.inf)


def n0_bound(rho_hi: float) -> float:
    """N_0 for every rho <= rho_hi, rounded up; inf for huge rho."""
    return max(4.0, _up(2 * rho_hi + 2), _up(_up(_up(16 * rho_hi * _up(rho_hi + 1)) / 27) + 1))


def start(params: MathieuCFParams, width: float, max_terms: int):
    """(r^2 bracketed, N_0, terms of the walk first) when the tail interval
    may serve, else None: the walk alone answers."""
    r, x = params.r, params.x
    if not (0 < width and params.z == 0 and isinstance(r, float) and isinstance(x, float)):
        return None
    rr = r * r
    rho = max(math.nextafter(rr, -math.inf), 0.0), _up(rr)
    floor = n0_bound(rho[1])
    if not floor <= max_terms // 2:
        return None
    n0 = math.ceil(floor)
    return rho, n0, min(max_terms, 2 * max(n0, PROBE_LEVEL))


def bounds_at(rho_lo: float, rho_hi: float, n: int) -> tuple[float, float]:
    """S_n(V_n) for r^2 in [rho_lo, rho_hi], every rounding outward: one
    backward pass of t -> a'_{j+1}/(b'_{j+1} + t), j = n - 1 .. 1, written
    -g_j (j^2 + 4 rho)/(m_j + rho + t), then 1/(1/2 + rho + t)."""
    nextafter = math.nextafter
    down, up = -math.inf, math.inf
    rho4_lo, rho4_hi = 4 * rho_lo, 4 * rho_hi
    c = -2 * n * n + 3 * n - 6  # 8 L_n + 4 rho
    lo = nextafter(c - rho4_hi, down) / 8
    hi = nextafter(c + 8 - rho4_lo, up) / 8
    for j in range(n - 1, 0, -1):
        j2 = j * j
        m = (j2 + j + 1) / 2
        g = j2 * j2 / (16 * j2 - 4)
        d_lo = nextafter(nextafter(m + rho_lo, down) + lo, down)
        if not d_lo > 0:
            raise ArithmeticError(f"tail interval lost its bound at level {j}")
        d_hi = nextafter(nextafter(m + rho_hi, up) + hi, up)
        lo = -nextafter(nextafter(nextafter(j2 + rho4_hi, up) * nextafter(g, up), up) / d_lo, up)
        hi = -nextafter(nextafter(nextafter(j2 + rho4_lo, down) * nextafter(g, down), down)
                        / d_hi, down)
    d_lo = nextafter(nextafter(0.5 + rho_lo, down) + lo, down)
    d_hi = nextafter(nextafter(0.5 + rho_hi, up) + hi, up)
    if not d_lo > 0:
        raise ArithmeticError("tail interval lost its bound at level 0")
    return nextafter(1 / d_hi, down), nextafter(1 / d_lo, up)


def _search(rho: tuple[float, float], width: float, n0: int, n_max: int) -> TailBracket:
    """S_n(V_n) at an n in [n0, n_max] that meets ``width`` (else n_max), as
    2n terms.  The width falls like n^-3: a pass at max(n0, PROBE_LEVEL)
    predicts n, and a prediction that falls short is at least doubled."""
    n = min(max(n0, PROBE_LEVEL), n_max)
    growth = 1.0
    while True:
        lo, hi = bounds_at(*rho, n)
        if hi - lo <= width or n == n_max:
            break
        target = n * max(growth, 1.01 * ((hi - lo) / width) ** (1 / 3))
        n = math.ceil(target) if target < n_max else n_max
        growth = 2.0
    enclosure = Enclosure(lo, hi)
    return TailBracket(enclosure, 2 * n, enclosure.width <= width)


def enclosure(params: MathieuCFParams, width: float, max_terms: int) -> TailBracket:
    """``series.tail_enclosure`` at x = 1 with width > 0: the walk's bracket
    when it meets the width within its 2 max(N_0, 64) terms (or when no
    tail interval fits the cap), else the tail interval."""
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
    return _search(rho, width, n0, max_terms // 2)
