"""Independent numerical routes to S(r), used to cross-check the
continued-fraction machinery and each other.

Three routes, sharing no code with the fraction engine:

* ``mathieu_trigamma``/``tail_via_trigamma`` — the series tail is the
  imaginary part of the trigamma function at a complex argument,
  T(r, x) = Im(psi1(x - i r)) / r, evaluated by upward recurrence plus the
  Bernoulli asymptotic expansion.
* ``mathieu_integral`` — the oscillatory integral
  S(r) = (1/r) * Integral_0^inf u sin(ru) / (e^u - 1) du by double-exponential
  quadrature: for r >= 1/4, Ooura and Mori's rule for Fourier-type integrals
  (J. Comput. Appl. Math. 112, 1999), whose nodes sit near the zeros of
  sin(ru); below, the exp-sinh rule.  Both rules run on node and weight
  tables that do not depend on r, built in float at import, and estimate
  their error from the same rule at a second step size.
* ``asymptotic`` — the large-r expansion
  S(r) ~ sum_{m>=0} (-1)^m B_2m / r^(2m+2), optimally truncated, each term
  correctly rounded from exact Bernoulli numbers (``bernoulli_numbers``).
  It is kept here, off the eval path, so a default eval does not compile
  it; ``series`` re-exports its three names on first use.
"""

from __future__ import annotations

import math
import sys
from itertools import accumulate, repeat
from operator import mul, truediv
from typing import List, Tuple, Union

from .series import _Record

__all__ = [
    "trigamma",
    "tail_via_trigamma",
    "mathieu_trigamma",
    "mathieu_integral",
    "AsymptoticResult",
    "bernoulli_numbers",
    "asymptotic",
]

# Push the argument to Re >= 10 before using the asymptotic series; with
# Bernoulli terms through B_20 the truncation error is ~|B_22|/|s|^23,
# below 1e-19 there.
_TRIGAMMA_SHIFT = 10.0
# B_2, B_4, .., B_20, each a quotient of ints below 2^53, so correctly rounded.
_TRIGAMMA_B2K = (1 / 6, -1 / 30, 1 / 42, -1 / 30, 5 / 66, -691 / 2730, 7 / 6,
                 -3617 / 510, 43867 / 798, -174611 / 330)


def trigamma(s: Union[float, complex]) -> complex:
    """psi1(s) = sum_{n>=0} 1/(s+n)^2 for Re(s) > 0 (complex allowed).

    Evaluated by the recurrence psi1(s) = psi1(s+1) + 1/s^2 until
    Re(s) >= 10, then the asymptotic expansion

        psi1(s) ~ 1/s + 1/(2 s^2) + sum_{k>=1} B_{2k} / s^{2k+1}.

    Non-positive integer arguments on the real axis are poles.
    """
    s = complex(s)
    if s.imag == 0 and s.real <= 0 and s.real == int(s.real):
        raise ValueError(f"trigamma pole at non-positive integer {s.real}")
    shifted = []
    while s.real < _TRIGAMMA_SHIFT:
        shifted.append(1 / (s * s))
        s += 1
    inv = 1 / s
    inv2 = inv * inv
    total = inv + 0.5 * inv2
    power = inv2 * inv
    for b2k in _TRIGAMMA_B2K:
        total += b2k * power
        power *= inv2
    # Sum the recurrence corrections smallest-last for accuracy.
    for term in reversed(shifted):
        total += term
    return total


def _require_normal_r(r: float) -> None:
    # inf is not a normal float either: Im psi1(x - i inf)/inf is nan.
    if not (sys.float_info.min <= r <= sys.float_info.max):
        raise ValueError(f"r must be a normal float > 0; got {r!r}")


def tail_via_trigamma(r: float, x: float) -> float:
    """T(r, x) = sum_{m>=0} 2(x+m)/((x+m)^2+r^2)^2 via Im psi1(x - i r)/r.

    Termwise, 1/((u - ir)^2) has imaginary part 2ur/((u^2+r^2)^2), so the
    trigamma sum at x - ir carries exactly r times the tail.  A subnormal r
    would lose its bits in that quotient, so r must be a normal float.

    T(r, x) < 1/r^2 + 0.65/r^3 (the summand's integral over u > 0 plus its
    peak), below 2^-1075 from r = 2^538: 0.0 is returned there, where the
    recurrence's s*s would overflow to nan from r about 9.99e306.
    """
    _require_normal_r(r)
    if not (x > 0):
        raise ValueError(f"x must be > 0; got {x!r}")
    if r >= 2.0**538:
        return 0.0
    return trigamma(complex(x, -r)).imag / r


def mathieu_trigamma(r: float) -> float:
    """S(r) as the full tail from x = 1: Im psi1(1 - i r)/r."""
    return tail_via_trigamma(r, 1.0)


# The integral route's rules, each as (fine, coarse) tables of (nodes,
# weights) at the two step sizes below, built at import.
_FOURIER_STEPS = (0.1, 0.15)
_EXP_SINH_STEPS = (0.05, 0.0625)
# The Fourier rule answers from here up, the exp-sinh rule below.
_SWITCH = 0.25
# The least tol the integral route takes, and the CLI's floor for it.
_TOL_FLOOR = 1e-10
# A node whose contribution to the sum is bounded below this is left out.
_NEGLIGIBLE = 2.0**-60
_Table = Tuple[List[float], List[float]]


def _fourier_table(h: float) -> _Table:
    """Ooura and Mori's nodes c_n = M phi(nh) and weights
    w_n = M h sin(M phi(nh)) phi'(nh) at step h, with M h = pi, for
    Integral_0^inf g(u) sin(ru) du ~ (1/r) sum_n g(c_n/r) w_n.

    phi(t) = t / (1 - e^-v(t)), v(t) = 2t + alpha (1 - e^-t) + beta (e^t - 1),
    beta = 1/4, alpha = beta / sqrt(1 + M log(1 + M) / (4 pi)).  phi(0) is
    the limit 1/v'(0), and phi'(0) = 1/2 - v''(0)/(2 v'(0)^2).  For t > 0,
    M n h = n pi, so sin(M phi) = (-1)^n sin(M (phi - t)) with
    phi - t = t e^-v / (1 - e^-v): the direct form would cancel.  Each side
    stops at the first node whose |w_n| is bounded below ``_NEGLIGIBLE``,
    through |sin y| <= |y|; 0 < g <= 1, so that bounds its term.
    """
    M = math.pi / h
    beta = 0.25
    alpha = beta / math.sqrt(1 + M * math.log1p(M) / (4 * math.pi))
    dv0 = 2 + alpha + beta
    nodes = [M / dv0]
    weights = [M * h * math.sin(M / dv0) * (0.5 - (beta - alpha) / (2 * dv0 * dv0))]
    for side in (1, -1):
        n = side
        while True:
            t = n * h
            v = 2 * t - alpha * math.expm1(-t) + beta * math.expm1(t)
            dv = 2 + alpha * math.exp(-t) + beta * math.exp(t)
            if t > 0:
                e, d = math.exp(-v), -math.expm1(-v)
                shift = t * e / d
                phi = t + shift
                dphi = (d - t * dv * e) / (d * d)
                sine = -math.sin(M * shift) if n % 2 else math.sin(M * shift)
            else:
                e, d = math.exp(v), math.expm1(v)
                phi = shift = t * e / d
                dphi = e * (d - t * dv) / (d * d)
                sine = math.sin(M * phi)
            if M * h * abs(dphi) * min(1.0, M * abs(shift)) < _NEGLIGIBLE:
                break
            nodes.append(M * phi)
            weights.append(M * h * sine * dphi)
            n += side
    return nodes, weights


def _exp_sinh_table(h: float) -> _Table:
    """Nodes u_n = exp(pi/2 sinh(nh)) and weights g(u_n) u_n pi/2 cosh(nh) h,
    with g(u) = u/(e^u - 1), for Integral_0^inf g(u) sin(ru) du / r
    ~ sum_n w_n sin(r u_n) / r.  Each side stops at the first node with
    w_n u_n below ``_NEGLIGIBLE``, which bounds its term: |sin(ru)/r| <= u.
    """
    nodes, weights = [], []
    for side in (1, -1):
        n = 0 if side == 1 else -1
        while True:
            t = n * h
            u = math.exp(0.5 * math.pi * math.sinh(t))
            w = 0.5 * math.pi * math.cosh(t) * u * u / math.expm1(u) * h
            if w * u < _NEGLIGIBLE:
                break
            nodes.append(u)
            weights.append(w)
            n += side
    return nodes, weights


_FOURIER = tuple(map(_fourier_table, _FOURIER_STEPS))
_EXP_SINH = tuple(map(_exp_sinh_table, _EXP_SINH_STEPS))


def _fourier_sum(r: float, table: _Table) -> float:
    """S(r) ~ sum_n g(c_n/r) w_n / r^2 on one ``_fourier_table``."""
    nodes, weights = table
    x = list(map(truediv, nodes, repeat(r)))
    g = map(truediv, x, map(math.expm1, x))
    return math.fsum(map(mul, g, weights)) / r / r


def _exp_sinh_sum(r: float, table: _Table) -> float:
    """S(r) ~ sum_n w_n sin(r u_n) / r on one ``_exp_sinh_table``."""
    nodes, weights = table
    sines = map(math.sin, map(mul, nodes, repeat(r)))
    return math.fsum(map(mul, sines, weights)) / r


def mathieu_integral(r: float, tol: float = _TOL_FLOOR) -> float:
    """S(r) = (1/r) Integral_0^inf g(u) sin(ru) du, g(u) = u/(e^u - 1), by a
    double-exponential rule whose tables do not depend on r.

    * r >= 1/4: Ooura and Mori's rule for Fourier-type integrals
      (J. Comput. Appl. Math. 112, 1999; ``_fourier_table``) gives
      S(r) ~ sum_n g(c_n/r) w_n / r^2.  g is x/expm1(x) at every node: the
      largest c_n is below 709.78/4, where expm1 would overflow, and the
      least c_n over the largest float is a nonzero (subnormal) x, where
      x/expm1(x) = 1.
    * r < 1/4: there the Fourier rule's nodes are too sparse where g
      varies (relative error 3e-12 at r = 0.01, 6e-3 at 1e-6), so the
      exp-sinh rule u = exp(pi/2 sinh t) (``_exp_sinh_table``) answers,
      S(r) ~ sum_n w_n sin(r u_n) / r.  Its nodes do not depend on r either,
      and g is in its weights.

    Each rule runs at two step sizes (h = 0.1 and 0.15 for Fourier, 0.05 and
    0.0625 for exp-sinh; 103 + 67 and 99 + 79 nodes), and the difference of
    the two sums is the error estimate.  Measured, it stays below 2.3e-13
    at every r, while the fine sum errs by at most 1.1e-14 relative to
    40-digit values (9e-15 over [0.1, 100]).  The coarse step has its own
    M: the nested estimate, every other node at a fixed M, reads 0.46
    relative at r = 10 and 13 at r = 100, where the fine sum errs by less
    than 1e-14.  If the estimate
    exceeds tol/2, the tolerance is refused rather than silently degraded.
    Requires tol >= 1e-10: below that the budget is not honest for float64
    quadrature.  r must be a normal float, as for ``tail_via_trigamma``.
    """
    _require_normal_r(r)
    if not (tol >= _TOL_FLOOR):
        raise ValueError(f"tol must be >= {_TOL_FLOOR}; got {tol!r}")
    if r < _SWITCH:
        value, coarse = (_exp_sinh_sum(r, table) for table in _EXP_SINH)
    else:
        value, coarse = (_fourier_sum(r, table) for table in _FOURIER)
    error = abs(value - coarse)
    if error > 0.5 * tol:
        raise ValueError(
            f"requested tolerance below quadrature capability: tol={tol!r}, "
            f"r={r!r}, estimated error {error!r}"
        )
    return value


class AsymptoticResult(_Record):
    """Truncated large-r expansion: value, terms kept, first omitted magnitude."""

    __slots__ = _fields = ("value", "terms_used", "first_omitted_term")


# B_0, B_1, ... as exact Fractions; seeded on first use, so that importing
# the module loads neither fractions nor decimal.
_BERNOULLI: list[Fraction] = []
# The latest row of Seidel's boustrophedon; row n ends in the zigzag number E_n.
_ZIGZAG_ROW: list[int] = [1]


def _bernoulli(n: int) -> Fraction:
    """B_n, extending the cached table through index n."""
    global _ZIGZAG_ROW
    if n < len(_BERNOULLI):
        return _BERNOULLI[n]
    from fractions import Fraction

    if not _BERNOULLI:
        _BERNOULLI.extend((Fraction(1), Fraction(-1, 2)))
    while len(_BERNOULLI) <= n:
        m = len(_BERNOULLI)
        if m % 2:  # B_1 is seeded; every odd index >= 3 vanishes
            _BERNOULLI.append(Fraction(0))
            continue
        while len(_ZIGZAG_ROW) < m:  # row m - 1 has m entries
            _ZIGZAG_ROW = list(accumulate(reversed(_ZIGZAG_ROW), initial=0))
        four = 4 ** (m // 2)
        b = Fraction(m * _ZIGZAG_ROW[-1], four * (four - 1))
        _BERNOULLI.append(b if m % 4 == 2 else -b)
    return _BERNOULLI[n]


def bernoulli_numbers(n_max: int) -> list[Fraction]:
    """Bernoulli numbers B_0 .. B_{n_max} as exact fractions (B_1 = -1/2).

    For even m >= 2, B_m = (-1)^(m/2-1) m E_{m-1} / (4^(m/2) (4^(m/2) - 1)),
    where the zigzag (tangent) number E_{m-1} ends row m - 1 of Seidel's
    boustrophedon: row 0 is [1], and row n is the running sums, from 0, of
    row n - 1 reversed (Knuth & Buckholtz, "Computation of tangent, Euler,
    and Bernoulli numbers", Math. Comp. 21, 1967).  The rows take integer
    additions only, so every index is exact; results are cached across calls.
    """
    if n_max < 0:
        raise ValueError(f"n_max must be >= 0; got {n_max}")
    _bernoulli(n_max)
    return _BERNOULLI[: n_max + 1]


_ASYMPTOTIC_TERM_CAP = 500
# Bits kept at each end of the bracketed factors of an asymptotic term.
_G = 128
_MIN_NORMAL = sys.float_info.min
# The thresholds of the jump: the ``cf`` docstring, "The asymptotic jump".
_RELEVANT = 2.0 ** -70
_FOUR_PI_SQUARED = 39.47841760435729
# Entry m is |B_2m numerator| as the bracket (lo, hi, e) that ``_truncated``
# gives it, then B_2m's denominator and whether B_2m < 0: the numerators run
# to thousands of bits, and every call reuses them.
_B2M_BRACKETS: list[tuple[int, int, int, int, bool]] = []


def _truncated(lo: int, hi: int, e: int) -> tuple[int, int, int]:
    """Shorten the bracket lo * 2^e <= x <= hi * 2^e to ends of about _G
    bits: lo is truncated down and hi up (the + 1 covers the dropped bits),
    so the bracket still holds x.  A bracket with lo == hi is exact."""
    k = hi.bit_length() - _G
    if k <= 0:
        return lo, hi, e
    return lo >> k, (hi >> k) + 1, e + k


def _scaled_quotient(a: int, b: int, e: int) -> float:
    """a * 2^e / b, correctly rounded, for a and b of about _G bits: the
    quotient rounded once and scaled exactly, unless the result leaves the
    normal range (``OverflowError`` above it; rounded once on the subnormal
    grid below it)."""
    t = math.ldexp(a / b, e)
    if t < _MIN_NORMAL:
        t = a / (b << -e)
    return t


def _power(x: int, p: int) -> tuple[int, int, int]:
    """x^p as a ``_truncated`` bracket, by square and multiply."""
    lo, hi, e = 1, 1, 0
    for bit in bin(p)[2:]:
        y = x if bit == "1" else 1
        lo, hi, e = _truncated(lo * lo * y, hi * hi * y, 2 * e)
    return lo, hi, e


def _settled(terms: list[float], bound: float) -> bool:
    """Whether fsum(terms) stays the fsum with any reals in [-bound, 0] added."""
    v = math.fsum(terms)
    half_gap = (v - math.nextafter(v, -math.inf)) / 2
    return v > 2**-960 and bound - math.fsum(terms + [-v]) < half_gap * (1 - 2**-48)


def asymptotic(r: float, n_terms: Union[int, str] = "auto") -> AsymptoticResult:
    """Large-r expansion S(r) ~ sum_{m>=0} (-1)^m B_{2m} / r^{2m+2}.

    The expansion is divergent; ``n_terms="auto"`` stops right before the
    first term whose magnitude fails to decrease (the standard optimal
    truncation), capped at 500 terms.  Past the leading 1/r^2 every term is
    negative, and magnitudes shrink roughly until m ~ pi r: at small r
    ``auto`` keeps one term and ``first_omitted_term`` (the magnitude of the
    first term dropped) exceeds it, the sign of nothing to offer there.

    r is read once as a float64 (a ``Fraction`` r gives exactly what
    ``float(r)`` gives), and every term is the correctly rounded float of its
    exact rational value, so huge Bernoulli numerators cannot overflow.  With
    r = num/2^s, term m is (-1)^m B_2m * 2^(s(2m+2)) / num^(2m+2).  The
    factors |B_2m numerator| and num^(2m+2) are carried as brackets of about
    _G bits (the first built once per m and kept across calls), so the term
    lies between two small quotients; rounding is monotone, so when both
    round to the same float, that float is the term (while both factors fit
    in _G bits the bracket is exact and one quotient is enough).  Otherwise
    (a near tie, or an overflow) the term is one correctly rounded
    ``int / int`` of the exact integers.  A term beyond float64 (B_2/r^4 for
    r below about 1.7e-78) is outside the route's domain and raises
    ``ValueError``, as does a non-finite r.

    Only terms that can change the result are formed: the head, until one
    falls below 2^-70 t_0, then those from the last m where |t_m| < |t_m-1|
    is proven (near pi r) to the stop.  ``terms_used`` counts the skipped
    ones, which are formed after all where their bound cannot settle the
    sum; so every output is as with all terms formed (``cf`` docstring,
    "The asymptotic jump").
    """
    r = float(r)
    if not (0 < r < math.inf):
        raise ValueError(f"r must be finite and > 0; got {r!r}")
    auto = n_terms == "auto"
    if not auto:
        if not isinstance(n_terms, int) or n_terms < 1:
            raise ValueError(f'n_terms must be a positive integer or "auto"; got {n_terms!r}')
    cap = _ASYMPTOTIC_TERM_CAP if auto else n_terms

    num, den = r.as_integer_ratio()
    num2 = num * num
    # den = 2^s is applied as an exponent instead of a big-integer product.
    s = den.bit_length() - 1
    nl, nh, ne = 1, 1, 0  # num2^(m+1) in [nl, nh] * 2^ne
    brackets = _B2M_BRACKETS
    terms: list[float] = []
    resume, skipped = (), 0  # the state before the jump; None once undone
    first_omitted = None
    m = 0
    while True:
        nl, nh, ne = _truncated(nl * num2, nh * num2, ne)
        while m >= len(brackets):
            b2m = _bernoulli(2 * len(brackets))
            bl = abs(b2m.numerator)
            brackets.append((*_truncated(bl, bl, 0), b2m.denominator, b2m < 0))
        bl, bh, be, bd, negative = brackets[m]
        e = be + 2 * s * (m + 1) - ne
        try:
            t = _scaled_quotient(bl, bd * nh, e)
            if not (bl == bh and nl == nh):  # else the bracket is exact
                if t != _scaled_quotient(bh, bd * nl, e):
                    t = None
        except OverflowError:
            t = None
        if t is None:
            p = m + 1
            bn = _BERNOULLI[2 * m].numerator
            try:
                t = (bn << (2 * s * p)) / (bd * num2 ** p)
            except OverflowError:
                raise ValueError(
                    f"asymptotic term B_{2 * m}/r^{2 * m + 2} overflows float64 at r={r!r}"
                ) from None
        elif negative:
            t = -t
        if m % 2:
            t = -t
        stop = auto and terms and abs(t) >= abs(terms[-1]) or m == cap
        if resume and (len(terms) == resume[0] and not abs(t) > _MIN_NORMAL
                       or stop and not _settled(terms, skipped * abs(terms[resume[0] - 1]))):
            m, nl, nh, ne = resume  # form the skipped terms after all
            del terms[m:]
            resume, skipped = None, 0
            continue
        if stop:
            first_omitted = abs(t)
            break
        terms.append(t)
        m += 1
        if resume == () and r < 112 and abs(t) < terms[0] * _RELEVANT:
            # Jump to the last m with |t_m| < |t_m-1| proven; past r = 112 t_m is subnormal there.
            x = _FOUR_PI_SQUARED * r * r
            w = min(cap, int((1 + math.sqrt(1 + 4 * x)) / 4))
            while w > m and 2 * w * (2 * w - 1) > x:
                w -= 1
            if w > m + 1:
                resume, skipped = (m, nl, nh, ne), w - m
                nl, nh, ne = _power(num2, w)
                m = w
    return AsymptoticResult(math.fsum(terms), len(terms) + skipped, first_omitted)
