"""Independent numerical routes to S(r), used to cross-check the
continued-fraction machinery (and each other), and the constant zeta(3).

Two routes, sharing no code with the fraction engine:

* ``mathieu_trigamma``/``tail_via_trigamma`` — the series tail is the
  imaginary part of the trigamma function at a complex argument,
  T(r, x) = Im(psi1(x - i r)) / r, evaluated by upward recurrence plus the
  Bernoulli asymptotic expansion.
* ``mathieu_integral`` — the oscillatory integral
  S(r) = (1/r) * Integral_0^inf u sin(ru) / (e^u - 1) du, truncated with an
  explicit exponential tail bound and integrated by an oscillatory-weight
  quadrature rule.

``ZETA3`` pins the r -> 0 limit S(0) = 2 zeta(3), which Apery's fraction
(``cf.apery_form``, the paper's fraction at r = 0) converges to.
"""

from __future__ import annotations

import math
import sys
from typing import Union

from .series import bernoulli_numbers

__all__ = [
    "trigamma",
    "tail_via_trigamma",
    "mathieu_trigamma",
    "mathieu_integral",
]

# zeta(3) = 1.20205690315959428540..., correctly rounded (4.9e-17 below).
# Not in ``__all__``: the package exports functions and records only.
ZETA3 = 1.2020569031595942

# Push the argument to Re >= 10 before using the asymptotic series; with
# Bernoulli terms through B_20 the truncation error is ~|B_22|/|s|^23,
# below 1e-19 there.
_TRIGAMMA_SHIFT = 10.0
_TRIGAMMA_BERNOULLI_TERMS = 10
# B_2, B_4, .., B_20 as floats, built on first use.
_TRIGAMMA_B2K: list[float] = []


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
    if not _TRIGAMMA_B2K:
        bern = bernoulli_numbers(2 * _TRIGAMMA_BERNOULLI_TERMS)
        _TRIGAMMA_B2K.extend(float(b) for b in bern[2::2])
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
    """
    _require_normal_r(r)
    if not (x > 0):
        raise ValueError(f"x must be > 0; got {x!r}")
    return trigamma(complex(x, -r)).imag / r


def mathieu_trigamma(r: float) -> float:
    """S(r) as the full tail from x = 1: Im psi1(1 - i r)/r."""
    return tail_via_trigamma(r, 1.0)


def _truncation_point(r: float, tol: float) -> float:
    # Tail of the integrand past X: 1/(e^u - 1) <= e^-u/(1 - e^-X), and
    # int_X^inf u e^-u du = (X+1) e^-X, so the tail of S(r) is below
    # (X+1) e^-X / ((1 - e^-X) r).  Find X putting that under tol/2.
    X = 30.0
    while (X + 1) * math.exp(-X) / (1 - math.exp(-X)) > 0.5 * tol * r:
        X += 5.0
        if X > 750:  # e^-X underflows long before this
            raise ValueError(f"no finite truncation point for tol={tol!r}, r={r!r}")
    return X


def mathieu_integral(r: float, tol: float = 1e-10) -> float:
    """S(r) = (1/r) Integral_0^inf u sin(ru)/(e^u - 1) du.

    The integral is truncated at X chosen so the dropped tail is below
    tol/2, then evaluated with an oscillatory (sin-weight) quadrature rule
    with an error budget of tol/2; if the rule cannot certify that budget,
    the tolerance is refused rather than silently degraded.  Requires
    tol >= 1e-10: below that the budget is not honest for float64
    quadrature.  r must be a normal float, as for ``tail_via_trigamma``.
    """
    _require_normal_r(r)
    if not (tol >= 1e-10):
        raise ValueError(f"tol must be >= 1e-10; got {tol!r}")
    # Imported here, not at module scope: scipy is most of a cold start, and
    # no other route needs it.
    from scipy.integrate import quad

    def integrand(u: float) -> float:
        if u == 0.0:
            return 1.0  # limit of u/(e^u - 1)
        try:
            return u / math.expm1(u)
        except OverflowError:  # u > 709.78, where e^u - 1 = e^u to 1e-308
            return u * math.exp(-u)

    X = _truncation_point(r, tol)
    budget = 0.5 * tol * r  # error allowance before the 1/r factor
    value, abserr, *rest = quad(
        integrand,
        0.0,
        X,
        weight="sin",
        wvar=r,
        limit=400,
        epsabs=0.25 * budget,
        epsrel=1e-13,
        full_output=1,
    )
    if len(rest) > 1 or abserr > budget:
        raise ValueError(
            f"requested tolerance below quadrature capability: tol={tol!r}, "
            f"r={r!r}, estimated error {abserr / r!r}"
        )
    return value / r
