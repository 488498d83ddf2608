"""The Mathieu-type series S(r) = sum_{m>=1} 2m/(m^2+r^2)^2 and its
certified enclosures: the eval path.

The tail of the series starting at any real offset x > 1/2,

    T(r, x) = sum_{m>=0} 2(x+m) / ((x+m)^2 + r^2)^2,

equals a generalized continued fraction in the variable z = x^2 - x, whose
three equivalent shapes (``ab_form``, ``cd_form``, ``kappa_lambda_form``)
are given in ``cf``.  Splitting S(r) at an integer k >= 1,

    S(r) = sum_{m=1}^{k-1} 2m/(m^2+r^2)^2 + T(r, k),

and approximating T by continued-fraction approximants yields certified
enclosures: for z >= 0 every partial coefficient is positive, so even-index
approximants increase to the value and odd-index approximants decrease to
it.  ``tail_enclosure`` walks the ``ab_form`` recurrence inline to bracket
T, ``mathieu_theorem1`` packages that bracketing, and ``mathieu_direct`` is
the independent partial-sum route with an integral-test and convexity
tail bracket.  The large-r expansion ``asymptotic`` and its Bernoulli
numbers are here too.

At z = 0 the bracket narrows only like 1/n; ``tail_enclosure`` then turns
to a tail interval (``tail_interval``), whose proof is in the ``cf`` module
docstring.

Only the bracketing is certified, and only for z >= 0 (x >= 1).  For
x in (1/2, 1) the odd-index partial denominators z + r^2/(2n+1) eventually
turn negative, the even/odd ordering breaks down, and approximants converge
slowly from one side; ``cf.telescoping_residual`` documents how it degrades
to an uncertified evaluation there.

The module imports nothing from the package but ``tail_interval``, on the
first z = 0 call that needs it: it also holds the record base ``_Record``
and the exact power-of-two rescale that the ``cf`` engine, ``bounds`` and
``cli`` build on, so a ``mathieucf eval`` process compiles no theory-layer
code.
"""

from __future__ import annotations

import math
import sys
from itertools import accumulate
from typing import Optional, Union

__all__ = [
    "MathieuCFParams",
    "Enclosure",
    "TailBracket",
    "AsymptoticResult",
    "mathieu_partial_sum",
    "mathieu_direct",
    "tail_enclosure",
    "mathieu_theorem1",
    "theorem1_to_width",
    "bernoulli_numbers",
    "asymptotic",
]

# Recurrence state above this is rescaled by an exact power of two.
DEFAULT_RESCALE_AT = 1e150


_set = object.__setattr__


def _rebuild(cls, fields):
    return cls(**fields)


class _Record:
    """Immutable value record, compared, hashed and printed field by field.

    A subclass names its fields, in order, in ``_fields`` (its ``__slots__``
    too, unless it keeps a ``__dict__``) and sets each one in its own
    ``__init__`` through ``object.__setattr__``.  Equality, hashing and repr
    match what a frozen dataclass with the same fields gives.
    """

    __slots__ = ()
    _fields: tuple[str, ...] = ()

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def _values(self) -> tuple:
        return tuple([getattr(self, name) for name in self._fields])

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._values() == other._values()
        return NotImplemented

    def __hash__(self):
        return hash(self._values())

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{self.__class__.__qualname__}({fields})"

    def __reduce__(self):
        # copy and pickle rebuild through __init__: their default path
        # assigns the fields, which __setattr__ refuses.
        return _rebuild, (self.__class__, dict(zip(self._fields, self._values())))


def _rescale_factor(rescale_at: float) -> float:
    # Largest power of two <= 1/rescale_at keeps the factor exact and the
    # rescaled state comfortably inside range.
    return 2.0 ** -math.floor(math.log2(rescale_at))


def _rescaled(n: int, scale: float, a_cur, a_prev, b_cur, b_prev):
    """The state after term ``n`` times ``scale``, for state that failed its
    caller's ``<= rescale_at`` test: inf and NaN fail it too, so overflow is
    raised here, off the per-term path.  Exact (Fraction or int) state comes
    back as it is: it cannot overflow, and the float factor would turn it
    float."""
    if not isinstance(a_cur, float):
        return a_cur, a_prev, b_cur, b_prev
    if not (math.isfinite(a_cur) and math.isfinite(b_cur)):
        raise OverflowError(
            f"numerical overflow despite rescaling at n={n} "
            f"(A={a_cur!r}, B={b_cur!r})"
        )
    return a_cur * scale, a_prev * scale, b_cur * scale, b_prev * scale


# Direct summation refuses tolerances needing more terms than this.
_DIRECT_TERM_CAP = 20_000_000
_SCALE = _rescale_factor(DEFAULT_RESCALE_AT)
# ``tail_interval`` once ``tail_enclosure`` has loaded it.
_tail_interval = None


class MathieuCFParams(_Record):
    """Parameters of the continued-fraction tail T(r, x).

    ``r`` is the series parameter (finite and >= 0; at r = 0 the shapes in
    ``cf`` give Apery's fraction for zeta(3) = S(0)/2, while the
    enclosures, from ``tail_enclosure`` on, need r > 0), ``x`` the tail
    offset (x > 1/2, where the representation is valid), and
    ``z = x^2 - x`` the variable the partial denominators live in.  Fields
    accept `fractions.Fraction` for exact-arithmetic runs.
    """

    __slots__ = _fields = ("r", "x")

    def __init__(self, r: float, x: float):
        if not (r >= 0):
            raise ValueError(f"r must be >= 0; got {r!r}")
        if r == math.inf:
            raise ValueError(f"r must be finite; got {r!r}")
        if not (x > 0.5):
            raise ValueError(f"x must be > 1/2; got {x!r}")
        _set(self, "r", r)
        _set(self, "x", x)

    @property
    def z(self) -> float:
        return self.x * self.x - self.x


class Enclosure(_Record):
    """A closed interval [lower, upper] certified to contain a value."""

    __slots__ = _fields = ("lower", "upper")

    def __init__(self, lower: float, upper: float):
        if not (lower <= upper):
            raise ValueError(f"empty enclosure: lower={lower!r} > upper={upper!r}")
        _set(self, "lower", lower)
        _set(self, "upper", upper)

    @property
    def width(self) -> float:
        return self.upper - self.lower

    @property
    def midpoint(self) -> float:
        return 0.5 * (self.lower + self.upper)

    def contains(self, value: float) -> bool:
        return self.lower <= value <= self.upper


class TailBracket(_Record):
    """Enclosure of T(r, x), with its cost: the even/odd-approximant bracket,
    or at z = 0 the tail interval (the plan is in ``tail_enclosure``).

    ``achieved`` records whether the requested width was reached before the
    term cap; when False, ``enclosure`` is the best enclosure at the cap, or
    for a tail interval the pass at which the search met the rounding floor.
    For a tail interval at level N, ``terms_used`` is 2N; a pass before it
    and a walk run first (``tail_enclosure``) are not counted.
    """

    __slots__ = _fields = ("enclosure", "terms_used", "achieved")

    def __init__(self, enclosure: Enclosure, terms_used: int, achieved: bool):
        _set(self, "enclosure", enclosure)
        _set(self, "terms_used", terms_used)
        _set(self, "achieved", achieved)


class AsymptoticResult(_Record):
    """Truncated large-r expansion: value, terms kept, first omitted magnitude."""

    __slots__ = _fields = ("value", "terms_used", "first_omitted_term")

    def __init__(self, value: float, terms_used: int, first_omitted_term: float):
        _set(self, "value", value)
        _set(self, "terms_used", terms_used)
        _set(self, "first_omitted_term", first_omitted_term)


def _one(params: MathieuCFParams):
    # Multiplicative unit in the parameter's arithmetic (1.0 or Fraction(1)),
    # so integer coefficient ratios stay exact on exact inputs.
    return (params.r - params.r) + 1


def _require_positive_r(r: float) -> None:
    if not (r > 0):
        raise ValueError(f"r must be > 0; got {r!r}")


def _overflow(r: float, quantity: str = "(m^2 + r^2)^2") -> OverflowError:
    return OverflowError(f"{quantity} overflows float64 at r={r!r}")


def mathieu_partial_sum(r: float, k: int) -> float:
    """Head sum_{m=1}^{k-1} 2m/(m^2+r^2)^2 (0.0 for k = 1)."""
    rr = r * r
    try:
        return math.fsum(2 * m / (m * m + rr) ** 2 for m in range(1, k))
    except OverflowError:
        raise _overflow(r) from None


def mathieu_direct(
    r: float,
    tol: float = 1e-10,
    m_terms: Optional[int] = None,
) -> Enclosure:
    """Enclose S(r) by partial summation plus a two-part tail bracket.

    The summand f(x) = 2x/(x^2+r^2)^2 has the antiderivative -1/(x^2+r^2)
    and f''(x) = 24x(x^2-r^2)/(x^2+r^2)^4, so f decreases for x >= r/sqrt(3)
    and is convex for x >= r.  After the head sum over m = 1..M, with
    R = max(M, ceil(r - 1/2)):

    * the terms M < m <= R are bracketed by the integral test (valid for
      M >= r/sqrt(3)), between 1/((M+1)^2+r^2) - 1/((R+1)^2+r^2) and
      1/(M^2+r^2) - 1/(R^2+r^2);
    * the terms m > R sit where f is convex (R + 1/2 >= r), so Hermite-
      Hadamard bounds each one: f(m) is at most the integral of f over
      [m-1/2, m+1/2] (midpoint rule), and the integral over [m, m+1] is at
      most (f(m) + f(m+1))/2 (trapezoid rule).  Summed, they lie between
      1/((R+1)^2+r^2) + f(R+1)/2 and 1/((R+1/2)^2+r^2).

    Together:

        lower = 1/((M+1)^2 + r^2) + f(R+1)/2
        upper = 1/(M^2 + r^2) - 1/(R^2 + r^2) + 1/((R+1/2)^2 + r^2)

    Width.  f''(x) <= 24x*x^2/x^8 = 24/x^5.  The midpoint rule errs on
    [m-1/2, m+1/2] by f''(xi)/24 <= 1/(m-1/2)^5, the trapezoid rule on
    [m, m+1] by f''(xi)/12 <= 2/m^5, and since 1/x^5 is convex and
    decreasing, sum_{m>M} 1/(m-1/2)^5 <= int_M^inf x^-5 dx = 1/(4M^4) and
    sum_{m>M} 1/m^5 <= 1/(4M^4).  So when R = M (M >= r - 1/2) the width is
    at most 3/(4M^4), and ``tol`` picks M_conv = ceil((3/(4 tol))^(1/4)):
    295 terms at tol 1e-10, 931 at 1e-12.  The bracket only ever tightens
    the integral-test bracket [1/((M+1)^2+r^2), 1/(M^2+r^2)] at the same M,
    whose width is at most 2/M^3; M_mono = ceil(max((2/tol)^(1/3),
    r/sqrt(3), 1)) (2,715 and 12,600 terms) meets ``tol`` with it.  M is
    min(M_mono, max(M_conv, ceil(r))): either way the width is <= tol, and
    M never exceeds M_mono, whose cap decides which tolerances are refused.

    Accepts r = 0 (giving 2*zeta(3)).  ``m_terms`` forces M, bypassing both
    the width target and the monotonicity threshold: the bracket formula is
    returned as-is, certified only when m_terms >= r/sqrt(3); below that the
    plain integral-test formula [1/((M+1)^2+r^2), 1/(M^2+r^2)] is returned,
    which unlike the split one is never empty.  Raises
    ``ValueError`` for a non-finite r, and ``OverflowError`` where
    (m^2 + r^2)^2 overflows float64 (r above about 1.2e77), also where r^2
    is inf and the bracket would collapse to [0, 0].
    """
    if not (r >= 0):
        raise ValueError(f"r must be >= 0; got {r!r}")
    if r == math.inf:
        raise ValueError(f"r must be finite; got {r!r}")
    if m_terms is not None:
        if m_terms < 1:
            raise ValueError(f"m_terms must be >= 1; got {m_terms}")
        M = m_terms
    else:
        if not (tol > 0):
            raise ValueError(f"tol must be > 0; got {tol!r}")
        # Capped before rounding: (2/tol)^(1/3) is inf for tol below ~1e-308.
        M = max((2 / tol) ** (1 / 3), r / math.sqrt(3), 1)
        if M > _DIRECT_TERM_CAP:
            raise ValueError(
                f"tolerance unachievable by direct summation: tol={tol!r} at r={r!r} "
                f"needs more than {_DIRECT_TERM_CAP} terms"
            )
        M = min(math.ceil(M), max(math.ceil((0.75 / tol) ** 0.25), math.ceil(r)))
    rr = r * r
    if rr == math.inf:
        raise _overflow(r)
    try:
        # Float counters give the int counters' bits for M < 2^53: m + m is
        # exact, float m * m is the rounded m^2 that the int product becomes
        # on meeting rr, and ``** 2`` stays (y * y rounds differently).
        partial = math.fsum(
            (m + m) / (m * m + rr) ** 2 for m in map(float, range(1, M + 1))
        )
        if M < r / math.sqrt(3):
            # Only a forced M gets here; the split bracket can come out
            # empty below the monotone range, the integral-test one cannot.
            lower, upper = 1 / ((M + 1) ** 2 + rr), 1 / (M * M + rr)
        else:
            # r - 1/2 is exact below 2^52, far beyond any M that can be summed.
            R = max(M, math.ceil(r - 0.5))
            lower = 1 / ((M + 1) ** 2 + rr) + (R + 1) / ((R + 1) ** 2 + rr) ** 2
            upper = 1 / (M * M + rr) - 1 / (R * R + rr) + 1 / ((R + 0.5) ** 2 + rr)
    except OverflowError:
        raise _overflow(r) from None
    return Enclosure(partial + lower, partial + upper)


def _walk(params: MathieuCFParams, width: float, max_terms: int) -> TailBracket:
    """Walk the approximants of ``ab_form(params)``, tracking the even/odd
    bracket [f_even, f_odd] of its value.

    A pass applies the odd term n = q = 2m + 1 and the even term n + 1 with
    inline coefficients and the float operations, in order, of the ``cf``
    recurrence on ``ab_form`` (b_{2m} = 1 drops an exact 1 * A): brackets
    are bit-identical while m*m is exact in float64 (n < 1.9e8).

    The caller guarantees z >= 0, so every coefficient is positive and so is
    every A_n and B_n (sums and products of positives; float rounding never
    turns a positive result negative).  Two tests per half-step become
    one-sided:

    * Rescale: ``x <= big`` is ``abs(x) <= big`` for x >= 0, and inf and
      NaN still fail it and reach ``_rescaled``'s OverflowError.
    * Stop: one comparison ``hi - lo <= stop`` per pass.  With width > 0,
      stop = width, and a crossing (hi - lo < 0) passes it too.  With
      width = 0, stop = -ulp(0.0): a difference of unequal floats is a
      nonzero multiple of ulp(0.0), so hi - lo <= stop exactly when lo > hi.
      Exact (Fraction or int) runs never cross.  The branch it guards tells
      crossing from width.  A NaN difference fails it, as NaN fails
      ``lo > hi``, and the walk runs on to the cap.

    At z = 0, b_1 = r^2 underflows below r ~ 1.5e-154: B_n can reach 0, or
    stay so small that the odd end of the bracket overflows to inf.  Both
    raise ``ValueError``; the ``try`` around the loop costs nothing per
    term."""
    big = DEFAULT_RESCALE_AT
    scale = _SCALE
    stop = width if 0 < width else -math.ulp(0.0)
    one = _one(params)
    rr = params.r * params.r
    rr4 = 4 * rr
    z = params.z
    m = one - one  # in the parameters' arithmetic, as ab_form's ``* one``
    q, d = 1, 2  # d = 2q divides both a_q and a_{q+1}
    a_odd, b = one, z + rr  # a_1, b_1
    a_prev, a_cur = 1, one - one  # A_{-1}, A_0
    b_prev, b_cur = 0, 1  # B_{-1}, B_0
    lo = None
    try:
        while True:
            a_cur, a_prev = b * a_cur + a_odd * a_prev, a_cur
            b_cur, b_prev = b * b_cur + a_odd * b_prev, b_cur
            if not (a_cur <= big and b_cur <= big):
                a_cur, a_prev, b_cur, b_prev = _rescaled(q, scale, a_cur, a_prev, b_cur, b_prev)
            hi = a_cur / b_cur
            if q >= max_terms:
                n = q
                break
            n = q + 1
            m += one
            mm = m * m
            a = mm * m / d
            a_cur, a_prev = a_cur + a * a_prev, a_cur
            b_cur, b_prev = b_cur + a * b_prev, b_cur
            if not (a_cur <= big and b_cur <= big):
                a_cur, a_prev, b_cur, b_prev = _rescaled(n, scale, a_cur, a_prev, b_cur, b_prev)
            lo = a_cur / b_cur
            if hi - lo <= stop:
                if lo > hi:
                    # Exact arithmetic guarantees even <= odd here; a
                    # crossing can only be float rounding after the true gap
                    # shrank below ulp scale.  The bracket is saturated: swap
                    # and stop.  A large inversion would mean the positivity
                    # hypothesis was violated.
                    drift = (16 + n) * math.ulp(max(abs(lo), abs(hi)))
                    if lo - hi > drift:
                        raise ValueError(
                            f"approximants not bracketing at n={n}: even={lo!r} > "
                            f"odd={hi!r}; positive-coefficient hypothesis violated?"
                        )
                    lo, hi = hi, lo
                break
            if n >= max_terms:
                break
            q += 2
            d = 2 * q
            a_odd = m * (mm + rr4) / d
            b = z + rr / q
    except ZeroDivisionError:  # B_n reached 0: an odd end at inf, as below
        lo = hi = math.inf
    if lo is None:  # max_terms <= 1 leaves the bracket open
        raise ValueError(f"max_terms={max_terms} too small to form a bracket")
    enclosure = Enclosure(lo, hi)
    if hi == math.inf:
        raise ValueError(
            f"approximant denominator underflowed to 0 at r={params.r!r}: r^2 underflows"
        )
    return TailBracket(enclosure, n, enclosure.width <= width)


def tail_enclosure(r: float, x: float, width: float, max_terms: int = 200_000) -> TailBracket:
    """Certified enclosure of the tail T(r, x), for z = x^2 - x >= 0.

    Grows the approximant index until the even/odd bracket's width drops to
    ``width`` or ``max_terms`` is hit (``achieved`` tells which); width = 0
    means "spend the whole budget".  Raises for z < 0, where positivity — and
    with it the bracketing guarantee — fails.

    At z = 0 (int or float r, x = 1) the bracket narrows only like 1/n.
    There, with width > 0, ``tail_interval.start`` brackets r^2 and finds
    N_0, the level from which the tail set V_N provably holds the tail.
    Where N_0 exceeds max_terms/2 or ``tail_interval.MAX_LEVEL`` the walk
    alone answers.  Else the tail interval S_N(V_N) of the contracted
    fraction does: ``tail_interval._search`` passes first at N = max(N_0,
    the level its width law predicts for the width), and again, up to
    min(max_terms/2, MAX_LEVEL), only where a pass falls short.  Only where
    N_0 > PROBE_LEVEL (r from about 2.6) does a walk of N_0 // 2 terms run
    first, and answer if it meets the width: from r of about 4.8 it meets
    1e-12 within them.  A walk term costs about 1.25 times a level (pinned
    at r = 3 and 4.2), so the walk costs about 0.6 times the first pass; on
    r in [2.6, 4.8] at 1e-12, N_0 // 3 and N_0 // 4 terms were no faster.
    Rounded outward, the tail interval holds T(r, 1) in floating point,
    also where r^2 underflows and the walk cannot start (proof in the
    ``cf`` module docstring).
    ``terms_used`` is then 2N: the walk and any earlier pass are not counted.
    """
    _require_positive_r(r)
    if x == 1 and 0 < width:  # valid x and width; a plan needs a finite r
        global _tail_interval
        if _tail_interval is None:  # compiled on the first such call
            from . import tail_interval as _tail_interval
        plan = _tail_interval.start(r, x, width, max_terms)
        if plan is not None:
            rho, n0, n_max, walk_terms = plan
            if walk_terms:
                try:
                    bracket = _walk(MathieuCFParams(r, x), width, walk_terms)
                    if bracket.achieved:
                        return bracket
                except ValueError:  # a crossed pair past its drift: the pass answers
                    pass
            lower, upper, level = _tail_interval._search(rho, width, n0, n_max)
            enclosure = Enclosure(lower, upper)
            return TailBracket(enclosure, 2 * level, enclosure.width <= width)
    params = MathieuCFParams(r, x)
    if params.z < 0:
        raise ValueError(
            f"bracketing requires z = x^2 - x >= 0 (x >= 1); got x={x!r}, z={params.z!r}"
        )
    if not (width >= 0):
        raise ValueError(f"width must be >= 0; got {width!r}")
    return _walk(params, width, max_terms)


def mathieu_theorem1(r: float, k: int = 1, n_terms: int = 80) -> Enclosure:
    """Certified enclosure of S(r) = head(k) + T(r, k) with a fixed term budget.

    Uses the even approximant at 2*(n_terms//2) as lower bound and the odd
    approximant just before it as upper bound, shifted by the exact head sum.
    The identity holds for every integer k >= 1; larger k means z = k^2 - k
    grows and the bracket tightens faster per term.
    """
    pairs = n_terms // 2
    if pairs < 1:
        raise ValueError(f"n_terms must be >= 2; got {n_terms}")
    return theorem1_to_width(r, k, 0.0, 2 * pairs)[0]


def theorem1_to_width(
    r: float, k: int, width: float, max_terms: int = 200_000
) -> tuple[Enclosure, int, bool]:
    """Adaptive form of ``mathieu_theorem1``: grow terms until the S(r)
    enclosure is narrower than ``width`` (or the cap binds).

    Returns (enclosure, terms_used, achieved).
    """
    if k < 1:
        raise ValueError(f"k must be a positive integer; got {k}")
    bracket = tail_enclosure(r, float(k), width, max_terms=max_terms)
    head = mathieu_partial_sum(r, k)
    enclosure = Enclosure(head + bracket.enclosure.lower, head + bracket.enclosure.upper)
    return enclosure, bracket.terms_used, bracket.achieved


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

    Every term is the correctly rounded float of its exact rational value,
    so huge Bernoulli numerators cannot overflow.  With r = num/(odd * 2^s),
    term m is (-1)^m B_2m * odd^(2m+2) * 2^(s(2m+2)) / num^(2m+2).  The
    factors |B_2m numerator|, odd^(2m+2) and num^(2m+2) are carried as
    brackets of about _G bits (the first built once per m and kept across
    calls), so the term lies between two small quotients; rounding is
    monotone, so when both round to the same float, that float is the term
    (while all three factors fit in _G bits the bracket is exact and one
    quotient is enough).  Otherwise (a near tie, or an overflow) the term is
    one correctly rounded ``int / int`` of the exact integers.  A term
    beyond float64 (B_2/r^4 for r below about 1.7e-78) is outside the
    route's domain and raises ``ValueError``, as does a non-finite r.

    Only terms that can change the result are formed: the head, until one
    falls below 2^-70 t_0, then those from the last m where |t_m| < |t_m-1|
    is proven (near pi r) to the stop.  ``terms_used`` counts the skipped
    ones, which are formed after all where their bound cannot settle the
    sum; so every output is as with all terms formed (``cf`` docstring,
    "The asymptotic jump").
    """
    if not (0 < r < math.inf):
        raise ValueError(f"r must be finite and > 0; got {r!r}")
    auto = n_terms == "auto"
    if not auto:
        if not isinstance(n_terms, int) or n_terms < 1:
            raise ValueError(f'n_terms must be a positive integer or "auto"; got {n_terms!r}')
    cap = _ASYMPTOTIC_TERM_CAP if auto else n_terms

    from fractions import Fraction

    r_exact = Fraction(r)
    num2 = r_exact.numerator ** 2
    # den = odd * 2^s, and odd = 1 for every float r: the power of two in
    # den^(2m+2) is applied as an exponent instead of a big-integer product.
    den = r_exact.denominator
    s = (den & -den).bit_length() - 1
    odd2 = (den >> s) ** 2
    # num2^(m+1) in [nl, nh] * 2^ne and odd2^(m+1) in [ol, oh] * 2^oe.
    nl = nh = ol = oh = 1
    ne = oe = 0
    brackets = _B2M_BRACKETS
    terms: list[float] = []
    resume, skipped = (), 0  # the state before the jump; None once undone
    first_omitted = None
    m = 0
    while True:
        nl, nh, ne = _truncated(nl * num2, nh * num2, ne)
        if odd2 != 1:
            ol, oh, oe = _truncated(ol * odd2, oh * odd2, oe)
        while m >= len(brackets):
            b2m = _bernoulli(2 * len(brackets))
            bl = abs(b2m.numerator)
            brackets.append((*_truncated(bl, bl, 0), b2m.denominator, b2m < 0))
        bl, bh, be, bd, negative = brackets[m]
        e = be + oe + 2 * s * (m + 1) - ne
        try:
            t = _scaled_quotient(bl * ol, bd * nh, e)
            if not (bl == bh and ol == oh and nl == nh):  # else the bracket is exact
                if t != _scaled_quotient(bh * oh, bd * nl, e):
                    t = None
        except OverflowError:
            t = None
        if t is None:
            p = m + 1
            bn = _BERNOULLI[2 * m].numerator
            try:
                t = ((bn * odd2 ** p) << (2 * s * p)) / (bd * num2 ** p)
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
            m, nl, nh, ne, ol, oh, oe = resume  # form the skipped terms after all
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
            rf = float(r)
            x = _FOUR_PI_SQUARED * rf * rf
            w = min(cap, int((1 + math.sqrt(1 + 4 * x)) / 4))
            while w > m and 2 * w * (2 * w - 1) > x:
                w -= 1
            if w > m + 1:
                resume, skipped = (m, nl, nh, ne, ol, oh, oe), w - m
                nl, nh, ne = _power(num2, w)
                ol, oh, oe = _power(odd2, w) if odd2 != 1 else (1, 1, 0)
                m = w
    return AsymptoticResult(math.fsum(terms), len(terms) + skipped, first_omitted)
