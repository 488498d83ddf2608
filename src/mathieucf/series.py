"""The Mathieu-type series S(r) = sum_{m>=1} 2m/(m^2+r^2)^2 and its
continued-fraction representation.

The tail of the series starting at any real offset x > 1/2,

    T(r, x) = sum_{m>=0} 2(x+m) / ((x+m)^2 + r^2)^2,

equals a generalized continued fraction in the variable z = x^2 - x, given
here in three equivalent shapes (``ab_form``, ``cd_form``,
``kappa_lambda_form``).  Splitting S(r) at an integer k >= 1,

    S(r) = sum_{m=1}^{k-1} 2m/(m^2+r^2)^2 + T(r, k),

and approximating T by continued-fraction approximants yields certified
enclosures: for z >= 0 every partial coefficient is positive, so even-index
approximants increase to the value and odd-index approximants decrease to
it.  ``mathieu_theorem1`` packages that bracketing; ``mathieu_direct`` is
the independent partial-sum route with an integral-comparison tail bracket.

Only the bracketing is certified, and only for z >= 0 (x >= 1).  For
x in (1/2, 1) the odd-index partial denominators z + r^2/(2n+1) eventually
turn negative, the even/odd ordering breaks down, and approximants converge
slowly from one side; ``telescoping_residual`` documents how it degrades to
an uncertified evaluation there.
"""

from __future__ import annotations

import math
from itertools import accumulate
from typing import Optional, Union

from .cf import (
    DEFAULT_RESCALE_AT,
    ContinuedFraction,
    _Record,
    _rescale_factor,
    _rescaled,
    _set,
    evaluate,
)

__all__ = [
    "MathieuCFParams",
    "Enclosure",
    "TailBracket",
    "AsymptoticResult",
    "kappa_lambda_form",
    "ab_form",
    "cd_form",
    "ab_to_cd_witness",
    "coefficients_positive",
    "mathieu_partial_sum",
    "mathieu_direct",
    "tail_enclosure",
    "mathieu_theorem1",
    "theorem1_to_width",
    "bernoulli_numbers",
    "asymptotic",
    "telescoping_residual",
]

# Direct summation refuses tolerances needing more terms than this.
_DIRECT_TERM_CAP = 20_000_000
_SCALE = _rescale_factor(DEFAULT_RESCALE_AT)


class MathieuCFParams(_Record):
    """Parameters of the continued-fraction tail T(r, x).

    ``r`` is the series parameter (r > 0 here: the r = 0 limit is served by
    ``mathieu_direct``, whose tail bracket needs no fraction), ``x`` the tail
    offset (x > 1/2, where the representation is valid), and ``z = x^2 - x``
    the variable the partial denominators live in.  Fields accept
    `fractions.Fraction` for exact-arithmetic runs.
    """

    __slots__ = _fields = ("r", "x")

    def __init__(self, r: float, x: float):
        if not (r > 0):
            raise ValueError(f"r must be > 0; got {r!r}")
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
    """Even/odd-approximant bracket of T(r, x), with its cost.

    ``achieved`` records whether the requested width was reached before the
    term cap; when False, ``enclosure`` is the best bracket at the cap.
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


def ab_form(params: MathieuCFParams) -> ContinuedFraction:
    """T(r, x) as a continued fraction with unit leading numerator.

    With z = x^2 - x and rr = r^2:

        a_1 = 1,                        b_1      = z + rr
        a_{2n} = n^3 / (2(2n-1)),       b_{2n}   = 1
        a_{2n+1} = n(n^2+4rr)/(2(2n+1)), b_{2n+1} = z + rr/(2n+1)

    All coefficients are positive when z >= 0, which is what certified
    bracketing needs; for z < 0 the odd b's eventually go negative.
    """
    one = _one(params)
    rr = params.r * params.r
    z = params.z

    def terms(n: int):
        if n == 1:
            return one, z + rr
        m, odd = divmod(n, 2)
        if odd:
            return (m * (m * m + 4 * rr) * one) / (2 * (2 * m + 1)), z + rr / (2 * m + 1)
        return (m ** 3 * one) / (2 * (2 * m - 1)), one

    return ContinuedFraction(one - one, terms)


def cd_form(params: MathieuCFParams) -> ContinuedFraction:
    """The ``ab_form`` fraction with denominators cleared of /(2(2n+1)) factors.

        c_1 = 2,              d_1      = 2z + 2rr
        c_{2n} = n^3,         d_{2n}   = 1
        c_{2n+1} = n(n^2+4rr), d_{2n+1} = 2(2n+1)z + 2rr

    Same value, same approximant sequence (it is the equivalence transform of
    ``ab_form`` by ``ab_to_cd_witness``).
    """
    one = _one(params)
    rr = params.r * params.r
    z = params.z

    def terms(n: int):
        if n == 1:
            return 2 * one, 2 * z + 2 * rr
        m, odd = divmod(n, 2)
        if odd:
            return m * (m * m + 4 * rr) * one, 2 * (2 * m + 1) * z + 2 * rr
        return m ** 3 * one, one

    return ContinuedFraction(one - one, terms)


def ab_to_cd_witness(n: int) -> float:
    """Equivalence multipliers turning ``ab_form`` into ``cd_form``.

    r_0 = 1, r_{2n} = 1, r_{2n+1} = 2(2n+1); i.e. 2n at odd indices.
    """
    return 2.0 * n if n % 2 else 1.0


def kappa_lambda_form(params: MathieuCFParams) -> ContinuedFraction:
    """T(r, x) with partial denominators centered at (x - 1/2)^2.

    With w = (x - 1/2)^2 (note w + (1 + 4rr)/4 = z + rr + 1/2):

        a_1 = 1,  b_1 = w + (1 + 4rr)/4
        a_{n+1} = -n^4 (n^2 + 4rr) / (4 (2n-1)(2n+1))
        b_{n+1} = w + (2n^2 + 2n + 1 + 4rr)/4

    One term here advances as far as two ``ab_form`` terms: this fraction is
    termwise identical to the even contraction of ``ab_form``.  Its partial
    numerators are negative from a_2 on, so it supports plain evaluation but
    not even/odd bracketing.
    """
    one = _one(params)
    rr4 = 4 * params.r * params.r
    half = one / 2
    w = (params.x - half) * (params.x - half)

    def terms(n: int):
        if n == 1:
            return one, w + (1 + rr4) / (4 * one)
        m = n - 1
        kappa = -(m ** 4 * (m * m + rr4) * one) / (4 * (2 * m - 1) * (2 * m + 1))
        lam = (2 * m * m + 2 * m + 1 + rr4) / (4 * one)
        return kappa, w + lam

    return ContinuedFraction(one - one, terms)


def coefficients_positive(params: MathieuCFParams, n_max: int) -> Optional[int]:
    """First index n <= n_max where an ``ab_form`` coefficient is <= 0, else None.

    Positivity for all n is equivalent to z >= 0 (the even coefficients and
    partial numerators are positive outright for r > 0; the odd denominators
    z + r^2/(2n+1) decrease toward z).
    """
    form = ab_form(params)
    for n in range(1, n_max + 1):
        a, b = form.term(n)
        if not (a > 0 and b > 0):
            return n
    return None


def _summand_overflow(r: float) -> OverflowError:
    return OverflowError(f"(m^2 + r^2)^2 overflows float64 at r={r!r}")


def mathieu_partial_sum(r: float, k: int) -> float:
    """Head sum_{m=1}^{k-1} 2m/(m^2+r^2)^2 (0.0 for k = 1)."""
    rr = r * r
    try:
        return math.fsum(2 * m / (m * m + rr) ** 2 for m in range(1, k))
    except OverflowError:
        raise _summand_overflow(r) from None


def mathieu_direct(
    r: float,
    tol: float = 1e-10,
    m_terms: Optional[int] = None,
) -> Enclosure:
    """Enclose S(r) by partial summation plus an integral tail bracket.

    The summand f(m) = 2m/(m^2+r^2)^2 decreases for m >= r/sqrt(3), and
    integrating f between consecutive integers gives

        1/((M+1)^2 + r^2)  <=  sum_{m>M} f(m)  <=  1/(M^2 + r^2),

    so the enclosure is [partial + left, partial + right].  The bracket
    width is below 2/M^3 for every r, which picks M directly from ``tol``.
    Accepts r = 0 (giving 2*zeta(3)).  ``m_terms`` forces M, bypassing both
    the width target and the monotonicity threshold: the bracket formula is
    returned as-is, certified only when m_terms >= r/sqrt(3).  Raises
    ``OverflowError`` where (m^2 + r^2)^2 overflows float64 (r above about
    1.2e77), also where r^2 is inf and the bracket would collapse to [0, 0].
    """
    if not (r >= 0):
        raise ValueError(f"r must be >= 0; got {r!r}")
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
        M = math.ceil(M)
    rr = r * r
    if rr == math.inf:
        raise _summand_overflow(r)
    try:
        partial = math.fsum(2 * m / (m * m + rr) ** 2 for m in range(1, M + 1))
    except OverflowError:
        raise _summand_overflow(r) from None
    return Enclosure(partial + 1 / ((M + 1) ** 2 + rr), partial + 1 / (M * M + rr))


def _bracket_walk(params: MathieuCFParams, width: float, max_terms: int) -> TailBracket:
    """Walk the approximants of ``ab_form(params)``, tracking the even/odd
    bracket [f_even, f_odd] of its value.

    A pass applies the odd term n = q = 2m + 1 and the even term n + 1 with
    inline coefficients and the float operations, in order, of the ``cf``
    recurrence on ``ab_form`` (b_{2m} = 1 drops an exact 1 * A): brackets
    are bit-identical while m*m is exact in float64 (n < 1.9e8)."""
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
    while True:
        a_cur, a_prev = b * a_cur + a_odd * a_prev, a_cur
        b_cur, b_prev = b * b_cur + a_odd * b_prev, b_cur
        if not (abs(a_cur) <= DEFAULT_RESCALE_AT and abs(b_cur) <= DEFAULT_RESCALE_AT):
            a_cur, a_prev, b_cur, b_prev = _rescaled(q, _SCALE, a_cur, a_prev, b_cur, b_prev)
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
        if not (abs(a_cur) <= DEFAULT_RESCALE_AT and abs(b_cur) <= DEFAULT_RESCALE_AT):
            a_cur, a_prev, b_cur, b_prev = _rescaled(n, _SCALE, a_cur, a_prev, b_cur, b_prev)
        lo = a_cur / b_cur
        if lo > hi:
            # Exact arithmetic guarantees even <= odd here; a crossing can
            # only be float rounding after the true gap shrank below ulp
            # scale.  The bracket is saturated: swap and stop.  A large
            # inversion would mean the positivity hypothesis was violated.
            drift = (16 + n) * math.ulp(max(abs(lo), abs(hi)))
            if lo - hi > drift:
                raise ValueError(
                    f"approximants not bracketing at n={n}: even={lo!r} > "
                    f"odd={hi!r}; positive-coefficient hypothesis violated?"
                )
            lo, hi = hi, lo
            break
        if (0 < width and hi - lo <= width) or n >= max_terms:
            break
        q += 2
        d = 2 * q
        a_odd = m * (mm + rr4) / d
        b = z + rr / q
    if lo is None:  # max_terms <= 1 leaves the bracket open
        raise ValueError(f"max_terms={max_terms} too small to form a bracket")
    enclosure = Enclosure(lo, hi)
    return TailBracket(enclosure, n, enclosure.width <= width)


def tail_enclosure(r: float, x: float, width: float, max_terms: int = 200_000) -> TailBracket:
    """Certified even/odd bracket of the tail T(r, x), for z = x^2 - x >= 0.

    Grows the approximant index until the bracket width drops to ``width``
    or ``max_terms`` is hit (``achieved`` tells which); width = 0 means
    "spend the whole budget".  Raises for z < 0, where positivity — and with
    it the bracketing guarantee — fails.
    """
    params = MathieuCFParams(r, x)
    if params.z < 0:
        raise ValueError(
            f"bracketing requires z = x^2 - x >= 0 (x >= 1); got x={x!r}, z={params.z!r}"
        )
    if not (width >= 0):
        raise ValueError(f"width must be >= 0; got {width!r}")
    try:
        bracket = _bracket_walk(params, width, max_terms)
    except ZeroDivisionError:
        bracket = None
    # At z = 0, b_1 = r^2 underflows below r ~ 1.5e-154: B_n can reach 0, or
    # stay so small that the odd end of the bracket overflows to inf.
    if bracket is None or bracket.enclosure.upper == math.inf:
        raise ValueError(
            f"approximant denominator underflowed to 0 at r={r!r}: r^2 underflows"
        )
    return bracket


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
    if n >= len(_BERNOULLI):
        _extend_bernoulli(n)
    return _BERNOULLI[n]


def _extend_bernoulli(n: int) -> None:
    global _ZIGZAG_ROW
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


def asymptotic(r: float, n_terms: Union[int, str] = "auto") -> AsymptoticResult:
    """Large-r expansion S(r) ~ sum_{m>=0} (-1)^m B_{2m} / r^{2m+2}.

    The expansion is divergent; ``n_terms="auto"`` truncates at the smallest
    term (stop right before the first term whose magnitude fails to
    decrease), the standard optimal truncation.  Past the leading 1/r^2 every
    term is negative, and term magnitudes shrink roughly until 2m ~ 2*pi*r,
    so small r means ``auto`` keeps a single term and ``first_omitted_term``
    (the magnitude of the first term dropped) exceeds the term kept — the
    signal that the expansion has nothing to offer at that r.  Terms are
    formed by one correctly rounded integer division each, so huge Bernoulli
    numerators cannot overflow; auto truncation is capped at 500 terms.  A
    term beyond float64 (B_2/r^4 for r below about 1.7e-78) is outside the
    route's domain and raises ``ValueError``.
    """
    if not (r > 0):
        raise ValueError(f"r must be > 0; got {r!r}")
    auto = n_terms == "auto"
    if not auto:
        if not isinstance(n_terms, int) or n_terms < 1:
            raise ValueError(f'n_terms must be a positive integer or "auto"; got {n_terms!r}')
    cap = _ASYMPTOTIC_TERM_CAP if auto else n_terms

    from fractions import Fraction

    r_exact = Fraction(r)
    num2 = r_exact.numerator ** 2
    den2 = r_exact.denominator ** 2
    num_power, den_power = num2, den2  # r^{2m+2} = num_power / den_power
    terms: list[float] = []
    first_omitted = None
    m = 0
    while True:
        b2m = _bernoulli(2 * m)
        # int / int rounds correctly, as float(Fraction) does, without the
        # gcd that normalizing the quotient as a Fraction would cost.
        try:
            t = (b2m.numerator * den_power) / (b2m.denominator * num_power)
        except OverflowError:
            raise ValueError(
                f"asymptotic term B_{2 * m}/r^{2 * m + 2} overflows float64 at r={r!r}"
            ) from None
        if m % 2:
            t = -t
        if auto and terms and abs(t) >= abs(terms[-1]):
            first_omitted = abs(t)
            break
        if m == cap:
            first_omitted = abs(t)
            break
        terms.append(t)
        num_power *= num2
        den_power *= den2
        m += 1
    return AsymptoticResult(math.fsum(terms), len(terms), first_omitted)


_TELESCOPE_TERM_CAP = 100_000


def telescoping_residual(r: float, x: float, tol: float = 1e-10) -> float:
    """Residual of the tail recursion T(r, x) - T(r, x+1) = 2x/(x^2+r^2)^2.

    Both tails are taken at the same r; exactness of the recursion is a
    sharp consistency check across two different points of the same
    fraction.  Each tail is evaluated to a certified bracket of width
    <= tol/4 when its z is >= 0; for z < 0 (x < 1, where bracketing is
    unavailable) and for brackets still wider than tol/4 at the 100k-term
    cap, the best available approximant is used and the residual is then
    only as good as that approximant — honest about slow convergence rather
    than silently certified.
    """
    if not (tol > 0):
        raise ValueError(f"tol must be > 0; got {tol!r}")

    def value_at(x0: float) -> float:
        params = MathieuCFParams(r, x0)
        if params.z >= 0:
            return tail_enclosure(r, x0, tol / 4, _TELESCOPE_TERM_CAP).enclosure.midpoint
        return evaluate(ab_form(params), tol / 8, _TELESCOPE_TERM_CAP).value

    derivative_term = 2 * x / (x * x + r * r) ** 2
    return value_at(x) - value_at(x + 1) - derivative_term
