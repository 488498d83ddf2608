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
T, ``theorem1_to_width`` adds the head to that bracket (Theorem 1, whose
fixed-budget form is ``bounds.cf_bounds``), and ``mathieu_direct`` is the
independent partial-sum route with an integral-test and convexity
tail bracket.  The large-r expansion ``asymptotic``, its result record and
its Bernoulli numbers live in ``oracles``, which a default eval never
loads; ``series.asymptotic`` and the other two names still resolve here,
loading ``oracles`` on first use.

At z = 0 the bracket narrows only like 1/n; ``tail_enclosure`` then turns
to a tail interval (``tail_interval``), whose proof is in the ``cf`` module
docstring.

Only the bracketing is certified, and only for z >= 0 (x >= 1).  For
x in (1/2, 1) the odd-index partial denominators z + r^2/(2n+1) eventually
turn negative, the even/odd ordering breaks down, and approximants converge
slowly from one side; ``cf.telescoping_residual`` documents how it degrades
to an uncertified evaluation there.

The module imports nothing from the package but ``tail_interval``, on the
first z = 0 call that needs it, and ``oracles`` for those three names: it
also holds the record base ``_Record`` of the records in ``cf``, ``bounds``,
``oracles`` and ``cli``, and the exact power-of-two rescale that its walk
and the ``cf`` engine share, so a ``mathieucf eval`` process compiles no
theory-layer code.  ``ZETA3`` lives here beside S, so ``bounds`` and the
``apery`` command load no ``oracles``.
"""

from __future__ import annotations

import math

__all__ = [
    "MathieuCFParams",
    "Enclosure",
    "TailBracket",
    "mathieu_partial_sum",
    "mathieu_direct",
    "tail_enclosure",
    "theorem1_to_width",
]

# Recurrence state above this is rescaled by an exact power of two.
DEFAULT_RESCALE_AT = 1e150
# The default term cap of a walk, and of the CLI's --max-terms.
DEFAULT_MAX_TERMS = 200_000
# zeta(3) = 1.20205690315959428540..., correctly rounded (4.9e-17 below):
# S(0) = 2 zeta(3).  Not in ``__all__``, which holds functions and records.
ZETA3 = 1.2020569031595942


_set = object.__setattr__


def _rebuild(cls, fields):
    return cls(**fields)


class _Record:
    """Immutable value record, compared, hashed and printed field by field.

    A subclass names its fields, in order, in ``_fields`` (its ``__slots__``
    too, unless it keeps a ``__dict__``).  One that only stores them gets its
    ``__init__`` from this base; one that validates them sets each in its own
    through ``object.__setattr__``.  Equality, hashing and repr match what a
    frozen dataclass with the same fields gives.
    """

    __slots__ = ()
    _fields: tuple[str, ...] = ()

    def __init_subclass__(cls):
        # ``__init__(self, <each field>)``, a real def compiled once, as
        # dataclasses and namedtuple write theirs: arguments bind, and fail
        # with the same TypeError texts, as in a hand-written one.
        if "__init__" not in vars(cls):
            namespace = {"_set": _set, "__name__": cls.__module__}
            args = "".join(f", {name}" for name in cls._fields)
            body = "".join(f"\n    _set(self, {name!r}, {name})" for name in cls._fields)
            exec(f"def __init__(self{args}):{body}", namespace)
            cls.__init__ = namespace["__init__"]
            cls.__init__.__qualname__ = f"{cls.__qualname__}.__init__"

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
    """The float state after term ``n`` times ``scale``, for state that
    failed its caller's ``<= rescale_at`` test: inf and NaN fail it too, so
    overflow is raised here, off the per-term path."""
    if not (math.isfinite(a_cur) and math.isfinite(b_cur)):
        raise OverflowError(
            f"numerical overflow despite rescaling at n={n} "
            f"(A={a_cur!r}, B={b_cur!r})"
        )
    return a_cur * scale, a_prev * scale, b_cur * scale, b_prev * scale


# Direct summation refuses tolerances needing more terms than this.
_DIRECT_TERM_CAP = 20_000_000
# The unit roundoff and the least subnormal: ``mathieu_direct``'s rounding allowance.
_EPS = 2.0**-53
_TINY = 2.0**-1074
_SCALE = _rescale_factor(DEFAULT_RESCALE_AT)
# ``tail_interval`` once ``tail_enclosure`` has loaded it.
_tail_interval = None


class MathieuCFParams(_Record):
    """Parameters of the continued-fraction tail T(r, x).

    ``r`` is the series parameter (finite and >= 0; at r = 0 the shapes in
    ``cf`` give Apery's fraction for zeta(3) = S(0)/2, while the
    enclosures, from ``tail_enclosure`` on, need r > 0), ``x`` the tail
    offset (finite and > 1/2, where the representation is valid), and
    ``z = x^2 - x`` the variable the partial denominators live in.  Fields
    accept `fractions.Fraction` for the ``cf`` engine's exact runs; the
    enclosures read r and x through float arithmetic.
    """

    __slots__ = _fields = ("r", "x")

    def __init__(self, r: float, x: float):
        if not (r >= 0):
            raise ValueError(f"r must be >= 0; got {r!r}")
        if r == math.inf:
            raise ValueError(f"r must be finite; got {r!r}")
        if not (x > 0.5):
            raise ValueError(f"x must be > 1/2; got {x!r}")
        if x == math.inf:
            raise ValueError(f"x must be finite; got {x!r}")
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


def _require_positive_r(r: float) -> None:
    if not (r > 0):
        raise ValueError(f"r must be > 0; got {r!r}")


def _overflow(r: float, quantity: str = "(m^2 + r^2)^2") -> OverflowError:
    return OverflowError(f"{quantity} overflows float64 at r={r!r}")


def _require_head(k: int) -> None:
    if k < 1:
        raise ValueError(f"k must be a positive integer; got {k}")
    if k - 1 > _DIRECT_TERM_CAP:
        raise ValueError(f"head sum at k={k} needs more than {_DIRECT_TERM_CAP} terms")


def _unachievable(r: float, tol: float) -> str:
    # ``mathieu_direct`` and the bench config check refuse with this text,
    # which perfbench matches to classify the direct-cap kind.
    return (f"tolerance unachievable by direct summation: tol={tol!r} at r={r!r} "
            f"needs more than {_DIRECT_TERM_CAP} terms")


def mathieu_partial_sum(r: float, k: int) -> float:
    """Head sum_{m=1}^{k-1} 2m/(m^2+r^2)^2 (0.0 for k = 1) of every route
    and bound, squared by products as the ``cf`` docstring's direct-route
    rounding proof needs.  Raises ``OverflowError`` where the largest
    (m^2 + r^2)^2 overflows float64, instead of summing its term as 0, and
    ``ValueError`` for a k < 1 or a head of more than ``_DIRECT_TERM_CAP``
    terms.
    """
    rr = r * r
    # A head within the cap has m^2 < 4.1e14, below an ulp of any r^2 whose
    # square overflows: (m^2 + r^2)^2 overflows exactly where r^4 does.
    if k > 1 and rr * rr == math.inf:
        raise _overflow(r)
    _require_head(k)
    return math.fsum(
        (m + m) / (d * d) for m in map(float, range(1, k)) for d in (m * m + rr,)
    )


def mathieu_direct(r: float, tol: float = 1e-10) -> Enclosure:
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
    M_conv leaves room in tol for the rounding allowance below, about
    22 eps S(r), with S(r) <= min(2 zeta(3), 1/(r^2 + 1/6)) (Alzer).

    Rounding.  Both ends are widened by a bound on every rounding of the
    head sum and of the tail formulas, (9 P + 27/(M^2 + r^2)) eps for the
    head P, plus (M + 8) 2^-1074 for subnormal terms, then stepped one float
    outward: the bracket contains S(r) in floating point, not only in exact
    arithmetic (proof in the ``cf`` docstring, "The direct route's
    rounding").

    Accepts r = 0 (giving 2*zeta(3)).  Raises ``ValueError`` for a negative
    or non-finite r, a tol <= 0, and a tol that needs more than
    ``_DIRECT_TERM_CAP`` terms, which every r above about 3.5e7 does: so
    nothing the route forms can overflow.
    """
    if not (r >= 0):
        raise ValueError(f"r must be >= 0; got {r!r}")
    if r == math.inf:
        raise ValueError(f"r must be finite; got {r!r}")
    if not (tol > 0):
        raise ValueError(f"tol must be > 0; got {tol!r}")
    # Capped before rounding: (2/tol)^(1/3) is inf for tol below ~1e-308.
    M = max((2 / tol) ** (1 / 3), r / math.sqrt(3), 1)
    if M > _DIRECT_TERM_CAP:
        raise ValueError(_unachievable(r, tol))
    # S(r) <= 2 zeta(3) < 2.41, and S(r) < 1/(r^2 + 1/6) (Alzer).
    room = max(tol - 24 * _EPS * min(2.41, 1 / (r * r + 1 / 6)), 0.125 * tol)
    M = min(math.ceil(M), max(math.ceil((0.75 / room) ** 0.25), math.ceil(r)))
    rr = r * r
    partial = mathieu_partial_sum(r, M + 1)
    q = 1 / (M * M + rr)
    # M >= r/sqrt(3), so the split bracket holds.  r - 1/2 is exact below
    # 2^52, far beyond any M that can be summed.
    R = max(M, math.ceil(r - 0.5))
    x, half = (R + 1) ** 2 + rr, R + 0.5
    lower = 1 / ((M + 1) ** 2 + rr) + (R + 1) / (x * x)
    upper = q - 1 / (R * R + rr) + 1 / (half * half + rr)
    # Every tail term is at most q: see the ``cf`` docstring.
    slack = (9 * partial + 27 * q) * _EPS + (M + 8) * _TINY
    return Enclosure(math.nextafter(partial + lower - slack, -math.inf),
                     math.nextafter(partial + upper + slack, math.inf))


def _walk(params: MathieuCFParams, width: float, max_terms: int) -> TailBracket:
    """Walk the approximants of ``ab_form(params)`` in float64, whatever the
    type of r and x, tracking the even/odd bracket [f_even, f_odd] of T.

    A pass applies the odd term n = q = 2m + 1 and the even term n + 1 with
    inline coefficients and the float operations, in order, of the ``cf``
    recurrence on a float ``ab_form`` (b_{2m} = 1 drops an exact 1 * A):
    brackets are bit-identical while m*m is exact in float64 (n < 1.9e8).

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
      A crossing is a saturated pair, as the exact pair is ordered: it is
      swapped and the walk stops.  A NaN difference fails the test, as NaN
      fails ``lo > hi``, and the walk runs on to the cap.

    At z = 0, b_1 = r^2 underflows below r ~ 1.5e-154: B_n can reach 0, or
    stay so small that the odd end of the bracket overflows to inf.  Both
    raise ``ValueError``; the ``try`` around the loop costs nothing per
    term."""
    big = DEFAULT_RESCALE_AT
    scale = _SCALE
    stop = width if 0 < width else -math.ulp(0.0)
    rr = params.r * params.r
    rr4 = 4 * rr
    z = params.z
    m = 0.0
    q, d = 1, 2  # d = 2q divides both a_q and a_{q+1}
    a_odd, b = 1.0, z + rr  # a_1, b_1
    a_prev, a_cur = 1, 0.0  # A_{-1}, A_0
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
            m += 1.0
            mm = m * m
            a = mm * m / d
            a_cur, a_prev = a_cur + a * a_prev, a_cur
            b_cur, b_prev = b_cur + a * b_prev, b_cur
            if not (a_cur <= big and b_cur <= big):
                a_cur, a_prev, b_cur, b_prev = _rescaled(n, scale, a_cur, a_prev, b_cur, b_prev)
            lo = a_cur / b_cur
            if hi - lo <= stop:
                if lo > hi:
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


def tail_enclosure(
    r: float, x: float, width: float, max_terms: int = DEFAULT_MAX_TERMS
) -> TailBracket:
    """Certified enclosure of the tail T(r, x), for z = x^2 - x >= 0.

    Grows the approximant index until the even/odd bracket's width drops to
    ``width`` or ``max_terms`` is hit (``achieved`` tells which); width = 0
    means "spend the whole budget".  Raises for z < 0, where positivity — and
    with it the bracketing guarantee — fails; no other test of it runs.  Any
    real r and x give float ends (exact brackets come from the ``cf`` engine).

    At z = 0 (any real r, x = 1) the bracket narrows only like 1/n.
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
                bracket = _walk(MathieuCFParams(r, x), width, walk_terms)
                if bracket.achieved:
                    return bracket
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


def theorem1_to_width(
    r: float, k: int, width: float, max_terms: int = DEFAULT_MAX_TERMS
) -> tuple[Enclosure, int, bool]:
    """Enclosure of S(r) = head(k) + T(r, k), Theorem 1, for an integer
    k >= 1 (larger k, faster per term): grow terms until it is narrower than
    ``width``, or the cap binds.  Returns (enclosure, terms_used, achieved).
    A head that ``mathieu_partial_sum`` refuses is refused before the walk.

    Width 0 runs to the cap, on the even approximant there and the odd one
    before it, unless the float ends of a pass cross first: then it stops
    there.  ``theorem1_to_width(1.0, 3, 0.0, 4000)`` stops after 106
    terms with width 0.0; ROADMAP item 18 replaces that stop.
    """
    _require_head(k)
    bracket = tail_enclosure(r, float(k), width, max_terms=max_terms)
    head = mathieu_partial_sum(r, k)
    enclosure = Enclosure(head + bracket.enclosure.lower, head + bracket.enclosure.upper)
    return enclosure, bracket.terms_used, bracket.achieved


def __getattr__(name: str):
    # The large-r expansion's names, which live in ``oracles``: looked up there
    # on first use (PEP 562) and kept here, so later lookups (``cli``'s route
    # among them) are plain attributes.
    if name not in ("AsymptoticResult", "bernoulli_numbers", "asymptotic"):
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from . import oracles

    value = globals()[name] = getattr(oracles, name)
    return value
