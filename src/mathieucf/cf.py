"""Generalized continued fractions: convergents, adaptive evaluation,
even contraction, and equivalence transforms.

A continued fraction here is a leading term ``b0`` plus a stream of partial
terms ``(a_n, b_n)`` for n >= 1, denoting

    b0 + a_1/(b_1 + a_2/(b_2 + a_3/(b_3 + ...))).

Approximants A_n/B_n follow the three-term recurrence

    A_n = b_n * A_{n-1} + a_n * A_{n-2},    A_{-1} = 1,  A_0 = b0,
    B_n = b_n * B_{n-1} + a_n * B_{n-2},    B_{-1} = 0,  B_0 = 1,

so A_n/B_n equals the fraction truncated after (a_n, b_n).  Successive
approximants satisfy the determinant identity

    A_n B_{n-1} - A_{n-1} B_n = (-1)^{n-1} * a_1 a_2 ... a_n,

which is the engine's primary self-check: it pins every term's entry into
the recurrence.  A and B grow (or shrink) geometrically; to stay inside
float64 range the engine jointly rescales (A_n, A_{n-1}, B_n, B_{n-1}) by an
exact power of two whenever they exceed a threshold.  Rescaling multiplies
numerator and denominator alike, so every ratio A_k/B_k is bit-exact
invariant; the determinant products pick up the square of the accumulated
scale, which callers can undo via the ``rescales`` counter.

Term streams are plain callables ``n -> (a_n, b_n)`` and must be pure
(same n, same term).  Arithmetic is duck-typed: float terms run in float64,
`fractions.Fraction` terms run exactly (exact runs must stay below the
rescale threshold, since the rescale factor is a float).
"""

from __future__ import annotations

import math
from typing import Callable, Iterator, Tuple

__all__ = [
    "ContinuedFraction",
    "Convergent",
    "EvalReport",
    "convergent",
    "iter_convergents",
    "evaluate",
    "even_contraction",
    "equivalence_transform",
]

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
    _fields: Tuple[str, ...] = ()

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


class ContinuedFraction(_Record):
    """A generalized continued fraction b0 + K(a_n / b_n).

    ``terms(n)`` returns ``(a_n, b_n)`` for n >= 1 and must be pure.
    Partial numerators must be nonzero: a_n = 0 would terminate the
    fraction silently, so it is rejected at access time.
    """

    __slots__ = _fields = ("b0", "terms")

    def __init__(self, b0: float, terms: Callable[[int], Tuple[float, float]]):
        _set(self, "b0", b0)
        _set(self, "terms", terms)

    def term(self, n: int) -> Tuple[float, float]:
        if n < 1:
            raise ValueError(f"partial terms are 1-indexed; got n={n}")
        a, b = self.terms(n)
        if a == 0:
            raise ValueError(f"partial numerator a_{n} = 0: fraction degenerates at n={n}")
        return a, b


class Convergent(_Record):
    """Approximant state after consuming n partial terms.

    ``value`` is numerator/denominator (NaN when the denominator is 0: the
    approximant is indeterminate at this index but the recurrence continues
    past it).  ``numerator`` and ``denominator`` hold the rescaled recurrence
    state; ``rescales`` counts power-of-two rescale events so far, so the
    determinant identity holds up to scale**(2*rescales).
    """

    __slots__ = _fields = ("n", "numerator", "denominator", "value", "rescales")

    def __init__(self, n: int, numerator: float, denominator: float, value: float,
                 rescales: int):
        _set(self, "n", n)
        _set(self, "numerator", numerator)
        _set(self, "denominator", denominator)
        _set(self, "value", value)
        _set(self, "rescales", rescales)


class EvalReport(_Record):
    """Result of adaptive evaluation: last approximant and stopping data."""

    __slots__ = _fields = ("value", "terms_used", "converged", "last_delta")

    def __init__(self, value: float, terms_used: int, converged: bool, last_delta: float):
        _set(self, "value", value)
        _set(self, "terms_used", terms_used)
        _set(self, "converged", converged)
        _set(self, "last_delta", last_delta)


def _rescale_factor(rescale_at: float) -> float:
    # Largest power of two <= 1/rescale_at keeps the factor exact and the
    # rescaled state comfortably inside range.
    return 2.0 ** -math.floor(math.log2(rescale_at))


def _rescaled(n: int, scale: float, a_cur, a_prev, b_cur, b_prev):
    """The state after term ``n`` times ``scale``, for state that failed its
    caller's ``<= rescale_at`` test: inf and NaN fail it too, so overflow is
    raised here, off the per-term path."""
    if isinstance(a_cur, float) and not (math.isfinite(a_cur) and math.isfinite(b_cur)):
        raise OverflowError(
            f"numerical overflow despite rescaling at n={n} "
            f"(A={a_cur!r}, B={b_cur!r})"
        )
    return a_cur * scale, a_prev * scale, b_cur * scale, b_prev * scale


def _recurrence(
    cf: ContinuedFraction, rescale_at: float
) -> Iterator[Tuple[int, float, float, int]]:
    """Yield (n, A_n, B_n, rescales) for n = 0, 1, 2, ...  Infinite."""
    if not (rescale_at > 0) or math.isinf(rescale_at):
        raise ValueError(f"rescale_at must be positive and finite; got {rescale_at!r}")
    scale = _rescale_factor(rescale_at)
    # Integer seeds: ints adopt whatever arithmetic the terms use (float
    # stays float, Fraction stays exact), so the seeds never force a type.
    a_prev, a_cur = 1, cf.b0  # A_{-1}, A_0
    b_prev, b_cur = 0, 1  # B_{-1}, B_0
    rescales = 0
    n = 0
    yield n, a_cur, b_cur, rescales
    while True:
        n += 1
        an, bn = cf.term(n)
        a_cur, a_prev = bn * a_cur + an * a_prev, a_cur
        b_cur, b_prev = bn * b_cur + an * b_prev, b_cur
        if not (abs(a_cur) <= rescale_at and abs(b_cur) <= rescale_at):
            a_cur, a_prev, b_cur, b_prev = _rescaled(n, scale, a_cur, a_prev, b_cur, b_prev)
            rescales += 1
        yield n, a_cur, b_cur, rescales


def _ratio(numerator, denominator):
    if denominator == 0:
        return math.nan
    return numerator / denominator


def iter_convergents(
    cf: ContinuedFraction,
    n_max: int,
    *,
    rescale_at: float = DEFAULT_RESCALE_AT,
) -> Iterator[Convergent]:
    """Yield Convergent objects for n = 0 .. n_max in one pass."""
    if n_max < 0:
        raise ValueError(f"n_max must be >= 0; got {n_max}")
    for n, A, B, rescales in _recurrence(cf, rescale_at):
        yield Convergent(n, A, B, _ratio(A, B), rescales)
        if n >= n_max:
            return


def convergent(
    cf: ContinuedFraction,
    n: int,
    *,
    rescale_at: float = DEFAULT_RESCALE_AT,
) -> Convergent:
    """Compute the n-th approximant A_n/B_n.

    Raises if B_n = 0 (indeterminate at the requested index); intermediate
    zero denominators are passed through, since the recurrence is unaffected.
    """
    last = None
    for last in iter_convergents(cf, n, rescale_at=rescale_at):
        pass
    assert last is not None
    if last.denominator == 0:
        raise ZeroDivisionError(f"approximant indeterminate: B_{n} = 0")
    return last


def evaluate(
    cf: ContinuedFraction,
    tol: float,
    max_terms: int,
    *,
    rescale_at: float = DEFAULT_RESCALE_AT,
) -> EvalReport:
    """Iterate approximants until |f_n - f_{n-1}| <= tol or max_terms.

    The delta between successive approximants is a stopping heuristic, not a
    certified error bound; callers needing certification should bracket with
    even/odd approximants instead.  Indeterminate approximants (B_n = 0)
    never satisfy the stopping test.
    """
    if max_terms < 2:
        raise ValueError(f"max_terms must be >= 2; got {max_terms}")
    if not (tol >= 0):
        raise ValueError(f"tol must be >= 0; got {tol!r}")
    prev = cf.b0
    value = prev
    delta = math.inf
    terms_used = 0
    for n, A, B, _ in _recurrence(cf, rescale_at):
        if n == 0:
            continue
        value = _ratio(A, B)
        delta = abs(value - prev) if not math.isnan(value) else math.inf
        terms_used = n
        if delta <= tol:
            return EvalReport(value, terms_used, True, delta)
        prev = value
        if n >= max_terms:
            break
    return EvalReport(value, terms_used, False, delta)


def even_contraction(cf: ContinuedFraction) -> ContinuedFraction:
    """The contraction whose approximants are the even approximants of ``cf``.

    Approximant k of the result equals approximant 2k of the original, so
    the contraction converges twice as fast per term.  It exists when the
    even-indexed partial denominators b_2, b_4, ... are nonzero (b0 may be
    zero); a zero even b is reported lazily, when the contracted term that
    needs it is first requested.

    Contracted terms (c_k, d_k), writing (a_n, b_n) for the original:

        c_1 = a_1 b_2                -- d_0 = b_0
        d_1 = a_2 + b_1 b_2
        c_k = -a_{2k-2} a_{2k-1} b_{2k-4} b_{2k}   (the b_{2k-4} factor
        d_k = a_{2k-1} b_{2k} + b_{2k-2} (a_{2k} + b_{2k-1} b_{2k})
                                      is absent for k = 2)
    """
    cache: dict[int, Tuple[float, float]] = {}

    def orig(n: int) -> Tuple[float, float]:
        t = cache.get(n)
        if t is None:
            t = cache[n] = cf.term(n)
        return t

    def even_b(n: int):
        _, b = orig(n)
        if b == 0:
            raise ValueError(f"contraction does not exist: b_{n} = 0")
        return b

    def terms(k: int) -> Tuple[float, float]:
        if k == 1:
            a1, b1 = orig(1)
            b2 = even_b(2)
            a2, _ = orig(2)
            return a1 * b2, a2 + b1 * b2
        m = k - 1  # contracted term k consumes original terms 2m-1 .. 2m+2
        a2m, _ = orig(2 * m)
        a2m1, b2m1 = orig(2 * m + 1)
        a2m2, _ = orig(2 * m + 2)
        b2m = even_b(2 * m)
        b2m2 = even_b(2 * m + 2)
        c = -a2m * a2m1 * b2m2
        if m >= 2:
            c *= even_b(2 * m - 2)
        d = a2m1 * b2m2 + b2m * (a2m2 + b2m1 * b2m2)
        return c, d

    return ContinuedFraction(cf.b0, terms)


def equivalence_transform(
    cf: ContinuedFraction, r_seq: Callable[[int], float]
) -> ContinuedFraction:
    """Rescale partial terms without changing any approximant.

    Given nonzero multipliers r_n with r_0 = 1, the transformed fraction has
    c_n = r_{n-1} r_n a_n and d_n = r_n b_n, and its approximant sequence is
    identical to the original's (A, B each pick up a common factor that the
    ratio cancels).  ``r_seq`` must be pure.
    """
    if r_seq(0) != 1:
        raise ValueError(f"invalid equivalence sequence: r_0 must be 1, got {r_seq(0)!r}")

    def check(n: int):
        r = r_seq(n)
        if r == 0:
            raise ValueError(f"invalid equivalence sequence: r_{n} = 0")
        return r

    def terms(n: int) -> Tuple[float, float]:
        a, b = cf.term(n)
        r_n = check(n)
        r_prev = check(n - 1) if n > 1 else 1
        return r_prev * r_n * a, r_n * b

    return ContinuedFraction(cf.b0, terms)
