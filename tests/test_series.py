"""Series-layer tests: the three fraction shapes and their coefficients,
certified enclosures (direct and via the tail fraction), Bernoulli numbers,
the large-r expansion, and the tail recursion residual.

Reference values come from the independent brute-force bracket in conftest
and from hand-evaluated coefficient formulas at small indices.
"""

import itertools
import math
import random
import re
import sys
import tracemalloc
from fractions import Fraction

import mpmath
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from conftest import (S_AT_1, S_AT_10, TWO_TERM_AT_10, ZETA3, brute_tail_bracket, mpmath_s,
                      tail_set)

from mathieucf import (
    AsymptoticResult,
    Enclosure,
    MathieuCFParams,
    TailBracket,
    ab_form,
    ab_to_cd_witness,
    asymptotic,
    bernoulli_numbers,
    cd_form,
    cf_bounds,
    coefficients_positive,
    convergent,
    equivalence_transform,
    even_contraction,
    iter_convergents,
    kappa_lambda_form,
    mathieu_direct,
    mathieu_partial_sum,
    tail_enclosure,
    telescoping_residual,
    theorem1_to_width,
)
from mathieucf import oracles, series, tail_interval
from mathieucf.cf import _recurrence
from mathieucf.series import DEFAULT_RESCALE_AT

P12 = MathieuCFParams(1.0, 2.0)


class TestParams:
    @pytest.mark.parametrize(
        "r,x", [(-1.0, 2.0), (math.inf, 2.0), (math.nan, 2.0), (1.0, 0.5), (1.0, 0.0)]
    )
    def test_domain(self, r, x):
        with pytest.raises(ValueError):
            MathieuCFParams(r, x)

    # The fraction shapes exist at r = 0 (Apery's fraction); the enclosures
    # do not.  x = 0.75 is the residual's z < 0 branch.
    @pytest.mark.parametrize("call", [
        lambda: tail_enclosure(0.0, 2.0, 1e-12),
        lambda: theorem1_to_width(0.0, 3, 1e-12),
        lambda: cf_bounds(0.0, 3, 1),
        lambda: telescoping_residual(0.0, 2.0),
        lambda: telescoping_residual(0.0, 0.75),
    ], ids=["tail_enclosure", "theorem1_to_width", "cf_bounds", "residual-x2",
            "residual-x0.75"])
    def test_enclosures_refuse_r0(self, call):
        with pytest.raises(ValueError, match=r"^r must be > 0; got 0.0$"):
            call()

    def test_coefficients_positive_at_r0(self):
        assert MathieuCFParams(0.0, 2.0).z == 2.0
        assert coefficients_positive(MathieuCFParams(0.0, 2.0), 50) is None

    def test_z(self):
        assert P12.z == 2.0
        assert MathieuCFParams(Fraction(1), Fraction(3, 2)).z == Fraction(3, 4)


class TestFractionShapes:
    def test_ab_terms_at_r1_x2(self):
        # z = 2, r^2 = 1; first five terms by hand.
        expected = [(1.0, 3.0), (1 / 2, 1.0), (5 / 6, 2 + 1 / 3), (8 / 6, 1.0), (8 / 5, 2.2)]
        got = [ab_form(P12).term(n) for n in range(1, 6)]
        assert got == pytest.approx(expected, rel=1e-15)

    def test_cd_terms_at_r1_x2(self):
        expected = [(2.0, 6.0), (1.0, 1.0), (5.0, 14.0), (8.0, 1.0), (16.0, 22.0)]
        assert [cd_form(P12).term(n) for n in range(1, 6)] == expected

    def test_kappa_lambda_terms_at_r1_x2(self):
        # w = (3/2)^2 = 2.25; partial numerators negative from the second on.
        expected = [(1.0, 3.5), (-5 / 12, 4.5), (-128 / 60, 6.5)]
        got = [kappa_lambda_form(P12).term(n) for n in range(1, 4)]
        assert got == pytest.approx(expected, rel=1e-15)

    def test_kappa_lambda_low_approximants(self):
        # b_1 = 3/4 at (r, x) = (1/2, 1), so f_1 = 4/3; f_0 is the empty sum.
        kl = kappa_lambda_form(MathieuCFParams(0.5, 1.0))
        assert convergent(kl, 0).value == 0.0
        assert convergent(kl, 1).value == pytest.approx(4 / 3, abs=1e-16)

    def test_witness_maps_ab_onto_cd(self):
        # Every approximant is kept: the transform's equals both the cd
        # shape's and that of the ab shape it came from.
        for params in (MathieuCFParams(1.5, 2.5), MathieuCFParams(0.7, 1.0),
                       MathieuCFParams(3.0, 4.0)):
            original = ab_form(params)
            transformed = equivalence_transform(original, ab_to_cd_witness)
            reference = cd_form(params)
            for n in range(1, 31):
                assert transformed.term(n) == pytest.approx(reference.term(n), rel=1e-14)
                value = convergent(transformed, n).value
                assert value == pytest.approx(convergent(reference, n).value, rel=1e-14)
                assert value == pytest.approx(convergent(original, n).value, rel=1e-14)

    def test_kappa_lambda_is_the_even_contraction(self):
        for params in (P12, MathieuCFParams(0.7, 0.8), MathieuCFParams(3.0, 1.5)):
            contracted = even_contraction(ab_form(params))
            kl = kappa_lambda_form(params)
            for n in range(1, 21):
                assert contracted.term(n) == pytest.approx(kl.term(n), rel=1e-13)

    def test_coefficients_positive(self):
        for r, x in itertools.product((0.1, 1.0, 10.0), (1.0, 2.0, 2.5, 7.0)):
            assert coefficients_positive(MathieuCFParams(r, x), 1000) is None, (r, x)
        # x in (1/2, 1): b_n = z + r^2/n (odd n) sinks below 0 eventually.
        assert coefficients_positive(MathieuCFParams(0.1, 0.6), 50) == 1
        assert coefficients_positive(MathieuCFParams(1.0, 0.6), 50) == 5
        assert coefficients_positive(MathieuCFParams(1.0, 0.6), 4) is None

    def test_exact_bracketing_in_rational_arithmetic(self):
        form = ab_form(MathieuCFParams(Fraction(1), Fraction(2)))
        vals = [c.value for c in iter_convergents(form, 6)][1:]
        assert all(isinstance(v, Fraction) for v in vals)
        odds, evens = vals[0::2], vals[1::2]
        assert evens[0] < evens[1] < evens[2] < odds[2] < odds[1] < odds[0]


def _mono_terms(r, tol):
    """M for the monotone integral-test bracket alone: width <= 2/M^3."""
    return math.ceil(max((2 / tol) ** (1 / 3), r / math.sqrt(3), 1))


def _direct_room(r, tol):
    """The share of ``tol`` that ``mathieu_direct`` leaves to the convex
    bracket: tol less the rounding allowance, about 22 eps S(r), with S(r)
    bounded by min(2 zeta(3), 1/(r^2 + 1/6)); never below tol/8."""
    return max(tol - 24 * 2.0**-53 * min(2.41, 1 / (r * r + 1 / 6)), 0.125 * tol)


def _direct_terms(r, tol):
    """``mathieu_direct``'s M: the convex bracket's M_conv (width <= 3/(4M^4)
    within the room) once M >= r, never more than the monotone bracket's M."""
    return min(_mono_terms(r, tol),
               max(math.ceil((0.75 / _direct_room(r, tol)) ** 0.25), math.ceil(r)))


def _reference_direct(r, tol=1e-10, m_terms=None):
    """``mathieu_direct`` with int counters in the head sum: the expression
    the float-counter loop must match bit for bit."""
    if m_terms is None:
        m_terms = _direct_terms(r, tol)
    M, rr = m_terms, r * r
    R = max(M, math.ceil(r - 0.5))
    partial = math.fsum(2 * m / ((m * m + rr) * (m * m + rr)) for m in range(1, M + 1))
    head = 1 / (M * M + rr)
    x = (R + 1) ** 2 + rr
    lower = 1 / ((M + 1) ** 2 + rr) + (R + 1) / (x * x)
    upper = head - 1 / (R * R + rr) + 1 / ((R + 0.5) * (R + 0.5) + rr)
    slack = (9 * partial + 27 * head) * 2.0**-53 + (M + 8) * 2.0**-1074
    return Enclosure(math.nextafter(partial + lower - slack, -math.inf),
                     math.nextafter(partial + upper + slack, math.inf))


_direct_rng = random.Random(12)
_DIRECT_R = [0.0] + [10 ** _direct_rng.uniform(-3, 7) for _ in range(24)]

# Seeded (r, tol) for the convex bracket, R = max(M, ceil(r - 1/2)): r = 0,
# r = n +- 1/4 and n +- 1/2 (where ceil(r - 1/2) and ceil(r) part or meet),
# and r in [316, 3.2e5], where the monotone bracket's M is often below
# r - 1/2.  R = M in 33 of the 68 cases, R > M in 35.
_contain_rng = random.Random(1313)
_CONTAIN_CASES = (
    [(0.0, 10 ** _contain_rng.uniform(-12, -4)) for _ in range(4)]
    + [(n + d, 10 ** _contain_rng.uniform(-12, -4))
       for n in (_contain_rng.randint(1, 400) for _ in range(10))
       for d in (-0.5, -0.25, 0.25, 0.5)]
    + [(10 ** _contain_rng.uniform(2.5, 5.5), 10 ** _contain_rng.uniform(-12, -4))
       for _ in range(24)]
)

# Before the rounding allowance, 4 of these 120 brackets excluded S(r) at
# tol 1e-15 and 49 at 1e-16 (none at 1e-10 or 1e-13).
_census_rng = random.Random(7)
_DIRECT_CENSUS = [10 ** _census_rng.uniform(-2, 3) for _ in range(120)]


class TestDirectEnclosure:
    def test_encloses_reference(self):
        enc = mathieu_direct(1.0, 1e-6)
        assert enc.width <= 1e-6
        assert enc.contains(S_AT_1)

    def test_r_zero_limit(self):
        enc = mathieu_direct(0.0, 1e-9)
        assert enc.width <= 1e-9
        assert enc.contains(2 * ZETA3)

    def test_forced_term_count(self):
        # tol 1 at r = 1 needs a single term.
        enc = mathieu_direct(1.0, 1.0)
        assert enc == _reference_direct(1.0, m_terms=1)
        # 1/2 + [1/5 + f(2)/2, 1/(1.5^2 + 1)]: R = M = 1, convex from x = 1.
        # Each end moves out by the rounding allowance, (9 P + 27 q) eps =
        # 18 eps at P = q = 1/2, and one step of eps.
        assert (enc.lower, enc.upper) == (0.78 - 19 * 2.0**-53, 0.8076923076923077 + 19 * 2.0**-53)
        assert enc.lower < Fraction(78, 100) and Fraction(21, 26) < enc.upper

    @pytest.mark.parametrize("r,tol", _CONTAIN_CASES)
    def test_contains_mpmath_value(self, r, tol):
        enc = mathieu_direct(r, tol)
        assert enc.width <= tol
        assert mpmath.mpf(enc.lower) <= mpmath_s(r) <= mpmath.mpf(enc.upper)

    @pytest.mark.parametrize("tol", [1e-10, 1e-13, 1e-15, 1e-16])
    def test_rounded_outward_contains_mpmath_value(self, tol):
        for r in _DIRECT_CENSUS:
            enc = mathieu_direct(r, tol)
            assert mpmath.mpf(enc.lower) <= mpmath_s(r) <= mpmath.mpf(enc.upper), r

    @pytest.mark.parametrize("r,tol", _CONTAIN_CASES[::3] + [(1.0, 1e-6), (2e5, 1e-10)])
    def test_nested_in_monotone_bracket(self, r, tol):
        # The integral-test bracket at the same M holds the convex one.
        M, rr = _direct_terms(r, tol), r * r
        enc = mathieu_direct(r, tol)
        partial = math.fsum(2 * m / (m * m + rr) ** 2 for m in range(1, M + 1))
        lower, upper = partial + 1 / ((M + 1) ** 2 + rr), partial + 1 / (M * M + rr)
        assert lower - 4 * math.ulp(lower) <= enc.lower
        assert enc.upper <= upper + 4 * math.ulp(upper)

    @pytest.mark.parametrize("tol,M", [(1e-10, 295), (1e-12, 931)])
    def test_term_count_from_convex_width_bound(self, tol, M):
        # M is M_conv at tol itself; where S(r) is near 2 zeta(3) the room
        # for the rounding allowance costs up to two more terms at 1e-12.
        for r in (0.0, 0.3, 1.0, 10.0, 99.5, 100.0):
            want = _direct_terms(r, tol)
            assert M <= want <= M + 2 * (tol == 1e-12 and r <= 1.0)
            assert mathieu_direct(r, tol) == _reference_direct(r, tol)
            assert 3 / (4 * M ** 4) <= tol < 3 / (4 * (M - 1) ** 4)
            room = _direct_room(r, tol)
            assert 3 / (4 * want ** 4) <= room < 3 / (4 * (want - 1) ** 4)

    def test_never_more_terms_than_monotone_bracket(self):
        for r, tol in itertools.product(
            [0.0, 0.5, 3.0, 250.0, 2716.0, 4e4], [1e-4, 1e-8, 1e-10, 1e-12, 1e-15]
        ):
            M = _direct_terms(r, tol)
            assert M <= _mono_terms(r, tol)
            assert mathieu_direct(r, tol) == _reference_direct(r, tol), (r, tol)

    def test_validation(self):
        with pytest.raises(ValueError, match="r must be"):
            mathieu_direct(-1.0)
        with pytest.raises(ValueError, match="tol"):
            mathieu_direct(1.0, 0.0)
        with pytest.raises(ValueError, match="unachievable"):
            mathieu_direct(1.0, 1e-25)
        # (2/tol)^(1/3) is inf here; it is capped before it is rounded.
        with pytest.raises(ValueError, match="^tolerance unachievable by direct summation"):
            mathieu_direct(1.0, 5e-324)
        with pytest.raises(ValueError, match="^r must be finite; got inf$"):
            mathieu_direct(math.inf)
        # Past r = 3.5e7 every tol needs more terms than the cap, so the
        # route refuses before anything it forms can overflow.
        with pytest.raises(ValueError, match="^tolerance unachievable.* at r=1e\\+160 "):
            mathieu_direct(1e160, 1.0)

    @pytest.mark.parametrize("r", _DIRECT_R)
    def test_bit_identical_to_int_counters(self, r):
        for tol in (1e-10, 1e-12, 1e-4, 1.0):
            got, ref = mathieu_direct(r, tol), _reference_direct(r, tol)
            assert (got.lower.hex(), got.upper.hex()) == (ref.lower.hex(), ref.upper.hex())


class TestTailEnclosure:
    def test_agrees_with_brute_force(self):
        for r, x in [(1.0, 2.0), (2.0, 3.5)]:
            bracket = tail_enclosure(r, x, 1e-10)
            assert bracket.achieved
            lo, hi = brute_tail_bracket(r, x, 60_000)
            assert bracket.enclosure.lower - 1e-14 <= lo
            assert hi <= bracket.enclosure.upper + 1e-14

    def test_zero_width_spends_budget(self):
        bracket = tail_enclosure(1.0, 2.0, 0.0, max_terms=10)
        assert bracket.terms_used == 10
        assert not bracket.achieved

    def test_validation(self):
        with pytest.raises(ValueError, match="bracketing requires"):
            tail_enclosure(1.0, 0.75, 1e-8)
        with pytest.raises(ValueError, match="width"):
            tail_enclosure(1.0, 2.0, -1e-8)
        # x = inf is refused as r = inf is, not left to overflow to nan.
        with pytest.raises(ValueError, match="^x must be finite; got inf$"):
            tail_enclosure(1.0, math.inf, 1e-12)

    @pytest.mark.parametrize("r", [1e-170, 1e-157, 1e-156])
    def test_underflowing_r_at_z0(self, r):
        # r^2 underflows to 0 (1e-170) or to a subnormal, where the walk
        # cannot start or its odd end overflows; b'_1 = 1/2 + r^2 of the
        # tail interval does not underflow.
        bracket = tail_enclosure(r, 1.0, 1e-12)
        enc = bracket.enclosure
        assert bracket.achieved and 0 < enc.width <= 1e-12
        assert mpmath.mpf(enc.lower) <= mpmath_s(r) <= mpmath.mpf(enc.upper)
        # Width 0 still walks, and still cannot start.
        with pytest.raises(ValueError, match=f"underflowed to 0 at r={r!r}"):
            tail_enclosure(r, 1.0, 0.0, 1000)

    @pytest.mark.parametrize("r,max_terms", [
        # B_1 = r^2 is 0: the first division fails, before a one-term cap
        # can leave the bracket open ("max_terms=1 too small" at r = 1).
        (1e-170, 1),
        (1e-170, 200_000),
        # r^2 is subnormal: the walk runs to the cap with its odd end at inf.
        (1e-157, 200_000),
    ])
    def test_walk_underflow_exit(self, r, max_terms):
        with pytest.raises(ValueError) as info:
            series._walk(MathieuCFParams(r, 1.0), 0.0, max_terms)
        assert str(info.value) == (
            f"approximant denominator underflowed to 0 at r={r!r}: r^2 underflows")


def _reference_bracket_walk(form, width, max_terms):
    """The generic bracket walk: the engine's ``_recurrence`` over
    ``form.term``, one term per step.  ``tail_enclosure``'s flat loop must
    match it bit for bit on ``ab_form``."""
    lo = hi = None
    n_stop = 0
    for n, A, B, _ in _recurrence(form, DEFAULT_RESCALE_AT):
        if n == 0:
            continue
        value = A / B
        if n % 2:
            hi = value
        else:
            lo = value
            if lo > hi:
                lo, hi = hi, lo
                n_stop = n
                break
            if 0 < width and hi - lo <= width:
                n_stop = n
                break
        if n >= max_terms:
            n_stop = n
            break
    if lo is None or hi is None:
        raise ValueError(f"max_terms={max_terms} too small to form a bracket")
    enclosure = Enclosure(lo, hi)
    return TailBracket(enclosure, n_stop, enclosure.width <= width)


def _kernel(r, x, width, max_terms):
    """``tail_enclosure`` without its tail interval: the flat walk behind
    the same argument checks and error mapping."""
    params = MathieuCFParams(r, x)
    if params.z < 0 or not (width >= 0):
        # tail_enclosure raises these before either path runs.
        return tail_enclosure(r, x, width, max_terms)
    return series._walk(params, width, max_terms)


def _outcome(walk):
    """Exact bits of a walk's bracket, or the exception type and message."""
    try:
        bracket = walk()
    except (ValueError, OverflowError) as exc:
        return type(exc).__name__, str(exc)
    ends = [end.hex() if isinstance(end, float) else (type(end), end)
            for end in (bracket.enclosure.lower, bracket.enclosure.upper)]
    return *ends, bracket.terms_used, bracket.achieved


def _walk_outcomes(r, x, width, max_terms):
    """(flat walk, reference walk) outcomes."""
    form = ab_form(MathieuCFParams(r, x))
    return (_outcome(lambda: _kernel(r, x, width, max_terms)),
            _outcome(lambda: _reference_bracket_walk(form, width, max_terms)))


class TestFlatWalk:
    """``tail_enclosure``'s flat walk against ``_reference_bracket_walk``:
    same bits, same term count, same stop, same errors."""

    @settings(derandomize=True, max_examples=200, deadline=None)
    @given(
        r=st.floats(-2.0, 3.0).map(lambda e: 10.0 ** e),
        x=st.one_of(st.just(1.0), st.integers(1, 12).map(float), st.floats(1.0, 9.0)),
        width=st.sampled_from([0.0, 1e-12, 1e-300]),
        max_terms=st.integers(1, 2500),
    )
    def test_bit_identical_to_reference(self, r, x, width, max_terms):
        flat, reference = _walk_outcomes(r, x, width, max_terms)
        assert flat == reference

    @pytest.mark.parametrize("max_terms", [1, 2, 3, 4, 41, 200, 4001])
    def test_explicit_cases(self, max_terms):
        for r, x, width in itertools.product(
            [0.01, 0.37, 1.0, 7.0, 1000.0], [1.0, 2.0, 3.0, 1.5, 4.25], [0.0, 1e-12, 1e-300]
        ):
            flat, reference = _walk_outcomes(r, x, width, max_terms)
            assert flat == reference, (r, x, width)
            if max_terms == 1:
                assert flat == ("ValueError", "max_terms=1 too small to form a bracket")

    @pytest.mark.parametrize("r,x,n", [(1.0, 2.0, 770), (7.0, 2.0, 74), (1000.0, 1.0, 6)])
    def test_saturation_swap_path(self, r, x, n):
        # A width of 1e-300 is never met: the walk ends on a crossed even/odd
        # pair, swapped into a bracket a few ulp wide.
        flat, reference = _walk_outcomes(r, x, 1e-300, 200_000)
        assert flat == reference
        assert flat[2:] == (n, False)

    @pytest.mark.parametrize("r,width,max_terms", [
        (2.5, 1e-12, 200_000),  # the deep workload's call, theorem1_to_width(r, 1, 1e-12)
        (1.7, 1e-12, 200_000),
        (2.0, 0.0, 100_001),
        (1.9, 1e-300, 60_000),
    ])
    def test_deep_k1_walks(self, r, width, max_terms):
        # At x = 1 (z = 0) the walk never meets these widths: it runs to the
        # cap and rescales thousands of times, on odd and even half-steps.
        rescaled_at = {0: 0, 1: 0}
        rescales = 0
        for n, _, _, count in _recurrence(ab_form(MathieuCFParams(r, 1.0)), DEFAULT_RESCALE_AT):
            if count > rescales:
                rescaled_at[n % 2] += 1
                rescales = count
            if n >= max_terms:
                break
        assert rescaled_at[0] > 1000 and rescaled_at[1] > 10
        flat, reference = _walk_outcomes(r, 1.0, width, max_terms)
        assert flat == reference
        assert flat[2:] == (max_terms, False)

    @pytest.mark.parametrize("r,x,n", [(1.0, 2.0, 200), (0.37, 1.0, 4000), (7.0, 3.0, 20), (1000.0, 1.5, 4)])
    def test_width_stop_is_inclusive(self, r, x, n):
        # The walk stops on the first pass with hi - lo <= width: a width
        # equal to the bracket's width at pass n stops exactly there, with
        # the bits of the width-0 walk capped at n; one float below it does not.
        capped = _kernel(r, x, 0.0, n)
        w = capped.enclosure.width
        assert w > 0 and capped.terms_used == n and not capped.achieved
        at_w = _kernel(r, x, w, 200_000)
        assert at_w.enclosure == capped.enclosure
        assert (at_w.terms_used, at_w.achieved) == (n, True)
        below = _kernel(r, x, math.nextafter(w, 0.0), 200_000)
        assert below.terms_used > n and below.achieved

    def test_exact_run_stays_exact_past_the_rescale_threshold(self):
        # Exact brackets come from the engine, which never rescales exact
        # state: A_n passes DEFAULT_RESCALE_AT between 120 and 140 terms here.
        even = convergent(ab_form(MathieuCFParams(Fraction(3, 2), Fraction(3))), 140)
        assert type(even.numerator) is type(even.value) is Fraction
        assert even.numerator > DEFAULT_RESCALE_AT and even.rescales == 0

    @pytest.mark.parametrize("r,x", [(1, 2), (3, 1)])
    def test_integer_and_fraction_parameters(self, r, x):
        # Small int parameters walk in float as the engine's int ab_form
        # does, bit for bit; a Fraction one walks in float too (its own test).
        form = ab_form(MathieuCFParams(r, x))
        for max_terms in (2, 3, 12):
            flat = tail_enclosure(r, x, 0.0, max_terms)
            reference = _reference_bracket_walk(form, 0.0, max_terms)
            assert flat == reference
            assert type(flat.enclosure.lower) is type(reference.enclosure.lower)

    def test_fraction_parameters_walk_in_float(self):
        # Exact brackets come from the engine; the walk's ends are floats,
        # within a few ulp of them.
        r, x = Fraction(1, 3), Fraction(5, 2)
        bracket = tail_enclosure(r, x, 0.0, 12)
        enc = bracket.enclosure
        assert type(enc.lower) is type(enc.upper) is float
        assert (bracket.terms_used, bracket.achieved) == (12, False)
        form = ab_form(MathieuCFParams(r, x))
        for end, n in ((enc.lower, 12), (enc.upper, 11)):
            assert abs(end - convergent(form, n).value) <= 8 * math.ulp(end)

    @settings(derandomize=True, max_examples=60, deadline=None)
    @given(
        r=st.floats(78.0, 160.0).map(lambda e: 10.0 ** e),
        x=st.one_of(st.just(1.0), st.floats(1.0, 9.0)),
        max_terms=st.sampled_from([1, 2, 3, 1000]),
    )
    def test_large_r_matches_reference(self, r, x, max_terms):
        flat, reference = _walk_outcomes(r, x, 0.0, max_terms)
        assert flat == reference

    @pytest.mark.parametrize("r,n", [(1e90, 169), (1e140, 3), (1e160, 1)])
    def test_large_r_overflow_message(self, r, n):
        flat, reference = _walk_outcomes(r, 2.0, 0.0, 1000)
        assert flat == reference
        assert flat[0] == "OverflowError"
        assert flat[1].startswith(f"numerical overflow despite rescaling at n={n} ")


# r^2 underflows to 0 at 1e-170 and to a subnormal at the others.
_TINY_R = (1e-170, 1e-160, 1e-157, 1e-156)


class TestTailInterval:
    """``tail_enclosure`` at z = 0 with width > 0: the tail interval of the
    contracted fraction (proof in the ``cf`` docstring), after a short walk
    only where N_0 > PROBE_LEVEL."""

    @settings(derandomize=True, max_examples=200, deadline=None)
    @given(
        r=st.floats(-3.0, 2.0).map(lambda e: 10.0 ** e) | st.sampled_from(_TINY_R)
        | st.integers(1, 3) | st.fractions(1, 3).filter(lambda f: f > 0),
        x=st.one_of(st.just(1.0), st.just(1), st.integers(1, 12).map(float), st.floats(1.0, 9.0)),
        width=st.sampled_from([0.0, 1e-8, 1e-12, 1e-300]),
        max_terms=st.integers(1, 2500),
    )
    def test_kernel_bits_off_the_tail_interval(self, r, x, width, max_terms):
        # Bit for bit the flat walk whenever z > 0, the width is 0, or no
        # tail interval fits the cap; and where N_0 > PROBE_LEVEL, when the
        # walk meets the width within its first N_0 // 2 terms.
        got = _outcome(lambda: tail_enclosure(r, x, width, max_terms))
        kernel = _outcome(lambda: _kernel(r, x, width, max_terms))
        start = tail_interval.start(r, x, width, max_terms)
        if start is None:
            assert got == kernel
        elif _outcome(lambda: _kernel(r, x, width, start[3]))[-1] is True:
            assert got == kernel

    @pytest.mark.parametrize("r", [5.0, 6.0, 7.0, 10.0])
    def test_walk_that_meets_the_width_is_kept(self, r):
        # Here the walk meets 1e-12 within its N_0 // 2 terms.
        assert tail_enclosure(r, 1.0, 1e-12) == _kernel(r, 1.0, 1e-12, 200_000)

    def test_walk_first_only_above_the_probe_level(self, monkeypatch):
        # Where N_0 <= PROBE_LEVEL (all of r <= 2.5) a first pass costs less
        # than the walk, which meets no width of 1e-6 or less there.
        calls = []
        walk = series._walk

        def counted(*args):
            calls.append(args)
            return walk(*args)

        monkeypatch.setattr(series, "_walk", counted)
        for i in range(50):
            r = 0.05 + 2.45 * i / 49
            for width in (1e-8, 1e-12):
                tail_enclosure(r, 1.0, width)
        assert calls == []
        for r in (4.5, 5.0, 7.0, 10.0):
            calls.clear()
            tail_enclosure(r, 1.0, 1e-12)
            assert len(calls) == 1

    def test_one_pass_at_the_predicted_level(self, monkeypatch):
        # Across the deep workload's r range: the width law's level meets
        # the width in one pass, from N_0 on.
        levels = []
        bounds_at = tail_interval.bounds_at

        def counted(rho_lo, rho_hi, n):
            levels.append(n)
            return bounds_at(rho_lo, rho_hi, n)

        monkeypatch.setattr(tail_interval, "bounds_at", counted)
        for width in (1e-12, 1e-9):
            for i in range(50):
                r = 0.05 + 2.45 * i / 49
                levels.clear()
                bracket = tail_enclosure(r, 1.0, width)
                _, n0, _, _ = tail_interval.start(r, 1.0, width, 200_000)
                assert len(levels) == 1 and levels[0] >= n0 and bracket.achieved
                assert bracket.terms_used == 2 * levels[0]

    # rho = 10,640 is about where N_0 reaches 2^26 (it passes MAX_LEVEL from
    # about 3,760).
    @pytest.mark.parametrize("rho", [0.0, 5e-324, 1e-300, 1e-6, 1.0, 6.25, 100.0, 10_640.0])
    def test_predicted_level_is_finite_and_monotone(self, rho):
        levels = [tail_interval._predicted_level(rho, width)
                  for width in (math.inf, 1.0, 1e-12, 1e-300)]
        assert all(type(n) is int and n >= 1 for n in levels)
        assert levels == sorted(levels)

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_width_law_band(self, seed):
        # The law that picks the first pass's level (``tail_interval._search``),
        # measured: width n^8/W(rho_hi) reads 1.036-1.252 for r in [0.01, 3]
        # and n from max(N_0, 8) to 64, while the width is at least 2^10 ulp
        # of hi (seeds 0-2), highest at n = 8 and lowest near 48.
        rng = random.Random(30_000 + seed)
        ratios = []
        for _ in range(24):
            r = rng.uniform(0.01, 3.0)
            rho = _rho_bracket(r)
            x = math.pi * math.sqrt(rho[1])
            law = (rho[1] + 1) ** 4 * (rho[1] ** 2 + 4 * rho[1] + 8) / 48 * (
                2 * x ** 3 * math.cosh(x) / math.sinh(x) ** 3)
            for n in range(max(math.ceil(tail_interval.n0_bound(rho[1])), 8), 65):
                lo, hi = tail_interval.bounds_at(*rho, n)
                if hi - lo < 2.0 ** -42 * hi:
                    break
                ratios.append((hi - lo) * n ** 8 / law)
        assert len(ratios) > 500
        assert 1.0 < min(ratios) and max(ratios) < 1.3

    @pytest.mark.parametrize("width", [1e-2, 1e-3, 1e-4])
    def test_loose_widths_take_the_pass(self, width):
        # r in [0.9, 2.58], where N_0 <= PROBE_LEVEL (r = 2.6 has N_0 = 33):
        # the walk would meet these widths, and the first pass's bracket
        # answers instead.
        for i in range(18):
            r = 0.9 + 1.68 * i / 17
            _, n0, _, walk_terms = tail_interval.start(r, 1.0, width, 200_000)
            assert walk_terms == 0
            bracket = tail_enclosure(r, 1.0, width)
            enc = bracket.enclosure
            assert bracket.achieved
            assert bracket.terms_used % 2 == 0 and bracket.terms_used >= 2 * n0
            assert mpmath.mpf(enc.lower) <= mpmath_s(r, 50) <= mpmath.mpf(enc.upper)

    @settings(derandomize=True, max_examples=120, deadline=None)
    @given(
        r=st.floats(math.log(1e-3), math.log(50.0)).map(math.exp) | st.sampled_from(_TINY_R),
        width=st.sampled_from([1e-8, 1e-12, 1e-15, 1e-300]),
        max_terms=st.integers(2, 200_000)
        | st.floats(math.log(2), math.log(2e5)).map(lambda e: round(math.exp(e))),
    )
    # Intervals down to a few ulp wide, where rounding that is not outward
    # lands them off S(r).
    @example(r=2.5, width=1e-300, max_terms=200_000)
    @example(r=3.8, width=1e-300, max_terms=20_000)
    @example(r=3.3, width=1e-15, max_terms=200_000)
    @example(r=1e-157, width=1e-300, max_terms=200_000)
    def test_contains_mpmath_value(self, r, width, max_terms):
        try:
            bracket = tail_enclosure(r, 1.0, width, max_terms)
        except ValueError as exc:
            # r^2 underflows and the cap is below 2 N_0 = 8 terms: neither
            # the walk nor the tail interval can start.
            assert r * r < sys.float_info.min and max_terms < 8
            assert "underflowed to 0" in str(exc)
            return
        enc = bracket.enclosure
        assert 0 < bracket.terms_used <= max_terms
        start = tail_interval.start(r, 1.0, width, max_terms)
        if start is not None and _outcome(lambda: bracket) != _outcome(
                lambda: _kernel(r, 1.0, width, start[3])):
            # A tail interval: certified in floating point.
            assert bracket.terms_used % 2 == 0 and bracket.terms_used >= 2 * start[1]
            assert mpmath.mpf(enc.lower) <= mpmath_s(r, 50) <= mpmath.mpf(enc.upper)
        elif width >= 1e-12:
            # The walk's bracket, which at 1e-15 and below can end on a
            # crossed pair a few ulp off S(r) (ROADMAP item 1).
            assert mpmath.mpf(enc.lower) <= mpmath_s(r, 50) <= mpmath.mpf(enc.upper)

    @settings(derandomize=True, max_examples=150, deadline=None)
    @given(
        r=st.floats(math.log(1e-3), math.log(20.0)).map(math.exp) | st.sampled_from(_TINY_R),
        n=st.integers(0, 20_000),
    )
    @example(r=0.05, n=100_000)
    def test_pass_contains_the_reference_pass(self, r, n):
        # n from N_0 on; rho_lo = 0 and rho_hi is subnormal for the tiny r.
        # The pass holds the exact S_k(V_k) at both ends of rho's bracket, at
        # a level k of at most _EXACT_LEVELS (from N_0 on, so r up to about
        # 4.6; 32 where rho is subnormal, as its exact numbers grow by about
        # a thousand bits a level), and is not much wider than the
        # ``nextafter`` pass.
        rho = _rho_bracket(r)
        n0 = math.ceil(tail_interval.n0_bound(rho[1]))
        n = max(n, n0)
        lo, hi = tail_interval.bounds_at(*rho, n)
        ref_lo, ref_hi = _reference_bounds_at(*rho, n)
        k = min(n, _EXACT_LEVELS if rho[1] >= sys.float_info.min else 32)
        if n0 <= k:
            k_lo, k_hi = tail_interval.bounds_at(*rho, k)
            for end in rho:
                for t in tail_set(end, k):
                    assert _exact_pass_within(end, k, t, k_lo, k_hi)
        assert hi - lo <= 1.3 * (ref_hi - ref_lo)

    @settings(derandomize=True, max_examples=80, deadline=None)
    @given(
        r=st.floats(math.log(1e-3), math.log(20.0)).map(math.exp)
        | st.floats(math.log(1e-157), math.log(1e-3)).map(math.exp),
        depth=st.floats(1.0, 4.0),
    )
    def test_pass_contains_mpmath_value(self, r, depth):
        # From N_0 to 4 N_0, where the tail set sits closest to the tail.
        rho = _rho_bracket(r)
        n = math.ceil(depth * math.ceil(tail_interval.n0_bound(rho[1])))
        lo, hi = tail_interval.bounds_at(*rho, n)
        assert mpmath.mpf(lo) <= mpmath_s(r, 50) <= mpmath.mpf(hi)

    # Exact rho (rho_lo = rho_hi), where the outward roundings alone hold
    # the exact values, and one bracket as ``start`` makes it.
    @pytest.mark.parametrize("rho, n", [
        ((0.0025, 0.0025), 200), ((1.0, 1.0), 120), ((6.25, 6.25), 200),
        ((math.nextafter(2.25, 0), math.nextafter(2.25, 3)), 60),
    ])
    def test_each_level_holds_the_exact_tail(self, rho, n):
        # Level by level, [u_lo, u_hi] holds the exact u_j = -t_j from both
        # ends of V_n, at both ends of rho's bracket.
        seen = _pass_levels(rho, n)
        assert len(seen) == n
        for end in rho:
            for t in tail_set(end, n):
                for (u_lo, u_hi), (p, q) in zip(seen, _exact_levels(end, n, t), strict=True):
                    lo_n, lo_d = u_lo.as_integer_ratio()
                    hi_n, hi_d = u_hi.as_integer_ratio()
                    assert q > 0 and lo_n * q <= -p * lo_d and -p * hi_d <= hi_n * q

    def test_g_bounds_cover_the_level_roundings(self):
        # The rounding argument (``cf`` docstring) needs g+_j >= g_j (1 +
        # eps)^6 and g-_j <= g_j (1 - eps)^6, eps = 2^-53, and the table holds
        # the nearest such floats: at levels 1..64, on both sides of
        # _TABLE_LEVELS (from the table and made one at a time) and up to
        # MAX_LEVEL.  A power of 5 fails here.
        eps = Fraction(1, 2 ** 53)
        top = tail_interval._TABLE_LEVELS
        levels = dict(zip(range(top + 1, 0, -1), tail_interval._levels_down(top + 2)))
        edge = tail_interval.MAX_LEVEL
        levels.update((j, tail_interval._level(j)) for j in range(edge - 2, edge + 1))
        for j in [*range(1, 65), *range(top - 3, top + 2), *range(edge - 2, edge + 1)]:
            m, j2, g_up, g_dn = levels[j]
            assert (m, j2) == ((j * j + j + 1) / 2, j * j)
            g = Fraction(j ** 4, 4 * (4 * j * j - 1))
            assert Fraction(g_up) >= g * (1 + eps) ** 6 > Fraction(math.nextafter(g_up, 0)), j
            assert Fraction(g_dn) <= g * (1 - eps) ** 6 < Fraction(math.nextafter(g_dn, math.inf)), j

    @pytest.mark.parametrize("seed", [0, 1])
    def test_denominator_ratio_stays_below_two(self, seed):
        # The rounding argument's hypothesis: at every level j of a pass
        # from N_0 on, (m_j + rho_hi)/d_lo <= 2 for the computed d_lo =
        # m_j + rho_lo - u_hi, compared exactly.  rho from 0 to about 22
        # (N_0 <= 300) and n from N_0 to 300.
        rng = random.Random(29_000 + seed)
        brackets = [(0.0, 0.0), _rho_bracket(1e-3)]
        brackets += [_rho_bracket(rng.uniform(0.01, 4.68)) for _ in range(20)]
        for rho_lo, rho_hi in brackets:
            n0 = math.ceil(tail_interval.n0_bound(rho_hi))
            n = rng.randrange(n0, 301)
            seen = _pass_levels((rho_lo, rho_hi), n)
            for j, (_, u_hi) in zip(range(n - 1, 0, -1), seen):
                m = (j * j + j + 1) / 2
                d_lo = m + rho_lo - u_hi
                assert Fraction(m) + Fraction(rho_hi) <= 2 * Fraction(d_lo), (rho_hi, n, j)

    @pytest.mark.parametrize("r, n", [(0.05, 64), (1.0, 65), (2.5, 900), (1e-157, 3000)])
    def test_levels_above_the_table(self, monkeypatch, r, n):
        # Levels past the table are made one at a time, in order: the pass
        # is the one that makes every level one at a time (a table of one
        # entry).
        rho = _rho_bracket(r)
        monkeypatch.setattr(tail_interval, "_TABLE_LEVELS", 1)
        monkeypatch.setattr(tail_interval, "_LEVELS", [None])
        untabled = tail_interval.bounds_at(*rho, n)
        assert tail_interval._LEVELS == [None]
        monkeypatch.setattr(tail_interval, "_TABLE_LEVELS", 64)
        assert tail_interval.bounds_at(*rho, n) == untabled
        assert len(tail_interval._LEVELS) == 64

    def test_full_table_memory(self, monkeypatch):
        # The table filled to _TABLE_LEVELS, counting the lists it is grown
        # through, stays within the 4.2 MB the g_j table took at 2^17 levels.
        monkeypatch.setattr(tail_interval, "_LEVELS", [None])
        tracemalloc.start()
        try:
            tail_interval.bounds_at(1.0, 1.0, tail_interval._TABLE_LEVELS)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(tail_interval._LEVELS) == tail_interval._TABLE_LEVELS
        assert peak <= 4.2e6

    # Outside the pass's domain: rho < 0.
    @pytest.mark.parametrize("rho, n, level", [(-1.0, 1, 0), (-6.0, 4, 1), (-24.0, 10, 3)])
    def test_non_positive_denominator_raises(self, rho, n, level):
        message = f"^tail interval lost its bound at level {level}$"
        with pytest.raises(ArithmeticError, match=message):
            _reference_bounds_at(rho, rho, n)
        with pytest.raises(ArithmeticError, match=message):
            tail_interval.bounds_at(rho, rho, n)

    @pytest.mark.parametrize("r, x", [(1, 1.0), (0.5, 1), (2, 1), (7, 1), (40, 1.0)])
    @pytest.mark.parametrize("width", [1e-8, 1e-12, 1e-15])
    def test_int_parameters_run_as_floats(self, r, x, width):
        # An int r or x = 1 takes the tail interval as its float twin does,
        # instead of walking to the term cap.
        assert tail_enclosure(r, x, width) == tail_enclosure(float(r), float(x), width)

    def test_int_r_meets_the_width_as_a_float_r_does(self):
        assert theorem1_to_width(1, 1, 1e-12) == theorem1_to_width(1.0, 1, 1e-12)
        assert theorem1_to_width(1, 1, 1e-12)[1:] == (72, True)

    def test_fraction_r_meets_the_width_as_a_float_r_does(self):
        # A Fraction r takes the tail interval too, in float arithmetic.
        enc, terms, achieved = theorem1_to_width(Fraction(1, 3), 1, 1e-12)
        assert achieved and terms <= 100
        assert type(enc.lower) is type(enc.upper) is float
        with mpmath.workdps(50):
            assert enc.lower <= mpmath_s(mpmath.mpf(1) / 3, 50) <= enc.upper

    @pytest.mark.parametrize("r", [10**155, 10**400])
    def test_int_r_past_float_range_overflows(self, r):
        # r^2 past float range: the walk's OverflowError, with or without a
        # tail interval to try first.
        with pytest.raises(OverflowError, match="^int too large to convert to float$"):
            tail_enclosure(r, 1.0, 1e-12)
        with pytest.raises(OverflowError, match="^int too large to convert to float$"):
            tail_enclosure(r, 1.0, 0.0)
        with pytest.raises(OverflowError, match="^int too large to convert to float$"):
            theorem1_to_width(r, 1, 1e-12)

    @pytest.mark.parametrize("r, x, width, message", [
        (math.inf, 1.0, 1e-12, "r must be finite; got inf"),
        (math.nan, 1.0, 1e-12, "r must be > 0; got nan"),
        (-1.0, 1.0, 1e-12, "r must be > 0; got -1.0"),
        (0.0, 1.0, 1e-12, "r must be > 0; got 0.0"),
        (1.0, 1.0, math.nan, "width must be >= 0; got nan"),
        (1.0, 1.0, -1.0, "width must be >= 0; got -1.0"),
        (1.0, 0.75, 1e-12, "bracketing requires z = x^2 - x >= 0 (x >= 1); got x=0.75, z=-0.1875"),
    ])
    def test_validation_on_the_tail_interval_route(self, r, x, width, message):
        # The z = 0 route runs before MathieuCFParams and the checks after
        # it: each invalid input still raises their exception and message.
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            tail_enclosure(r, x, width)
        if x == 0.75:
            message = "k must be a positive integer; got 0.75"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            theorem1_to_width(r, x, width)

    @pytest.mark.parametrize("r", [0.05, 1.0, 2.5])
    def test_deep_level_counts(self, r):
        # Across the deep workload's r range, 1e-12 within 200 terms.
        bracket = tail_enclosure(r, 1.0, 1e-12)
        assert bracket.achieved and bracket.terms_used <= 200

    def test_levels_stay_below_two_to_the_23(self, monkeypatch):
        # bounds_at's rounding argument holds only below 2^23 levels, whatever
        # the term cap; a recorder stands in for the passes, which would take
        # seconds each.
        levels = []

        def wide(rho_lo, rho_hi, n):
            # The n^-8 law, meeting no width of an ulp or more below 2^26.
            levels.append(n)
            return 1.0 - 2.0 ** -52 * (2 ** 27 / n) ** 8, 1.0

        monkeypatch.setattr(tail_interval, "bounds_at", wide)
        bracket = tail_enclosure(1.0, 1.0, 1e-300, 2 ** 28)
        assert max(levels) == tail_interval.MAX_LEVEL == 2 ** 23 - 1
        assert bracket.terms_used == 2 * tail_interval.MAX_LEVEL and not bracket.achieved
        # With N_0 above the cap no tail interval serves: the walk answers.
        assert tail_interval.start(1e4, 1.0, 1e-12, 2 ** 30) is None

    @pytest.mark.parametrize("r, width", [(0.05, 1e-300), (0.3, 6e-15), (1.0, 1.8e-15)])
    def test_width_below_the_floor_stops_near_it(self, r, width):
        # Out of reach at any level (the narrowest passes are 6.2e-15 wide
        # at r = 0.3 and 1.9e-15 at r = 1): the search aims at no less than
        # an ulp-scale width, and stops where the width stops falling, not
        # at the cap.
        bracket = tail_enclosure(r, 1.0, width)
        assert not bracket.achieved and bracket.terms_used <= 2000
        assert bracket.enclosure.width < 1e-13

    @pytest.mark.parametrize("max_terms", [20_000, 200_000])
    @pytest.mark.parametrize("r", [1e-3, 0.05, 0.3, 1.0, 2.5, 5.0, 12.0, 20.0])
    def test_floor_stop_keeps_every_met_width(self, r, max_terms):
        # Stopping the search at the rounding floor gives up no width that
        # searching on to n_max meets.
        for width in (1e-8, 1e-10, 1e-12, 1e-13, 1e-14, 1e-15):
            plan = tail_interval.start(r, 1.0, width, max_terms)
            if plan is None:
                continue
            rho, n0, n_max, _ = plan
            if _search_to_n_max(rho, width, n0, n_max):
                lower, upper, _ = tail_interval._search(rho, width, n0, n_max)
                assert upper - lower <= width


def _rho_bracket(r):
    """r^2 bracketed as ``tail_interval.start`` brackets it."""
    return tail_interval.start(r, 1.0, 1.0, 1 << 40)[0]


def _reference_bounds_at(rho_lo, rho_hi, n):
    """``tail_interval.bounds_at`` with ``math.nextafter`` after every
    rounding operation and g_j as one int quotient per level, from the
    ends of V_n (``cf`` docstring) rounded outward."""
    nextafter = math.nextafter
    down, up = -math.inf, math.inf
    rho4_lo, rho4_hi = 4 * rho_lo, 4 * rho_hi
    c = -2 * n * n + 3 * n - 6  # 8 L_n + 4 rho
    a_hi = nextafter(nextafter(8 * rho_hi * nextafter(rho_hi + 1, up), up) + 3, up)
    a_lo = nextafter(nextafter(8 * rho_lo * nextafter(rho_lo + 1, down), down) + 3, down)

    def fourth(end, way):  # (end + 1)^4
        q = nextafter(end + 1, way)
        q = nextafter(q * q, way)
        return nextafter(q * q, way)

    def over_n(v, times, way):
        for _ in range(times):
            v = nextafter(v / n, way)
        return v

    # (rho + 1)^4/(12 n^2 (2n - 3)): its bounds swap sign at n = 1.
    k = 24 * n - 36
    gap_hi = nextafter(over_n(fourth(rho_hi, up), 2, up) / abs(k), up)
    gap_lo = nextafter(over_n(fourth(rho_lo, down), 2, down) / abs(k), down)
    if k < 0:
        gap_hi, gap_lo = -gap_lo, -gap_hi
    b = nextafter(nextafter(nextafter(rho_hi * rho_hi, up) + rho4_hi, up) + 8, up)
    width = over_n(nextafter(nextafter(fourth(rho_hi, up) * b, up) / 48, up), 5, up)  # 2h_n
    e_hi = nextafter(nextafter(nextafter(a_hi / (32 * n - 16), up) - gap_lo, up) + width, up)
    e_lo = nextafter(nextafter(a_lo / (32 * n - 16), down) - gap_hi, down)
    lo = nextafter(nextafter(nextafter(c - rho4_hi, down) + 3.5, down) / 8 + e_lo, down)
    hi = nextafter(nextafter(nextafter(c - rho4_lo, up) + 3.5, up) / 8 + e_hi, up)
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


# The highest level at which the tests run an exact pass: its cost grows
# like the square of the level.
_EXACT_LEVELS = 300


def _exact_levels(rho, n, t):
    """t_j = p/q, exact for a float rho and a Fraction t, for j = n .. 1:
    t_n = t, then t_j = -g_j (j^2 + 4 rho)/(m_j + rho + t_{j+1}).  q stays
    positive while the denominators do.  It carries t = p/q unreduced, as a
    gcd per level costs more than it saves."""
    rn, rd = rho.as_integer_ratio()
    p, q = t.numerator, t.denominator
    yield p, q
    for j in range(n - 1, 0, -1):
        jj = j * j
        # g_j (j^2 + 4 rho) = j^4 (j^2 rd + 4 rn)/((16 j^2 - 4) rd) and
        # m_j + rho = ((j^2 + j + 1) rd + 2 rn)/(2 rd); rd cancels.
        p, q = (-2 * jj * jj * (jj * rd + 4 * rn) * q,
                (16 * jj - 4) * (((jj + j + 1) * rd + 2 * rn) * q + 2 * rd * p))
        yield p, q


def _exact_pass_within(rho, n, t, lo, hi):
    """Whether lo <= S_n(t) <= hi, with S_n(t) = 1/(1/2 + rho + t_1) exact
    (``_exact_levels``)."""
    rn, rd = rho.as_integer_ratio()
    *_, (p, q) = _exact_levels(rho, n, t)
    num, den = 2 * rd * q, (rd + 2 * rn) * q + 2 * rd * p
    if den < 0:
        num, den = -num, -den
    lo_n, lo_d = lo.as_integer_ratio()
    hi_n, hi_d = hi.as_integer_ratio()
    return lo_n * den <= num * lo_d and num * hi_d <= hi_n * den


def _pass_levels(rho, n):
    """[u_lo, u_hi] of ``tail_interval.bounds_at(*rho, n)`` at each level
    j = n .. 1 (u = -t_j), read from the pass's frame each time its loop
    asks ``_levels_down`` for the next level's constants, and once when
    the loop ends.  Each call patches ``_levels_down`` in a context of its
    own, so that calls do not wrap each other's reader."""
    seen = []
    levels_down = tail_interval._levels_down

    def reading(n):
        frame = sys._getframe(1)  # bounds_at, which resumes this generator
        for level in levels_down(n):
            seen.append((frame.f_locals["u_lo"], frame.f_locals["u_hi"]))
            yield level
        seen.append((frame.f_locals["u_lo"], frame.f_locals["u_hi"]))

    with pytest.MonkeyPatch.context() as monkeypatch:
        monkeypatch.setattr(tail_interval, "_levels_down", reading)
        tail_interval.bounds_at(*rho, n)
    return seen


def _search_to_n_max(rho, width, n0, n_max):
    """Whether ``tail_interval._search`` without its floor stop, from n0 on,
    meets ``width`` before n reaches n_max."""
    n = min(n0, n_max)
    while True:
        lo, hi = tail_interval.bounds_at(*rho, n)
        if hi - lo <= width or n == n_max:
            return hi - lo <= width
        n = tail_interval._next_level(n, hi - lo, width, n_max)


class TestEnclosureIdentity:
    def test_fixed_budget(self):
        enc = theorem1_to_width(1.0, 2, 0.0, 80)[0]
        assert enc.contains(S_AT_1)
        assert enc.width < 1e-9

    def test_split_at_one(self):
        # x = 1 makes z = 0: coefficients stay positive, bracketing holds.
        assert theorem1_to_width(1.0, 1, 0.0, 80)[0].contains(S_AT_1)

    @pytest.mark.parametrize("r", [0.5, 1.0, 5.0])
    def test_split_points_agree_at_width_0(self, r):
        # Run to their rounding floors, the enclosures of k = 1, 2, 3 meet
        # one another and the direct bracket.  A saturated end can sit a few
        # ulp off S(r), so they meet with ulp-scale slack, not at S(r).
        direct = mathieu_direct(r, 1e-8)
        enclosures = [theorem1_to_width(r, k, 0.0, 4000)[0] for k in (1, 2, 3)]
        lo = max(e.lower for e in enclosures)
        hi = min(e.upper for e in enclosures)
        assert lo <= hi + 32 * math.ulp(max(abs(lo), abs(hi))), (lo, hi)
        for e in enclosures:
            assert e.lower <= direct.upper and direct.lower <= e.upper, (e, direct)

    def test_adaptive(self):
        enc, terms, achieved = theorem1_to_width(1.0, 3, 1e-12)
        assert achieved and terms <= 40
        assert enc.width <= 1e-12
        assert enc.contains(S_AT_1)

    def test_adaptive_cap_reported(self):
        enc, terms, achieved = theorem1_to_width(1.0, 1, 1e-12, max_terms=60)
        assert not achieved and terms == 60
        assert enc.width > 1e-12
        assert enc.contains(S_AT_1)  # still certified, just wide

    def test_partial_sum(self):
        assert mathieu_partial_sum(1.0, 1) == 0.0
        assert mathieu_partial_sum(1.0, 3) == pytest.approx(2 / 4 + 4 / 25, abs=1e-16)
        with pytest.raises(OverflowError, match=r"\(m\^2 \+ r\^2\)\^2 .* r=1e\+100"):
            mathieu_partial_sum(1e100, 3)

    def test_validation(self):
        with pytest.raises(ValueError, match="k must be"):
            theorem1_to_width(1.0, 0, 0.0, 80)
        # r^2 underflows: the k = 1 walk cannot start, the tail interval can.
        enc, terms, achieved = theorem1_to_width(1e-160, 1, 1e-12)
        assert achieved and enc.width <= 1e-12 and terms <= 200_000
        assert mpmath.mpf(enc.lower) <= mpmath_s(1e-160) <= mpmath.mpf(enc.upper)
        with pytest.raises(ValueError, match="underflowed to 0 at r=1e-160"):
            theorem1_to_width(1e-160, 1, 0.0, 80)
        # An infinite r used to reach the recurrence: nan, then OverflowError.
        with pytest.raises(ValueError, match="^r must be finite; got inf$"):
            theorem1_to_width(math.inf, 3, 1e-10)


def _correctly_rounded_head(r, k):
    """The head with r*r, each d = m*m + r*r, d*d, 2m/(d*d) and the sum each
    rounded once from its exact value: what products give, where the C
    library's pow need not."""
    rr = float(Fraction(r) ** 2)
    terms = []
    for m in range(1, k):
        d = float(m * m + Fraction(rr))
        terms.append(float(2 * m / Fraction(float(Fraction(d) ** 2))))
    return float(sum(map(Fraction, terms)))


_head_rng = random.Random(34)
_HEAD_R = [10 ** _head_rng.uniform(-2, 3) for _ in range(200)]


class TestHead:
    @pytest.mark.parametrize("k", range(1, 7))
    def test_every_operation_rounds_to_nearest(self, k):
        for r in _HEAD_R:
            assert mathieu_partial_sum(r, k).hex() == _correctly_rounded_head(r, k).hex(), r

    def test_squared_by_products(self):
        # pow can give (1 + r*r)**2 = 1.0007510308339347 here, one ulp below
        # the correctly rounded square 1.000751030833935 that d*d gives.
        r = 0.01937640156264564
        assert mathieu_partial_sum(r, 2) == _correctly_rounded_head(r, 2) == 1.998499065580159

    @pytest.mark.parametrize("k", [2, 3, 6])
    def test_overflow_names_r(self, k):
        with pytest.raises(OverflowError) as info:
            mathieu_partial_sum(1e100, k)
        assert str(info.value) == "(m^2 + r^2)^2 overflows float64 at r=1e+100"

    def test_empty_head_checks_nothing(self):
        assert mathieu_partial_sum(1e200, 1) == 0.0

    def test_head_over_the_term_cap_is_refused(self):
        # One term over ``_DIRECT_TERM_CAP``: refused before a term is summed,
        # and where the last term overflows that is still the error.
        k = series._DIRECT_TERM_CAP + 2
        with pytest.raises(ValueError) as info:
            mathieu_partial_sum(1.0, k)
        assert str(info.value) == "head sum at k=20000002 needs more than 20000000 terms"
        with pytest.raises(OverflowError, match="r=1e\\+100$"):
            mathieu_partial_sum(1e100, k)

    def test_head_past_any_float_keeps_each_refusal(self):
        # (k - 1)^2 = 10**400 is past any float: the overflow test reads r
        # alone, so each refusal keeps its own text.
        with pytest.raises(ValueError) as info:
            mathieu_partial_sum(1.0, 10**200)
        assert str(info.value) == f"head sum at k={10**200} needs more than 20000000 terms"
        with pytest.raises(OverflowError) as info:
            mathieu_partial_sum(1e100, 10**200)
        assert str(info.value) == "(m^2 + r^2)^2 overflows float64 at r=1e+100"

    def test_overflow_is_refused_exactly_where_the_last_square_overflows(self):
        # The test reads r^4 for (m^2 + r^2)^2, m = k - 1: the two agree on
        # the 64 floats around 2^256, where r^4 leaves float range.
        r = 2.0**256
        for _ in range(32):
            r = math.nextafter(r, 0)
        overflows = []
        for _ in range(64):
            last = 2 * 2 + r * r
            overflows.append(last * last == math.inf)
            if overflows[-1]:
                with pytest.raises(OverflowError):
                    mathieu_partial_sum(r, 3)
            else:
                assert mathieu_partial_sum(r, 3) >= 0
            r = math.nextafter(r, math.inf)
        assert overflows == [False] * 32 + [True] * 32

    @pytest.mark.parametrize("k", [0, -3])
    def test_head_refuses_k_below_one(self, k):
        with pytest.raises(ValueError) as info:
            mathieu_partial_sum(1.0, k)
        assert str(info.value) == f"k must be a positive integer; got {k}"

    @pytest.mark.parametrize("k", [20_000_002, 10**200, 10**400],
                             ids=["one-over-the-cap", "z-overflows", "k-past-float"])
    def test_theorem1_refuses_the_head_before_the_tail(self, k):
        # Refused before the walk: z = k^2 - k overflows at 10**200, and
        # 10**400 is too large for a float at all.
        with pytest.raises(ValueError) as info:
            theorem1_to_width(1.0, k, 1e-12)
        assert str(info.value) == f"head sum at k={k} needs more than 20000000 terms"


class TestBernoulli:
    def test_exact_values(self):
        expected = [
            Fraction(1), Fraction(-1, 2), Fraction(1, 6), Fraction(0),
            Fraction(-1, 30), Fraction(0), Fraction(1, 42), Fraction(0),
            Fraction(-1, 30), Fraction(0), Fraction(5, 66), Fraction(0),
            Fraction(-691, 2730),
        ]
        assert bernoulli_numbers(12) == expected
        assert bernoulli_numbers(0) == [Fraction(1)]

    def test_cache_prefix_stable(self):
        assert bernoulli_numbers(6) == bernoulli_numbers(12)[:7]

    def test_validation(self):
        with pytest.raises(ValueError, match="n_max"):
            bernoulli_numbers(-1)

    def test_matches_fraction_recurrence(self):
        assert bernoulli_numbers(300) == _reference_bernoulli(300)

    def test_matches_mpmath_through_1000(self):
        # Pins the whole reach of the table: auto truncation of the large-r
        # expansion reads up to B_1000 (at its 500-term cap).
        table = bernoulli_numbers(1000)
        for n, b in enumerate(table):
            assert b == Fraction(*mpmath.bernfrac(n)), n


def _reference_bernoulli(n_max):
    """B_0 .. B_{n_max} by the defining recurrence, one Fraction sum per index."""
    table = [Fraction(1)]
    for n in range(1, n_max + 1):
        acc = sum(math.comb(n + 1, j) * table[j] for j in range(n))
        table.append(Fraction(-acc, n + 1))
    return table


def _reference_asymptotic(r, n_terms="auto"):
    """``asymptotic`` with every term formed as
    float((-1)^m B_2m / Fraction(r)^(2m+2)): the exact quotient, rounded once.
    The Bernoulli numbers themselves are pinned by the mpmath test above."""
    rr = Fraction(r) ** 2
    power = rr
    terms = []
    cap = 500 if n_terms == "auto" else n_terms
    for m in range(cap + 1):
        t = float((-1) ** m * bernoulli_numbers(2 * m)[2 * m] / power)
        if m == cap or (n_terms == "auto" and terms and abs(t) >= abs(terms[-1])):
            return AsymptoticResult(math.fsum(terms), len(terms), abs(t))
        terms.append(t)
        power *= rr


def _asymptotic_outcome(fn, r, n_terms):
    # The reference's float() raises OverflowError where a term leaves
    # float64; the package refuses that r with a ValueError.
    try:
        result = fn(r, n_terms)
    except OverflowError:
        return "overflows"
    except ValueError as exc:
        assert "overflows float64" in str(exc)
        return "overflows"
    return result.value.hex(), result.terms_used, result.first_omitted_term.hex()


def _as_read(r):
    """r as ``asymptotic`` reads it: a non-dyadic ``Fraction`` becomes its
    float64, and every other r is that float already."""
    if isinstance(r, Fraction) and r.denominator & (r.denominator - 1):
        return float(r)
    return r


_rng = random.Random(20)
_SEEDED_R = [_rng.uniform(0.1, 100.0) for _ in range(12)]
_ASYMPTOTIC_R = (
    _SEEDED_R
    + [7, 100.0, 94.78, 117.0, 1e200, 1e-200, 1e-150, 51.2345, 77.77, 99.123]
    + [3, Fraction(1, 3), Fraction(7, 12), Fraction(5, 2)]
    # Full 52-bit mantissas where auto truncation keeps about 300 terms.
    + [_rng.uniform(90.0, 100.0) for _ in range(4)]
    + [Fraction(200, 3), Fraction(99123, 1000)]
)


class TestAsymptotic:
    def test_two_terms_at_r10(self):
        result = asymptotic(10.0, 2)
        assert result.value == TWO_TERM_AT_10  # 1/100 - 1/60000, exactly
        assert result.terms_used == 2
        assert result.first_omitted_term == pytest.approx(1 / 30 / 1e6, rel=1e-15)

    def test_auto_truncation_at_r10(self):
        result = asymptotic(10.0)
        assert result.terms_used == 32
        assert result.first_omitted_term < 1e-27
        assert result.value == pytest.approx(S_AT_10, abs=1e-15)

    def test_auto_flags_useless_regime(self):
        # At r = 1/2 the optimal truncation is immediate and the first
        # omitted term dwarfs the value scale: the expansion says "not here".
        result = asymptotic(0.5)
        assert result.terms_used == 3
        assert result.first_omitted_term > 2.0
        # At r = 0.2 it stops after one term, whose successor outweighs it.
        result = asymptotic(0.2)
        assert result.terms_used == 1
        assert result.first_omitted_term >= abs(result.value)

    def test_single_term(self):
        result = asymptotic(10.0, 1)
        assert result.value == 0.01
        assert result.first_omitted_term == pytest.approx(1 / 6 / 1e4, rel=1e-15)

    def test_forced_deep_truncation_stays_finite(self):
        # Divergent tail: huge Bernoulli numerators, but terms are formed by
        # exact rational division, so no intermediate overflow.
        assert math.isfinite(asymptotic(1.0, 40).value)

    @pytest.mark.parametrize("r", _ASYMPTOTIC_R)
    @pytest.mark.parametrize("n_terms", ["auto", 1, 5, 50])
    def test_bit_identical_to_fraction_terms(self, r, n_terms):
        # Extremes: at 1e200 every term underflows to 0.0; at 1e-200 the
        # first term overflows, at 1e-150 the second; at 117 auto truncation
        # keeps 368 terms, reads B_736 and ends on subnormal terms.  At
        # 99.123 the power of two in r's denominator grows to a shift of
        # about 28,000 bits.  The fractions with denominators 3, 12 and 1000
        # are read as their floats, so the reference gets those floats.
        # Both versions agree.
        assert _asymptotic_outcome(asymptotic, r, n_terms) == _asymptotic_outcome(
            _reference_asymptotic, _as_read(r), n_terms
        )

    @pytest.mark.parametrize("r", _ASYMPTOTIC_R)
    @pytest.mark.parametrize("n_terms", ["auto", 1, 5, 50])
    def test_bit_identical_with_56_bit_brackets(self, r, n_terms, monkeypatch):
        # 56 bits are too few to settle most terms from their brackets, so
        # the exact route runs often, and the bracket's own rounding is
        # exercised where 128 bits almost never reach it.
        monkeypatch.setattr(oracles, "_G", 56)
        monkeypatch.setattr(oracles, "_B2M_BRACKETS", [])
        self.test_bit_identical_to_fraction_terms(r, n_terms)

    def test_bernoulli_brackets_follow_g(self, monkeypatch):
        # The cached |B_2m numerator| brackets are built at the _G in force,
        # so the 56-bit test above, with a fresh list, runs on 56-bit
        # Bernoulli brackets.
        asymptotic(117.0)
        default = oracles._B2M_BRACKETS
        monkeypatch.setattr(oracles, "_G", 56)
        monkeypatch.setattr(oracles, "_B2M_BRACKETS", [])
        asymptotic(117.0)
        for g, brackets in ((128, default), (56, oracles._B2M_BRACKETS)):
            assert len(brackets) > 300
            assert g <= max(hi.bit_length() for _, hi, _, _, _ in brackets) <= g + 1

    def test_validation(self):
        for r in (0.0, math.inf, math.nan):
            with pytest.raises(ValueError, match="r must be"):
                asymptotic(r)
        with pytest.raises(ValueError, match="n_terms"):
            asymptotic(1.0, 0)
        with pytest.raises(ValueError, match="n_terms"):
            asymptotic(1.0, "many")
        # A term beyond float64 is outside the route's domain.
        with pytest.raises(ValueError, match="overflows"):
            asymptotic(1e-200)
        with pytest.raises(ValueError, match="overflows"):
            asymptotic(1e-150, 5)
        # r is read as a float64, so an int past float range is refused there.
        with pytest.raises(OverflowError, match="int too large to convert to float"):
            asymptotic(10**400)

    @pytest.mark.parametrize("n_terms", ["auto", 1, 5, 50])
    def test_fraction_r_is_read_as_its_float(self, n_terms):
        fractions = [r for r in [*_ASYMPTOTIC_R, *_JUMP_R] if _as_read(r) is not r]
        assert len(fractions) == 18
        for q in fractions:
            assert _asymptotic_outcome(asymptotic, q, n_terms) == _asymptotic_outcome(
                asymptotic, float(q), n_terms
            ), q


_jump_rng = random.Random(32)
# Seeded r in [1, 160]: half with full 52-bit mantissas, half short (k/8), and
# k/1000, which is read as its float; past r = 112 the window terms are
# subnormal and from about 159 on the 500-term cap binds.
_JUMP_R = (
    [_jump_rng.uniform(1.0, 160.0) for _ in range(30)]
    + [_jump_rng.randint(8, 1280) / 8 for _ in range(15)]
    + [Fraction(_jump_rng.randint(1000, 160_000), 1000) for _ in range(15)]
    + [112, 117.0, 130.0, 159.0, 161.0, 111.9]
)


def _quotient_count(monkeypatch):
    """Counts the calls of ``oracles._scaled_quotient`` from here on."""
    calls = [0]
    quotient = oracles._scaled_quotient

    def counted(*args):
        calls[0] += 1
        return quotient(*args)

    monkeypatch.setattr(oracles, "_scaled_quotient", counted)
    return calls


class TestAsymptoticJump:
    """``asymptotic`` forms only the terms that can change its result (the
    ``cf`` docstring, "The asymptotic jump"), and its outputs stay those of
    the reference that forms every term."""

    @pytest.mark.parametrize("n_terms", ["auto", 1, 5, 50, 300])
    def test_bit_identical_over_seeded_r(self, n_terms):
        for r in _JUMP_R:
            assert _asymptotic_outcome(asymptotic, r, n_terms) == _asymptotic_outcome(
                _reference_asymptotic, _as_read(r), n_terms
            ), r

    def test_forced_repair_stays_bit_identical(self, monkeypatch):
        # At 2^-20 t_0 the skipped terms' bound dwarfs half a gap of the sum,
        # so every certificate fails and the skipped terms are formed after
        # all.
        verdicts = []
        settled = oracles._settled

        def recorded(*args):
            verdicts.append(settled(*args))
            return verdicts[-1]

        monkeypatch.setattr(oracles, "_RELEVANT", 2.0 ** -20)
        monkeypatch.setattr(oracles, "_settled", recorded)
        for r in (10.0, 33.3, 77.77, 100.0, Fraction(99123, 1000)):
            for n_terms in ("auto", 50):
                assert _asymptotic_outcome(asymptotic, r, n_terms) == _asymptotic_outcome(
                    _reference_asymptotic, _as_read(r), n_terms
                ), (r, n_terms)
        assert verdicts and not any(verdicts)

    def test_window_start_below_the_normal_range_repairs(self, monkeypatch):
        # Raising the normal threshold to 1e-200 fails the window's first
        # term from about r = 73 on (every term is still correctly rounded:
        # below the threshold a quotient is one int division).
        calls = _quotient_count(monkeypatch)
        monkeypatch.setattr(oracles, "_MIN_NORMAL", 1e-200)
        for r in (80.0, 97.5, 111.0):
            calls[0] = 0
            outcome = _asymptotic_outcome(asymptotic, r, "auto")
            assert calls[0] > outcome[1]  # every kept term formed
            assert outcome == _asymptotic_outcome(_reference_asymptotic, r, "auto"), r

    @pytest.mark.parametrize("r", [100.0, 97.31274416326945])
    def test_few_terms_are_formed(self, r, monkeypatch):
        # The full loop takes about 630 quotients here; the caches reach no
        # index beyond the one the full loop reads, B_2M at the stop M.
        monkeypatch.setattr(oracles, "_BERNOULLI", [])
        monkeypatch.setattr(oracles, "_ZIGZAG_ROW", [1])
        monkeypatch.setattr(oracles, "_B2M_BRACKETS", [])
        calls = _quotient_count(monkeypatch)
        result = asymptotic(r)
        assert calls[0] <= 48
        assert result.terms_used > 300
        assert len(oracles._BERNOULLI) == 2 * result.terms_used + 1
        assert len(oracles._B2M_BRACKETS) == result.terms_used + 1

    def test_four_pi_squared_rounds_down(self):
        # C <= 4 pi^2 (1 - 2^-48), and C (1 + 2^-53)^4 < 4 pi^2 (1 - 2^-50):
        # claim (a) of the proof, which needs only the square.
        c = Fraction(oracles._FOUR_PI_SQUARED)
        grown = c * (1 + Fraction(1, 2 ** 53)) ** 4
        with mpmath.workdps(60):
            four_pi2 = 4 * mpmath.pi ** 2
            assert mpmath.mpf(c.numerator) / c.denominator <= four_pi2 * (1 - 2 ** -48)
            assert mpmath.mpf(grown.numerator) / grown.denominator < four_pi2 * (1 - 2 ** -50)

    def test_settled_only_where_every_sum_rounds_alike(self):
        # Claim (c): where ``_settled`` accepts, fsum(F) is the rounded
        # value of sum F + K for every K in [-bound (1 + 2^-53), 0] (both
        # ends suffice, rounding being monotone).  Bounds are drawn around
        # the edge d + g/2, where the test decides.
        rng = random.Random(3201)
        accepted = rejected = 0
        for _ in range(3000):
            terms = [rng.uniform(0.5, 2.0) * 2.0 ** rng.randint(-4, 4)]
            terms += [-rng.uniform(0.5, 2.0) * 2.0 ** -rng.randint(5, 60)
                      for _ in range(rng.randint(1, 8))]
            v = math.fsum(terms)
            d = math.fsum(terms + [-v])
            half_gap = (v - math.nextafter(v, -math.inf)) / 2
            bound = max(0.0, (d + half_gap) * (1 + rng.uniform(-2.0 ** -44, 2.0 ** -44)))
            if oracles._settled(terms, bound):
                accepted += 1
                exact = sum(map(Fraction, terms))
                for k in (0, -Fraction(bound) * (1 + Fraction(1, 2 ** 53))):
                    assert float(exact + k) == v, (terms, bound)
            else:
                rejected += 1
        assert accepted > 500 and rejected > 500


class TestTelescoping:
    @pytest.mark.parametrize("r,x", [(1.0, 2.0), (5.0, 3.5), (0.3, 1.7), (1.0, 3.5),
                                     (5.0, 2.0)])
    def test_certified_region(self, r, x):
        assert abs(telescoping_residual(r, x)) <= 1e-10

    def test_uncertified_region_returns_finite(self):
        assert math.isfinite(telescoping_residual(1.0, 0.75))

    def test_validation(self):
        with pytest.raises(ValueError, match="tol"):
            telescoping_residual(1.0, 2.0, 0.0)
        # r^2 underflows; the tail at x = 1 comes from the tail interval.
        assert abs(telescoping_residual(1e-170, 1.0)) <= 1e-10
