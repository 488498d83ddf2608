"""Bound-family tests: the classical two-sided bounds, the piecewise
monotonicity upper bound, fraction-derived bounds and their closed forms,
and the crossover radii (frozen from bisection on the explicit rational
gap functions, cross-checked against the exact algebraic roots).
"""

import math
import random

import pytest
from conftest import (
    ALZER_UPPER_CROSSOVER,
    INV_TWO_ZETA3,
    LOWER_INTERVAL,
    S_AT_1,
    UPPER_CROSSOVER,
    ZETA3,
    mpmath_s,
)

from mathieucf import (
    BoundResult,
    alzer_bounds,
    cf_bounds,
    closed_form_bounds,
    crossover_analysis,
    makai_bounds,
    mathieu_partial_sum,
    mp_upper,
)
from mathieucf.bounds import _bisect
from mathieucf.series import ZETA3 as PACKAGE_ZETA3


class TestClassicalBounds:
    def test_makai_at_r1(self):
        b = makai_bounds(1.0)
        assert b.lower == pytest.approx(2 / 3, rel=1e-15)
        assert b.upper == pytest.approx(6 / 7, rel=1e-15)
        assert b.lower < S_AT_1 < b.upper

    def test_alzer_sharpens_the_lower_constant(self):
        b = alzer_bounds(1.0)
        assert b.lower == pytest.approx(1 / (1 + INV_TWO_ZETA3), rel=1e-14)
        assert b.upper == makai_bounds(1.0).upper
        assert makai_bounds(1.0).lower < b.lower < S_AT_1
        for r in (0.2, 5.0):
            assert makai_bounds(r).lower < alzer_bounds(r).lower < mpmath_s(r), r

    def test_lower_constant_value(self):
        assert 1 / (2 * PACKAGE_ZETA3) == pytest.approx(INV_TWO_ZETA3, abs=1e-15)
        assert PACKAGE_ZETA3 == pytest.approx(ZETA3, abs=1e-14)

    def test_mp_upper_branches(self):
        assert mp_upper(0.5).upper == 2.0  # 1/(1/4 + 1/4)
        assert mp_upper(2.0).upper == pytest.approx(1 / (math.sqrt(17) - 1), rel=1e-15)
        assert mp_upper(1.0).lower is None
        break_r = math.sqrt(3) / 2
        gap = mp_upper(break_r - 1e-9).upper - mp_upper(break_r + 1e-9).upper
        assert abs(gap) < 1e-8  # branches join continuously

    @pytest.mark.parametrize("r", [0.3, 1.0, 4.0])
    def test_mp_upper_sits_above_the_series(self, r):
        from mathieucf import theorem1_to_width

        s = theorem1_to_width(r, 3, 1e-10)[0].midpoint
        assert s < mp_upper(r).upper

    def test_classical_ends_hold_the_series_in_floating_point(self):
        # The shared upper end 1/(r^2 + 1/6) is sharp as r -> infinity:
        # rounded to nearest it falls below S(r) in 67 of these 400 draws, from
        # r of about 5.5e3, and the lower ends above it in 7, from about 6.6e7.
        rng = random.Random(1)
        misses = []
        for r in (10 ** rng.uniform(-3, 8) for _ in range(400)):
            s = mpmath_s(r, 50)
            for b in (makai_bounds(r), alzer_bounds(r)):
                if not b.lower <= s <= b.upper:
                    misses.append((b.method, r))
        assert misses == []

    def test_positive_r_required(self):
        for fn in (makai_bounds, alzer_bounds, mp_upper):
            with pytest.raises(ValueError, match="r must be"):
                fn(0.0)


class TestFractionBounds:
    def test_first_pair_at_r1_k2(self):
        b = cf_bounds(1.0, 2, 1)
        assert b.lower == pytest.approx(11 / 14, abs=1e-15)
        assert b.upper == pytest.approx(5 / 6, abs=1e-15)

    def test_finite_r_required(self):
        with pytest.raises(ValueError, match="^r must be finite; got inf$"):
            cf_bounds(math.inf, 2, 1)

    def test_more_pairs_nest(self):
        outer, inner = cf_bounds(1.0, 2, 1), cf_bounds(1.0, 2, 2)
        assert outer.lower < inner.lower < S_AT_1 < inner.upper < outer.upper
        for r in (0.2, 5.0):
            outer, inner = cf_bounds(r, 2, 1), cf_bounds(r, 2, 2)
            s = mpmath_s(r)
            assert outer.lower < inner.lower < s < inner.upper < outer.upper, r

    def test_split_at_one(self):
        b = cf_bounds(1.0, 1, 1)
        assert (b.lower, b.upper) == pytest.approx((2 / 3, 1.0), abs=1e-15)

    def test_closed_forms_match_frozen_values(self):
        b2 = closed_form_bounds(1.0, 2)
        assert b2.lower == pytest.approx(0.7857142857142857, abs=1e-15)
        assert b2.upper == pytest.approx(0.8333333333333333, abs=1e-15)
        b3 = closed_form_bounds(1.0, 3)
        assert b3.lower == pytest.approx(0.7933333333333333, abs=1e-15)
        assert b3.upper == pytest.approx(0.8028571428571429, abs=1e-15)

    @pytest.mark.parametrize("k", [2, 3])
    def test_closed_forms_match_fraction_bounds(self, k):
        # The closed forms are cf_bounds(r, k, 1) written out in r^2; they
        # agree to within 1e-14 of the bound scale on both sides.
        rng = random.Random(20261018 + k)
        radii = [10 ** rng.uniform(-3, 9) for _ in range(200)] + [0.3, 1.0, 5.0]
        for r in radii:
            closed, walked = closed_form_bounds(r, k), cf_bounds(r, k, 1)
            scale = abs(closed.lower) + abs(closed.upper)
            assert abs(closed.lower - walked.lower) <= 1e-14 * scale, (r, closed, walked)
            assert abs(closed.upper - walked.upper) <= 1e-14 * scale, (r, closed, walked)

    @pytest.mark.parametrize("k", [2, 3])
    def test_closed_forms_are_the_head_plus_the_first_pair(self, k):
        # The first approximant of the tail at x = k is 1/(r^2 + k^2 - k),
        # the second adds 1/2 to its denominator.  Each end lies a few ulp
        # outside that sum rounded to nearest: it is rounded outward.
        z = {2: 2.0, 3: 6.0}[k]
        rng = random.Random(34 + k)
        for r in [10 ** rng.uniform(-2, 3) for _ in range(200)] + [0.01937640156264564]:
            head, rr = mathieu_partial_sum(r, k), r * r
            lower, upper = head + 1 / (rr + (z + 0.5)), head + 1 / (rr + z)
            b = closed_form_bounds(r, k)
            assert 0 < lower - b.lower <= 12 * math.ulp(lower), r
            assert 0 < b.upper - upper <= 12 * math.ulp(upper), r

    def test_closed_forms_hold_the_series_in_floating_point(self):
        # Rounded to nearest, closed_form(2) missed S(r) at 2 lower and 4
        # upper ends of these 400 draws, and closed_form(3) at 2 and 3, from
        # r of about 3.96e7.
        rng = random.Random(1)
        misses = []
        for r in (10 ** rng.uniform(-3, 8) for _ in range(400)):
            s = mpmath_s(r, 50)
            for b in (closed_form_bounds(r, 2), closed_form_bounds(r, 3)):
                if not b.lower <= s <= b.upper:
                    misses.append((b.method, r))
        assert misses == []

    @pytest.mark.parametrize("k", [2, 3])
    @pytest.mark.parametrize("r", [1.2e77, 1e100, 1e154])
    def test_closed_form_overflow_names_the_quantity(self, r, k):
        # (1 + r^2)^2 overflows while r^2 is finite.
        with pytest.raises(OverflowError) as info:
            closed_form_bounds(r, k)
        assert str(info.value) == f"(m^2 + r^2)^2 overflows float64 at r={r!r}"

    @pytest.mark.parametrize("r", [0.3, 1.0, 7.0])
    def test_deeper_split_nests(self, r):
        b2, b3 = closed_form_bounds(r, 2), closed_form_bounds(r, 3)
        assert b2.lower < b3.lower < b3.upper < b2.upper

    def test_validation(self):
        with pytest.raises(ValueError, match="k in"):
            closed_form_bounds(1.0, 4)
        with pytest.raises(ValueError, match="^r must be > 0; got 0.0$"):
            closed_form_bounds(0.0, 4)
        with pytest.raises(ValueError, match="k must be"):
            cf_bounds(1.0, 0, 1)
        with pytest.raises(ValueError, match="l must be"):
            cf_bounds(1.0, 2, 0)


class TestCrossovers:
    def test_frozen_radii(self):
        report = crossover_analysis(1e-9)
        assert report.upper_crossover == pytest.approx(UPPER_CROSSOVER, abs=2e-9)
        assert report.lower_interval[0] == pytest.approx(LOWER_INTERVAL[0], abs=2e-9)
        assert report.lower_interval[1] == pytest.approx(LOWER_INTERVAL[1], abs=2e-9)
        assert report.alzer_upper_crossover == pytest.approx(
            ALZER_UPPER_CROSSOVER, abs=2e-9
        )

    def test_frozen_radii_match_algebraic_roots(self):
        # With t = r^2 the upper gap vanishes at t^2 + 4t - 3 = 0, and the
        # shared-classical-upper gap at t^2 + 4t - 7 = 0 (a few ulp of slack
        # for the two-step float sqrt).
        assert UPPER_CROSSOVER == pytest.approx(math.sqrt(math.sqrt(7) - 2), abs=5e-16)
        assert ALZER_UPPER_CROSSOVER == pytest.approx(
            math.sqrt(math.sqrt(11) - 2), abs=5e-16
        )

    def test_sides_of_the_upper_crossover(self):
        # Closed-form upper is tighter below the radius, monotonicity above.
        assert closed_form_bounds(0.5, 2).upper < mp_upper(0.5).upper
        assert mp_upper(1.0).upper < closed_form_bounds(1.0, 2).upper

    def test_sides_of_the_lower_interval(self):
        assert closed_form_bounds(1.0, 2).lower > alzer_bounds(1.0).lower
        assert closed_form_bounds(0.02, 2).lower < alzer_bounds(0.02).lower
        assert closed_form_bounds(10.0, 2).lower < alzer_bounds(10.0).lower

    def test_validation(self):
        for bad in (0.0, 0.5):
            with pytest.raises(ValueError, match="tol"):
                crossover_analysis(bad)

    def test_bisect_edges(self):
        # An exact zero at either end or at a midpoint is returned as it is.
        assert _bisect(lambda r: r - 1.0, 1.0, 2.0, 1e-9) == 1.0
        assert _bisect(lambda r: r - 2.0, 1.0, 2.0, 1e-9) == 2.0
        assert _bisect(lambda r: r - 1.5, 1.0, 2.0, 1e-9) == 1.5
        message = r"^no sign change on \[1.0, 2.0\]: f\(lo\)=2.0, f\(hi\)=3.0$"
        with pytest.raises(RuntimeError, match=message):
            _bisect(lambda r: r + 1.0, 1.0, 2.0, 1e-9)


class TestBoundResult:
    def test_ordering_enforced(self):
        with pytest.raises(ValueError, match="exceeds"):
            BoundResult("x", 2.0, 1.0)

    def test_width(self):
        assert BoundResult("x", 1.0, 3.0).width == 2.0
        assert BoundResult("x", None, 3.0).width == math.inf
