"""Oracle tests: trigamma against its classical special values and defining
recurrence, the oscillatory integral against the trigamma route, and the
constant zeta(3) against mpmath and Apery's fraction (the paper's fraction
at r = 0).

These routes exist to check the fraction machinery, so here they are pinned
to references outside the package: pi^2/6, pi^2/2, mpmath, and brute-force
partial sums with integral-tail brackets.
"""

import math
import random
import sys
from fractions import Fraction

import mpmath
import pytest
from conftest import (
    PI2_OVER_2,
    PI2_OVER_6,
    S_AT_1,
    S_AT_10,
    ZETA3,
    brute_tail_bracket,
    fresh_python,
    mpmath_s,
)

from mathieucf import (
    MathieuCFParams,
    apery_form,
    cd_form,
    convergent,
    mathieu_integral,
    mathieu_trigamma,
    tail_enclosure,
    tail_via_trigamma,
    trigamma,
)
from mathieucf import oracles
from mathieucf.series import ZETA3 as PACKAGE_ZETA3


def apery(n):
    """The n-th approximant of Apery's fraction."""
    return convergent(apery_form(), n).value


class TestTrigamma:
    def test_classical_values(self):
        assert trigamma(1.0).real == pytest.approx(PI2_OVER_6, abs=1e-14)
        assert trigamma(1.0).imag == 0.0
        assert trigamma(0.5).real == pytest.approx(PI2_OVER_2, abs=1e-13)
        # psi1(3) = pi^2/6 - 1 - 1/4
        assert trigamma(3.0).real == pytest.approx(PI2_OVER_6 - 1.25, abs=1e-14)

    @pytest.mark.parametrize("s", [2.3, complex(0.7, -2.0), complex(-1.5, 0.0)])
    def test_defining_recurrence(self, s):
        lhs = trigamma(s) - trigamma(s + 1)
        assert lhs == pytest.approx(1 / (complex(s) * complex(s)), rel=1e-12)

    def test_conjugate_symmetry(self):
        s = complex(0.7, -2.0)
        assert trigamma(s.conjugate()) == trigamma(s).conjugate()

    @pytest.mark.parametrize("s", [0.0, -1.0, -7.0])
    def test_poles(self, s):
        with pytest.raises(ValueError, match="pole"):
            trigamma(s)

    def test_bernoulli_constants_are_the_exact_numbers_rounded(self):
        assert oracles._TRIGAMMA_B2K == tuple(map(float, oracles.bernoulli_numbers(20)[2::2]))


class TestTrigammaTail:
    def test_matches_brute_force(self):
        lo, hi = brute_tail_bracket(2.0, 3.5, 30_000)
        assert lo <= tail_via_trigamma(2.0, 3.5) <= hi

    @pytest.mark.parametrize("r,x", [(1.3, 1.7), (0.8, 4.25)])
    def test_inside_the_fraction_enclosure(self, r, x):
        # Non-integer offsets: the tail fraction's certified bracket holds it.
        enc = tail_enclosure(r, x, 1e-12, max_terms=20_000).enclosure
        assert enc.lower <= tail_via_trigamma(r, x) <= enc.upper

    def test_full_series(self):
        assert mathieu_trigamma(1.0) == pytest.approx(S_AT_1, abs=2e-13)
        assert mathieu_trigamma(10.0) == pytest.approx(S_AT_10, abs=1e-14)

    def test_validation(self):
        with pytest.raises(ValueError, match="r must be"):
            tail_via_trigamma(0.0, 1.0)
        with pytest.raises(ValueError, match="x must be"):
            tail_via_trigamma(1.0, 0.0)
        # A subnormal r loses its bits in Im psi1(1 - ir)/r: it used to give
        # 2.0 at 5e-324 and 2.40415 at 1e-320.
        for r in (5e-324, 1e-320):
            with pytest.raises(ValueError, match="normal float"):
                mathieu_trigamma(r)
        # Im psi1(1 - i inf)/inf used to come back as nan.
        with pytest.raises(ValueError, match="normal float > 0; got inf"):
            mathieu_trigamma(math.inf)
        with pytest.raises(ValueError, match="normal float > 0; got inf"):
            tail_via_trigamma(math.inf, 2.0)
        assert mathieu_trigamma(2.2250738585072014e-308) == pytest.approx(2 * ZETA3, abs=1e-14)

    @pytest.mark.parametrize("r", [9.99e306, 1e307, sys.float_info.max])
    def test_huge_r_rounds_to_zero(self, r):
        # T(r, x) < 1/r^2 + 0.65/r^3 < 2^-1075, so its correctly rounded
        # value is 0.0; the recurrence's s*s overflows here, and gave nan.
        for value in (mathieu_trigamma(r), tail_via_trigamma(r, 2.5)):
            assert value == 0.0 and math.copysign(1.0, value) == 1.0

    def test_zero_from_two_to_the_538(self):
        # Where the guard starts, S(r) already rounds to 0.0, as the
        # recurrence gives it just below.
        edge = 2.0**538
        assert mpmath_s(edge) < mpmath.mpf(2) ** -1075
        assert mathieu_trigamma(math.nextafter(edge, 0)) == 0.0 == mathieu_trigamma(edge)


class TestIntegral:
    @pytest.mark.parametrize("r", [0.5, 1.0, 5.0])
    def test_agrees_with_trigamma(self, r):
        assert mathieu_integral(r, 1e-10) == pytest.approx(
            mathieu_trigamma(r), abs=1e-10
        )

    def test_frozen_value(self):
        assert mathieu_integral(1.0) == pytest.approx(S_AT_1, abs=1e-10)

    def test_integral_route_loads_no_scipy_or_numpy(self):
        # The rule is pure stdlib: a compare and an integral-only eval, each
        # in a fresh process, answer with no scipy or numpy module loaded.
        for argv in (["compare", "--r", "1"], ["eval", "--r", "1", "--methods", "integral"]):
            out = fresh_python(
                "-c",
                "import sys\n"
                "from mathieucf import cli\n"
                f"code = cli.main({argv + ['--format', 'json']!r})\n"
                "heavy = [m for m in sys.modules if m.split('.')[0] in ('scipy', 'numpy')]\n"
                "print(code, heavy)\n"
            )
            assert out.splitlines()[-1] == "0 []", argv

    # 10^U(-300, 300) from a fixed seed, and fixed r: the least normal
    # float, tiny r (the exp-sinh rule), both sides of the switch, and r
    # whose r^2 is subnormal or overflows.
    DOMAIN = [10 ** random.Random(33).uniform(-300, 300) for _ in range(120)] + [
        2.2250738585072014e-308, 1e-300, 1e-6, 1e-3, 0.05, 0.1, 1.0, 100.0, 1e8,
        1e100, 1e154]

    @pytest.mark.parametrize("tol", [1e-10, 1e-8, 1e-4])
    def test_answers_within_tol_over_the_domain(self, tol):
        # Every r answers: no refusal at all, where the earlier scipy route
        # refused r >= 1e100 with an estimated error of nan.
        for r in self.DOMAIN:
            assert sys.float_info.min <= r
            value = mathieu_integral(r, tol)
            assert abs(mpmath.mpf(value) - mpmath_s(r)) <= tol, r

    def test_relative_accuracy_on_the_crosscheck_range(self):
        rng = random.Random(34)
        for r in [10 ** rng.uniform(-1, 2) for _ in range(200)]:
            exact = mpmath_s(r)
            assert abs(mpmath.mpf(mathieu_integral(r)) - exact) <= 1e-13 * exact, r

    def test_the_two_rules_agree_across_the_switch(self):
        fourier, exp_sinh = oracles._FOURIER, oracles._EXP_SINH
        # The Fourier rule needs r above 0.2214 (see the next test).
        for i in range(61):
            r = oracles._SWITCH * (0.9 + i / 100)
            a = oracles._fourier_sum(r, fourier[0])
            b = oracles._exp_sinh_sum(r, exp_sinh[0])
            assert abs(a - b) <= 1e-14 * a, r

    def test_fourier_nodes_stay_where_g_needs_no_special_case(self):
        # x/expm1(x) overflows past log(max float) and is 0/0 at x = 0: the
        # rule's x = c_n/r never reaches either for r in [switch, max float].
        fourier = oracles._FOURIER
        nodes = [c for table_nodes, _ in fourier for c in table_nodes]
        assert max(nodes) / oracles._SWITCH < math.log(sys.float_info.max)
        assert min(nodes) / sys.float_info.max > 0.0
        assert mathieu_integral(sys.float_info.max) == 0.0

    def test_refusal_names_the_estimate(self, monkeypatch):
        # A coarse table that disagrees with the fine one must refuse, with
        # the estimate (a finite number) in the message.
        fourier = oracles._FOURIER
        (nodes, weights), _ = fourier
        bad = (nodes, [2 * w for w in weights])
        monkeypatch.setattr(oracles, "_FOURIER", [fourier[0], bad])
        with pytest.raises(ValueError, match="below quadrature capability") as info:
            mathieu_integral(1.0)
        assert "nan" not in str(info.value)
        assert float(str(info.value).rsplit(" ", 1)[1]) > 0.5e-10

    def test_validation(self):
        with pytest.raises(ValueError, match="r must be"):
            mathieu_integral(0.0)
        with pytest.raises(ValueError, match="tol"):
            mathieu_integral(1.0, 1e-11)
        for r in (5e-324, 1e-320, math.inf):
            with pytest.raises(ValueError, match="normal float"):
                mathieu_integral(r)

    @pytest.mark.parametrize("r", [1e-300, 2.2250738585072014e-308])
    def test_tiny_r_reaches_the_limit(self, r):
        # The truncation point passes 709.78 here, where e^u - 1 overflows.
        assert mathieu_integral(r) == pytest.approx(2 * ZETA3, abs=1e-14)


class TestZeta3Fraction:
    def test_first_approximants_exact(self):
        assert apery(0) == 1.0
        assert apery(1) == 1.25
        assert apery(2) == 1.2

    def test_sixty_term_error(self):
        assert abs(apery(60) - ZETA3) < 1e-10

    def test_approximants_alternate(self):
        sides = [apery(n) > ZETA3 for n in range(1, 21)]
        assert sides[0] is True  # 5/4 from above
        assert all(a != b for a, b in zip(sides, sides[1:]))

    def test_validation(self):
        with pytest.raises(ValueError, match="n_max"):
            apery(-1)

    def test_is_the_paper_fraction_at_r0(self):
        # 1 + T(0, 2)/2, term for term: b0 = 1 and c_1 halved.
        tail = cd_form(MathieuCFParams(0.0, 2.0))
        form = apery_form()
        assert form.b0 == 1.0
        assert form.term(1) == (1.0, 4.0)
        assert all(form.term(n) == tail.term(n) for n in range(2, 61))


class TestZeta3Reference:
    def test_value(self):
        assert PACKAGE_ZETA3 == pytest.approx(ZETA3, abs=5e-15)

    def test_correctly_rounded(self):
        with mpmath.workdps(40):
            assert PACKAGE_ZETA3 == float(mpmath.zeta(3))

    def test_between_exact_approximants(self):
        # Apery's coefficient rule run exactly: 1 + T_n(0, 2)/2 with
        # T_n the n-th cd_form approximant over Fractions.
        tail = cd_form(MathieuCFParams(Fraction(0), Fraction(2)))
        odd, even = (1 + convergent(tail, n).value / 2 for n in (59, 60))
        assert isinstance(odd, Fraction) and isinstance(even, Fraction)
        assert even < Fraction(PACKAGE_ZETA3) < odd
