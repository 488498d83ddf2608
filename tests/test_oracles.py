"""Oracle tests: trigamma against its classical special values and defining
recurrence, the oscillatory integral against the trigamma route, and the
constant zeta(3) against mpmath and Apery's fraction (the paper's fraction
at r = 0).

These routes exist to check the fraction machinery, so here they are pinned
to references outside the package: pi^2/6, pi^2/2, mpmath, and brute-force
partial sums with integral-tail brackets.
"""

import math
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
)

from mathieucf import (
    MathieuCFParams,
    apery_form,
    cd_form,
    convergent,
    mathieu_integral,
    mathieu_trigamma,
    tail_via_trigamma,
    trigamma,
)
from mathieucf.oracles import ZETA3 as PACKAGE_ZETA3


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


class TestTrigammaTail:
    def test_matches_brute_force(self):
        lo, hi = brute_tail_bracket(2.0, 3.5, 30_000)
        assert lo <= tail_via_trigamma(2.0, 3.5) <= hi

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


class TestIntegral:
    @pytest.mark.parametrize("r", [0.5, 1.0, 5.0])
    def test_agrees_with_trigamma(self, r):
        assert mathieu_integral(r, 1e-10) == pytest.approx(
            mathieu_trigamma(r), abs=1e-10
        )

    def test_frozen_value(self):
        assert mathieu_integral(1.0) == pytest.approx(S_AT_1, abs=1e-10)

    def test_first_call_imports_the_quadrature(self):
        # scipy is imported inside mathieu_integral, not with the package.
        out = fresh_python(
            "-c",
            "import sys\n"
            "from mathieucf import mathieu_integral, mathieu_trigamma\n"
            "print('scipy.integrate' in sys.modules)\n"
            "print(abs(mathieu_integral(1.0) - mathieu_trigamma(1.0)))\n"
            "print('scipy.integrate' in sys.modules)\n"
        )
        before, diff, after = out.split()
        assert (before, after) == ("False", "True")
        assert float(diff) <= 1e-10

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
