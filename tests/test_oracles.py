"""Oracle tests: trigamma against its classical special values and defining
recurrence, the oscillatory integral against the trigamma route, and the
zeta(3) fraction against direct summation.

These routes exist to check the fraction machinery, so here they are pinned
to references outside the package: pi^2/6, pi^2/2, and brute-force partial
sums with integral-tail brackets.
"""

import math

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
    apery_cf,
    mathieu_integral,
    mathieu_trigamma,
    tail_via_trigamma,
    trigamma,
    zeta3_reference,
)


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
        assert apery_cf(0) == 1.0
        assert apery_cf(1) == 1.25
        assert apery_cf(2) == 1.2

    def test_sixty_term_error(self):
        assert abs(apery_cf(60) - ZETA3) < 1e-10

    def test_approximants_alternate(self):
        sides = [apery_cf(n) > ZETA3 for n in range(1, 21)]
        assert sides[0] is True  # 5/4 from above
        assert all(a != b for a, b in zip(sides, sides[1:]))

    def test_validation(self):
        with pytest.raises(ValueError, match="n_terms"):
            apery_cf(-1)


class TestZeta3Reference:
    def test_value(self):
        assert zeta3_reference() == pytest.approx(ZETA3, abs=5e-15)

    def test_truncation_error_scales(self):
        # midpoint error is below 1/(2M^3)
        assert zeta3_reference(100) == pytest.approx(ZETA3, abs=5e-7)

    def test_validation(self):
        with pytest.raises(ValueError, match="m_terms"):
            zeta3_reference(0)
