"""Engine tests on fractions with closed-form values: the all-ones fraction
(value 1/phi), constant-denominator fractions (quadratic surds), and integer
fractions where the determinant identity can be checked exactly.
"""

import math
from fractions import Fraction

import pytest
from conftest import GOLDEN, backward_cf

from mathieucf import (
    ContinuedFraction,
    MathieuCFParams,
    ab_form,
    convergent,
    equivalence_transform,
    evaluate,
    even_contraction,
    iter_convergents,
    kappa_lambda_form,
)
from mathieucf import tail_interval
from mathieucf.series import DEFAULT_RESCALE_AT


def cf_const(a: float, b: float) -> ContinuedFraction:
    return ContinuedFraction(0.0, lambda n: (a, b))


class TestConvergents:
    def test_golden_low_order(self, golden_cf):
        # A_n/B_n are ratios of consecutive Fibonacci numbers.
        assert convergent(golden_cf, 1).value == 1.0
        assert convergent(golden_cf, 2).value == 0.5
        assert convergent(golden_cf, 8).value == pytest.approx(21 / 34, abs=0)

    def test_golden_limit(self, golden_cf):
        report = evaluate(golden_cf, 1e-14, 200)
        assert report.converged
        assert report.terms_used < 50
        assert report.value == pytest.approx(GOLDEN, abs=1e-13)

    def test_matches_backward_fold(self, golden_cf):
        # The bottom-up fold shares nothing with the forward recurrence.
        mixed = ContinuedFraction(0.25, lambda n: (float(n), 1.0 + 1.0 / n))
        for cf in (golden_cf, mixed):
            fwd = convergent(cf, 20).value
            bwd = backward_cf(cf.b0, cf.terms, 20)
            assert fwd == pytest.approx(bwd, rel=1e-14)

    def test_iter_yields_all_indices(self, golden_cf):
        cs = list(iter_convergents(golden_cf, 6))
        assert [c.n for c in cs] == list(range(7))
        assert cs[0].value == 0.0  # n = 0 is b0/1
        assert cs[-1].value == convergent(golden_cf, 6).value

    def test_iter_rejects_negative(self, golden_cf):
        with pytest.raises(ValueError, match="n_max"):
            list(iter_convergents(golden_cf, -1))

    def test_term_index_validation(self, golden_cf):
        with pytest.raises(ValueError, match="1-indexed"):
            golden_cf.term(0)

    def test_zero_partial_numerator_rejected(self):
        cf = ContinuedFraction(0.0, lambda n: (0.0, 1.0) if n == 3 else (1.0, 1.0))
        assert convergent(cf, 2).value == 0.5
        with pytest.raises(ValueError, match="a_3 = 0"):
            convergent(cf, 3)


class TestDeterminantIdentity:
    def test_exact_over_integers(self):
        # a_n = n, b_n = 1: A, B stay Python ints, so
        # A_n B_{n-1} - A_{n-1} B_n = (-1)^{n-1} n!  holds exactly.
        cf = ContinuedFraction(0, lambda n: (n, 1))
        prev = None
        prod = 1
        for c in iter_convergents(cf, 18):
            if prev is not None:
                prod *= c.n
                det = c.numerator * prev.denominator - prev.numerator * c.denominator
                assert det == (1 if c.n % 2 else -1) * prod
            prev = c
        assert isinstance(prev.numerator, int)

    def test_float_normalized(self):
        # In float64 the determinant is a difference of nearly equal
        # products, so compare on the products' rounding scale.
        cf = ContinuedFraction(0.0, lambda n: (1.0, 2.5))
        prev = None
        for c in iter_convergents(cf, 300, rescale_at=1e10):
            if prev is not None:
                scale = 2.0 ** -math.floor(math.log2(1e10))
                det = c.numerator * prev.denominator - prev.numerator * c.denominator
                expected = (1 if c.n % 2 else -1) * scale ** (c.rescales + prev.rescales)
                norm = abs(c.numerator * prev.denominator) + abs(
                    prev.numerator * c.denominator
                )
                assert abs(det - expected) <= 1e-12 * max(norm, 1e-300)
            prev = c


class TestRescaling:
    def test_value_bit_invariant(self):
        # x = 1/(3 + x)  =>  x = (sqrt(13) - 3)/2; state grows like 3^n.
        cf = cf_const(1.0, 3.0)
        deep = convergent(cf, 1000)
        tight = convergent(cf, 1000, rescale_at=1e20)
        assert deep.value == tight.value
        assert deep.value == pytest.approx((math.sqrt(13) - 3) / 2, abs=1e-15)
        assert tight.rescales > deep.rescales > 0

    def test_threshold_validation(self, golden_cf):
        for bad in (0.0, -1.0, math.inf):
            with pytest.raises(ValueError, match="rescale_at"):
                convergent(golden_cf, 3, rescale_at=bad)

    def test_overflow_reported(self):
        # One rescale divides by ~8e149 per step, so per-term growth beyond
        # that cannot be absorbed and the engine must say so...
        with pytest.raises(OverflowError, match="overflow despite rescaling"):
            convergent(cf_const(1.0, 1e200), 5)
        with pytest.raises(OverflowError, match="overflow despite rescaling"):
            convergent(cf_const(1.0, 1e200), 2, rescale_at=1e308)
        # ...while growth below the rescale factor is absorbed indefinitely.
        assert math.isfinite(convergent(cf_const(1.0, 1e100), 50).value)


class TestIndeterminateApproximants:
    def cf(self):
        # b_1 = 0 makes f_1 = 1/0; the recurrence continues past it and the
        # value is 1/(0 + 1/phi) = phi.
        return ContinuedFraction(0.0, lambda n: (1.0, 0.0) if n == 1 else (1.0, 1.0))

    def test_requested_index_raises(self):
        with pytest.raises(ZeroDivisionError, match="B_1 = 0"):
            convergent(self.cf(), 1)

    def test_recurrence_continues_past_zero(self):
        assert convergent(self.cf(), 2).value == 1.0
        assert math.isnan(list(iter_convergents(self.cf(), 1))[1].value)
        report = evaluate(self.cf(), 1e-12, 200)
        assert report.converged
        assert report.value == pytest.approx(GOLDEN + 1, abs=1e-11)


class TestEvaluate:
    def test_budget_exhaustion(self, golden_cf):
        report = evaluate(golden_cf, 0.0, 2)
        assert not report.converged
        assert report.terms_used == 2
        assert report.last_delta == 0.5  # |f_2 - f_1| = |0.5 - 1|

    def test_validation(self, golden_cf):
        with pytest.raises(ValueError, match="max_terms"):
            evaluate(golden_cf, 1e-6, 1)
        for bad in (-1.0, math.nan):
            with pytest.raises(ValueError, match="tol"):
                evaluate(golden_cf, bad, 10)


class TestEvenContraction:
    def test_golden_even_approximants(self, golden_cf):
        contracted = even_contraction(golden_cf)
        assert contracted.b0 == 0.0
        got = [convergent(contracted, k).value for k in (1, 2, 3)]
        assert got == pytest.approx([1 / 2, 3 / 5, 8 / 13], abs=1e-15)
        for k in range(1, 11):
            assert convergent(contracted, k).value == pytest.approx(
                convergent(golden_cf, 2 * k).value, abs=1e-15
            )

    def test_requires_nonzero_even_denominators(self):
        cf = ContinuedFraction(1.0, lambda n: (1.0, 0.0) if n == 2 else (1.0, 1.0))
        contracted = even_contraction(cf)
        with pytest.raises(ValueError, match="b_2 = 0"):
            convergent(contracted, 1)


class TestEquivalenceTransform:
    def test_power_of_two_multipliers_are_exact(self, golden_cf):
        transformed = equivalence_transform(golden_cf, lambda n: 1.0 if n == 0 else 2.0)
        for n in range(1, 16):
            assert convergent(transformed, n).value == convergent(golden_cf, n).value

    def test_r0_must_be_one(self, golden_cf):
        with pytest.raises(ValueError, match="r_0 must be 1"):
            equivalence_transform(golden_cf, lambda n: 2.0)

    def test_zero_multiplier_rejected_lazily(self, golden_cf):
        transformed = equivalence_transform(
            golden_cf, lambda n: 0.0 if n == 3 else 1.0
        )
        assert convergent(transformed, 2).value == 0.5
        with pytest.raises(ValueError, match="r_3 = 0"):
            convergent(transformed, 3)


class TestExactArithmetic:
    def test_fraction_terms_stay_exact(self):
        cf = ContinuedFraction(Fraction(0), lambda n: (Fraction(1), Fraction(1)))
        c = convergent(cf, 10)
        assert isinstance(c.value, Fraction)
        assert c.value == Fraction(55, 89)  # consecutive Fibonacci numbers

    def test_fraction_terms_stay_exact_past_the_rescale_threshold(self):
        # A_n passes DEFAULT_RESCALE_AT between 120 and 140 terms here.
        cf = ab_form(MathieuCFParams(Fraction(3, 2), Fraction(3)))
        c = convergent(cf, 140)
        assert c.numerator > DEFAULT_RESCALE_AT
        assert type(c.numerator) is type(c.denominator) is type(c.value) is Fraction
        assert c.rescales == 0
        folded = Fraction(0)
        for n in range(140, 0, -1):  # bottom-up, without the recurrence
            a, b = cf.term(n)
            folded = a / (b + folded)
        assert c.value == folded


def _tail_steps(r):
    """s_{n+1}, L_n and tau_n of the tail-interval proof in the ``cf``
    docstring, exact, from the shipped ``kappa_lambda_form`` and ``ab_form``
    at x = 1."""
    params = MathieuCFParams(r, Fraction(1))
    kl, ab = kappa_lambda_form(params), ab_form(params)

    def s(n, t):
        a, b = kl.term(n + 1)
        return a / (b + t)

    def lower(n):
        return -kl.term(n + 1)[1] / 2 + Fraction(5 * n, 8) - Fraction(1, 2)

    def tau(n):
        a_even, _ = ab.term(2 * n)
        a_odd, b_odd = ab.term(2 * n + 1)
        return -a_even * a_odd / (b_odd + a_odd)

    return s, lower, tau


def _differences(r, n):
    """(i) to (iv) of the proof at level n: the four quantities whose signs
    it needs, and the closed forms it gives them."""
    s, lower, tau = _tail_steps(r)
    rho = r * r
    upper = lambda m: lower(m) + 1
    p1 = (84 * n**3 + 64 * n**2 * rho**2 + 64 * n**2 * rho - 25 * n**2 - 21 * n
          - 16 * rho**2 - 20 * rho + 6)
    p2 = (-108 * n**3 + (64 * rho**2 + 64 * rho - 57) * n**2 + 27 * n
          - 16 * rho**2 - 20 * rho + 14)
    q = (8 * n**5 - 8 * n**4 * rho - 15 * n**4 + 28 * n**3 * rho + 6 * n**3
         - 32 * n**2 * rho**2 - 44 * n**2 * rho - 6 * n * rho + 8 * rho**2 + 12 * rho)
    computed = (s(n, lower(n + 1)) - lower(n), upper(n) - s(n, upper(n + 1)),
                lower(n) - tau(n), upper(n))
    closed = (p1 / (8 * (4 * n**2 - 1) * (2 * n**2 + 3 * n + 4 * rho - 1)),
              -p2 / (8 * (4 * n**2 - 1) * (2 * n**2 + 3 * n + 4 * rho + 7)),
              q / (8 * (2 * n - 1) * (n**3 + 4 * n * rho + 2 * rho)),
              -(2 * n**2 - 3 * n + 4 * rho - 2) / 8)
    return computed, closed, (p1, p2, q)


def _n0(rho):
    """N_0(rho) of the proof, exact."""
    return max(4, math.ceil(2 * rho + 2), math.ceil(Fraction(16, 27) * rho * (rho + 1) + 1))


def _w(rho, n):
    """w_n of the tail set V_n, exact."""
    return min(Fraction(9, 16), (8 * rho**2 + 8 * rho + 3) / Fraction(24 * n - 7))


def _narrowed_difference(r, n, w):
    """s_{n+1}(L_{n+1} + c) - (L_n + c) at c = 7/16 + w: computed, in closed
    form, and the closed form's numerator P.  Its signs at w = 0 (i') and
    at w = w_n (ii') show that the wider set [L_n + 7/16, L_n + 7/16 + w_n],
    about 1/(8n) across, also holds the tail."""
    s, lower, _ = _tail_steps(r)
    rho = r * r
    c = Fraction(7, 16) + w
    p = (-768 * n**3 * w + n**2 * (256 * rho**2 + 256 * rho + 96 - 1024 * w**2)
         + 192 * n * w - 64 * rho**2 - 80 * rho + 256 * w**2 - 25)
    computed = s(n, lower(n + 1) + c) - (lower(n) + c)
    closed = p / (16 * (4 * n**2 - 1) * (4 * n**2 + 6 * n + 8 * rho + 16 * w + 5))
    return computed, closed, p


def _offsets(rho, n):
    """c-_n and c+_n of the tail set V_n = [L_n + c-_n, L_n + c+_n], exact."""
    c_plus = Fraction(7, 16) + (8 * rho**2 + 8 * rho + 3) / Fraction(16 * (2 * n - 1))
    return c_plus - (rho + 1)**4 / Fraction(12 * n**3), c_plus


def _p_vi(n, rho):
    """The numerator P of (vi)."""
    return (36 * n**6 - 18 * n**5 + 6 * (4 * rho**2 + 16 * rho - 1) * n**4
            + 18 * (2 * rho**2 + 6 * rho + 1) * n**3
            - 2 * (2 * rho**4 + 8 * rho**3 + 3 * rho**2 - 4 * rho + 5) * n**2
            - 6 * (rho + 1) * (rho + 3) * n + (rho + 1)**2 * (rho**2 + 2 * rho - 5))


def _q_vi(n, rho):
    """The factor Q' of (vi)'s denominator."""
    return (6 * n**6 + 30 * n**5 + (12 * rho + 66) * n**4 + (6 * rho**2 + 48 * rho + 84) * n**3
            + (18 * rho**2 + 72 * rho + 66) * n**2
            - (2 * rho**4 + 8 * rho**3 - 6 * rho**2 - 40 * rho - 28) * n
            - rho**4 - 4 * rho**3 + 8 * rho + 5)


def _third_order_differences(r, n):
    """(v) and (vi) at level n: the differences s_{n+1}(L_{n+1} + c) -
    (L_n + c) at c = c+ and c = c-, computed and in closed form."""
    s, lower, _ = _tail_steps(r)
    rho = r * r
    (lo, hi), (lo_next, hi_next) = _offsets(rho, n), _offsets(rho, n + 1)
    computed = (s(n, lower(n + 1) + hi_next) - (lower(n) + hi),
                s(n, lower(n + 1) + lo_next) - (lower(n) + lo))
    closed = (-(rho + 1)**4 / (2 * (2 * n - 1) * (n**3 + 2 * n**2 + 2 * (rho + 1) * n
                                                   + (rho + 1)**2)),
              (rho + 1)**4 * _p_vi(n, rho) / (12 * n**3 * (2 * n - 1) * _q_vi(n, rho)))
    return computed, closed


class _Poly(dict):
    """A polynomial in (rho, t), {(i, j): coefficient of rho^i t^j}: ring
    enough to expand P and Q' at n = 2 rho + 2 + t."""

    @staticmethod
    def of(v):
        return v if isinstance(v, _Poly) else _Poly({(0, 0): v})

    def __add__(self, other):
        out = _Poly(self)
        for key, c in _Poly.of(other).items():
            out[key] = out.get(key, 0) + c
        return out

    __radd__ = __add__

    def __neg__(self):
        return _Poly({key: -c for key, c in self.items()})

    def __sub__(self, other):
        return self + -_Poly.of(other)

    def __rsub__(self, other):
        return -self + other

    def __mul__(self, other):
        out = _Poly()
        for (i, j), c in self.items():
            for (k, m), d in _Poly.of(other).items():
                out[i + k, j + m] = out.get((i + k, j + m), 0) + c * d
        return out

    __rmul__ = __mul__

    def __pow__(self, e):
        out = _Poly.of(1)
        for _ in range(e):
            out = out * self
        return out


class TestTailIntervalProof:
    """The facts behind the z = 0 tail interval, in exact rationals."""

    def test_closed_forms_are_identities(self):
        # Times its closed form's denominator, each computed difference is a
        # polynomial of degree at most 6 in n and 2 in rho, as is each
        # numerator: agreeing on a 9 x 5 grid of (n, rho), the two are equal
        # as polynomials.
        for n in range(1, 10):
            for r in (Fraction(1, 3), Fraction(1, 2), Fraction(1), Fraction(3, 2), Fraction(5, 2)):
                computed, closed, _ = _differences(r, n)
                assert computed == closed, (n, r)

    @pytest.mark.parametrize("r", [Fraction(1, 1000), Fraction(1, 3), Fraction(1), Fraction(2),
                                   Fraction(3), Fraction(7, 2), Fraction(5), Fraction(10)])
    def test_signs_from_n0_on(self, r):
        rho = r * r
        n0 = _n0(rho)
        # The level tail_enclosure starts from is never below the proven one.
        assert math.ceil(tail_interval.n0_bound(math.nextafter(float(rho), math.inf))) >= n0
        for n in [*range(n0, n0 + 25), 2 * n0, 10 * n0]:
            (d1, d2, d3, u), _, (p1, p2, q) = _differences(r, n)
            assert d1 >= 0 and p1 > 0, (n, "i")
            assert d2 >= 0 and p2 < 0, (n, "ii")
            assert d3 >= 0 and q > 0, (n, "iii")
            assert u <= 0, (n, "iv")

    def test_narrowed_closed_form_is_an_identity(self):
        # Times its closed form's denominator, the difference is a polynomial
        # of degree at most 6 in n and 2 in each of rho and w: agreeing on
        # an 8 x 4 x 4 grid of (n, rho, w), the two are equal as polynomials.
        for n in range(1, 9):
            for r in (Fraction(1, 3), Fraction(1, 2), Fraction(1), Fraction(3, 2)):
                for w in (Fraction(0), Fraction(1, 8), Fraction(1, 3), Fraction(9, 16)):
                    computed, closed, _ = _narrowed_difference(r, n, w)
                    assert computed == closed, (n, r, w)

    @pytest.mark.parametrize("r", [Fraction(1, 10**80), Fraction(1, 20), Fraction(1, 3),
                                   Fraction(1), Fraction(5, 2), Fraction(7, 2), Fraction(5),
                                   Fraction(10)])
    def test_narrowed_signs_from_n0_on(self, r):
        rho = r * r
        n0 = _n0(rho)
        s, lower, _ = _tail_steps(r)
        top = lambda m, wm: lower(m) + Fraction(7, 16) + wm
        for n in [*range(n0, n0 + 25), 2 * n0, 10 * n0, 100 * n0]:
            w, w_next = _w(rho, n), _w(rho, n + 1)
            assert 0 < w_next <= w <= Fraction(9, 16), n
            # (i'): the lower end L_n + 7/16 maps inward.
            computed, _, p = _narrowed_difference(r, n, Fraction(0))
            assert computed > 0 and p > 0, (n, "i'")
            # (ii') below 9/16, and (ii) at it, where P = 4 P_2.
            computed, _, p = _narrowed_difference(r, n, w)
            assert computed < 0 and p < 0, (n, "ii'")
            if w < Fraction(9, 16):
                assert p <= -32 * n * w * (7 * n - 6) - (1024 * n**2 - 256) * w**2, n
            else:
                assert p == 4 * _differences(r, n)[2][1], n
            # The upper end of V_{n+1} maps to at most that of V_n.
            assert s(n, top(n + 1, w_next)) <= top(n, w), n

    def test_third_order_closed_forms_are_identities(self):
        # Times the product of the denominators of its terms and its closed
        # form, each difference minus its closed form is a polynomial of
        # degree at most 24 in n and 12 in rho (12 and 6 for (v)): vanishing
        # on a 25 x 13 grid of (n, rho), it vanishes identically.
        for n in range(1, 26):
            for r in [Fraction(k, 5) for k in range(1, 14)]:
                computed, closed = _third_order_differences(r, n)
                assert computed == closed, (n, r)

    @pytest.mark.parametrize("r", [Fraction(1, 10**80), Fraction(1, 20), Fraction(1, 3),
                                   Fraction(1), Fraction(5, 2), Fraction(7, 2), Fraction(5),
                                   Fraction(10), Fraction(100)])
    def test_third_order_signs_from_n0_on(self, r):
        rho = r * r
        n0 = _n0(rho)
        s, lower, _ = _tail_steps(r)
        for n in [*range(n0, n0 + 25), 2 * n0, 10 * n0, 100 * n0]:
            (v, vi), _ = _third_order_differences(r, n)
            assert v < 0 and vi > 0, n
            assert _p_vi(n, rho) > 0 and _q_vi(n, rho) > 0, n
            # 7/16 <= c- < c+ <= 1: V_n lies in [L_n, U_n].
            lo, hi = _offsets(rho, n)
            assert Fraction(7, 16) <= lo < hi <= 1, n
            # Both ends map inward, so V_{n+1} maps into V_n.
            lo_next, hi_next = _offsets(rho, n + 1)
            assert lower(n) + lo < s(n, lower(n + 1) + lo_next), n
            assert s(n, lower(n + 1) + hi_next) < lower(n) + hi, n

    def test_third_order_numerator_is_positive_from_2_rho_plus_2(self):
        # At n = 2 rho + 2 + t, P and Q' have no negative coefficient in
        # (rho, t), and a positive constant term: (vi) > 0 for every
        # n >= 2 rho + 2, a bound that N_0 includes.
        rho, t = _Poly({(1, 0): 1}), _Poly({(0, 1): 1})
        n = 2 * rho + 2 + t
        for poly, constant in ((_p_vi(n, rho), 1695), (_q_vi(n, rho), 3397)):
            assert min(poly.values()) >= 0
            assert poly[0, 0] == constant
            assert len(poly) == 28

    def test_ratio_lemma_is_an_identity(self):
        # The rounding argument's step (``cf`` docstring): with a_j = m_j +
        # rho, (4j^2 - 1) a_j a_{j-1} - (j^2 + 4 rho) j^4 is the polynomial
        # below, of degree 6 in j and 2 in rho: agreeing on a 7 x 3 grid of
        # (j, rho), the two are equal.  Each of its terms is non-negative
        # for j >= 1, and it is at least (j^2 + 4 rho) j^2/2.
        for j in range(1, 8):
            for rho in (Fraction(0), Fraction(1, 3), Fraction(5, 2)):
                a_j, a_before = (Fraction(i * i + i + 1, 2) + rho for i in (j, j - 1))
                excess = (4 * j * j - 1) * a_j * a_before - (j * j + 4 * rho) * j ** 4
                assert excess == (Fraction(3 * j ** 4 + 3 * j * j - 1, 4)
                                  + rho * (3 * j * j - 1) + rho * rho * (4 * j * j - 1))
                assert excess >= (j * j + 4 * rho) * j * j / 2

    @pytest.mark.parametrize("rho", [0.0, 5e-324, 1e-310, 2.2250738585072014e-308, 1e-200,
                                     0.0025, 0.3, 1.0, 6.25, 12.25, 100.0, 1e4])
    def test_float_width_bound_rounds_up(self, rho):
        # The float offsets of V_n's ends round outward for every rho in
        # the bracket, so V_n's float width bounds the exact one from above.
        # Subnormal rho, where 8 rho (rho + 1) rounds to a multiple of
        # 2^-1074, and levels around 2^17, where 12 n^3 stops being exact.
        rho_hi = math.nextafter(rho, math.inf)
        for n in (1, 4, 32, 1000, 2**17 - 1, 2**17 + 1, 100_000, tail_interval.MAX_LEVEL):
            for lo_end, hi_end in ((rho, rho), (rho, rho_hi)):
                e_lo, e_hi = tail_interval.offsets(lo_end, hi_end, n)
                for exact in (Fraction(lo_end), Fraction(hi_end)):
                    c_minus, c_plus = _offsets(exact, n)
                    assert Fraction(e_lo) <= c_minus - Fraction(7, 16), n
                    assert Fraction(e_hi) >= c_plus - Fraction(7, 16), n
                    assert Fraction(e_hi) - Fraction(e_lo) >= c_plus - c_minus, n
