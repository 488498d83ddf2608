"""Engine tests on fractions with closed-form values: the all-ones fraction
(value 1/phi), constant-denominator fractions (quadratic surds), and integer
fractions where the determinant identity can be checked exactly.
"""

import math
from fractions import Fraction

import mpmath
import pytest
from conftest import GOLDEN, backward_cf, figure, formula, mpmath_s, tail_set

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
        # products, so compare on the products' rounding scale.  The tail
        # fraction's partial numerators vary: there it is their running
        # product, times the scales both states carry.
        scale = 2.0 ** -math.floor(math.log2(1e10))
        for cf, n_max in ((ContinuedFraction(0.0, lambda n: (1.0, 2.5)), 300),
                          (ab_form(MathieuCFParams(1.0, 2.0)), 60)):
            prev = None
            prod = 1.0
            for c in iter_convergents(cf, n_max, rescale_at=1e10):
                if prev is not None:
                    prod *= cf.term(c.n)[0]
                    det = c.numerator * prev.denominator - prev.numerator * c.denominator
                    expected = ((1 if c.n % 2 else -1) * prod
                                * scale ** (c.rescales + prev.rescales))
                    norm = abs(c.numerator * prev.denominator) + abs(
                        prev.numerator * c.denominator
                    )
                    assert abs(det - expected) <= 1e-12 * max(norm, 1e-300), c.n
                prev = c
            assert prev.rescales > 0


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
    """(iii) and (iv) of the proof at level n: the two quantities whose
    signs it needs, and the closed forms the ``cf`` docstring gives them."""
    _, lower, tau = _tail_steps(r)
    at = {"N": n, "rho": r * r}
    computed = (lower(n) - tau(n), lower(n) + 1)
    return computed, (formula("(iii)", **at), formula("(iv)", **at)), formula("Q", **at)


def _n0(rho):
    """N_0(rho) of the proof, exact."""
    return max(4, math.ceil(2 * rho + 2), math.ceil(Fraction(16, 27) * rho * (rho + 1) + 1))


def _fifth_order_differences(r, n):
    """(v') and (vi') at level n: s_{n+1}(end_{n+1}) - end_n at the upper
    end L_n + c_n + 2h_n of V_n and at its lower end L_n + c_n, computed
    and in the ``cf`` docstring's closed forms."""
    s, _, _ = _tail_steps(r)
    rho = r * r
    (lo, hi), (lo_next, hi_next) = tail_set(rho, n), tail_set(rho, n + 1)
    computed = (s(n, hi_next) - hi, s(n, lo_next) - lo)
    return computed, (formula("(v')", N=n, rho=rho), formula("(vi')", N=n, rho=rho))


def _expansion(rho, n, a5_shift=0):
    """The ``cf`` docstring's expansion of t_n - L_n through n^-5, with
    a_5 - a5_shift in place of a_5."""
    return formula("t_N - L_N", N=n, rho=rho, a_5=formula("a_5", rho=rho) - a5_shift)


class _Poly(dict):
    """A polynomial in two variables, {(i, j): coefficient of x^i y^j}:
    ring enough to expand the proof's polynomials at its substitutions."""

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


_RHO, _T = _Poly({(1, 0): 1}), _Poly({(0, 1): 1})


def _cleared(poly, degree):
    """(1 + w)^degree poly(w/(1 + w), t), for a poly in (rho, t) of degree at
    most ``degree`` in rho: a polynomial in (w, t)."""
    return sum((c * _RHO**i * (1 + _RHO)**(degree - i) * _T**j for (i, j), c in poly.items()),
               _Poly())


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
            (d3, u), _, q = _differences(r, n)
            assert d3 >= 0 and q > 0, (n, "iii")
            assert u <= 0, (n, "iv")

    def test_fifth_order_closed_forms_are_identities(self):
        # Times the product of the denominators of its terms and its closed
        # form, each difference minus its closed form is a polynomial of
        # degree at most 29 in n and 18 in rho (20 and 12 for (vi')):
        # vanishing on a 30 x 19 grid of (n, rho), it vanishes identically.
        for n in range(1, 31):
            for r in [Fraction(k, 5) for k in range(1, 20)]:
                computed, closed = _fifth_order_differences(r, n)
                assert computed == closed, (n, r)

    @pytest.mark.parametrize("r", [Fraction(1, 10**80), Fraction(1, 20), Fraction(1, 3),
                                   Fraction(1), Fraction(5, 2), Fraction(7, 2), Fraction(5),
                                   Fraction(10), Fraction(100)])
    def test_fifth_order_signs_from_n0_on(self, r):
        rho = r * r
        n0 = _n0(rho)
        s, lower, _ = _tail_steps(r)
        for n in [*range(n0, n0 + 25), 2 * n0, 10 * n0, 100 * n0]:
            (v, vi), _ = _fifth_order_differences(r, n)
            assert v < 0 and vi > 0, n
            at = {"N": n, "rho": rho}
            assert formula("P_5", **at) > 0 and formula("Q_5", **at) > 0, n
            assert formula("P_4", **at) > 0 and formula("Q_4", **at) > 0, n
            # 7/16 <= c_n < c_n + 2h_n <= c+_n <= 1: V_n lies in [L_n, U_n].
            ends, ends_next = tail_set(rho, n), tail_set(rho, n + 1)
            lo, hi = (end - lower(n) for end in ends)
            c_plus = formula("c+_n", n=n, rho=rho)
            assert Fraction(7, 16) <= lo < hi <= c_plus <= 1, n
            # Both ends map inward, so V_{n+1} maps into V_n.
            assert ends[0] < s(n, ends_next[0]), n
            assert s(n, ends_next[1]) < ends[1], n

    def test_lower_end_polynomials_have_no_negative_coefficient(self):
        # (vi'): at n = 2 rho + 2 + t, P_4 and Q_4 have no negative
        # coefficient in (rho, t), and a positive constant term: (vi') > 0
        # for every n >= 2 rho + 2, a bound that N_0 includes.
        n = 2 * _RHO + 2 + _T
        at = {"N": n, "rho": _RHO}
        for name in ("P_4", "Q_4"):
            poly = formula(name, **at)
            assert min(poly.values()) >= 0
            assert poly[0, 0] == figure(f"{name}(0)")
            assert sum(c != 0 for c in poly.values()) == figure(f"#{name}")

    def test_upper_end_polynomials_have_no_negative_coefficient(self):
        # (v'): Q_5 has no negative coefficient at n = 2 rho + 2 + t, where
        # P_5 has 15.  P_5 has none at n = 2 rho + 2 + t with rho = 1 + u
        # (rho >= 1), nor, cleared by (1 + w)^8, at n = 4 + t with rho =
        # w/(1 + w) (rho < 1, where N_0 = 4).  So (v') < 0 from N_0 on.
        at = {"N": 2 * _RHO + 2 + _T, "rho": _RHO}
        q = formula("Q_5", **at)
        assert min(q.values()) >= 0 and q[0, 0] == figure("Q_5(0)")
        assert sum(c < 0 for c in formula("P_5", **at).values()) == figure("#-P_5")
        u = _RHO  # the first variable, now rho - 1
        above = formula("P_5", N=2 * (1 + u) + 2 + _T, rho=1 + u)
        assert min(above.values()) >= 0 and above[0, 0] == figure("P^u_5(0)")
        at_four = formula("P_5", N=4 + _T, rho=_RHO)
        below = _cleared(at_four, 8)
        assert min(below.values()) >= 0 and below[0, 0] == figure("P^w_5(0)")
        assert max(i for i, _ in at_four) == 8

    @pytest.mark.parametrize("rho", [Fraction(1, 4), Fraction(1), Fraction(4)])
    def test_centre_falls_short_of_a5_by_h_exactly(self, rho):
        # c_n matches the expansion through n^-4 and its n^-5 term with
        # a_5 - n^5 h_n: n^6 times the difference stays bounded and settles
        # (-0.338, -2.23 and -87.7), where a wrong term would grow like n.
        values = []
        for n in (10**3, 10**4, 10**5):
            at = {"N": n, "rho": rho}
            c = formula("c_N", **at)
            values.append((c - _expansion(rho, n, n**5 * formula("h_N", **at))) * n**6)
        assert abs(values[2] - values[1]) < abs(values[1] - values[0]) / 5
        assert abs(values[1] - values[0]) < abs(values[0]) / 100

    @pytest.mark.parametrize("r", [Fraction(1, 2), Fraction(1), Fraction(2)])
    def test_expansion_holds_the_true_tail(self, r):
        # t_n from T(r, 1) = S(r) at 400 digits, inverting the contracted
        # fraction level by level (t_{n-1} = a'_n/(b'_n + t_n)): n^6 times
        # t_n - L_n minus the expansion settles (0.264, 3.35 and 558 at n =
        # 160), where a wrong a_5 would grow like n.
        rho = r * r
        kl = kappa_lambda_form(MathieuCFParams(r, Fraction(1)))
        values = []
        with mpmath.workdps(400):
            t = mpmath_s(float(r), 400)
            for n in range(1, 161):
                a, b = (mpmath.mpf(v.numerator) / v.denominator for v in kl.term(n))
                t = a / t - b
                if n in (40, 80, 160):
                    e = formula("L_N", N=n, rho=rho) + _expansion(rho, n)
                    values.append((t - mpmath.mpf(e.numerator) / e.denominator) * n**6)
        assert abs(values[2] - values[1]) < abs(values[1] - values[0]) / 1.5
        assert abs(values[1] - values[0]) < abs(values[0]) / 10

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
        # 2^-1074, n = 1, where 2n - 3 < 0, and levels around 2^17, where
        # 12 n^2 (2n - 3) stops being exact.
        rho_hi = math.nextafter(rho, math.inf)
        for n in (1, 4, 32, 1000, 2**17 - 1, 2**17 + 1, 100_000, tail_interval.MAX_LEVEL):
            for lo_end, hi_end in ((rho, rho), (rho, rho_hi)):
                e_lo, e_hi = tail_interval.offsets(lo_end, hi_end, n)
                for exact in (Fraction(lo_end), Fraction(hi_end)):
                    c_lo, c_hi = (end - formula("L_N", N=n, rho=exact) for end in tail_set(exact, n))
                    assert Fraction(e_lo) <= c_lo - Fraction(7, 16), n
                    assert Fraction(e_hi) >= c_hi - Fraction(7, 16), n
                    assert Fraction(e_hi) - Fraction(e_lo) >= c_hi - c_lo, n
