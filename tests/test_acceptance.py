"""Acceptance suite: one test per externally stated guarantee, at the stated
tolerance.  Where a target is not met, the test fails with per-cell
diagnostics (achieved widths, term counts, timings) instead of a weakened
tolerance — the suite's red is informative, never cosmetic.

Grid conventions: the enclosure-identity grid is r in {0.1, 0.5, 1, 2, 5, 10}
crossed with split points k in 1..6; the tail-recursion grid is
r in {0.1, 0.5, 1, 5, 10} crossed with offsets x in {0.6, 1, 2, 3.5, 7}.
"""

import math
import random
import time
from fractions import Fraction

import pytest
from conftest import S_AT_10, TWO_TERM_AT_10, ZETA3

from mathieucf import (
    Enclosure,
    MathieuCFParams,
    ab_form,
    asymptotic,
    closed_form_bounds,
    coefficients_positive,
    crossover_analysis,
    evaluate,
    even_contraction,
    iter_convergents,
    kappa_lambda_form,
    cd_form,
    mathieu_direct,
    mathieu_partial_sum,
    mathieu_trigamma,
    mathieu_integral,
    apery_form,
    convergent,
    telescoping_residual,
    theorem1_to_width,
)
from mathieucf import series
from mathieucf.oracles import ZETA3 as zeta3
from mathieucf.cli import RunConfig, run

R_GRID = (0.1, 0.5, 1.0, 2.0, 5.0, 10.0)
K_GRID = (1, 2, 3, 4, 5, 6)
TERM_CAP = 200_000


def test_c01_split_enclosures_reach_target_width_on_grid():
    """Every (r, k) cell: certified enclosure of width <= 1e-11 that contains
    the independent direct-summation reference; achieved cells in < 1 s."""
    width_target = 1e-11
    refs = {r: mathieu_direct(r, 1e-13) for r in R_GRID}
    failures = []
    achieved_seconds = 0.0
    for r in R_GRID:
        ref = refs[r]
        slack = ref.width / 2 + 4 * math.ulp(ref.midpoint)
        for k in K_GRID:
            start = time.perf_counter()
            enc, terms, achieved = theorem1_to_width(r, k, width_target, TERM_CAP)
            dt = time.perf_counter() - start
            if not (enc.lower - slack <= ref.midpoint <= enc.upper + slack):
                failures.append(
                    f"(r={r}, k={k}): reference {ref.midpoint!r} outside "
                    f"[{enc.lower!r}, {enc.upper!r}]"
                )
            if achieved:
                achieved_seconds += dt
            else:
                failures.append(
                    f"(r={r}, k={k}): width {enc.width:.3e} > {width_target:.0e} "
                    f"at the {TERM_CAP}-term cap ({dt * 1e3:.0f} ms); the z = "
                    f"k^2 - k = {k * k - k} regime converges too slowly for "
                    f"this target"
                )
    if achieved_seconds >= 1.0:
        failures.append(f"achieved cells took {achieved_seconds:.2f} s (>= 1 s)")
    if failures:
        pytest.fail(
            f"{len(failures)} of {len(R_GRID) * len(K_GRID)} grid checks failed:\n"
            + "\n".join(sorted(failures))
        )


def test_c02_closed_form_bounds_at_r1():
    """The k=2 closed-form pair at r=1 equals (11/14, 5/6) to 1e-12; the k=3
    pair sits strictly inside it and still brackets the series."""
    s1 = mathieu_direct(1.0, 1e-13).midpoint
    b2 = closed_form_bounds(1.0, 2)
    assert b2.lower == pytest.approx(11 / 14, abs=1e-12)
    assert b2.upper == pytest.approx(5 / 6, abs=1e-12)
    b3 = closed_form_bounds(1.0, 3)
    assert b3.lower == pytest.approx(0.66 + 1 / 7.5, abs=1e-12)
    assert b3.upper == pytest.approx(0.66 + 1 / 7.0, abs=1e-12)
    assert b2.lower < b3.lower < s1 < b3.upper < b2.upper


def test_c03_crossover_radii():
    """Bisection locates the bound-family crossovers: the upper crossover at
    0.803587 (+- 1e-5) and the lower-advantage window at (0.0507096, 4.44903)
    (+- 1e-4), in under a second."""
    start = time.perf_counter()
    report = crossover_analysis(1e-9)
    elapsed = time.perf_counter() - start
    assert report.upper_crossover == pytest.approx(0.803587, abs=1e-5)
    assert report.lower_interval[0] == pytest.approx(0.0507096, abs=1e-4)
    assert report.lower_interval[1] == pytest.approx(4.44903, abs=1e-4)
    assert elapsed < 1.0, f"crossover analysis took {elapsed:.2f} s"


def test_c04_tail_recursion_residual_on_grid():
    """|T(r, x) - T(r, x+1) - 2x/(x^2+r^2)^2| <= 1e-10 on the grid; attainable
    cells in < 1 s total."""
    grid_r = (0.1, 0.5, 1.0, 5.0, 10.0)
    grid_x = (0.6, 1.0, 2.0, 3.5, 7.0)
    tol = 1e-10
    failures = []
    passing_seconds = 0.0
    for r in grid_r:
        for x in grid_x:
            start = time.perf_counter()
            residual = telescoping_residual(r, x, tol)
            dt = time.perf_counter() - start
            if abs(residual) <= tol:
                passing_seconds += dt
            else:
                z = x * x - x
                regime = (
                    "no bracketing for z < 0" if z < 0 else f"slow convergence at z = {z:g}"
                )
                failures.append(
                    f"(r={r}, x={x}): |residual| = {abs(residual):.3e} > 1e-10 "
                    f"({regime}; {dt * 1e3:.0f} ms)"
                )
    if passing_seconds >= 1.0:
        failures.append(f"passing cells took {passing_seconds:.2f} s (>= 1 s)")
    if failures:
        pytest.fail(
            f"{len(failures)} of {len(grid_r) * len(grid_x)} residual checks failed:\n"
            + "\n".join(sorted(failures))
        )


def test_c05_three_fraction_shapes_agree():
    """At matched term budgets the three fraction shapes agree to within 4x
    the width of the walk's even/odd bracket, across the full grid."""
    failures = []
    for r in R_GRID:
        for k in K_GRID:
            params = MathieuCFParams(r, float(k))
            head = mathieu_partial_sum(r, k)
            # The walk behind theorem1_to_width: at k = 1 that returns a tail
            # interval instead, far narrower than any pair of approximants.
            bracket = series._walk(params, 1e-11, TERM_CAP)
            terms = bracket.terms_used
            enc = Enclosure(head + bracket.enclosure.lower, head + bracket.enclosure.upper)
            mid = enc.midpoint
            cd_val = head + evaluate(cd_form(params), 0.0, max(2, terms)).value
            kl_val = head + evaluate(
                kappa_lambda_form(params), 0.0, max(2, (terms + 1) // 2)
            ).value
            tol_cell = 4 * enc.width + 64 * math.ulp(abs(mid))
            for name, val in (("cleared-denominator", cd_val), ("contracted", kl_val)):
                if abs(val - mid) > tol_cell:
                    failures.append(
                        f"(r={r}, k={k}): {name} value {val!r} vs enclosure "
                        f"midpoint {mid!r} differs by {abs(val - mid):.3e} "
                        f"(allowed {tol_cell:.3e})"
                    )
            if abs(cd_val - kl_val) > tol_cell:
                failures.append(
                    f"(r={r}, k={k}): cleared-denominator and contracted shapes "
                    f"differ by {abs(cd_val - kl_val):.3e} (allowed {tol_cell:.3e})"
                )
    if failures:
        pytest.fail(f"{len(failures)} shape disagreements:\n" + "\n".join(sorted(failures)))


def test_c06_contraction_matches_both_views():
    """The even contraction of the unit-numerator shape reproduces (a) the
    even approximants of the original and (b) the contracted shape's terms
    and approximants, to 1e-12 relative, for 25 contracted terms."""
    for r, x in ((0.5, 1.0), (2.0, 3.5), (7.0, 1.2)):
        params = MathieuCFParams(r, x)
        original = ab_form(params)
        contracted = even_contraction(original)
        direct_form = kappa_lambda_form(params)
        evens = {
            c.n: c.value
            for c in iter_convergents(original, 50)
            if c.n % 2 == 0 and c.n > 0
        }
        for n in range(1, 26):
            assert contracted.term(n) == pytest.approx(direct_form.term(n), rel=1e-12), (
                f"term {n} differs at (r={r}, x={x})"
            )
        for c in iter_convergents(contracted, 25):
            if c.n == 0:
                continue
            assert c.value == pytest.approx(evens[2 * c.n], rel=1e-12), (
                f"approximant {c.n} vs even approximant {2 * c.n} at (r={r}, x={x})"
            )
            direct_c = [d for d in iter_convergents(direct_form, c.n)][-1]
            assert c.value == pytest.approx(direct_c.value, rel=1e-12), (
                f"approximant {c.n} vs contracted-shape approximant at (r={r}, x={x})"
            )


def test_c07_bracketing_is_strict_in_exact_arithmetic():
    """For 50 seeded random parameter points with positive coefficients, the
    first 40 approximants in exact rational arithmetic satisfy strict
    even-increase / odd-decrease with every even below every odd."""
    rng = random.Random(20260817)
    accepted = 0
    while accepted < 50:
        r = Fraction(rng.uniform(0.01, 10.0)).limit_denominator(1 << 20)
        x = Fraction(rng.uniform(0.5, 8.0)).limit_denominator(1 << 20)
        if r <= 0 or x <= Fraction(1, 2):
            continue
        params = MathieuCFParams(r, x)
        if coefficients_positive(params, 42) is not None:
            continue
        vals = [c.value for c in iter_convergents(ab_form(params), 40)][1:]
        odds, evens = vals[0::2], vals[1::2]
        assert all(a < b for a, b in zip(evens, evens[1:])), (
            f"even approximants not strictly increasing at (r={r}, x={x})"
        )
        assert all(a > b for a, b in zip(odds, odds[1:])), (
            f"odd approximants not strictly decreasing at (r={r}, x={x})"
        )
        assert max(evens) < min(odds), (
            f"even/odd approximants fail to bracket at (r={r}, x={x})"
        )
        accepted += 1


def test_c08_zeta3_fraction_convergence():
    """The zeta(3) fraction starts 5/4, 6/5 exactly and is within 1e-10 of
    the package's zeta(3) after 60 terms."""
    assert convergent(apery_form(), 1).value == 1.25
    assert convergent(apery_form(), 2).value == 1.2
    assert zeta3 == pytest.approx(ZETA3, abs=5e-15)
    assert abs(convergent(apery_form(), 60).value - zeta3) < 1e-10


def test_c09_independent_routes_triangle():
    """Direct summation, the trigamma route, and the oscillatory integral
    agree pairwise within 2e-9 at r in {0.5, 1, 2, 5}, in under 2 s."""
    start = time.perf_counter()
    for r in (0.5, 1.0, 2.0, 5.0):
        routes = {
            "direct": mathieu_direct(r, 1e-11).midpoint,
            "trigamma": mathieu_trigamma(r),
            "integral": mathieu_integral(r, 1e-10),
        }
        for a in routes:
            for b in routes:
                assert abs(routes[a] - routes[b]) <= 2e-9, (
                    f"{a} vs {b} at r={r}: {routes[a]!r} vs {routes[b]!r}"
                )
    elapsed = time.perf_counter() - start
    assert elapsed < 2.0, f"oracle triangle took {elapsed:.2f} s"


def test_c10_large_r_expansion_at_r10():
    """Two terms at r=10 give 0.009983333333333334; optimal truncation lands
    within measurement resolution of the direct reference, with the first
    omitted term far below it."""
    assert asymptotic(10.0, 2).value == pytest.approx(TWO_TERM_AT_10, abs=1e-15)
    ref = mathieu_direct(10.0, 1e-13)
    result = asymptotic(10.0)
    assert result.first_omitted_term < 1e-27
    assert result.value == pytest.approx(S_AT_10, abs=1e-15)
    # float64 cannot resolve 1e-28, so the honest budget is the larger of the
    # first omitted term and the reference's own measurement floor
    floor = ref.width / 2 + 16 * math.ulp(abs(result.value))
    assert abs(result.value - ref.midpoint) <= max(result.first_omitted_term, floor)
    # at r=5 the first omitted term is above float resolution and the error
    # bound it promises holds literally
    ref5 = mathieu_direct(5.0, 1e-13)
    result5 = asymptotic(5.0)
    assert abs(result5.value - ref5.midpoint) <= result5.first_omitted_term


def test_c11_term_count_advantage():
    """At tol 1e-12, r=1: direct summation needs >= 1e5 terms while the k=3
    split enclosure needs <= 60 — a >= 100x reduction, visible in the
    benchmark rows."""
    enc, terms, achieved = theorem1_to_width(1.0, 3, 1e-12)
    assert achieved and enc.width <= 1e-12
    assert terms <= 60
    rows, code, _ = run(
        RunConfig(command="bench", r_values=(1.0,), repeats=1, k_values=(3,))
    )
    assert code == 0
    by = {row["method"]: row for row in rows}
    assert by["direct_sum"]["terms"] >= 100_000
    assert by["cf(k=3)"]["terms"] == terms
    assert by["cf(k=3)"]["terms_ratio"] >= 100.0
