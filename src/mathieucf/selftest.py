"""Built-in invariant suite: fast, deterministic checks of every module's
contract, runnable from the command line (``mathieucf selftest``, the only
command that loads this module).

Each check raises AssertionError with a diagnostic message on failure and
returns a short detail string on success.  The suite covers the fraction
engine's algebraic identities, the equivalence of the three fraction
shapes, certified-bracket behavior (in exact rational arithmetic, where
strictness is meaningful), bound orderings, the independent-oracle
triangle, and serialization round-trips.  Formulations are chosen to be
attainable by a correct build — e.g. bracket checks stay inside the
positive-coefficient regime where bracketing is guaranteed.
"""

from __future__ import annotations

import json
import math
import random
import time
from fractions import Fraction
from typing import Callable, List

from . import bounds, cli, commands, oracles, series
from .cf import (
    ContinuedFraction,
    ab_form,
    ab_to_cd_witness,
    apery_form,
    cd_form,
    coefficients_positive,
    convergent,
    equivalence_transform,
    evaluate,
    even_contraction,
    iter_convergents,
    kappa_lambda_form,
    telescoping_residual,
)
from .series import _rescale_factor

__all__ = ["CHECKS", "run_selftest"]


def _golden_cf() -> ContinuedFraction:
    # 1/(1 + 1/(1 + ...)) = 1/phi = 0.6180...; the simplest all-ones fraction.
    return ContinuedFraction(0.0, lambda n: (1.0, 1.0))


def _check_determinant_identity() -> str:
    """successive-approximant determinants match the term products"""
    worst = 0.0
    for form, n_max, rescale_at in [
        (_golden_cf(), 400, 1e10),
        (ab_form(series.MathieuCFParams(1.0, 2.0)), 60, 1e150),
    ]:
        prod = 1.0
        prev = None
        scale = _rescale_factor(rescale_at)
        for c in iter_convergents(form, n_max, rescale_at=rescale_at):
            if prev is not None:
                a, _ = form.term(c.n)
                prod *= a
                # The stored states carry scale**rescales each, so the
                # cross-determinant picks up the scales of both indices.
                det = c.numerator * prev.denominator - prev.numerator * c.denominator
                expected = (1 if c.n % 2 else -1) * prod * scale ** (
                    c.rescales + prev.rescales
                )
                # Normalize by the product magnitudes: the determinant is a
                # difference of two nearly equal large products, so that is
                # the scale float64 rounding lives on.
                norm = abs(c.numerator * prev.denominator) + abs(
                    prev.numerator * c.denominator
                )
                err = abs(det - expected) / max(norm, 1e-300)
                worst = max(worst, err)
                assert err <= 1e-11, (
                    f"determinant mismatch at n={c.n}: det={det!r}, "
                    f"expected={expected!r}, normalized error {err:.3e}"
                )
            prev = c
    return f"worst normalized error {worst:.2e}"


def _check_contraction() -> str:
    """contraction approximants equal the even approximants"""
    worst = 0.0
    for form in [_golden_cf(), ab_form(series.MathieuCFParams(1.5, 2.0))]:
        contracted = even_contraction(form)
        evens = {
            c.n: c.value for c in iter_convergents(form, 24) if c.n % 2 == 0 and c.n > 0
        }
        for c in iter_convergents(contracted, 12):
            if c.n == 0:
                continue
            target = evens[2 * c.n]
            err = abs(c.value - target) / abs(target)
            worst = max(worst, err)
            assert err <= 1e-12, (
                f"contraction approximant {c.n} = {c.value!r} differs from "
                f"even approximant {2 * c.n} = {target!r} (rel {err:.3e})"
            )
    return f"worst relative mismatch {worst:.2e}"


def _check_equivalence() -> str:
    """multiplier transforms preserve every approximant"""
    worst = 0.0
    for r, x in [(0.7, 1.0), (3.0, 4.0)]:
        ab = ab_form(series.MathieuCFParams(r, x))
        cd = cd_form(series.MathieuCFParams(r, x))
        transformed = equivalence_transform(ab, ab_to_cd_witness)
        for n in range(1, 31):
            got = convergent(transformed, n).value
            via_cd = convergent(cd, n).value
            via_ab = convergent(ab, n).value
            for other in (via_cd, via_ab):
                err = abs(got - other) / abs(other)
                worst = max(worst, err)
                assert err <= 1e-13, (
                    f"approximant {n} moved under equivalence at r={r}, x={x}: "
                    f"{got!r} vs {other!r}"
                )
    try:
        equivalence_transform(_golden_cf(), lambda n: 2.0)
    except ValueError:
        pass
    else:
        raise AssertionError("equivalence transform accepted r_0 != 1")
    return f"worst relative drift {worst:.2e}"


def _check_rescaling_invariance() -> str:
    """approximant values are bit-identical across rescale thresholds"""
    form = ab_form(series.MathieuCFParams(2.0, 3.0))
    a = convergent(form, 3000, rescale_at=1e50)
    b = convergent(form, 3000, rescale_at=1e150)
    assert a.value == b.value, (
        f"rescale threshold changed the approximant: {a.value!r} vs {b.value!r}"
    )
    assert a.rescales > b.rescales, "aggressive threshold should rescale more often"
    return f"value {a.value!r}, rescales {a.rescales} vs {b.rescales}"


def _check_three_forms() -> str:
    """the three fraction shapes agree on the tail value"""
    worst = 0.0
    for r, x in [(0.5, 1.0), (2.0, 3.0)]:
        params = series.MathieuCFParams(r, x)
        ab = series.tail_enclosure(r, x, 0.0, 600)
        cd = evaluate(cd_form(params), 0.0, 600)
        kl = evaluate(kappa_lambda_form(params), 0.0, 300)
        budget = 4 * ab.enclosure.width + 1e-13
        for name, value in [("cd", cd.value), ("kappa_lambda", kl.value)]:
            err = abs(value - ab.enclosure.midpoint)
            worst = max(worst, err)
            assert err <= budget, (
                f"{name} form strays from ab form at r={r}, x={x}: "
                f"diff {err:.3e} > budget {budget:.3e}"
            )
    return f"worst cross-form difference {worst:.2e}"


def _check_theorem1_consistency() -> str:
    """enclosures from different split points all overlap the direct bracket"""
    for r in (0.5, 1.0, 5.0):
        direct = series.mathieu_direct(r, 1e-8)
        enclosures = [series.mathieu_theorem1(r, k, 4000) for k in (1, 2, 3)]
        lo = max(e.lower for e in enclosures)
        hi = min(e.upper for e in enclosures)
        # Saturated brackets carry a few ulps of recurrence rounding on each
        # endpoint, so mutual intersection is asserted with ulp-scale slack.
        slack = 32 * math.ulp(max(abs(lo), abs(hi)))
        assert lo <= hi + slack, (
            f"split-point enclosures disjoint at r={r}: [{lo!r}, {hi!r}]"
        )
        for k, e in zip((1, 2, 3), enclosures):
            # Certified intervals for the same value must overlap (a saturated
            # fraction bracket is far narrower than the direct one, so overlap
            # — not midpoint containment — is the honest invariant).
            assert e.lower <= direct.upper and direct.lower <= e.upper, (
                f"enclosure k={k} at r={r} disjoint from the direct bracket: "
                f"[{e.lower!r}, {e.upper!r}] vs [{direct.lower!r}, {direct.upper!r}]"
            )
    return "k in {1,2,3} consistent at r in {0.5, 1, 5}"


def _check_bracketing_exact() -> str:
    """even/odd approximants bracket strictly, in exact rational arithmetic"""
    rng = random.Random(20260817)
    draws = 0
    while draws < 12:
        r = Fraction(rng.uniform(0.05, 10.0)).limit_denominator(1 << 20)
        x = Fraction(rng.uniform(0.51, 8.0)).limit_denominator(1 << 20)
        params = series.MathieuCFParams(r, x)
        if coefficients_positive(params, 30) is not None:
            continue  # outside the positive-coefficient hypothesis
        draws += 1
        vals = [c.value for c in iter_convergents(ab_form(params), 30)]
        for n in range(2, 27, 2):
            assert vals[n] < vals[n + 2], f"even approximants not increasing at n={n}"
            assert vals[n + 2] < vals[n + 1], f"bracket inverted at n={n}"
            assert vals[n + 3] < vals[n + 1], f"odd approximants not decreasing at n={n}"
    return "12 positive-coefficient draws, strict ordering holds through n=30"


def _check_positivity() -> str:
    """coefficients are positive for x >= 1; a violation exists below x = 1"""
    for r in (0.1, 1.0, 10.0):
        for x in (1.0, 2.5, 7.0):
            bad = coefficients_positive(series.MathieuCFParams(r, x), 1000)
            assert bad is None, f"coefficient <= 0 at n={bad} for r={r}, x={x}"
    # Below x = 1 (z < 0) positivity fails: immediately when r^2 < -z
    # (b_1 = z + r^2 < 0), and at the first odd denominator with
    # r^2/(2n+1) < -z otherwise.
    bad = coefficients_positive(series.MathieuCFParams(0.1, 0.6), 1000)
    assert bad == 1, f"expected first violation at n=1 for r=0.1, x=0.6; got {bad}"
    bad = coefficients_positive(series.MathieuCFParams(1.0, 0.6), 1000)
    assert bad == 5, f"expected first violation at n=5 for r=1, x=0.6; got {bad}"
    return "positive through n=1000 for x >= 1; violations at n=1 and n=5 for x=0.6"


def _check_telescoping() -> str:
    """tail recursion residual vanishes where brackets are certified"""
    worst = 0.0
    for r in (1.0, 5.0):
        for x in (2.0, 3.5):
            res = abs(telescoping_residual(r, x, 1e-10))
            worst = max(worst, res)
            assert res <= 1e-10, f"residual {res:.3e} at r={r}, x={x}"
    return f"worst |residual| {worst:.2e} on the z > 0 grid"


def _check_asymptotic() -> str:
    """optimal truncation lands within its own first omitted term"""
    direct = series.mathieu_direct(10.0, 1e-12)
    result = series.asymptotic(10.0)
    floor = 0.5 * direct.width + 16 * math.ulp(result.value)
    err = abs(result.value - direct.midpoint)
    assert result.terms_used >= 2, f"auto kept {result.terms_used} terms at r=10"
    assert err <= max(result.first_omitted_term, floor), (
        f"asymptotic error {err:.3e} exceeds first omitted "
        f"{result.first_omitted_term:.3e} and float floor {floor:.3e}"
    )
    small = series.asymptotic(0.2)
    assert small.terms_used == 1, f"auto kept {small.terms_used} terms at r=0.2"
    assert small.first_omitted_term >= abs(small.value), (
        "small-r divergence not flagged: first omitted "
        f"{small.first_omitted_term:.3e} < kept {small.value:.3e}"
    )
    return f"r=10 error {err:.2e} within budget; r=0.2 flagged divergent"


def _check_bound_ordering() -> str:
    """every bound brackets S(r); refinements nest; sharp constants order"""
    for r in (0.2, 1.0, 5.0):
        s = series.mathieu_direct(r, 1e-9).midpoint
        makai = bounds.makai_bounds(r)
        alzer = bounds.alzer_bounds(r)
        mp = bounds.mp_upper(r)
        c2 = bounds.closed_form_bounds(r, 2)
        c3 = bounds.closed_form_bounds(r, 3)
        cf21 = bounds.cf_bounds(r, 2, 1)
        cf22 = bounds.cf_bounds(r, 2, 2)
        for b in (makai, alzer, c2, c3, cf21, cf22):
            assert b.lower < s < b.upper, f"{b.method} fails to bracket S({r}) = {s!r}"
        assert s < mp.upper, f"mp upper fails at r={r}"
        assert alzer.lower > makai.lower, f"sharp lower constant not tighter at r={r}"
        assert c3.lower > c2.lower and c3.upper < c2.upper, f"k=3 not inside k=2 at r={r}"
        assert cf22.lower > cf21.lower and cf22.upper < cf21.upper, (
            f"l=2 not inside l=1 at r={r}"
        )
    return "orderings hold at r in {0.2, 1, 5}"


def _check_crossovers() -> str:
    """crossover radii sit where the bound gaps change sign"""
    report = bounds.crossover_analysis(1e-7)
    assert abs(report.upper_crossover - 0.8035865) < 1e-3, (
        f"upper crossover {report.upper_crossover!r} far from expected"
    )
    low, high = report.lower_interval
    assert low < 1.0 < high, f"lower-crossover interval {report.lower_interval!r} misses r=1"
    inside = bounds.closed_form_bounds(1.0, 2).lower - bounds.alzer_bounds(1.0).lower
    outside = bounds.closed_form_bounds(6.0, 2).lower - bounds.alzer_bounds(6.0).lower
    assert inside > 0 > outside, "closed-form lower does not change sides as predicted"
    return (
        f"upper {report.upper_crossover:.6f}, lower interval "
        f"({low:.6f}, {high:.6f}), alzer-upper {report.alzer_upper_crossover:.6f}"
    )


def _check_oracle_triangle() -> str:
    """integral, trigamma, direct, and fraction routes agree pairwise"""
    worst = 0.0
    for r in (0.5, 2.0):
        integral = oracles.mathieu_integral(r, 1e-10)
        tri = oracles.mathieu_trigamma(r)
        direct = series.mathieu_direct(r, 1e-11).midpoint
        cf_mid = series.theorem1_to_width(r, 3, 1e-11)[0].midpoint
        values = {"integral": integral, "trigamma": tri, "direct": direct, "cf": cf_mid}
        for name_a, va in values.items():
            for name_b, vb in values.items():
                diff = abs(va - vb)
                worst = max(worst, diff)
                assert diff <= 2e-9, (
                    f"{name_a} vs {name_b} differ by {diff:.3e} at r={r}"
                )
    return f"worst pairwise difference {worst:.2e}"


def _check_apery() -> str:
    """the zeta(3) fraction hits 5/4 and 6/5 exactly, then alternates in"""
    vals = [c.value for c in iter_convergents(apery_form(), 60)]
    assert vals[1] == 1.25, f"first approximant {vals[1]!r}"
    assert vals[2] == 1.2, f"second approximant {vals[2]!r}"
    z3 = oracles.ZETA3
    err = abs(vals[60] - z3)
    assert err < 1e-10, f"60-term approximant off by {err:.3e}"
    for n, v in enumerate(vals[1:13], 1):
        if n % 2:
            assert v > z3, f"odd approximant {n} not above zeta(3)"
        else:
            assert v < z3, f"even approximant {n} not below zeta(3)"
    return f"60-term error {err:.2e}, alternation holds through n=12"


def _check_cf_trigamma_alignment() -> str:
    """the fraction tail equals the trigamma tail at non-integer offsets"""
    worst = 0.0
    for r, x in [(1.3, 1.7), (0.8, 4.25)]:
        bracket = series.tail_enclosure(r, x, 1e-12, max_terms=20_000)
        tri = oracles.tail_via_trigamma(r, x)
        budget = 4 * bracket.enclosure.width + 2e-13
        diff = abs(bracket.enclosure.midpoint - tri)
        worst = max(worst, diff)
        assert diff <= budget, (
            f"fraction tail vs trigamma tail at r={r}, x={x}: diff {diff:.3e}"
        )
        assert bracket.enclosure.lower <= tri <= bracket.enclosure.upper, (
            f"trigamma tail outside certified bracket at r={r}, x={x}"
        )
    return f"worst difference {worst:.2e}"


def _check_serialization_round_trip() -> str:
    """CSV and JSON writers reproduce rows bit-exactly"""
    rows = [
        {"r": 0.1, "method": "direct", "value": 1.0 / 3.0, "terms_used": 7, "note": None},
        {"r": 2.0, "method": "cf", "value": math.pi, "terms_used": 34, "note": "ok"},
    ]
    csv_text = commands.rows_to_csv(rows)
    json_text = cli.payload_to_json({"config": {"tol": 1e-12}, "rows": rows, "version": 1})
    assert commands.csv_to_rows(csv_text) == rows, "CSV round-trip changed the rows"
    parsed = json.loads(json_text)
    assert parsed["rows"] == rows, "JSON round-trip changed the rows"
    assert parsed["config"]["tol"] == 1e-12, "JSON round-trip changed the config"
    return "CSV and JSON round-trips exact"


CHECKS: List[tuple[str, Callable[[], str]]] = [
    ("cf_engine.determinant_identity", _check_determinant_identity),
    ("cf_engine.contraction", _check_contraction),
    ("cf_engine.equivalence", _check_equivalence),
    ("cf_engine.rescaling_invariance", _check_rescaling_invariance),
    ("mathieu.three_forms", _check_three_forms),
    ("mathieu.split_consistency", _check_theorem1_consistency),
    ("mathieu.bracketing_exact", _check_bracketing_exact),
    ("mathieu.positivity", _check_positivity),
    ("mathieu.telescoping", _check_telescoping),
    ("mathieu.asymptotic", _check_asymptotic),
    ("bounds.ordering", _check_bound_ordering),
    ("bounds.crossovers", _check_crossovers),
    ("oracle.triangle", _check_oracle_triangle),
    ("oracle.apery", _check_apery),
    ("oracle.cf_trigamma_alignment", _check_cf_trigamma_alignment),
    ("cli.serialization_round_trip", _check_serialization_round_trip),
]


def _forced_failure() -> str:
    raise AssertionError("forced failure requested (--force-fail)")


def run_selftest(force_fail: bool = False) -> List[cli.Row]:
    """Run every check, in ``CHECKS`` order; one row per check, as
    ``mathieucf selftest`` prints them.  Never raises on check failure."""
    selected = CHECKS
    if force_fail:
        selected = selected + [("forced_failure", _forced_failure)]
    rows = []
    for name, fn in selected:
        start = time.perf_counter()
        try:
            detail, status = fn(), "pass"
        except AssertionError as exc:
            detail, status = str(exc), "FAIL"
        rows.append({"check": name, "status": status,
                     "seconds": round(time.perf_counter() - start, 6), "detail": detail})
    return rows
