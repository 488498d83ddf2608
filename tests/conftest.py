"""Shared frozen reference values and independent brute-force oracles.

The constants below were derived before the library existed, from
independent routes (plain partial sums with integral tail brackets, a
high-precision trigamma evaluation, and the oscillatory integral), and are
frozen here; tests check the library against them, never the library
against itself.
"""

import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

# 1/phi = (sqrt(5) - 1)/2, the all-ones continued fraction.
GOLDEN = 0.6180339887498949

# zeta(3): direct summation + integral tail midpoint, stable to 2e-16
# across truncation points; cross-checked against the zeta(3) fraction.
ZETA3 = 1.2020569031595945
INV_TWO_ZETA3 = 0.4159536862903537

# S(1) and S(10): agreed by four independent routes to ~1e-15
# (high-precision value 0.79423354275931886558...).
S_AT_1 = 0.7942335427593189
S_AT_10 = 0.009983299758493018

# trigamma(1) = pi^2/6 and trigamma(1/2) = pi^2/2.
PI2_OVER_6 = 1.6449340668482264
PI2_OVER_2 = 4.934802200544679

# Crossover radii: sqrt(sqrt(7)-2), the closed-form-lower window endpoints,
# and sqrt(sqrt(11)-2); from 50-digit arithmetic resp. float-limit bisection
# on the explicit rational gap functions.
UPPER_CROSSOVER = 0.8035865299173391
LOWER_INTERVAL = (0.05070959446555684, 4.449025973370184)
ALZER_UPPER_CROSSOVER = 1.147442717679362

# Two-term large-r value at r=10: 1/100 - 1/60000.
TWO_TERM_AT_10 = 0.009983333333333334


def brute_tail_bracket(r, x, terms):
    """Certified bracket of T(r, x) = sum_{m>=0} 2(x+m)/((x+m)^2+r^2)^2 by
    plain summation plus the integral comparison on the decreasing tail.

    Independent of the continued-fraction machinery: this is the oracle the
    fraction representations are tested against.
    """
    rr = r * r
    partial = math.fsum(2 * (x + m) / ((x + m) ** 2 + rr) ** 2 for m in range(terms))
    top = x + terms
    # integral test: int_top f <= tail <= int_{top-1} f, valid where the
    # summand decreases, i.e. from r/sqrt(3) on
    assert top - 1 >= r / math.sqrt(3), "bracket needs the decreasing-tail regime"
    return partial + 1 / (top * top + rr), partial + 1 / ((top - 1) ** 2 + rr)


def backward_cf(b0, term_fn, depth):
    """Evaluate b0 + a1/(b1 + a2/(b2 + ...)) truncated at ``depth`` by
    folding from the bottom — the textbook route, sharing nothing with the
    forward three-term recurrence it cross-checks.
    """
    acc = 0.0
    for n in range(depth, 0, -1):
        a, b = term_fn(n)
        acc = a / (b + acc)
    return b0 + acc


@pytest.fixture
def golden_cf():
    from mathieucf import ContinuedFraction

    return ContinuedFraction(0.0, lambda n: (1.0, 1.0))


def fresh_python(*args):
    """Run ``python *args`` in a new interpreter that imports the package from
    src/, for checks the test session's own imports would mask; returns
    stdout, and a non-zero exit raises ``CalledProcessError``."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=src)
    done = subprocess.run([sys.executable, *args], env=env, capture_output=True,
                          text=True, timeout=120, check=True)
    return done.stdout
