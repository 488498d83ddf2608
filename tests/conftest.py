"""Shared frozen reference values and independent brute-force oracles.

The constants below were derived before the library existed, from
independent routes (plain partial sums with integral tail brackets, a
high-precision trigamma evaluation, and the oscillatory integral), and are
frozen here; tests check the library against them, never the library
against itself.  ``formula`` and ``figure`` read the z = 0 proof's
formulas and figures from the ``cf`` module docstring, the text the
package ships.
"""

import csv
import functools
import io
import math
import os
import re
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import mpmath
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


def mpmath_s(r, digits=40):
    """S(r) from mpmath: Im psi1(1 - i r)/r, and 2 zeta(3) at r = 0."""
    with mpmath.workdps(digits):
        if r == 0:
            return 2 * mpmath.zeta(3)
        x = mpmath.mpf(r)
        return mpmath.im(mpmath.psi(1, mpmath.mpc(1, -x))) / x


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


_INT_RE = re.compile(r"^-?\d+$")


def _csv_uncell(text):
    if text == "":
        return None
    if _INT_RE.match(text):
        return int(text)
    try:
        return float(text)
    except ValueError:
        return text


def csv_to_rows(text):
    """Inverse of ``mathieucf.commands.rows_to_csv`` for the cell types the
    package emits: empty is None, then int, float, or the text itself."""
    reader = csv.reader(io.StringIO(text))
    try:
        cols = next(reader)
    except StopIteration:
        return []
    return [{col: _csv_uncell(cell) for col, cell in zip(cols, row)} for row in reader]


@pytest.fixture
def golden_cf():
    from mathieucf import ContinuedFraction

    return ContinuedFraction(0.0, lambda n: (1.0, 1.0))


@functools.lru_cache(maxsize=None)
def _formula_code(name, source):
    key = re.escape(name)
    # A fact's label, such as (iii), names the equation at the start of its line.
    head = rf"^[ \t]*{key}[^=]*=" if name[0] == "(" else rf"(?<![\w']){key}[ \t]*="
    found = re.search(head + r"(.+?)(?:<?=|\+ \.\.\.|`|[,.]$)", source, re.M | re.S)
    assert found, name
    code, before = [], "+"
    for token in re.findall(r"\d+|[A-Za-z]\w*|\S", found[1]):
        assert token[0].isalnum() or token in "+-*/()^", (name, token)
        if (before[-1].isalnum() or before == ")") and (token[0].isalnum() or token == "("):
            code.append("*")  # juxtaposition
        exact = token.isdigit() and before != "^"
        code.append("**" if token == "^" else f"F({token})" if exact else token)
        before = token
    return compile(" ".join(code), name, "eval")


def formula(name, source=None, **values):
    """The formula ``source`` (the ``cf`` docstring by default) writes as
    ``name = ...``, or after a label such as ``(iii)``, up to an ``=``,
    ``<=``, ``+ ...``, backtick or line-ending comma or full stop, at
    ``values``; a name they leave out is read from ``source`` in turn.  ``^``
    is a power, juxtaposition a product, and an integer a ``Fraction`` outside
    exponents: exact over ints, Fractions and polynomials.  Anything but
    names, integers and ``+-*/()^`` fails to read."""
    if source is None:
        from mathieucf import cf
        source = cf.__doc__
    code = _formula_code(name, source)
    for other in set(code.co_names) - {"F"} - values.keys():
        values[other] = formula(other, source, **values)
    return eval(code, {"__builtins__": {}, "F": Fraction}, values)


def figure(name, source=None):
    """The integer that ``source`` (the ``cf`` docstring by default) states as
    ``name = <integer>``, where it may stand mid-sentence, such as the
    constant term ``P_4(0)`` or the coefficient count ``#P_4``."""
    if source is None:
        from mathieucf import cf
        source = cf.__doc__
    found = re.findall(rf"(?<![\w'^#-]){re.escape(name)}[ \t]*=[ \t]*(\d+)\b", source)
    assert len(found) == 1, (name, found)
    return int(found[0])


def tail_set(rho, n):
    """The ends of the tail set V_n = [L_n + c_n, L_n + c_n + 2 h_n] (``cf``
    docstring), exact for an int, Fraction or float rho."""
    at = {"N": n, "rho": Fraction(rho)}
    low = formula("L_N", **at) + formula("c_N", **at)
    return low, low + 2 * formula("h_N", **at)


def fresh_python(*args):
    """Run ``python *args`` in a new interpreter that imports the package from
    src/, for checks the test session's own imports would mask; returns
    stdout, and a non-zero exit raises ``CalledProcessError``."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=src)
    done = subprocess.run([sys.executable, *args], env=env, capture_output=True,
                          text=True, timeout=120, check=True)
    return done.stdout
