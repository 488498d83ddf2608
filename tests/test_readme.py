"""The README's library examples run, and print what their comments say.

Every ```python block of README.md is executed in order in one namespace;
the assertions restate the values the README quotes in its comments.  The
tail set's formulas in README are the ``cf`` docstring's.
"""

import pathlib
import re
from fractions import Fraction

import pytest
from conftest import formula

README = pathlib.Path(__file__).resolve().parent.parent / "README.md"


@pytest.fixture(scope="module")
def ns():
    blocks = re.findall(r"```python\n(.*?)```", README.read_text(), re.S)
    assert len(blocks) == 3
    namespace = {}
    for block in blocks:
        exec(compile(block, str(README), "exec"), namespace)
    return namespace


def test_certified_enclosure(ns):
    assert ns["enc"].lower == 0.7942335427590286
    assert ns["enc"].upper == 0.7942335427598742
    assert ns["terms"] == 34
    assert ns["achieved"] is True


def test_closed_form_pair(ns):
    b = ns["b"]
    # (11/14, 5/6), each end rounded outward.
    assert (b.lower, b.upper) == pytest.approx((11 / 14, 5 / 6), rel=1e-15)
    assert Fraction(b.lower) < Fraction(11, 14) and Fraction(5, 6) < Fraction(b.upper)


def test_crossovers(ns):
    rep = ns["rep"]
    assert rep.upper_crossover == pytest.approx(0.8035865, abs=5e-8)
    assert rep.lower_interval == pytest.approx((0.050710, 4.449026), abs=5e-7)


def test_asymptotic(ns):
    # Reads B_0 .. B_64 from the Bernoulli table.
    a = ns["a"]
    assert a.value == 0.009983299758493016
    assert a.terms_used == 32
    assert a.first_omitted_term == pytest.approx(2.09e-28, rel=5e-3)


def test_exact_fraction_approximants(ns):
    assert ns["vals"] == [
        Fraction(1, 3), Fraction(2, 7), Fraction(19, 64),
        Fraction(27, 92), Fraction(449, 1524), Fraction(1627, 5532),
    ]


def test_tail_set_formulas_are_the_cf_docstrings():
    text = README.read_text()
    for n in range(1, 12):
        for rho in (Fraction(k, 3) for k in range(12)):
            at = {"N": n, "rho": rho}
            assert formula("c_N", text, **at) == formula("c_N", **at)
            assert formula("h_N", text, **at) == formula("h_N", **at)
