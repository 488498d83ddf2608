"""Value records (``Enclosure``, ``RunConfig`` and the rest): read-only,
compared and hashed field by field, printed as ``Name(field=value, ...)``,
and rebuilt equal by ``copy`` and ``pickle``.  These are the semantics of a
frozen dataclass with the same fields, kept without importing ``dataclasses``.
"""

import copy
import math
import pickle

import pytest

from mathieucf.bounds import BoundResult, CrossoverReport
from mathieucf.cf import ContinuedFraction, Convergent, EvalReport
from mathieucf.cli import RunConfig
from mathieucf.series import (AsymptoticResult, Enclosure, MathieuCFParams, TailBracket,
                              tail_enclosure)


def unit_terms(n):
    # Module level, so that pickle can find it by name.
    return 1.0, 1.0


CONFIG = dict(command="eval", r_values=(1.0,), k=2, l=1, tol=1e-12, max_terms=200_000,
              methods=("cf", "direct"), n_terms=60, k_values=(1, 2, 3, 5), repeats=5,
              force_fail=False, format="table", output=None)

# (class, every field in order, one field and another valid value for it, repr)
CASES = [
    (ContinuedFraction, dict(b0=0.0, terms=unit_terms), ("b0", 1.0),
     f"ContinuedFraction(b0=0.0, terms={unit_terms!r})"),
    (Convergent, dict(n=3, numerator=2.0, denominator=3.0, value=2 / 3, rescales=0),
     ("rescales", 1),
     "Convergent(n=3, numerator=2.0, denominator=3.0, value=0.6666666666666666, rescales=0)"),
    (EvalReport, dict(value=0.5, terms_used=10, converged=True, last_delta=1e-13),
     ("converged", False),
     "EvalReport(value=0.5, terms_used=10, converged=True, last_delta=1e-13)"),
    (MathieuCFParams, dict(r=1.0, x=2.0), ("x", 3.0), "MathieuCFParams(r=1.0, x=2.0)"),
    (Enclosure, dict(lower=1.0, upper=2.0), ("upper", 3.0), "Enclosure(lower=1.0, upper=2.0)"),
    (TailBracket, dict(enclosure=Enclosure(1.0, 2.0), terms_used=4, achieved=True),
     ("terms_used", 5),
     "TailBracket(enclosure=Enclosure(lower=1.0, upper=2.0), terms_used=4, achieved=True)"),
    (AsymptoticResult, dict(value=0.01, terms_used=3, first_omitted_term=1e-09),
     ("value", 0.02), "AsymptoticResult(value=0.01, terms_used=3, first_omitted_term=1e-09)"),
    (BoundResult, dict(method="mp", lower=None, upper=2.0), ("method", "makai"),
     "BoundResult(method='mp', lower=None, upper=2.0)"),
    (CrossoverReport, dict(upper_crossover=0.8, lower_interval=(0.05, 4.4),
                           alzer_upper_crossover=1.1, bisection_tol=1e-09),
     ("bisection_tol", 1e-08),
     "CrossoverReport(upper_crossover=0.8, lower_interval=(0.05, 4.4), "
     "alzer_upper_crossover=1.1, bisection_tol=1e-09)"),
    (RunConfig, CONFIG, ("k", 3),
     "RunConfig(command='eval', r_values=(1.0,), k=2, l=1, tol=1e-12, max_terms=200000, "
     "methods=('cf', 'direct'), n_terms=60, k_values=(1, 2, 3, 5), repeats=5, "
     "force_fail=False, format='table', output=None)"),
]
IDS = [case[0].__name__ for case in CASES]


@pytest.mark.parametrize("cls, fields, change, text", CASES, ids=IDS)
class TestRecord:
    def test_fields_are_read_only(self, cls, fields, change, text):
        obj = cls(**fields)
        name, value = change
        with pytest.raises(AttributeError):
            setattr(obj, name, value)
        with pytest.raises(AttributeError):
            delattr(obj, name)
        with pytest.raises(AttributeError):
            obj.not_a_field = 1
        assert getattr(obj, name) == fields[name]

    def test_equality_and_hash_go_field_by_field(self, cls, fields, change, text):
        obj = cls(**fields)
        assert obj == cls(**fields)
        assert hash(obj) == hash(cls(**fields)) == hash(tuple(fields.values()))
        name, value = change
        assert obj != cls(**{**fields, name: value})
        assert obj != tuple(fields.values())

    def test_repr_lists_every_field(self, cls, fields, change, text):
        assert repr(cls(**fields)) == text

    def test_copy_and_pickle_rebuild_an_equal_record(self, cls, fields, change, text):
        obj = cls(**fields)
        for clone in (copy.copy(obj), copy.deepcopy(obj), pickle.loads(pickle.dumps(obj))):
            assert type(clone) is cls
            assert clone == obj


def test_runconfig_vars_are_the_fields_in_order():
    # ``vars(cfg)`` is the JSON ``config`` object.
    assert list(vars(RunConfig(command="eval"))) == list(CONFIG)
    assert vars(RunConfig(command="eval")) == CONFIG


@pytest.mark.parametrize("build, message", [
    (lambda: Enclosure(2.0, 1.0), "empty enclosure: lower=2.0 > upper=1.0"),
    (lambda: Enclosure(math.nan, 1.0), "empty enclosure: lower=nan > upper=1.0"),
    (lambda: BoundResult("cf(k=2,l=1)", 2.0, 1.0), "cf(k=2,l=1): lower=2.0 exceeds upper=1.0"),
    (lambda: tail_enclosure(0.0, 2.0, 1e-12), "r must be > 0; got 0.0"),
    (lambda: MathieuCFParams(math.inf, 2.0), "r must be finite; got inf"),
    (lambda: MathieuCFParams(1.0, 0.5), "x must be > 1/2; got 0.5"),
])
def test_validation_messages(build, message):
    with pytest.raises(ValueError) as info:
        build()
    assert str(info.value) == message
