"""Correctness oracle and failure rules.

The reference is S(r) = Im psi1(1 - i r) / r from ``mpmath`` at 40 digits,
which shares no code with the package.  An interval passes when it contains
the reference exactly (floats convert to mpmath numbers without rounding).

An operation fails when it raises, when its process exits with a traceback,
when a row is noted ``failed: ...``, when ``compare`` exits 1 because the
routes disagree, or when an emitted interval excludes the reference.  Rows
noted "tolerance not certified" that still contain the reference pass.

Each failure gets a kind.  The timed workloads hold only inputs the package
answers correctly, so any failure there makes the run incorrect.  Three
kinds are defects the package is known to have, and the workloads' defect
censuses (see ``inputs.census``) are expected to show only these:

* ``saturated-miss``: a bracket walked down to float resolution (at most
  4 ulp wide) that misses the value by at most 16 ulp, from the
  saturation swap in the bracket walk.
* ``direct-cap``: the direct route refuses r above ~3.5e7, where its
  monotonicity threshold r/sqrt(3) exceeds its term cap.
* ``overflow``: a traceback ending in ``OverflowError`` at very large r.
"""

from __future__ import annotations

import math
from typing import Dict, List, Optional, Sequence

import mpmath

KNOWN_KINDS = ("saturated-miss", "direct-cap", "overflow")

_DPS = 40


def reference(r: float) -> mpmath.mpf:
    with mpmath.workdps(_DPS):
        x = mpmath.mpf(r)
        return mpmath.im(mpmath.psi(1, mpmath.mpc(1, -x))) / x


def references(pool: Sequence[float]) -> Dict[float, mpmath.mpf]:
    return {r: reference(r) for r in pool}


def interval_kind(lower: Optional[float], upper: Optional[float], ref) -> Optional[str]:
    """None when [lower, upper] contains ``ref``; otherwise the failure kind."""
    if lower is None or upper is None:
        return "missing-interval"
    if mpmath.mpf(lower) <= ref <= mpmath.mpf(upper):
        return None
    ulp = math.ulp(max(abs(lower), abs(upper)))
    miss = float(min(abs(mpmath.mpf(lower) - ref), abs(mpmath.mpf(upper) - ref)))
    if upper - lower <= 4 * ulp and miss <= 16 * ulp:
        return "saturated-miss"
    return "miss"


def _note_kind(note: Optional[str]) -> Optional[str]:
    if note and note.startswith("failed"):
        if "tolerance unachievable by direct summation" in note:
            return "direct-cap"
        return "failed-row"
    return None


def _within(value: Optional[float], ref, budget: float) -> bool:
    return value is not None and abs(mpmath.mpf(value) - ref) <= budget


# Each verifier takes one output record of an operation that did not raise,
# and the reference value, and returns the failure kind or None.


def _sweep(rec: dict, ref) -> Optional[str]:
    return _note_kind(rec["note"]) or interval_kind(rec["lower"], rec["upper"], ref)


def _deep(rec: dict, ref) -> Optional[str]:
    return interval_kind(rec["lower"], rec["upper"], ref)


# ``compare`` holds each route to max(10 tol, 2e-9) of the others at its
# default tol 1e-10; the same budget is applied against the reference.
_COMPARE_BUDGET = 2e-9
_BOUND_METHODS = ("makai", "alzer", "mp", "cf", "closed2", "closed3")


def _crosscheck(rec: dict, ref) -> Optional[str]:
    compare, bounds = rec["compare"], rec["bounds"]
    if rec["compare_exit"] != 0 or compare.get("note"):
        return "routes-disagree"
    if not all(_within(compare[k], ref, _COMPARE_BUDGET)
               for k in ("cf", "direct", "trigamma", "integral")):
        return "route-off-reference"
    if rec["bounds_exit"] != 0 or not _within(bounds["s_ref"], ref, 1e-12):
        return "bounds-reference"
    for name in _BOUND_METHODS:
        lo, hi = bounds[f"{name}_lower"], bounds[f"{name}_upper"]
        if (lo is not None and mpmath.mpf(lo) > ref) or (hi is not None and mpmath.mpf(hi) < ref):
            return "bound-excludes"
    return None


def _cold_eval(rec: dict, ref) -> Optional[str]:
    for method, lower, upper, note in rec["rows"]:
        kind = _note_kind(note) or interval_kind(lower, upper, ref)
        if kind:
            return kind
    if not rec["rows"]:
        return "no-rows"
    return None


VERIFIERS = {"sweep": _sweep, "deep": _deep, "crosscheck": _crosscheck, "cold-eval": _cold_eval}


def verify(workload: str, records: List[list], refs: Dict[float, object]) -> Dict[str, int]:
    """Count failed operations by kind.  ``records`` holds ``[record, times]``
    pairs, one per distinct output, ``times`` being how many operations gave it."""
    kinds: Dict[str, int] = {}
    check = VERIFIERS[workload]
    for rec, times in records:
        error = rec.get("error")
        if error:
            kind = "overflow" if error.startswith("OverflowError") else "raised"
        else:
            kind = check(rec, refs[rec["r"]])
        if kind:
            kinds[kind] = kinds.get(kind, 0) + times
    return kinds
