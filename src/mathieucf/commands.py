"""The subcommands other than ``eval`` (bounds, compare, bench, apery,
selftest), the bench config check, and the csv and table writers.

``cli`` imports this module on the first call that needs it: a non-eval
command, a csv or table format, or a bench config.  A ``mathieucf eval
--format json`` process never compiles it.  Traced functions are looked up
on their modules at each call (``series.theorem1_to_width``,
``bounds.cf_bounds``): a name bound when this module loads would keep
whatever wrapper a tracer had swapped in then, after that tracer is gone.
"""

from __future__ import annotations

import io
import math
import re
import time
from typing import Any, Callable, List, Tuple

from . import series
from .cli import _METHODS, ConfigError, Row, RunConfig, _route

__all__ = ["rows_to_csv", "csv_to_rows", "rows_to_table"]

_BOUND_METHODS = ("makai", "alzer", "mp", "cf", "closed2", "closed3")


def cmd_bounds(cfg: RunConfig) -> Tuple[List[Row], int]:
    from . import bounds

    rows: List[Row] = []
    for r in sorted(cfg.r_values):
        s_ref = series.theorem1_to_width(r, 3, 1e-12, cfg.max_terms)[0].midpoint
        results = {
            "makai": bounds.makai_bounds(r),
            "alzer": bounds.alzer_bounds(r),
            "mp": bounds.mp_upper(r),
            "cf": bounds.cf_bounds(r, cfg.k, cfg.l),
            "closed2": bounds.closed_form_bounds(r, 2),
            "closed3": bounds.closed_form_bounds(r, 3),
        }
        row: Row = {"r": r, "s_ref": s_ref}
        for name in _BOUND_METHODS:
            b = results[name]
            row[f"{name}_lower"] = b.lower
            row[f"{name}_upper"] = b.upper
            row[f"{name}_gap_lower"] = None if b.lower is None else s_ref - b.lower
            row[f"{name}_gap_upper"] = None if b.upper is None else b.upper - s_ref
        row["tightest_lower"] = max(
            (name for name in _BOUND_METHODS if results[name].lower is not None),
            key=lambda name: results[name].lower,
        )
        row["tightest_upper"] = min(
            (name for name in _BOUND_METHODS if results[name].upper is not None),
            key=lambda name: results[name].upper,
        )
        rows.append(row)
    return rows, 0


_COMPARE_VALUES = ("cf", "direct", "trigamma", "integral", "spread", "asymptotic",
                   "asymptotic_first_omitted")


def cmd_compare(cfg: RunConfig) -> Tuple[List[Row], int]:
    rows: List[Row] = []
    exit_code = 0
    budget = max(10 * cfg.tol, 2e-9)
    for r in sorted(cfg.r_values):
        row: Row = {"r": r, **dict.fromkeys(_COMPARE_VALUES), "note": None}
        failed = []
        core = []
        for name in _METHODS:
            # One failing route (a refused tolerance, or a large-r overflow)
            # is a note; the routes that succeeded keep their values.
            try:
                route_row, result = _route(name, r, cfg)
            except (ValueError, OverflowError) as exc:
                failed.append(f"{name}: {exc}")
                continue
            row[name] = route_row["value"]
            if name == "asymptotic":
                row["asymptotic_first_omitted"] = result.first_omitted_term
            else:
                core.append(route_row["value"])
        notes = []
        if failed:
            notes.append("failed: " + "; ".join(failed))
        if len(core) >= 2:
            row["spread"] = max(core) - min(core)
            if row["spread"] > budget:
                notes.append(f"routes disagree beyond budget {budget:.1e}")
        if notes:
            row["note"] = "; ".join(notes)
            exit_code = 1
        rows.append(row)
    return rows, exit_code


def _median_seconds(fn: Callable[[], Any], repeats: int) -> Tuple[float, Any]:
    """Median wall time of ``repeats`` calls of ``fn``, and the last call's result."""
    import statistics  # bench alone needs it: kept off the eval path

    times = []
    for _ in range(max(1, repeats)):
        start = time.perf_counter()
        result = fn()
        times.append(time.perf_counter() - start)
    return statistics.median(times), result


def _direct_terms_for_tol(r: float, tol: float) -> int:
    """Smallest M with the one-sided remainder bound 1/(M^2+r^2) <= tol.

    Refuses (``ConfigError``) an M beyond the direct-summation term cap: the
    timed sum would run for hours, and far enough out M*M + r*r stops
    changing in float, so the search below would never end.
    """
    target = 1 / tol - r * r
    if target <= 0:
        return 1
    if math.sqrt(target) > series._DIRECT_TERM_CAP:
        raise ConfigError(
            f"tolerance unachievable by direct summation: tol={tol!r} at r={r!r} "
            f"needs more than {series._DIRECT_TERM_CAP} terms"
        )
    M = max(1, math.isqrt(int(target)))
    while 1 / (M * M + r * r) > tol:
        M += 1
    while M > 1 and 1 / ((M - 1) ** 2 + r * r) <= tol:
        M -= 1
    return M


def cmd_bench(cfg: RunConfig) -> Tuple[List[Row], int]:
    rows: List[Row] = []
    exit_code = 0
    for r in sorted(cfg.r_values):
        M = _direct_terms_for_tol(r, cfg.tol)
        for k in (None, *cfg.k_values):  # None is the direct-sum row
            if k is None:
                method, fn = "direct_sum", lambda: series.mathieu_direct(r, m_terms=M)
            else:
                method = f"cf(k={k})"
                fn = lambda: series.theorem1_to_width(r, k, cfg.tol, cfg.max_terms)
            row: Row = {"r": r, "method": method, "tol": cfg.tol, "terms": None,
                        "median_seconds": None, "terms_ratio": None, "note": None}
            # A route that cannot answer at this r is a row note, as in compare.
            try:
                seconds, result = _median_seconds(fn, cfg.repeats)
            except (ValueError, OverflowError) as exc:
                row["note"] = f"failed: {exc}"
                exit_code = 1
            else:
                terms = M
                if k is not None:
                    enc, terms, achieved = result
                    if not achieved:
                        row["note"] = f"width {enc.width:.3e} at the term cap"
                row.update(terms=terms, median_seconds=seconds, terms_ratio=M / terms)
            rows.append(row)
    rows.sort(key=lambda row: (row["r"], row["method"]))
    return rows, exit_code


def cmd_apery(cfg: RunConfig) -> Tuple[List[Row], int]:
    from .cf import apery_form, iter_convergents
    from .oracles import ZETA3 as z3

    # One pass over the recurrence: row n is the n-th approximant.
    approximants = iter_convergents(apery_form(), cfg.n_terms)
    next(approximants)  # n = 0 is b0 alone
    rows = [
        {
            "n": c.n,
            "value": c.value,
            "abs_error": abs(c.value - z3),
            "side": "above" if c.value > z3 else "below",
        }
        for c in approximants
    ]
    return rows, 0


def cmd_selftest(cfg: RunConfig) -> Tuple[List[Row], int]:
    from .selftest import run_selftest  # only this command loads the suite

    rows = run_selftest(force_fail=cfg.force_fail)
    return rows, 1 if any(row["status"] != "pass" for row in rows) else 0


# ---------------------------------------------------------------------------
# csv and table writers


def _columns(rows: List[Row]) -> List[str]:
    cols: List[str] = []
    for row in rows:
        for key in row:
            if key not in cols:
                cols.append(key)
    return cols


def _csv_cell(value: Any) -> str:
    if value is None:
        return ""
    if isinstance(value, float):
        return repr(value)
    return str(value)


def rows_to_csv(rows: List[Row]) -> str:
    """Serialize rows to CSV; floats via repr, so parsing is bit-exact."""
    import csv  # the csv format alone needs it: kept off the table path

    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    cols = _columns(rows)
    writer.writerow(cols)
    for row in rows:
        writer.writerow([_csv_cell(row.get(col)) for col in cols])
    return buf.getvalue()


_INT_RE = re.compile(r"^-?\d+$")


def _csv_uncell(text: str) -> Any:
    if text == "":
        return None
    if _INT_RE.match(text):
        return int(text)
    try:
        return float(text)
    except ValueError:
        return text


def csv_to_rows(text: str) -> List[Row]:
    """Inverse of ``rows_to_csv`` for the cell types this package emits."""
    import csv

    reader = csv.reader(io.StringIO(text))
    try:
        cols = next(reader)
    except StopIteration:
        return []
    return [{col: _csv_uncell(cell) for col, cell in zip(cols, row)} for row in reader]


def _table_cell(value: Any) -> str:
    if value is None:
        return ""
    if isinstance(value, float):
        return f"{value:.12g}"
    return str(value)


def rows_to_table(rows: List[Row]) -> str:
    """Human-readable aligned columns (floats shortened to 12 digits)."""
    if not rows:
        return "(no rows)\n"
    cols = _columns(rows)
    cells = [[_table_cell(row.get(col)) for col in cols] for row in rows]
    widths = [
        max(len(col), *(len(line[i]) for line in cells)) for i, col in enumerate(cols)
    ]
    lines = ["  ".join(col.ljust(widths[i]) for i, col in enumerate(cols)).rstrip()]
    lines.append("  ".join("-" * w for w in widths))
    for line in cells:
        lines.append("  ".join(cell.ljust(widths[i]) for i, cell in enumerate(line)).rstrip())
    return "\n".join(lines) + "\n"
