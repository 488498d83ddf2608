"""The subcommands other than ``eval`` (bounds, compare, bench and apery),
the bench config check, and the csv and table writers.

``cli`` imports this module inside the functions that need it: ``run`` for
a non-eval command, ``render`` for a csv or table format, and ``RunConfig``
for a bench config.  A ``mathieucf eval --format json`` process never
compiles it, and the ``bounds`` and ``apery`` commands, which read zeta(3)
from ``series``, load no ``oracles``.  Traced functions are looked up on
their modules at each call (``series.theorem1_to_width``,
``bounds.cf_bounds``): a name bound when this module loads would keep
whatever wrapper a tracer had swapped in then, after that tracer is gone.
"""

from __future__ import annotations

import io
import math
import time
from typing import Any, Callable, List, Tuple

from . import series
from .cli import _METHODS, ConfigError, Row, RunConfig, _route, _uncertified

__all__ = ["rows_to_csv", "rows_to_table"]

_BOUND_METHODS = ("makai", "alzer", "mp", "cf", "closed2", "closed3")


def cmd_bounds(cfg: RunConfig) -> Tuple[List[Row], int]:
    from . import bounds

    rows: List[Row] = []
    exit_code = 0
    unanswered = bounds.BoundResult("failed", None, None)
    for r in sorted(cfg.r_values):
        calls = {
            "s_ref": lambda: series.theorem1_to_width(r, 3, 1e-12, cfg.max_terms)[0].midpoint,
            "makai": lambda: bounds.makai_bounds(r),
            "alzer": lambda: bounds.alzer_bounds(r),
            "mp": lambda: bounds.mp_upper(r),
            "cf": lambda: bounds.cf_bounds(r, cfg.k, cfg.l),
            "closed2": lambda: bounds.closed_form_bounds(r, 2),
            "closed3": lambda: bounds.closed_form_bounds(r, 3),
        }
        # A call that cannot answer at this r is a note, as in compare; the
        # others keep their columns.
        results, failed = {}, []
        for name, call in calls.items():
            try:
                results[name] = call()
            except (ValueError, OverflowError) as exc:
                failed.append(f"{name}: {exc}")
        s_ref = results.pop("s_ref", None)
        row: Row = {"r": r, "s_ref": s_ref}
        for name in _BOUND_METHODS:
            b = results.setdefault(name, unanswered)
            row[f"{name}_lower"] = b.lower
            row[f"{name}_upper"] = b.upper
            row[f"{name}_gap_lower"] = None if None in (b.lower, s_ref) else s_ref - b.lower
            row[f"{name}_gap_upper"] = None if None in (b.upper, s_ref) else b.upper - s_ref
        row["tightest_lower"] = max(
            (name for name in _BOUND_METHODS if results[name].lower is not None),
            key=lambda name: results[name].lower, default=None,
        )
        row["tightest_upper"] = min(
            (name for name in _BOUND_METHODS if results[name].upper is not None),
            key=lambda name: results[name].upper, default=None,
        )
        row["note"] = "failed: " + "; ".join(failed) if failed else None
        if failed:
            exit_code = 1
        rows.append(row)
    return rows, exit_code


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
        raise ConfigError(series._unachievable(r, tol))
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
                method, fn = "direct_sum", lambda: series.mathieu_partial_sum(r, M + 1)
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
                        row["note"] = _uncertified(enc.width, terms, cfg.max_terms)
                        exit_code = 1
                row.update(terms=terms, median_seconds=seconds, terms_ratio=M / terms)
            rows.append(row)
    rows.sort(key=lambda row: (row["r"], row["method"]))
    return rows, exit_code


def cmd_apery(cfg: RunConfig) -> Tuple[List[Row], int]:
    from .cf import apery_form, iter_convergents

    # One pass over the recurrence: row n is the n-th approximant.
    approximants = iter_convergents(apery_form(), cfg.n_terms)
    next(approximants)  # n = 0 is b0 alone
    rows = [
        {
            "n": c.n,
            "value": c.value,
            "abs_error": abs(c.value - series.ZETA3),
            "side": "above" if c.value > series.ZETA3 else "below",
        }
        for c in approximants
    ]
    return rows, 0


# ---------------------------------------------------------------------------
# csv and table writers


def _columns(rows: List[Row]) -> List[str]:
    """The first row's keys: every row of a command has the same ones."""
    return list(rows[0]) if rows else []


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
        writer.writerow([_csv_cell(row[col]) for col in cols])
    return buf.getvalue()


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
    cells = [[_table_cell(row[col]) for col in cols] for row in rows]
    widths = [
        max(len(col), *(len(line[i]) for line in cells)) for i, col in enumerate(cols)
    ]
    lines = ["  ".join(col.ljust(widths[i]) for i, col in enumerate(cols)).rstrip()]
    lines.append("  ".join("-" * w for w in widths))
    for line in cells:
        lines.append("  ".join(cell.ljust(widths[i]) for i, cell in enumerate(line)).rstrip())
    return "\n".join(lines) + "\n"
