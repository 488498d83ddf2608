"""Command-line interface: evaluate enclosures, tabulate bounds, compare
independent routes, benchmark, and run the invariant suite.

Subcommands
    eval      certified enclosure of S(r) (plus optional extra methods)
    bounds    classical and fraction-derived bounds side by side
    compare   cross-check the independent routes at each r
    bench     term counts and wall time, direct summation vs fraction
    apery     approximants of the zeta(3) fraction
    selftest  run the built-in invariant checks

Common flags: ``--r`` takes a single value, a comma list, or
``start:stop:count`` (with ``--log`` for geometric spacing); ``--format``
selects table/json/csv; ``--output`` writes to a file instead of stdout.

Exit codes: 0 success; 1 when a result is only partial (an invariant
failed, or a requested tolerance was not certified within the term cap);
2 for configuration errors, in which case nothing is written to --output.

JSON and CSV outputs serialize floats via ``repr``, which round-trips
bit-exactly; a parsed output file reproduces the in-memory rows.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import re
import statistics
import sys
import time
from dataclasses import dataclass, fields
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from . import __version__, bounds, oracles, series
from .cf import iter_convergents

__all__ = [
    "ConfigError",
    "RunConfig",
    "main",
    "run",
    "rows_to_csv",
    "csv_to_rows",
    "payload_to_json",
    "rows_to_table",
]

SCHEMA_VERSION = 1

Row = Dict[str, Any]


class ConfigError(ValueError):
    """Invalid command-line configuration (exit code 2)."""


_METHODS = ("cf", "direct", "trigamma", "integral", "asymptotic")
_FORMATS = ("table", "json", "csv")


@dataclass(frozen=True)
class RunConfig:
    """Everything a subcommand run depends on, echoed into JSON output.

    Construction validates every field, so a bad config raises
    ``ConfigError`` before anything runs, from the CLI and from ``run`` alike.
    """

    command: str
    r_values: Tuple[float, ...] = (1.0,)
    k: int = 2
    l: int = 1
    tol: float = 1e-12
    max_terms: int = 200_000
    methods: Tuple[str, ...] = ("cf", "direct")
    n_terms: int = 60
    k_values: Tuple[int, ...] = (1, 2, 3, 5)
    repeats: int = 5
    force_fail: bool = False
    format: str = "table"
    output: Optional[str] = None

    def __post_init__(self):
        if self.command not in _COMMANDS:
            raise ConfigError(f"unknown command {self.command!r}")
        if not self.r_values:
            raise ConfigError("--r must give at least one value")
        if self.k < 1:
            raise ConfigError(f"--k must be >= 1; got {self.k}")
        if self.l < 1:
            raise ConfigError(f"--l must be >= 1; got {self.l}")
        if not (self.tol > 0):
            raise ConfigError(f"--tol must be > 0; got {self.tol!r}")
        if self.max_terms < 2:
            raise ConfigError(f"--max-terms must be >= 2; got {self.max_terms}")
        if not self.methods:
            raise ConfigError("--methods must name at least one method")
        unknown = set(self.methods) - set(_METHODS)
        if unknown:
            raise ConfigError(f"unknown method(s): {', '.join(sorted(unknown))}")
        if self.n_terms < 1:
            raise ConfigError(f"--n-terms must be >= 1; got {self.n_terms}")
        if not self.k_values or any(k < 1 for k in self.k_values):
            raise ConfigError(f"--k-values must be positive integers; got {self.k_values!r}")
        if self.repeats < 1:
            raise ConfigError(f"--repeats must be >= 1; got {self.repeats}")
        if self.format not in _FORMATS:
            raise ConfigError(f"unknown format {self.format!r}")
        # eval serves r = 0 by direct summation; the fraction routes need r > 0.
        for r in self.r_values:
            if self.command == "eval" and not (r >= 0):
                raise ConfigError(f"eval requires r >= 0; got r={r!r}")
            if self.command in ("bounds", "compare", "bench") and not (r > 0):
                raise ConfigError(f"{self.command} requires r > 0; got r={r!r}")
            if self.command == "bench":
                _direct_terms_for_tol(r, self.tol)


def parse_r_values(text: str, log_spacing: bool) -> Tuple[float, ...]:
    """Parse --r: '2', '0.5,1,2', or 'start:stop:count' (count >= 2)."""

    def one(tok: str) -> float:
        try:
            v = float(tok)
        except ValueError:
            raise ConfigError(f"invalid r value {tok!r}") from None
        if math.isnan(v) or math.isinf(v):
            raise ConfigError(f"r must be finite; got {tok!r}")
        return v

    text = text.strip()
    if ":" in text:
        parts = text.split(":")
        if len(parts) != 3:
            raise ConfigError(f"range must be start:stop:count; got {text!r}")
        start, stop = one(parts[0]), one(parts[1])
        try:
            count = int(parts[2])
        except ValueError:
            raise ConfigError(f"range count must be an integer; got {parts[2]!r}") from None
        if count < 2:
            raise ConfigError(f"range count must be >= 2; got {count}")
        if log_spacing:
            if start <= 0 or stop <= 0:
                raise ConfigError("--log spacing requires positive endpoints")
            lo, hi = math.log(start), math.log(stop)
            return tuple(math.exp(lo + (hi - lo) * i / (count - 1)) for i in range(count))
        return tuple(start + (stop - start) * i / (count - 1) for i in range(count))
    if "," in text:
        return tuple(one(tok) for tok in text.split(",") if tok.strip())
    return (one(text),)


# ---------------------------------------------------------------------------
# subcommands: each returns (rows, exit_code)


def _eval_row(r, method, enc=None, value=None, terms=None, t_ns=None, note=None) -> Row:
    # ``note`` is None or non-empty: an empty CSV cell stands for None.
    lower, upper, width = (None,) * 3 if enc is None else (enc.lower, enc.upper, enc.width)
    return {"r": r, "method": method, "lower": lower, "upper": upper,
            "value": value if enc is None else enc.midpoint, "width": width,
            "terms_used": terms, "time_ns": t_ns, "note": note}


def _route(method: str, r: float, cfg: RunConfig) -> Tuple[Row, Any]:
    """Run one route to S(r) at ``r``: its eval row and the route's own result.

    Each route is called from here alone, looked up on ``series`` or ``oracles``
    at every call, so wrappers installed after import (tracing) see it.
    """
    enc = value = terms = note = None
    start = time.perf_counter_ns()
    if method == "cf":
        result = series.theorem1_to_width(r, cfg.k, cfg.tol, cfg.max_terms)
        enc, terms, achieved = result
        if not achieved:
            note = (f"tolerance not certified: width {enc.width:.3e} "
                    f"at the {cfg.max_terms}-term cap")
    elif method == "direct":
        enc = result = series.mathieu_direct(r, cfg.tol)
    elif method == "trigamma":
        value = result = oracles.mathieu_trigamma(r)
    elif method == "integral":
        tol = max(cfg.tol, 1e-10)
        if tol != cfg.tol:
            note = "tolerance floored at 1e-10"
        value = result = oracles.mathieu_integral(r, tol)
    else:
        result = series.asymptotic(r)
        value, terms = result.value, result.terms_used
        note = f"first omitted term {result.first_omitted_term:.3e}"
    t_ns = time.perf_counter_ns() - start
    return _eval_row(r, method, enc, value, terms, t_ns, note), result


def cmd_eval(cfg: RunConfig) -> Tuple[List[Row], int]:
    rows: List[Row] = []
    exit_code = 0
    for r in cfg.r_values:
        methods = list(cfg.methods)
        if r == 0 and "cf" in methods:
            # The fraction needs r > 0; serve the limit by direct summation.
            methods = [m for m in methods if m != "cf"]
            if "direct" not in methods:
                methods.insert(0, "direct")
            rows.append(_eval_row(r, "cf", note="skipped: fraction requires r > 0; "
                                                "see direct row"))
        for method in methods:
            # A ValueError is a row note; a large-r OverflowError ends the run.
            try:
                row, result = _route(method, r, cfg)
                if method == "cf" and not result[2]:
                    exit_code = 1
            except ValueError as exc:
                row = _eval_row(r, method, note=f"failed: {exc}")
                exit_code = 1
            rows.append(row)
    rows.sort(key=lambda row: (row["r"], row["method"]))
    return rows, exit_code


_BOUND_METHODS = ("makai", "alzer", "mp", "cf", "closed2", "closed3")


def cmd_bounds(cfg: RunConfig) -> Tuple[List[Row], int]:
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
    z3 = oracles.zeta3_reference()
    # One pass over the recurrence: row n is the n-th approximant.
    approximants = iter_convergents(oracles.apery_continued_fraction(), cfg.n_terms)
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


_COMMANDS = {
    "eval": cmd_eval,
    "bounds": cmd_bounds,
    "compare": cmd_compare,
    "bench": cmd_bench,
    "apery": cmd_apery,
    "selftest": cmd_selftest,
}


# ---------------------------------------------------------------------------
# serialization


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
    reader = csv.reader(io.StringIO(text))
    try:
        cols = next(reader)
    except StopIteration:
        return []
    return [{col: _csv_uncell(cell) for col, cell in zip(cols, row)} for row in reader]


def payload_to_json(payload: Dict[str, Any]) -> str:
    return json.dumps(payload, indent=2) + "\n"


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


def render(cfg: RunConfig, rows: List[Row]) -> str:
    if cfg.format == "json":
        payload = {
            "version": {"schema": SCHEMA_VERSION, "package": __version__},
            "config": vars(cfg),
            "rows": rows,
        }
        return payload_to_json(payload)
    if cfg.format == "csv":
        return rows_to_csv(rows)
    return rows_to_table(rows)


# ---------------------------------------------------------------------------
# argument parsing


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mathieucf",
        description="Certified enclosures and bounds for S(r) = sum 2m/(m^2+r^2)^2.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name: str, help: str, takes_r: bool = True) -> argparse.ArgumentParser:
        # Unset flags stay out of the namespace: RunConfig holds the defaults.
        p = sub.add_parser(name, help=help, argument_default=argparse.SUPPRESS)
        if takes_r:
            p.add_argument("--r", help="r value, comma list, or start:stop:count range")
            p.add_argument("--log", action="store_true",
                           help="geometric spacing for start:stop:count ranges")
        p.add_argument("--format", choices=_FORMATS)
        p.add_argument("--output", help="write output to this file instead of stdout")
        return p

    p = add("eval", "certified enclosure of S(r)")
    p.add_argument("--k", type=int, help="series split point (k >= 1)")
    p.add_argument("--tol", type=float, help="target enclosure width")
    p.add_argument("--max-terms", type=int, help="term cap for the adaptive fraction")
    p.add_argument("--methods", help="comma list from cf,direct,trigamma,integral,asymptotic")

    p = add("bounds", "bound methods side by side")
    p.add_argument("--k", type=int, help="split point for the cf bounds column")
    p.add_argument("--l", type=int, help="bracketing pairs for the cf bounds column")

    p = add("compare", "independent routes to S(r)")
    p.add_argument("--k", type=int, help="split point for the fraction route")
    p.add_argument("--tol", type=float, help="per-route tolerance")
    p.add_argument("--max-terms", type=int)
    p.set_defaults(k=3, tol=1e-10)

    p = add("bench", "direct summation vs fraction cost")
    p.add_argument("--tol", type=float)
    p.add_argument("--k-values", help="comma list of split points to benchmark")
    p.add_argument("--repeats", type=int, help="timing repetitions (median reported)")
    p.add_argument("--max-terms", type=int)

    p = add("apery", "approximants of the zeta(3) fraction", takes_r=False)
    p.add_argument("--n-terms", type=int)

    p = add("selftest", "run the built-in invariant checks", takes_r=False)
    p.add_argument("--force-fail", action="store_true", help=argparse.SUPPRESS)

    return parser


def _config_from_args(args: argparse.Namespace) -> RunConfig:
    """Parse the string-valued flags; ``RunConfig`` validates the rest."""
    given = dict(vars(args))
    if "r" in given:
        given["r_values"] = parse_r_values(args.r, given.get("log", False))
    if "methods" in given:
        given["methods"] = tuple(m.strip() for m in args.methods.split(",") if m.strip())
    if "k_values" in given:
        try:
            given["k_values"] = tuple(int(tok) for tok in args.k_values.split(",") if tok.strip())
        except ValueError:
            raise ConfigError(f"invalid --k-values {args.k_values!r}") from None
    names = {field.name for field in fields(RunConfig)}
    return RunConfig(**{name: value for name, value in given.items() if name in names})


def run(cfg: RunConfig) -> Tuple[List[Row], int, str]:
    """Execute a config: returns (rows, exit_code, rendered_output)."""
    rows, exit_code = _COMMANDS[cfg.command](cfg)
    return rows, exit_code, render(cfg, rows)


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        cfg = _config_from_args(args)
        rows, exit_code, text = run(cfg)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if cfg.output:
        try:
            with open(cfg.output, "w") as fp:
                fp.write(text)
        except OSError as exc:
            print(f"error: cannot write {cfg.output!r}: {exc}", file=sys.stderr)
            return 2
    else:
        sys.stdout.write(text)
    return exit_code
