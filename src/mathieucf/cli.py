"""Command-line interface: evaluate enclosures, tabulate bounds, compare
independent routes, benchmark, and list Apery's approximants.

Subcommands
    eval      certified enclosure of S(r) (plus optional extra methods)
    bounds    classical and fraction-derived bounds side by side
    compare   cross-check the independent routes at each r
    bench     term counts and wall time, direct summation vs fraction
    apery     approximants of the zeta(3) fraction

Common flags: ``--r`` takes a single value, a comma list, or
``start:stop:count`` (with ``--log`` for geometric spacing); ``--format``
selects table/json/csv; ``--output`` writes to a file instead of stdout.

Exit codes: 0 success; 1 when a result is only partial (a requested
tolerance was not certified within the term cap, or a route or bound
column failed and left a ``failed:`` row note); 2 for
configuration errors, in which case nothing is written to --output.

JSON and CSV outputs serialize floats via ``repr``, which round-trips
bit-exactly; a parsed output file reproduces the in-memory rows.

JSON is written byte for byte as ``json.dumps(payload, indent=2)`` would,
for the one payload shape the commands write: ``version`` and ``config``
dicts of scalars and flat tuples, then a list of flat dict rows.  CPython's
C encoder (``_json``, which ``json.encoder`` wraps) is called directly: one
encoder per indent depth, built at import, writes all the rows in one call.
Importing ``json`` would also load its decoder, which writing never uses.

This module is the eval path: the config, ``eval`` itself, the JSON writer,
the parser and ``main``.  The other subcommands and the csv and table
writers live in ``commands``, which ``run``, ``render`` and the bench config
check import inside the function, past the json eval path.

Every command and its flags are declared once, in ``_COMMAND_FLAGS``.  ``main``
reads a command followed by exact ``--flag value`` pairs from that table
directly; anything else (help, ``--version``, abbreviations, ``--flag=value``,
a value starting with "-", an unknown flag or a bad value) goes to the
argparse parser built from the same table, which is imported only then and
writes every help and error text.
"""

from __future__ import annotations

import _json  # the C encoder json.encoder wraps, without json's decoder
import math
import sys
import time
from typing import TYPE_CHECKING, Any, Dict, List, Optional, Sequence, Tuple

from . import __version__, series
from .series import DEFAULT_MAX_TERMS, _Record

if TYPE_CHECKING:
    import argparse

__all__ = ["ConfigError", "RunConfig", "main", "run", "payload_to_json"]

SCHEMA_VERSION = 2

Row = Dict[str, Any]


class ConfigError(ValueError):
    """Invalid command-line configuration (exit code 2)."""


_METHODS = ("cf", "direct", "trigamma", "integral", "asymptotic")
_FORMATS = ("table", "json", "csv")


class RunConfig(_Record):
    """Everything a subcommand run depends on, echoed into JSON output.

    Construction validates every field, so a bad config raises
    ``ConfigError`` before anything runs, from the CLI and from ``run`` alike.
    Fields are read-only; a changed copy is ``RunConfig(**{**vars(cfg), ...})``.
    """

    def __init__(
        self,
        command: str,
        *,
        r_values: Tuple[float, ...] = (1.0,),
        k: int = 2,
        l: int = 1,
        tol: float = 1e-12,
        max_terms: int = DEFAULT_MAX_TERMS,
        methods: Tuple[str, ...] = ("cf", "direct"),
        n_terms: int = 60,
        k_values: Tuple[int, ...] = (1, 2, 3, 5),
        repeats: int = 5,
        format: str = "table",
        output: Optional[str] = None,
    ):
        if command not in _COMMAND_FLAGS:
            raise ConfigError(f"unknown command {command!r}")
        if not r_values:
            raise ConfigError("--r must give at least one value")
        if k < 1:
            raise ConfigError(f"--k must be >= 1; got {k}")
        if l < 1:
            raise ConfigError(f"--l must be >= 1; got {l}")
        if not (tol > 0):
            raise ConfigError(f"--tol must be > 0; got {tol!r}")
        if tol == math.inf:
            # JSON has no token for it: the config echo would not be standard JSON.
            raise ConfigError(f"--tol must be finite; got {tol!r}")
        if max_terms < 2:
            raise ConfigError(f"--max-terms must be >= 2; got {max_terms}")
        if not methods:
            raise ConfigError("--methods must name at least one method")
        unknown = set(methods) - set(_METHODS)
        if unknown:
            raise ConfigError(f"unknown method(s): {', '.join(sorted(unknown))}")
        if n_terms < 1:
            raise ConfigError(f"--n-terms must be >= 1; got {n_terms}")
        if not k_values or any(kv < 1 for kv in k_values):
            raise ConfigError(f"--k-values must be positive integers; got {k_values!r}")
        if repeats < 1:
            raise ConfigError(f"--repeats must be >= 1; got {repeats}")
        if format not in _FORMATS:
            raise ConfigError(f"unknown format {format!r}")
        # eval serves r = 0 by direct summation; the fraction routes need r > 0.
        for r in r_values:
            if command == "eval" and not (r >= 0):
                raise ConfigError(f"eval requires r >= 0; got r={r!r}")
            if command in ("bounds", "compare", "bench") and not (r > 0):
                raise ConfigError(f"{command} requires r > 0; got r={r!r}")
            if command == "bench":
                from . import commands

                commands._direct_terms_for_tol(r, tol)
        # Straight into __dict__, in field order: ``vars(cfg)`` is the JSON config.
        vars(self).update(
            command=command, r_values=r_values, k=k, l=l, tol=tol, max_terms=max_terms,
            methods=methods, n_terms=n_terms, k_values=k_values, repeats=repeats,
            format=format, output=output,
        )

    _fields = ("command", *__init__.__kwdefaults__)


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


def _uncertified(width: float, terms: int, max_terms: int) -> str:
    """The note of a fraction row that missed its tolerance: at the term
    cap, or at the rounding floor before it."""
    where = f"at the {max_terms}-term cap" if terms >= max_terms else f"after {terms} terms"
    return f"tolerance not certified: width {width:.3e} {where}"


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
            note = _uncertified(enc.width, terms, cfg.max_terms)
    elif method == "direct":
        enc = result = series.mathieu_direct(r, cfg.tol)
        if enc.width > cfg.tol:
            # The rounding allowance, about 22 eps S(r), can pass a tol that close.
            note = f"tolerance not certified: width {enc.width:.3e} > tol {cfg.tol:.3e}"
    elif method == "trigamma":
        from . import oracles

        value = result = oracles.mathieu_trigamma(r)
    elif method == "integral":
        from . import oracles

        tol = max(cfg.tol, oracles._TOL_FLOOR)
        if tol != cfg.tol:
            note = f"tolerance floored at {oracles._TOL_FLOOR}"
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
                row, _ = _route(method, r, cfg)
                # The cf and direct routes note only a missed tolerance.
                if method in ("cf", "direct") and row["note"]:
                    exit_code = 1
            except ValueError as exc:
                row = _eval_row(r, method, note=f"failed: {exc}")
                exit_code = 1
            rows.append(row)
    rows.sort(key=lambda row: (row["r"], row["method"]))
    return rows, exit_code


# ---------------------------------------------------------------------------
# serialization


def _unserializable(obj: Any):
    raise TypeError(f"Object of type {obj.__class__.__name__} is not JSON serializable")


# The C encoder ``json.dumps`` uses, one for each indent depth the writer
# encodes at (2 and 3), each item separator ending in that depth's indent
# (``JSONEncoder.encode`` builds one per call).  None gets a markers dict: a
# shared one keeps the ids of a call that raised and would report a false
# circular reference on the next.  What they are given holds no non-empty
# container below the row level, so it cannot hold a cycle.
_ENCODERS = {depth: _json.make_encoder(None, _unserializable, _json.encode_basestring_ascii,
                                       None, ": ", ",\n" + "  " * depth, False, False, True)
             for depth in (2, 3)}


def _encode(obj: Any, depth: int) -> str:
    return "".join(_ENCODERS[depth](obj, 0))


def _value(obj: Any, depth: int) -> str:
    """A scalar, or a dict, list or tuple of scalars, at ``depth``: one
    encoder call writes every item on its own indented line."""
    text = _encode(obj, depth + 1)
    if text[0] not in "[{" or len(text) == 2:  # a scalar, {} or []
        return text
    return f"{text[0]}\n{'  ' * (depth + 1)}{text[1:-1]}\n{'  ' * depth}{text[-1]}"


def payload_to_json(payload: Dict[str, Any]) -> str:
    """``json.dumps(payload, indent=2) + "\\n"``, byte for byte, for the
    shape the commands write: a non-empty dict, str keys, whose values are
    scalars, dicts of scalars and flat tuples, or a list of non-empty dict
    rows whose values are scalars, ``{}`` or ``[]``.  ``json`` with
    ``indent`` walks it in pure Python; here the rows take one C encoder
    call, and each other value and tuple one call of its own.
    """
    quote = _json.encode_basestring_ascii
    items = []
    for key, value in payload.items():
        if isinstance(value, list) and value:
            # A raw newline in the rows' text is a separator (ensure_ascii
            # escapes those in strings), and one inside a row precedes a
            # key's quote: "}" + separator + "{" occurs only between rows.
            text = _encode(value, 3).replace("},\n      {", "\n    },\n    {\n      ")
            value = f"[\n    {{\n      {text[2:-2]}\n    }}\n  ]"
        elif isinstance(value, dict) and value:
            value = ",\n    ".join(f"{quote(k)}: {_value(v, 2)}" for k, v in value.items())
            value = f"{{\n    {value}\n  }}"
        else:
            value = _value(value, 1)
        items.append(f"{quote(key)}: {value}")
    return "{\n  " + ",\n  ".join(items) + "\n}\n"


def render(cfg: RunConfig, rows: List[Row]) -> str:
    if cfg.format == "json":
        payload = {
            "version": {"schema": SCHEMA_VERSION, "package": __version__},
            "config": vars(cfg),
            "rows": rows,
        }
        return payload_to_json(payload)
    from . import commands

    if cfg.format == "csv":
        return commands.rows_to_csv(rows)
    return commands.rows_to_table(rows)


# ---------------------------------------------------------------------------
# argument parsing

# Each command's flags in help order, as (flag, kind, help): kind is the
# converter of the value (str, int or float), a tuple of its choices, or bool
# for a switch that takes no value.
_R_FLAGS = (
    ("--r", str, "r value, comma list, or start:stop:count range"),
    ("--log", bool, "geometric spacing for start:stop:count ranges"),
)
_OUTPUT_FLAGS = (
    ("--format", _FORMATS, None),
    ("--output", str, "write output to this file instead of stdout"),
)
# command -> (help, flags, defaults that differ from RunConfig's)
_COMMAND_FLAGS = {
    "eval": ("certified enclosure of S(r)", _R_FLAGS + _OUTPUT_FLAGS + (
        ("--k", int, "series split point (k >= 1)"),
        ("--tol", float, "target enclosure width"),
        ("--max-terms", int, "term cap for the adaptive fraction"),
        ("--methods", str, "comma list from " + ",".join(_METHODS)),
    ), {}),
    "bounds": ("bound methods side by side", _R_FLAGS + _OUTPUT_FLAGS + (
        ("--k", int, "split point for the cf bounds column"),
        ("--l", int, "bracketing pairs for the cf bounds column"),
    ), {}),
    "compare": ("independent routes to S(r)", _R_FLAGS + _OUTPUT_FLAGS + (
        ("--k", int, "split point for the fraction route"),
        ("--tol", float, "per-route tolerance"),
        ("--max-terms", int, None),
    ), {"k": 3, "tol": 1e-10}),
    "bench": ("direct summation vs fraction cost", _R_FLAGS + _OUTPUT_FLAGS + (
        ("--tol", float, None),
        ("--k-values", str, "comma list of split points to benchmark"),
        ("--repeats", int, "timing repetitions (median reported)"),
        ("--max-terms", int, None),
    ), {}),
    "apery": ("approximants of the zeta(3) fraction", _OUTPUT_FLAGS + (
        ("--n-terms", int, None),
    ), {}),
}


def _fast_args(argv: Sequence[str]) -> Optional[Row]:
    """The flags of ``argv`` as ``vars`` of ``_build_parser().parse_args(argv)``
    gives them, for a command followed by exact ``--flag value`` pairs and
    switches alone; None for anything else, which argparse then parses (or
    answers with its help, version or error text).  A value that starts with
    "-" is left to argparse too, which reads some as values and some as flags.
    """
    if not argv or argv[0] not in _COMMAND_FLAGS:
        return None
    _, flags, defaults = _COMMAND_FLAGS[argv[0]]
    kinds = {flag: kind for flag, kind, _ in flags}
    given: Row = {"command": argv[0], **defaults}
    tokens = iter(argv[1:])
    for flag in tokens:
        kind = kinds.get(flag)
        if kind is None:
            return None
        if kind is bool:
            value = True
        else:
            value = next(tokens, "-")  # a missing value, like a flag, is argparse's
            if value.startswith("-"):
                return None
            if isinstance(kind, tuple):
                if value not in kind:
                    return None
            else:
                try:
                    value = kind(value)
                except ValueError:
                    return None
        given[flag[2:].replace("-", "_")] = value
    return given


def _build_parser() -> argparse.ArgumentParser:
    """The full parser, on the same flag table: for what ``_fast_args``
    refuses, and for every help and error text."""
    import argparse

    parser = argparse.ArgumentParser(
        prog="mathieucf",
        description="Certified enclosures and bounds for S(r) = sum 2m/(m^2+r^2)^2.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (help, flags, defaults) in _COMMAND_FLAGS.items():
        # Unset flags stay out of the namespace: RunConfig holds the defaults.
        p = sub.add_parser(name, help=help, argument_default=argparse.SUPPRESS)
        for flag, kind, flag_help in flags:
            if kind is bool:
                p.add_argument(flag, action="store_true", help=flag_help)
            elif isinstance(kind, tuple):
                p.add_argument(flag, choices=kind, help=flag_help)
            else:
                p.add_argument(flag, type=kind, help=flag_help)
        p.set_defaults(**defaults)
    return parser


def _config_from_args(given: Row) -> RunConfig:
    """Parse the string-valued flags; ``RunConfig`` validates the rest."""
    given = dict(given)
    if "r" in given:
        given["r_values"] = parse_r_values(given["r"], given.get("log", False))
    if "methods" in given:
        given["methods"] = tuple(m.strip() for m in given["methods"].split(",") if m.strip())
    if "k_values" in given:
        text = given["k_values"]
        try:
            given["k_values"] = tuple(int(tok) for tok in text.split(",") if tok.strip())
        except ValueError:
            raise ConfigError(f"invalid --k-values {text!r}") from None
    return RunConfig(**{name: value for name, value in given.items()
                        if name in RunConfig._fields})


def run(cfg: RunConfig) -> Tuple[List[Row], int, str]:
    """Execute a config: returns (rows, exit_code, rendered_output)."""
    if cfg.command == "eval":
        rows, exit_code = cmd_eval(cfg)
    else:
        from . import commands

        rows, exit_code = getattr(commands, f"cmd_{cfg.command}")(cfg)
    return rows, exit_code, render(cfg, rows)


def main(argv: Optional[Sequence[str]] = None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    given = _fast_args(argv)
    if given is None:
        given = vars(_build_parser().parse_args(argv))
    try:
        cfg = _config_from_args(given)
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
