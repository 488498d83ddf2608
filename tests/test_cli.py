"""Command-line layer tests: argument parsing, per-command row shapes and
exit codes, serialization round-trips, and file-output behavior.

Exit-code contract: 0 success, 1 partial results,
2 configuration error (in which case nothing is written to --output).
"""

import json
import pathlib
import re
import shlex
import textwrap

import mpmath
import numpy
import pytest
from conftest import S_AT_1, ZETA3, csv_to_rows, fresh_python, mpmath_s
from hypothesis import given, settings
from hypothesis import strategies as st
from test_golden import CASES as GOLDEN_CASES

from mathieucf import __version__, oracles, series
from mathieucf.cli import (
    SCHEMA_VERSION,
    ConfigError,
    RunConfig,
    main,
    parse_r_values,
    payload_to_json,
    run,
)
from mathieucf.cli import (_COMMAND_FLAGS, _METHODS, _build_parser, _config_from_args,
                           _fast_args)
from mathieucf.commands import _direct_terms_for_tol, rows_to_csv, rows_to_table


def _reject_constant(name):
    raise ValueError(f"non-standard JSON constant {name}")


def strict_json(text):
    """Parse JSON, refusing the bare NaN / Infinity tokens RFC 8259 lacks."""
    return json.loads(text, parse_constant=_reject_constant)


class TestParseRValues:
    def test_single(self):
        assert parse_r_values("2", False) == (2.0,)

    def test_comma_list(self):
        assert parse_r_values("0.5,1,2", False) == (0.5, 1.0, 2.0)
        assert parse_r_values("1,,2", False) == (1.0, 2.0)  # empties skipped

    def test_linear_range(self):
        assert parse_r_values("1:3:3", False) == (1.0, 2.0, 3.0)

    def test_log_range(self):
        got = parse_r_values("0.1:10:3", True)
        assert got == pytest.approx((0.1, 1.0, 10.0), rel=1e-12)

    @pytest.mark.parametrize(
        "text,log",
        [
            ("abc", False),
            ("", False),
            ("nan", False),
            ("inf", False),
            ("1:3", False),
            ("1:3:1", False),
            ("1:3:2.5", False),
            ("-1:1:3", True),
        ],
    )
    def test_rejects(self, text, log):
        with pytest.raises(ConfigError):
            parse_r_values(text, log)


class TestRunConfigValidation:
    @pytest.mark.parametrize(
        "fields",
        [
            {"command": "nope"},
            {"command": "eval", "k": 0},
            {"command": "bounds", "l": 0},
            {"command": "compare", "tol": 0.0},
            {"command": "eval", "tol": float("nan")},
            {"command": "eval", "max_terms": 1},
            {"command": "eval", "methods": ()},
            {"command": "eval", "methods": ("cf", "bogus")},
            {"command": "eval", "r_values": (-1.0,)},
            {"command": "bounds", "r_values": (0.0,)},
            {"command": "compare", "r_values": (1.0, -2.0)},
            {"command": "bench", "r_values": (0.0,)},
            {"command": "bench", "k_values": (0,)},
            {"command": "bench", "k_values": ()},
            {"command": "bench", "repeats": 0},
            {"command": "bench", "tol": 1e-300},
            {"command": "apery", "n_terms": 0},
            {"command": "eval", "r_values": ()},
            {"command": "eval", "format": "xml"},
            {"command": "eval", "tol": float("inf")},
            {"command": "bench", "tol": float("inf")},
        ],
    )
    def test_invalid_field_raises_on_construction(self, fields):
        with pytest.raises(ConfigError):
            RunConfig(**fields)


class TestEvalCommand:
    def test_enclosure_row(self):
        rows, code, _ = run(RunConfig(command="eval", r_values=(1.0,)))
        assert code == 0
        cf = next(r for r in rows if r["method"] == "cf")
        assert cf["lower"] <= S_AT_1 <= cf["upper"]
        assert cf["width"] <= 1e-12
        assert cf["note"] is None
        direct = next(r for r in rows if r["method"] == "direct")
        assert direct["lower"] <= S_AT_1 <= direct["upper"]

    def test_r_zero_falls_back_to_direct(self):
        rows, code, _ = run(RunConfig(command="eval", r_values=(0.0,), k=1))
        assert code == 0
        assert [r["method"] for r in rows] == ["cf", "direct"]
        assert "skipped" in rows[0]["note"]
        assert abs(rows[0 + 1]["value"] - 2 * ZETA3) < 1e-10
        # With cf the only method asked for, the direct row is added.
        rows, code, _ = run(RunConfig(command="eval", r_values=(0.0,), methods=("cf",)))
        assert code == 0
        assert [r["method"] for r in rows] == ["cf", "direct"]
        assert abs(rows[1]["value"] - 2 * ZETA3) < 1e-10

    def test_uncertified_width_exits_1(self):
        rows, code, _ = run(
            RunConfig(command="eval", r_values=(1.0,), tol=1e-13, max_terms=50)
        )
        assert code == 1
        cf = next(r for r in rows if r["method"] == "cf")
        assert "not certified" in cf["note"]
        assert cf["lower"] <= S_AT_1 <= cf["upper"]  # still a true enclosure

    @pytest.mark.parametrize("r,methods,width,terms", [
        ("1", "cf", "1.887e-15", 298),
        ("1e-200", "cf,direct", "6.217e-15", 204),
    ])
    def test_rounding_floor_note_names_the_terms(self, capsys, r, methods, width, terms):
        # The walk stops at its rounding floor long before the 200000-term
        # cap, and the note says where it stopped instead of naming the cap.
        argv = ["eval", "--r", r, "--k", "1", "--tol", "1e-300", "--methods", methods]
        assert main([*argv, "--format", "json"]) == 1
        cf = strict_json(capsys.readouterr().out)["rows"][0]
        assert cf["method"] == "cf" and cf["terms_used"] == terms
        assert cf["note"] == f"tolerance not certified: width {width} after {terms} terms"

    def test_direct_row_missing_tol_exits_1(self, capsys):
        # A tol of two ulp of S(0) = 2 zeta(3), under the rounding allowance
        # (about 22 eps S): the certified direct bracket is 12 ulp wide.
        assert main(["eval", "--r", "0", "--tol", "8.79e-16", "--format", "json"]) == 1
        skipped, direct = strict_json(capsys.readouterr().out)["rows"]
        assert skipped["note"].startswith("skipped")
        assert direct["width"] == 5.329070518200751e-15
        assert direct["note"] == "tolerance not certified: width 5.329e-15 > tol 8.790e-16"
        assert direct["lower"] <= 2 * ZETA3 <= direct["upper"]
        # At a reachable tol the same row carries no note and exits 0.
        assert main(["eval", "--r", "0", "--tol", "1e-12", "--format", "json"]) == 0
        assert strict_json(capsys.readouterr().out)["rows"][1]["note"] is None

    def test_unknown_method_is_config_error(self):
        with pytest.raises(ConfigError, match="unknown method"):
            run(RunConfig(command="eval", r_values=(1.0,), methods=("bogus",)))

    def test_oracle_methods_agree(self):
        rows, code, _ = run(
            RunConfig(
                command="eval",
                r_values=(1.0,),
                methods=("trigamma", "integral", "asymptotic"),
            )
        )
        assert code == 0
        by = {r["method"]: r for r in rows}
        assert by["trigamma"]["value"] == pytest.approx(S_AT_1, abs=1e-12)
        assert by["integral"]["value"] == pytest.approx(S_AT_1, abs=1e-9)
        # asymptotic at r=1 is informational; its note carries the health signal
        assert "first omitted" in by["asymptotic"]["note"]


class TestBoundsCommand:
    def test_tightest_labels_consistent(self):
        rows, code, _ = run(RunConfig(command="bounds", r_values=(0.5, 1.0, 20.0)))
        assert code == 0
        methods = ("makai", "alzer", "mp", "cf", "closed2", "closed3")
        for row in rows:
            lowers = {m: row[f"{m}_lower"] for m in methods if row[f"{m}_lower"] is not None}
            uppers = {m: row[f"{m}_upper"] for m in methods if row[f"{m}_upper"] is not None}
            assert row["tightest_lower"] == max(lowers, key=lowers.get)
            assert row["tightest_upper"] == min(uppers, key=uppers.get)
            assert lowers[row["tightest_lower"]] <= row["s_ref"] <= uppers[row["tightest_upper"]]
            assert row["note"] is None


class TestCompareCommand:
    def test_routes_agree(self):
        rows, code, _ = run(RunConfig(command="compare", r_values=(1.0,), k=3, tol=1e-10))
        assert code == 0
        assert rows[0]["spread"] <= 2e-9
        assert rows[0]["note"] is None
        # A fraction route cut off after 2 terms misses the budget.
        rows, code, _ = run(RunConfig(command="compare", r_values=(0.1,), k=1, max_terms=2))
        assert code == 1
        assert rows[0]["note"] == "routes disagree beyond budget 2.0e-09"
        assert rows[0]["spread"] > 2e-9


class TestRoutes:
    """eval and compare reach S(r) through the same five route calls."""

    @pytest.mark.parametrize("r", [0.25, 1.0, 3.0, 20.0])
    def test_compare_columns_equal_eval_values(self, r):
        cfg = RunConfig(command="compare", r_values=(r,), k=3, tol=1e-10)
        (row,), code, _ = run(cfg)
        assert code == 0
        evals, code, _ = run(RunConfig(**{**vars(cfg), "command": "eval", "methods": _METHODS}))
        assert code == 0
        assert [e["method"] for e in evals] == sorted(_METHODS)
        for e in evals:
            assert float.hex(row[e["method"]]) == float.hex(e["value"])

    def test_routes_are_looked_up_at_call_time(self, monkeypatch):
        # Tracing swaps these module attributes after import; a route bound
        # at import time would escape it.
        routes = [(series, "theorem1_to_width"), (series, "mathieu_direct"),
                  (oracles, "mathieu_trigamma"), (oracles, "mathieu_integral"),
                  (series, "asymptotic")]
        calls = {}
        for module, name in routes:
            def counted(*args, _fn=getattr(module, name), _name=name, **kwargs):
                calls[_name] = calls.get(_name, 0) + 1
                return _fn(*args, **kwargs)

            monkeypatch.setattr(module, name, counted)
        for cfg in (RunConfig(command="eval", methods=_METHODS),
                    RunConfig(command="compare", k=3, tol=1e-10)):
            calls.clear()
            assert run(cfg)[1] == 0
            assert calls == {name: 1 for _, name in routes}


class TestBenchCommand:
    def test_row_shape_and_ratio(self):
        rows, code, _ = run(
            RunConfig(command="bench", r_values=(1.0,), repeats=1, k_values=(3,))
        )
        assert code == 0
        by = {r["method"]: r for r in rows}
        assert by["direct_sum"]["terms"] == 1_000_000
        assert by["cf(k=3)"]["terms"] <= 60
        assert by["cf(k=3)"]["terms_ratio"] > 100
        assert by["direct_sum"]["median_seconds"] > 0

    def test_term_cap_row_exits_1(self, capsys):
        # A cf row that stops at the term cap is not certified to tol: exit
        # 1, as eval gives at the same cap.
        argv = ["--r", "1", "--tol", "1e-12", "--max-terms", "4", "--format", "json"]
        assert main(["bench", *argv, "--k-values", "1", "--repeats", "1"]) == 1
        cf, direct = strict_json(capsys.readouterr().out)["rows"]
        assert cf["method"] == "cf(k=1)"
        assert cf["note"] == "tolerance not certified: width 1.250e-01 at the 4-term cap"
        assert direct["note"] is None
        assert main(["eval", *argv, "--k", "1", "--methods", "cf"]) == 1
        (row,) = strict_json(capsys.readouterr().out)["rows"]
        assert row["note"] == cf["note"]

    def test_rounding_floor_row_names_the_terms(self, capsys):
        # The k = 1 walk stops at its rounding floor after 148 terms, far
        # below the cap: the note says so, and the row still exits 1.
        argv = ["--r", "0.05", "--k-values", "1", "--tol", "3e-15", "--repeats", "1"]
        assert main(["bench", *argv, "--format", "json"]) == 1
        cf, direct = strict_json(capsys.readouterr().out)["rows"]
        assert cf["method"] == "cf(k=1)" and cf["terms"] == 148
        assert cf["note"] == "tolerance not certified: width 6.661e-15 after 148 terms"
        assert direct["note"] is None

    def test_direct_term_rule(self):
        assert _direct_terms_for_tol(1.0, 1e-12) == 1_000_000
        assert _direct_terms_for_tol(3.0, 0.2) == 1  # bound already met at M=1


class TestAperyCommand:
    def test_rows(self):
        rows, code, _ = run(RunConfig(command="apery", n_terms=2))
        assert code == 0
        assert [r["n"] for r in rows] == [1, 2]
        assert rows[0]["value"] == 1.25 and rows[0]["side"] == "above"
        assert rows[1]["value"] == 1.2 and rows[1]["side"] == "below"
        assert rows[1]["abs_error"] < 0.01

    def test_validation(self):
        with pytest.raises(ConfigError):
            run(RunConfig(command="apery", n_terms=0))


class TestSelftestCommand:
    """The command is retired: its invariants are tests of their own modules."""

    def test_no_hidden_failure_flag(self, capsys):
        with pytest.raises(SystemExit) as info:
            main(["selftest"])
        assert info.value.code == 2
        out = capsys.readouterr()
        assert "invalid choice: 'selftest'" in out.err
        assert out.out == ""
        with pytest.raises(ConfigError, match="^unknown command 'selftest'$"):
            RunConfig(command="selftest")


class TestSerialization:
    def rows(self):
        rows, _, _ = run(
            RunConfig(command="eval", r_values=(0.5, 1.0), methods=("cf", "trigamma"))
        )
        return rows

    def test_csv_round_trip_exact(self):
        rows = self.rows()
        assert csv_to_rows(rows_to_csv(rows)) == rows

    def test_csv_round_trip_bench_rows(self):
        rows, _, _ = run(
            RunConfig(command="bench", r_values=(1.0,), repeats=1, k_values=(2,), tol=1e-8)
        )
        assert csv_to_rows(rows_to_csv(rows)) == rows

    def test_csv_empty(self):
        assert csv_to_rows("") == []

    def test_table_shape(self):
        rows = self.rows()
        lines = rows_to_table(rows).splitlines()
        assert len(lines) == len(rows) + 2  # header + rule
        assert "method" in lines[0]
        assert rows_to_table([]) == "(no rows)\n"


_FLOATS = st.floats() | st.sampled_from(
    [0.0, -0.0, 5e-324, 1.7976931348623157e308, float("inf"), float("-inf"), float("nan")]
)
_KEYS = st.text(max_size=6) | st.sampled_from(['"', "\\", "\x00\n\t\x1f", "\u00e9", "\U0001d11e"])
# Text that would fool a row writer which read the encoder's output without
# knowing that every newline inside a string is escaped.
_ROW_TEXT = _KEYS | st.sampled_from(["}", "{", '"},\n      {"', "\n", '},\n    {', "}]"])
_ROW_VALUES = (st.none() | st.booleans() | st.integers(-2**80, 2**80) | _FLOATS
               | _FLOATS.map(numpy.float64) | _ROW_TEXT | st.sampled_from([{}, [], ()]))
_FLAT_ROWS = st.dictionaries(_ROW_TEXT, _ROW_VALUES, min_size=1, max_size=5)


# Configs whose rows carry a note: a failed bound column, failed routes, and
# a tolerance missed at the term cap.
_NOTE_CASES = {
    "bounds-r-overflow": ["bounds", "--r", "1e160"],
    "compare-r-overflow": ["compare", "--r", "1e300"],
    "eval-term-cap": ["eval", "--r", "1", "--k", "1", "--max-terms", "2"],
}


class TestJsonWriter:
    """``payload_to_json`` writes exactly what ``json.dumps(indent=2)`` does."""

    @settings(derandomize=True, max_examples=300, deadline=None)
    @given(rows=st.lists(_FLAT_ROWS, max_size=5))
    def test_rows_match_json_dumps(self, rows):
        # The shape ``render`` writes, then a shorter one in another order.
        for payload in ({"version": {"schema": SCHEMA_VERSION, "package": __version__},
                         "config": vars(RunConfig(command="eval")), "rows": rows},
                        {"config": {"tol": 1e-12}, "rows": rows, "version": 1}):
            assert payload_to_json(payload) == json.dumps(payload, indent=2) + "\n"

    def test_failed_call_leaves_the_writer_usable(self):
        rows = [{"a": 1.5}, {"b": object()}]
        with pytest.raises(TypeError) as want:
            json.dumps({"rows": rows}, indent=2)
        with pytest.raises(TypeError, match=f"^{want.value}$"):
            payload_to_json({"rows": rows})
        # An encoder that kept the ids of that call would call this circular.
        rows.pop()
        assert payload_to_json({"rows": rows}) == json.dumps({"rows": rows}, indent=2) + "\n"

    @pytest.mark.parametrize("name", sorted(GOLDEN_CASES) + sorted(_NOTE_CASES))
    def test_golden_configs_match_json_dumps(self, name):
        argv = _NOTE_CASES[name] if name in _NOTE_CASES else GOLDEN_CASES[name][0]
        cfg = _config_from_args(vars(_build_parser().parse_args(argv + ["--format", "json"])))
        rows, _, text = run(cfg)
        payload = {"version": {"schema": SCHEMA_VERSION, "package": __version__},
                   "config": vars(cfg), "rows": rows}
        assert text == json.dumps(payload, indent=2) + "\n"


class TestMain:
    def test_stdout_json_payload(self, capsys):
        assert main(["eval", "--r", "1", "--format", "json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["version"]["schema"] == 2
        assert payload["config"]["command"] == "eval"
        cf = next(r for r in payload["rows"] if r["method"] == "cf")
        assert cf["lower"] <= S_AT_1 <= cf["upper"]

    def test_output_file_replaces_stdout(self, tmp_path, capsys):
        out = tmp_path / "rows.csv"
        assert main(["eval", "--r", "1", "--format", "csv", "--output", str(out)]) == 0
        assert capsys.readouterr().out == ""
        parsed = csv_to_rows(out.read_text())
        assert {r["method"] for r in parsed} == {"cf", "direct"}

    CONFIG_ERRORS = [
        ["eval", "--r", "abc"],
        ["eval", "--r", "-1"],
        ["eval", "--tol", "0"],
        ["eval", "--max-terms", "1"],
        ["eval", "--methods", "bogus"],
        ["bounds", "--r", "0"],
        ["bench", "--k-values", "0"],
        ["bench", "--repeats", "0"],
        ["apery", "--n-terms", "0"],
        ["bench", "--tol", "1e-300"],
        ["eval", "--r", ","],
        ["bench", "--k-values", "abc"],
        ["eval", "--r", "1", "--tol", "inf", "--format", "json"],
        ["eval", "--r", "1", "--tol", "1e400", "--format", "json"],
        ["bench", "--r", "1", "--tol", "inf", "--repeats", "1", "--format", "json"],
    ]

    @pytest.mark.parametrize("argv", CONFIG_ERRORS)
    def test_config_errors_exit_2(self, argv, capsys):
        assert main(argv) == 2
        assert capsys.readouterr().err.startswith("error:")

    def test_config_error_writes_nothing(self, tmp_path, capsys):
        out = tmp_path / "never.json"
        assert main(["eval", "--r", "abc", "--output", str(out)]) == 2
        assert not out.exists()
        capsys.readouterr()

    def test_unwritable_output_exits_2(self, tmp_path, capsys):
        assert main(["eval", "--r", "1", "--output", str(tmp_path)]) == 2
        assert "cannot write" in capsys.readouterr().err

    def test_partial_result_exit_code(self, capsys):
        code = main(["eval", "--r", "1", "--tol", "1e-13", "--max-terms", "50"])
        capsys.readouterr()
        assert code == 1
        # A route that raises is a failed row note.
        assert main(["eval", "--r", "1e8", "--methods", "direct", "--format", "json"]) == 1
        (row,) = json.loads(capsys.readouterr().out)["rows"]
        assert row["note"].startswith("failed: tolerance unachievable")
        assert row["lower"] is row["upper"] is None
        # r^2 underflows to 0 at r = 1e-170 and is subnormal at 1e-157: the
        # k = 1 walk cannot start there, or its odd end overflows to inf, and
        # the tail interval answers.
        for r in ("1e-170", "1e-157"):
            assert main(["eval", "--r", r, "--k", "1", "--format", "json"]) == 0
            out = capsys.readouterr()
            assert "Traceback" not in out.err
            cf, direct = strict_json(out.out)["rows"]
            assert cf["method"] == "cf" and cf["note"] is None
            assert 0 < cf["width"] <= 1e-12
            assert mpmath.mpf(cf["lower"]) <= mpmath_s(float(r)) <= mpmath.mpf(cf["upper"])
            assert direct["value"] == pytest.approx(2 * ZETA3, abs=1e-10)
        # (2/tol)^(1/3) is inf at this tol: the direct row fails, and the cf
        # row saturates short of the width.
        assert main(["eval", "--r", "1", "--tol", "1e-320", "--format", "json"]) == 1
        cf, direct = strict_json(capsys.readouterr().out)["rows"]
        assert cf["note"].startswith("tolerance not certified")
        assert direct["note"].startswith("failed: tolerance unachievable by direct summation")
        # The oracle routes refuse a subnormal r, and the integral's
        # integrand stays finite where its truncation point passes 709.78.
        assert main(["eval", "--r", "5e-324", "--methods", "trigamma,integral",
                     "--format", "json"]) == 1
        for row in strict_json(capsys.readouterr().out)["rows"]:
            assert row["note"] == "failed: r must be a normal float > 0; got 5e-324"
        assert main(["eval", "--r", "1e-300", "--methods", "trigamma,integral",
                     "--format", "json"]) == 0
        for row in strict_json(capsys.readouterr().out)["rows"]:
            assert row["value"] == pytest.approx(2 * ZETA3, abs=1e-14)
        # B_0/r^2 overflows float64: the large-r expansion refuses this r.
        assert main(["eval", "--r", "1e-200", "--methods", "asymptotic",
                     "--format", "json"]) == 1
        out = capsys.readouterr()
        assert "Traceback" not in out.err
        (row,) = strict_json(out.out)["rows"]
        assert row["note"].startswith("failed: asymptotic term")
        assert "overflows float64 at r=1e-200" in row["note"]
        # A route that refuses the tolerance at this r is a row note, not a
        # traceback, and the routes that succeeded keep their values.
        assert main(["compare", "--r", "1e8", "--format", "json"]) == 1
        (row,) = json.loads(capsys.readouterr().out)["rows"]
        assert row["note"].startswith("failed: direct: tolerance unachievable")
        assert row["direct"] is None
        for name in ("cf", "trigamma", "integral"):
            assert row[name] == pytest.approx(1e-16, rel=1e-9)
        assert row["spread"] == max(row["cf"], row["trigamma"], row["integral"]) - min(
            row["cf"], row["trigamma"], row["integral"]
        )
        # bounds where r^2 overflows: every column fails with a note, and
        # no column or gap is left.
        methods = ("makai", "alzer", "mp", "cf", "closed2", "closed3")
        for r in ("1e200", "1e160"):
            assert main(["bounds", "--r", r, "--format", "json"]) == 1
            out = capsys.readouterr()
            assert "Traceback" not in out.err
            (row,) = strict_json(out.out)["rows"]
            assert row["note"].startswith("failed: s_ref: ")
            assert "; cf: " in row["note"]
            overflow = f"r^2 overflows float64 at r={float(r)!r}"
            for name in ("makai", "alzer", "closed2", "closed3"):
                assert f"; {name}: {overflow}" in row["note"]
            assert f"; mp: 4{overflow}" in row["note"]
            assert row["s_ref"] is None
            assert all(row[f"{m}_{side}"] is None for m in methods
                       for side in ("lower", "upper", "gap_lower", "gap_upper"))
            assert row["tightest_lower"] is row["tightest_upper"] is None
        # At r = 1e100 the closed forms' (1 + r^2)^2 overflows too, and each
        # failed column's note names the quantity and r.
        assert main(["bounds", "--r", "1e100", "--format", "json"]) == 1
        (row,) = strict_json(capsys.readouterr().out)["rows"]
        overflow = "(m^2 + r^2)^2 overflows float64 at r=1e+100"
        assert row["note"] == "failed: " + "; ".join(
            f"{name}: {overflow}" for name in ("s_ref", "cf", "closed2", "closed3"))
        # r^2 underflows at r = 1e-170: the k = 1 cf column fails, the
        # reference (k = 3) and the other columns answer.
        assert main(["bounds", "--r", "1e-170", "--k", "1", "--format", "json"]) == 1
        out = capsys.readouterr()
        assert "Traceback" not in out.err
        (row,) = strict_json(out.out)["rows"]
        assert row["note"].startswith("failed: cf: ")
        assert row["cf_lower"] is row["cf_upper"] is row["cf_gap_lower"] is None
        assert row["s_ref"] == pytest.approx(2 * ZETA3, abs=1e-12)
        assert row["tightest_lower"] != "cf" and row["tightest_upper"] != "cf"
        assert row["closed3_gap_lower"] == row["s_ref"] - row["closed3_lower"]
        # bench at an r whose r^2 is subnormal: the k = 1 row comes from the
        # tail interval.
        assert main(["bench", "--r", "1e-157", "--k-values", "1,3", "--tol", "1e-8",
                     "--repeats", "1", "--format", "json"]) == 0
        out = capsys.readouterr()
        assert "Traceback" not in out.err
        cf1, cf3, direct = strict_json(out.out)["rows"]
        assert cf1["method"] == "cf(k=1)"
        assert cf1["note"] is cf3["note"] is direct["note"] is None
        assert 0 < cf1["terms"] < 10_000 and cf1["terms_ratio"] == direct["terms"] / cf1["terms"]
        assert cf3["terms"] > 0 and cf3["terms_ratio"] == direct["terms"] / cf3["terms"]
        assert direct["terms_ratio"] == 1.0 and direct["median_seconds"] > 0
        # At r = 1e100 both routes overflow, and the notes say what did.
        assert main(["bench", "--r", "1e100", "--k-values", "3", "--tol", "1e-8",
                     "--repeats", "1", "--format", "json"]) == 1
        out = capsys.readouterr()
        assert "Traceback" not in out.err
        for row in strict_json(out.out)["rows"]:
            assert row["note"].startswith("failed: ")
            assert "(34," not in row["note"]
            assert row["terms"] is row["median_seconds"] is row["terms_ratio"] is None
        # At r = 1e160 r^2 is inf, so a 1-term direct sum would be [0, 0].
        assert main(["bench", "--r", "1e160", "--k-values", "3", "--tol", "1e-8",
                     "--repeats", "1", "--format", "json"]) == 1
        out = capsys.readouterr()
        assert "Traceback" not in out.err
        rows = strict_json(out.out)["rows"]
        assert [row["method"] for row in rows] == ["cf(k=3)", "direct_sum"]
        for row in rows:
            assert row["note"].startswith("failed: ")
            assert row["terms"] is row["median_seconds"] is row["terms_ratio"] is None

    @pytest.mark.parametrize("argv", [
        ["eval", "--methods", "cf", "--k", "20000002"],
        ["compare", "--k", "20000002"],
        ["bounds", "--k", "20000002"],
        ["bench", "--k-values", "20000002", "--tol", "1e-4", "--repeats", "1"],
    ], ids=["eval", "compare", "bounds", "bench"])
    def test_head_over_the_term_cap_is_a_failed_note(self, argv, capsys):
        # k - 1 one over the direct-summation term cap: the head is refused
        # before a term is summed.
        assert main([*argv, "--r", "1", "--format", "json"]) == 1
        notes = [row["note"] for row in strict_json(capsys.readouterr().out)["rows"]]
        assert any(note and note.startswith("failed: ") and
                   "head sum at k=20000002 needs more than 20000000 terms" in note
                   for note in notes), notes

    @pytest.mark.parametrize("k", [10**200, 10**400], ids=["z-overflows", "k-past-float"])
    @pytest.mark.parametrize("argv", [
        ["eval", "--methods", "cf", "--k"],
        ["compare", "--k"],
        ["bounds", "--k"],
        ["bench", "--tol", "1e-4", "--repeats", "1", "--k-values"],
    ], ids=["eval", "compare", "bounds", "bench"])
    def test_k_too_large_for_a_float_is_a_failed_note(self, argv, k, capsys):
        # Once a traceback: float(k) raised, or z = k^2 - k overflowed the walk.
        assert main([*argv, str(k), "--r", "1", "--format", "json"]) == 1
        notes = [row["note"] for row in strict_json(capsys.readouterr().out)["rows"]]
        assert any(note and note.startswith("failed: ") and
                   f"head sum at k={k} needs more than 20000000 terms" in note
                   for note in notes), notes

    @pytest.mark.parametrize("r", ["1e154", "1e160", "1e300"])
    def test_no_upper_bound_is_zero_at_large_r(self, r, capsys):
        # S(r) > 0 at every r, so an upper column of 0.0 would sit below it:
        # where r^2 or 4r^2 overflows, the column fails with a note instead.
        assert main(["bounds", "--r", r, "--format", "json"]) == 1
        (row,) = strict_json(capsys.readouterr().out)["rows"]
        uppers = [row[f"{m}_upper"] for m in ("makai", "alzer", "mp", "cf", "closed2", "closed3")]
        assert all(upper is None or upper > 0 for upper in uppers), uppers

    def test_trigamma_at_the_largest_float(self, capsys):
        # S(r) < 2^-1075 there: both oracle rows give the rounded 0.0.
        argv = ["eval", "--r", "1.7976931348623157e308", "--methods", "trigamma,integral"]
        assert main([*argv, "--format", "json"]) == 0
        rows = strict_json(capsys.readouterr().out)["rows"]
        assert {row["method"]: row["value"] for row in rows} == {"trigamma": 0.0, "integral": 0.0}

    def test_compare_overflow_is_a_row_note(self, capsys):
        # At r = 1e100 the cf head sum overflows and the direct route refuses;
        # trigamma and the integral answer, and the spread is theirs.
        assert main(["compare", "--r", "1e100", "--format", "json"]) == 1
        (row,) = json.loads(capsys.readouterr().out)["rows"]
        assert row["note"].startswith("failed: cf: ")
        assert "; direct: " in row["note"] and "integral" not in row["note"]
        assert row["cf"] is row["direct"] is None
        assert row["trigamma"] == pytest.approx(1e-200, rel=1e-9)
        assert row["integral"] == pytest.approx(1e-200, rel=1e-13)
        assert row["spread"] == abs(row["trigamma"] - row["integral"])

    def test_unset_flags_take_runconfig_defaults(self):
        # compare's k and tol are the only parser-level defaults.
        for command in _COMMAND_FLAGS:
            want = RunConfig(command=command)
            if command == "compare":
                want = RunConfig(**{**vars(want), "k": 3, "tol": 1e-10})
            assert _config_from_args(vars(_build_parser().parse_args([command]))) == want
            assert _config_from_args(_fast_args([command])) == want

    # Modules a json eval never runs: the library beyond series (the cf
    # theory layer included, and the asymptotic route in oracles), the other
    # commands and output formats, dataclasses/fractions with what they
    # import, and argparse with its gettext and locale: the flag table reads
    # a plain argv without it.
    EVAL_UNUSED = ("mathieucf.selftest", "mathieucf.bounds", "mathieucf.oracles",
                   "mathieucf.cf", "mathieucf.commands", "mathieucf.tail_interval",
                   "statistics", "csv", "dataclasses", "inspect", "fractions", "decimal",
                   "json", "argparse", "gettext", "locale")
    REPORT = (
        "heavy = [m for m in sys.modules if m.split('.')[0] in ('scipy', 'numpy')]\n"
        f"unused = [m for m in {EVAL_UNUSED!r} if m in sys.modules]\n"
        "print(code, heavy, unused)\n"
    )

    def test_eval_path_leaves_scipy_and_numpy_unloaded(self):
        out = fresh_python(
            "-c",
            "import sys\n"
            "from mathieucf import cli\n"
            "code = cli.main(['eval', '--r', '1', '--format', 'json'])\n" + self.REPORT
        )
        assert out.splitlines()[-1] == "0 [] []"

    def test_module_entry_point_loads_only_the_eval_path(self):
        # As ``python -m mathieucf eval --r 1 --format json``: runpy runs the
        # package __init__, then __main__.
        out = fresh_python(
            "-c",
            "import runpy, sys\n"
            "sys.argv = ['mathieucf', 'eval', '--r', '1', '--format', 'json']\n"
            "try:\n"
            "    runpy.run_module('mathieucf', run_name='__main__', alter_sys=True)\n"
            "except SystemExit as exc:\n"
            "    code = exc.code\n" + self.REPORT
        )
        assert out.splitlines()[-1] == "0 [] []"

    def test_json_compare_loads_no_argparse(self):
        # Past the eval path too, a command the flag table parses builds no
        # argparse parser.
        out = fresh_python(
            "-c",
            "import sys\n"
            "from mathieucf import cli\n"
            "code = cli.main(['compare', '--r', '1', '--format', 'json'])\n"
            "print(code, [m for m in ('argparse', 'gettext', 'locale') if m in sys.modules])\n"
        )
        assert out.splitlines()[-1] == "0 []"

    # Each command's cold path, as ``python -m mathieucf <argv>`` runs it in
    # a fresh process, with the modules it must leave unloaded ("." for the
    # package's own).  Every eval row is at k = 2.
    COLD_PATHS = {
        "eval-json": ("eval --r 1 --format json",
                      ".oracles .bounds .cf .tail_interval .commands argparse json fractions csv"),
        "eval-csv": ("eval --r 1 --format csv",
                     ".oracles .bounds .cf .tail_interval argparse json fractions"),
        "eval-table": ("eval --r 1 --format table",
                       ".oracles .bounds .cf .tail_interval argparse json fractions csv"),
        "eval-trigamma": ("eval --r 1 --methods trigamma --format json",
                          ".bounds .cf .tail_interval .commands argparse json fractions csv"),
        "bounds": ("bounds --r 1 --format json",
                   ".oracles .cf .tail_interval argparse json fractions csv"),
        "compare": ("compare --r 1 --format json", ".bounds .cf .tail_interval argparse json csv"),
        "bench": ("bench --r 1 --repeats 1 --format json",
                  ".oracles .bounds .cf argparse json csv"),
        "apery": ("apery --format json",
                  ".oracles .bounds .tail_interval argparse json fractions csv"),
    }

    @pytest.mark.parametrize("argv, unloaded", COLD_PATHS.values(), ids=COLD_PATHS)
    def test_cold_path_leaves_its_unused_modules_unloaded(self, argv, unloaded):
        unloaded = [f"mathieucf{name}" if name[0] == "." else name for name in unloaded.split()]
        out = fresh_python(
            "-c",
            "import runpy, sys\n"
            f"sys.argv = ['mathieucf', *{argv.split()!r}]\n"
            "try:\n"
            "    runpy.run_module('mathieucf', run_name='__main__', alter_sys=True)\n"
            "except SystemExit as exc:\n"
            "    code = exc.code\n"
            f"print(code, [m for m in {unloaded!r} if m in sys.modules])\n"
        )
        assert out.splitlines()[-1] == "0 []"

    # Two tracers one after the other, each swapping a counting wrapper into
    # every loaded package module that holds the original, as perfbench's
    # tracer does.  ``commands`` loads under the first one.
    TRACERS = textwrap.dedent("""\
        import sys
        from mathieucf import bounds, cli, series

        calls = []

        def install(tag):
            undo = []
            for module, name in ((series, "theorem1_to_width"), (bounds, "cf_bounds")):
                original = getattr(module, name)

                def counting(*args, _fn=original, _name=name, **kwargs):
                    calls.append((tag, _name, sys._getframe(1).f_globals["__name__"]))
                    return _fn(*args, **kwargs)

                for key, held in list(sys.modules.items()):
                    if key.startswith("mathieucf") and getattr(held, name, None) is original:
                        setattr(held, name, counting)
                        undo.append((held, name, original))
            return undo

        loaded = "mathieucf.commands" in sys.modules
        for tag in ("first", "second"):
            undo = install(tag)
            for command in ("bounds", "compare"):
                cli.run(cli.RunConfig(command, r_values=(1.0, 2.0), format="json"))
            for held, name, original in reversed(undo):
                setattr(held, name, original)
        print(loaded, *(calls.count((tag, name, "mathieucf.commands"))
                        for tag in ("first", "second")
                        for name in ("theorem1_to_width", "cf_bounds")))
        """)

    def test_lazy_commands_call_traced_names_through_their_modules(self):
        # A module that bound a traced name at import would keep the first
        # tracer's wrapper and never see the second one.  bounds takes its
        # reference value and its cf column from ``commands`` at each r.
        assert fresh_python("-c", self.TRACERS).splitlines()[-1] == "False 2 2 2 2"

    def test_module_entry_point(self):
        # The ``python -m mathieucf`` entry point; fresh_python raises on a
        # non-zero exit.
        payload = json.loads(fresh_python("-m", "mathieucf", "eval", "--r", "1",
                                          "--format", "json"))
        cf = next(r for r in payload["rows"] if r["method"] == "cf")
        assert cf["lower"] <= S_AT_1 <= cf["upper"]


def _argparse_args(argv):
    """``vars`` of the argparse namespace for ``argv``, or None where argparse
    exits (an error, help or the version)."""
    try:
        return vars(_build_parser().parse_args(argv))
    except SystemExit:
        return None


README = pathlib.Path(__file__).resolve().parent.parent / "README.md"
README_ARGV = [shlex.split(line) for line in
               re.findall(r"^mathieucf ([a-z].*)$", README.read_text(), re.M)]
_FLAG_TOKENS = sorted({flag for _, flags, _ in _COMMAND_FLAGS.values() for flag, _, _ in flags})
_VALUE_TOKENS = ["1", "0.5,2", "1:10:3", "3", "1e-8", "inf", "nan", "x", "", " 2 ", "json",
                 "csv", "table", "xml", "cf,direct", "1,3", "+3", "1_0", "1.5", "\u0663",
                 "-1", "-1e5", "-", "--"]
_JUNK = ["-h", "--help", "--version", "--fo", "--r=1", "--format=json", "--bogus", "--k-val",
         "-k", "Eval", "evaluate"]


class TestFastParser:
    """``main`` reads the common argv from the flag table without argparse;
    whatever that reading accepts, argparse reads the same way."""

    @settings(derandomize=True, max_examples=1000, deadline=None)
    @given(data=st.data())
    def test_accepted_argv_parse_as_argparse_does(self, data):
        argv = data.draw(st.lists(st.sampled_from(list(_COMMAND_FLAGS) + _JUNK), max_size=1))
        # Mostly the command's own flags, so that many draws are accepted.
        own = [flag for flag, _, _ in _COMMAND_FLAGS[argv[0]][1]] if argv[:1] and (
            argv[0] in _COMMAND_FLAGS) else _FLAG_TOKENS
        tail = data.draw(st.lists(st.one_of(
            st.tuples(st.sampled_from(own), st.sampled_from(_VALUE_TOKENS)),
            st.tuples(st.sampled_from(_FLAG_TOKENS + _VALUE_TOKENS + _JUNK))), max_size=6))
        argv += [token for tokens in tail for token in tokens]
        fast = _fast_args(argv)
        if fast is not None:
            assert fast == _argparse_args(argv)

    @pytest.mark.parametrize("argv", [argv for argv, _ in GOLDEN_CASES.values()] + README_ARGV)
    def test_golden_and_readme_argv_take_the_fast_path(self, argv):
        assert len(README_ARGV) == 4
        for full in (argv, argv + ["--format", "json"]):
            assert _fast_args(full) is not None
            assert _fast_args(full) == _argparse_args(full)

    @pytest.mark.parametrize("argv", TestMain.CONFIG_ERRORS)
    def test_config_error_argv_parse_as_argparse_does(self, argv):
        fast = _fast_args(argv)
        assert fast is None or fast == _argparse_args(argv)
        with pytest.raises(ConfigError):
            _config_from_args(_argparse_args(argv))

    @pytest.mark.parametrize("argv", [[], ["--help"], ["--version"], ["eval", "--help"],
                                      ["eval", "--fo", "json"], ["eval", "--r=1"],
                                      ["eval", "--r", "-1"], ["eval", "--bogus", "1"],
                                      ["eval", "--k", "x"], ["eval", "--r"],
                                      ["eval", "--format", "xml"], ["apery", "--r", "1"],
                                      ["eval", "--r", "1", "--log", "x"], ["selftest"]])
    def test_the_rest_is_left_to_argparse(self, argv):
        assert _fast_args(argv) is None
