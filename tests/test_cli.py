"""Command-line layer tests: argument parsing, per-command row shapes and
exit codes, serialization round-trips, and file-output behavior.

Exit-code contract: 0 success, 1 partial results or failed invariants,
2 configuration error (in which case nothing is written to --output).
"""

import dataclasses
import json

import pytest
from conftest import S_AT_1, ZETA3, fresh_python

from mathieucf import oracles, series
from mathieucf.cli import (
    ConfigError,
    RunConfig,
    csv_to_rows,
    main,
    parse_r_values,
    rows_to_csv,
    rows_to_table,
    run,
)
from mathieucf.cli import _COMMANDS, _METHODS, _build_parser, _config_from_args
from mathieucf.cli import _direct_terms_for_tol
from mathieucf.selftest import CHECKS, run_selftest


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
        evals, code, _ = run(dataclasses.replace(cfg, command="eval", methods=_METHODS))
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
    def test_all_checks_pass(self):
        rows, code, _ = run(RunConfig(command="selftest"))
        assert code == 0
        assert all(r["status"] == "pass" for r in rows)
        assert len(rows) == 16

    def test_force_fail(self):
        rows, code, _ = run(RunConfig(command="selftest", force_fail=True))
        assert code == 1
        assert any(r["status"] == "FAIL" for r in rows)

    def test_runner_returns_the_command_rows(self):
        rows = run_selftest()
        assert len(rows) == 16
        assert [row["check"] for row in rows] == [name for name, _ in CHECKS]
        for row in rows:
            assert list(row) == ["check", "status", "seconds", "detail"]
            assert row["status"] == "pass"
        command_rows, code, _ = run(RunConfig(command="selftest"))
        assert code == 0

        def untimed(rows):
            return [{**row, "seconds": None} for row in rows]

        assert untimed(command_rows) == untimed(rows)


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


class TestMain:
    def test_stdout_json_payload(self, capsys):
        assert main(["eval", "--r", "1", "--format", "json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["version"]["schema"] == 1
        assert payload["config"]["command"] == "eval"
        cf = next(r for r in payload["rows"] if r["method"] == "cf")
        assert cf["lower"] <= S_AT_1 <= cf["upper"]

    def test_output_file_replaces_stdout(self, tmp_path, capsys):
        out = tmp_path / "rows.csv"
        assert main(["eval", "--r", "1", "--format", "csv", "--output", str(out)]) == 0
        assert capsys.readouterr().out == ""
        parsed = csv_to_rows(out.read_text())
        assert {r["method"] for r in parsed} == {"cf", "direct"}

    @pytest.mark.parametrize(
        "argv",
        [
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
        ],
    )
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
        # r^2 underflows at r = 1e-170, so the k = 1 fraction cannot start.
        assert main(["eval", "--r", "1e-170", "--k", "1", "--format", "json"]) == 1
        out = capsys.readouterr()
        assert "Traceback" not in out.err
        cf, direct = json.loads(out.out)["rows"]
        assert cf["method"] == "cf" and cf["note"].startswith("failed: ")
        assert "underflowed to 0" in cf["note"]
        assert direct["value"] == pytest.approx(2 * ZETA3, abs=1e-10)
        # Just above that edge r^2 is subnormal and the k = 1 bracket's odd
        # end overflows to inf, which JSON cannot hold.
        assert main(["eval", "--r", "1e-157", "--k", "1", "--format", "json"]) == 1
        out = capsys.readouterr()
        assert "Traceback" not in out.err
        cf, direct = strict_json(out.out)["rows"]
        assert cf["note"].startswith("failed: approximant denominator underflowed")
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
        # bench: a route that cannot answer at this r is a failed row; the
        # other rows keep their values.
        assert main(["bench", "--r", "1e-157", "--k-values", "1,3", "--tol", "1e-8",
                     "--repeats", "1", "--format", "json"]) == 1
        out = capsys.readouterr()
        assert "Traceback" not in out.err
        cf1, cf3, direct = strict_json(out.out)["rows"]
        assert cf1["method"] == "cf(k=1)"
        assert cf1["note"].startswith("failed: approximant denominator underflowed")
        assert cf1["terms"] is cf1["median_seconds"] is cf1["terms_ratio"] is None
        assert cf3["note"] is direct["note"] is None
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

    def test_compare_overflow_is_a_row_note(self, capsys):
        # At r = 1e100 the cf head sum overflows and only trigamma survives
        # among the core routes, so there is no spread.
        assert main(["compare", "--r", "1e100", "--format", "json"]) == 1
        (row,) = json.loads(capsys.readouterr().out)["rows"]
        assert row["note"].startswith("failed: cf: ")
        assert "; direct: " in row["note"] and "; integral: " in row["note"]
        assert row["cf"] is row["direct"] is row["integral"] is row["spread"] is None
        assert row["trigamma"] == pytest.approx(1e-200, rel=1e-9)

    def test_unset_flags_take_runconfig_defaults(self):
        # compare's k and tol are the only parser-level defaults.
        for command in _COMMANDS:
            got = _config_from_args(_build_parser().parse_args([command]))
            want = RunConfig(command=command)
            if command == "compare":
                want = dataclasses.replace(want, k=3, tol=1e-10)
            assert got == want

    def test_eval_path_leaves_scipy_and_numpy_unloaded(self):
        out = fresh_python(
            "-c",
            "import sys\n"
            "from mathieucf import cli\n"
            "code = cli.main(['eval', '--r', '1', '--format', 'json'])\n"
            "heavy = [m for m in sys.modules if m.split('.')[0] in ('scipy', 'numpy')]\n"
            "print(code, heavy, 'mathieucf.selftest' in sys.modules)\n"
        )
        assert out.splitlines()[-1] == "0 [] False"

    def test_module_entry_point(self):
        # The ``python -m mathieucf`` entry point; fresh_python raises on a
        # non-zero exit.
        payload = json.loads(fresh_python("-m", "mathieucf", "eval", "--r", "1",
                                          "--format", "json"))
        cf = next(r for r in payload["rows"] if r["method"] == "cf")
        assert cf["lower"] <= S_AT_1 <= cf["upper"]
