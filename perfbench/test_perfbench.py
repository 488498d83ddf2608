"""Tests of the benchmark itself: python3 -m pytest perfbench"""

import json
import os
import sys
import time

import pytest

import check
import inputs
import probe
import run
import spans

sys.path.insert(0, os.path.join(run.ROOT, "src"))

import mathieucf  # noqa: E402
from mathieucf import cli  # noqa: E402


@pytest.mark.parametrize("workload", inputs.WORKLOADS)
def test_same_seed_same_inputs(workload):
    assert inputs.generate(workload, 7) == inputs.generate(workload, 7)
    assert inputs.generate(workload, 7) != inputs.generate(workload, 8)


@pytest.mark.parametrize("workload", ("sweep", "cold-eval"))
def test_census_is_seeded_and_apart_from_the_pool(workload):
    assert inputs.census(workload, 7) == inputs.census(workload, 7)
    assert inputs.census(workload, 7) != inputs.census(workload, 8)
    assert not set(inputs.census(workload, 7)) & set(inputs.generate(workload, 7))


def test_cold_eval_census_reaches_the_large_r_defects():
    census = inputs.census("cold-eval", 3)
    assert min(census) > 3.5e7 and max(census) > 1e78
    assert inputs.census("deep", 3) == inputs.census("crosscheck", 3) == []


def test_checker_flags_saturated_zero_width_interval_at_r1():
    # `mathieucf eval --r 1 --k 3 --tol 1e-300` prints this interval, but
    # S(1) = 0.79423354275931886558...
    ref = check.reference(1.0)
    assert check.interval_kind(0.794233542759319, 0.794233542759319, ref) == "saturated-miss"
    assert check.interval_kind(0.7942335427590286, 0.7942335427598742, ref) is None


def test_checker_scores_cli_output_at_sweep_and_census_tolerances():
    refs = check.references([1.0])
    records = []
    for tol in (inputs.SWEEP_TOL, inputs.CENSUS_TOL):
        cfg = cli.RunConfig(command="eval", r_values=(1.0,), k=3, tol=tol, methods=("cf",),
                            format="json")
        row = json.loads(cli.run(cfg)[2])["rows"][0]
        records.append([{"r": 1.0, "tol": tol, "lower": row["lower"], "upper": row["upper"],
                         "terms": row["terms_used"], "note": row["note"]}, 1])
    assert check.verify("sweep", records, refs) == {"saturated-miss": 1}


def test_checker_counts_raised_operations():
    refs = check.references([2.0])
    records = [[{"r": 2.0, "error": "OverflowError: (34, 'Numerical result out of range')"}, 3],
               [{"r": 2.0, "error": "ZeroDivisionError: division by zero"}, 1]]
    assert check.verify("deep", records, refs) == {"overflow": 3, "raised": 1}


def test_self_times_subtract_children():
    # parent [0, 100] with children [10, 30] and [40, 90]; grandchild [50, 60]
    trace = [("a", 0, 100, -1, 0, None), ("b", 10, 30, 0, 0, None),
             ("c", 40, 90, 0, 0, None), ("d", 50, 60, 2, 0, None)]
    assert spans.self_times(trace) == [30, 20, 40, 10]
    assert spans.self_by_op(trace) == {0: 100}


def test_layer_self_times_of_an_operation_fit_in_its_wall_time():
    tracer = spans.Tracer()
    tracer.install(mathieucf)
    try:
        walls = []
        for op, r in enumerate((0.5, 3.0, 40.0)):
            tracer.op = op
            start = time.perf_counter_ns()
            cli.run(cli.RunConfig(command="compare", r_values=(r,), format="json"))
            cli.run(cli.RunConfig(command="eval", r_values=(r, 2 * r), k=3, format="json"))
            walls.append(time.perf_counter_ns() - start)
    finally:
        tracer.uninstall()
    assert cli.run.__name__ == "run"
    by_op = spans.self_by_op(tracer.spans)
    assert all(0 < by_op[op] <= wall for op, wall in enumerate(walls))
    table = spans.aggregate(tracer.spans)
    assert table["series.tail_enclosure"][0] == 3 * 3  # compare + two eval rows
    assert table["cli.render"][3] == 3 * 5  # rows: 1 compare + 2 r x (cf, direct)
    assert table["series.mathieu_direct"][3] > 0  # direct M recorded


def test_slowdowns_divide_by_nominal_and_damp_single_probes():
    nominal = probe.NOMINAL_S
    assert probe.slowdowns([nominal] * 4) == [1.0, 1.0, 1.0]
    # one slow probe among fast ones moves no step's slowdown
    probes = [nominal] * 4 + [3 * nominal] + [nominal] * 4
    assert probe.slowdowns(probes) == [1.0] * 8
    assert probe.slowdowns([2 * nominal] * 9) == [2.0] * 8
    assert probe.slowdowns([2 * probe.NOMINAL_COLD_S] * 3, probe.NOMINAL_COLD_S) == [2.0] * 2


def test_tail_is_highest_percentile_with_ten_samples_beyond():
    assert run.tail(list(range(1000)))[0] == 99
    assert run.tail(list(range(999)))[0] == 95
    assert run.tail(list(range(40)))[0] == 75
    assert run.tail(list(range(12))) == (50, 5)


def test_import_split_reads_importtime_output():
    text = ("import time: self [us] | cumulative | imported package\n"
            "import time:      1200 |     650000 |     scipy.integrate\n"
            "import time:       300 |     700000 | mathieucf\n"
            "import time:        10 |         10 | json.decoder\n")
    assert spans.import_split(text) == (0.7, 0.65)


def test_metric_names_match_benchmark_json():
    with open(os.path.join(run.ROOT, "BENCHMARK.json")) as fp:
        spec = json.load(fp)
    fake = {"latency_ms": [1.0, 2.0], "raw_latency_ms": [1.0, 2.0], "ops": 2, "busy_ns": 3_000_000, "raw_busy_ns": 3_000_000,
            "setup_s": 0.5, "raw_setup_s": 0.5, "rss_kb": 80_000}
    values, _ = run.end_to_end("sweep", [fake])
    assert set(values) == {m["name"] for m in spec["end_to_end"]}
    fake["traced"] = {"table": {}, "ops": 1, "busy_ns": 1_000_000, "import": []}
    fake.update(warmup_s=0.1, worker_import=None)
    values, _, idle = run.per_layer("sweep", [fake])
    assert set(values) == {m["name"] for m in spec["per_layer"]}
    assert len(idle) == len(spans.TARGETS)  # no span entered
    assert {w["name"] for w in spec["workloads"]} == set(inputs.WORKLOADS)
