"""Benchmark of the mathieucf package, measured from outside through its
public entry points.

    python3 perfbench/run.py --workload sweep --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20

Run from any directory; the package is loaded from ``src/`` next to this
directory.  For one workload the script draws the seeded inputs, computes an
``mpmath`` reference for each (outside all timing), then starts fresh worker
processes one after another.  Each worker's time from spawn to ``ready`` is
one set-up sample; the workers share the ``--seconds`` of timed work.  Every
time is scaled by the machine's current speed, gauged by a fixed probe (see
``probe.py``), and the raw wall-clock numbers are printed beside.  All
outputs are checked against the references (see ``check.py``).  After its
timed phase the last worker runs the workload's defect census, a fixed
seeded set of inputs on which the package has known defects; its failures
are printed by kind, apart from the timed operations.

With ``--trace 0`` the end-to-end metrics of BENCHMARK.json are printed, and
with ``--trace 1`` the per-layer ones (workers then run half untraced and
half traced, and spans go to ``perfbench/out/``).  The last line of standard
output is one JSON object; the lines before it give each metric with its
sample count, the failure kinds and the environment.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.metadata
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import threading
import time

import check
import inputs
import probe
import spans

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(HERE, "out")
WORKER = os.path.join(HERE, "worker.py")

# Fresh worker processes per run: each gives one set-up sample.
WORKERS = 3
# Percentiles tried for the tail, highest first; the tail is the highest one
# with at least ten samples beyond it.
LADDER = (99.9, 99, 95, 90, 75, 50)
# A worker gets this much time beyond its share of --seconds before it is
# killed (set-up takes up to ~4 s; a cold child at r ~ 3e7 takes seconds).
GRACE_S = 90


def percentile(values, p):
    """Nearest-rank percentile of ``values``."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(p / 100 * len(ordered)) - 1)]


def tail(values):
    """(percentile, value) of the highest ladder percentile with at least ten
    samples beyond it; the median when there are fewer than 20 samples."""
    n = len(values)
    for p in LADDER:
        if n - math.ceil(p / 100 * n) >= 10:
            return p, percentile(values, p)
    return 50, percentile(values, 50)


def spawn_worker(workload, job, trace, tag):
    """Start one worker, time its set-up, run its job; returns its result."""
    cmd = [sys.executable] + (["-X", "importtime"] if trace else []) + [WORKER, workload]
    err_path = os.path.join(OUT, f"worker-{tag}.err")
    with open(err_path, "w") as err:
        before = probe.cold_probe()
        start = time.perf_counter()
        proc = subprocess.Popen(cmd, stdin=subprocess.PIPE, stdout=subprocess.PIPE, stderr=err,
                                cwd=ROOT, text=True)
        watchdog = threading.Timer(job["seconds"] + GRACE_S, proc.kill)
        watchdog.start()
        line = ""
        try:
            ready = proc.stdout.readline()
            setup_s = time.perf_counter() - start
            after = probe.cold_probe()
            if ready.strip() == "ready":
                proc.stdin.write(json.dumps(job) + "\n")
                proc.stdin.flush()
                line = proc.stdout.readline()
            code = proc.wait()
        finally:
            watchdog.cancel()
            if proc.poll() is None:
                proc.kill()
                proc.wait()
    if ready.strip() != "ready" or code != 0:
        with open(err_path) as fp:
            sys.stderr.write(fp.read()[-4000:])
        raise RuntimeError(f"worker {tag} exited with {code}")
    result = json.loads(line)
    result["raw_setup_s"] = setup_s
    # The process start and import part of a set-up is scaled like a cold
    # process, by the cold probes around it; its warm-up like the worker's
    # steps, by their median slowdown.
    start_s = setup_s - result["warmup_s"]
    result["setup_s"] = (start_s / ((before + after) / 2 / probe.NOMINAL_COLD_S)
                         + result["warmup_s"] / result["slowdown"])
    if trace:
        with open(err_path) as fp:
            result["worker_import"] = spans.import_split(fp.read())
    return result


def merge_tables(tables):
    merged = {}
    for table in tables:
        for name, row in table.items():
            acc = merged.setdefault(name, [0] * len(row))
            acc.extend([0] * (len(row) - len(acc)))
            for i, v in enumerate(row):
                acc[i] += v
    return merged


def interpreter_start_s(repeats=5):
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        subprocess.run([sys.executable, "-c", "pass"], check=True, cwd=ROOT)
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def end_to_end(workload, results):
    latencies = [x for res in results for x in res["latency_ms"]]
    ops = sum(res["ops"] for res in results)
    busy_s = sum(res["busy_ns"] for res in results) / 1e9
    raw = [x for res in results for x in res["raw_latency_ms"]]
    p, tail_ms = tail(latencies)
    n = len(latencies)
    raw_busy_s = sum(res["raw_busy_ns"] for res in results) / 1e9
    raw_setup_s = statistics.median(res["raw_setup_s"] for res in results)
    notes = {
        "ops_per_s": f"{ops} ops in {busy_s:.3f} s scaled busy time, {raw_busy_s:.3f} s wall",
        "latency_p50_ms": f"n={n} samples, {percentile(raw, 50):.6g} ms wall",
        "latency_tail_ms": f"p{p:g}, n={n} samples, {tail(raw)[1]:.6g} ms wall",
        "setup_s": f"median of n={len(results)} set-ups, {raw_setup_s:.4f} s wall",
        "peak_rss_mb": ("median child" if workload == "cold-eval" else "median worker")
        + f", n={len(results)} workers",
    }
    values = {
        "ops_per_s": ops / busy_s,
        "latency_p50_ms": percentile(latencies, 50),
        "latency_tail_ms": tail_ms,
        "setup_s": statistics.median(res["setup_s"] for res in results),
        "peak_rss_mb": statistics.median(res["rss_kb"] for res in results) / 1024,
    }
    return values, notes


def per_layer(workload, results):
    table = merge_tables(res["traced"]["table"] for res in results)
    # Spans never entered on this workload: their metrics read 0.
    idle = {name for name, _ in spans.TARGETS} - set(table)

    def mean_self_us(name):
        return table[name][1] / table[name][0] / 1e3 if name in table else 0.0

    def mean_count(name, i):
        row = table.get(name)
        return row[3 + i] / row[0] if row and len(row) > 3 + i else 0.0

    walk = table.get("series.tail_enclosure")
    render = table.get("cli.render")
    if workload == "cold-eval":
        imports = [x for res in results for x in res["traced"]["import"] if x]
    else:
        imports = [res["worker_import"] for res in results if res["worker_import"]]
    plain = sum(res["ops"] for res in results) / sum(res["busy_ns"] for res in results)
    traced = (sum(res["traced"]["ops"] for res in results)
              / sum(res["traced"]["busy_ns"] for res in results))
    values = {
        "cf.ns_per_term": walk[2] / walk[3] if walk and walk[3] else 0.0,
        "cf.terms": mean_count("series.tail_enclosure", 0),
        "series.tail_enclosure_us": mean_self_us("series.tail_enclosure"),
        "series.theorem1_us": mean_self_us("series.theorem1_to_width"),
        "series.partial_sum_us": mean_self_us("series.mathieu_partial_sum"),
        "series.achieved_ratio": mean_count("series.theorem1_to_width", 1),
        "cli.render_us_per_row": render[1] / render[3] / 1e3 if render and render[3] else 0.0,
        "cli.run_self_us": mean_self_us("cli.run"),
        "series.direct_us": mean_self_us("series.mathieu_direct"),
        "series.direct_terms": mean_count("series.mathieu_direct", 0),
        "series.asymptotic_us": mean_self_us("series.asymptotic"),
        "series.asymptotic_terms": mean_count("series.asymptotic", 0),
        "setup.warmup_s": statistics.median(res["warmup_s"] for res in results),
        "oracles.trigamma_us": mean_self_us("oracles.mathieu_trigamma"),
        "oracles.integral_us": mean_self_us("oracles.mathieu_integral"),
        "bounds.closed_form_us": mean_self_us("bounds.closed_form_bounds"),
        "bounds.cf_bounds_us": mean_self_us("bounds.cf_bounds"),
        "import.total_s": statistics.median(x[0] for x in imports) if imports else 0.0,
        "import.scipy_s": statistics.median(x[1] for x in imports) if imports else 0.0,
        "cold.interp_s": interpreter_start_s(),
        "trace.overhead_share": 1 - traced / plain,
    }
    calls_by_span = {name: row[0] for name, row in sorted(table.items())}
    return values, calls_by_span, sorted(idle)


def environment(seed):
    versions = {}
    for dist in ("numpy", "scipy", "mpmath"):
        try:
            versions[dist] = importlib.metadata.version(dist)
        except importlib.metadata.PackageNotFoundError:
            versions[dist] = None
    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo") as fp:
            cpu = next((line.split(":", 1)[1].strip() for line in fp
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    commit = None
    if os.path.isdir(os.path.join(ROOT, ".git")):
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True)
        commit = done.stdout.strip() or None
    digest = hashlib.sha256()
    src = os.path.join(ROOT, "src", "mathieucf")
    for name in sorted(os.listdir(src)):
        if name.endswith(".py"):
            with open(os.path.join(src, name), "rb") as fp:
                digest.update(name.encode() + b"\0" + fp.read())
    return {"seed": seed, "commit": commit, "src_sha256": digest.hexdigest()[:16],
            "python": platform.python_version(), **versions,
            "nproc": os.cpu_count(), "cpu": cpu}


def run_workload(workload, seed, seconds, trace, units):
    pool = inputs.generate(workload, seed)
    census_pool = inputs.census(workload, seed)
    refs = check.references(pool + census_pool)
    # Each worker picks up the pool where the previous one stopped.
    job = {"inputs": pool, "seconds": seconds / WORKERS, "trace": trace, "start_step": 0}
    results = []
    for i in range(WORKERS):
        job["tag"] = f"{workload}-{i}"
        job["census"] = census_pool if i == WORKERS - 1 else []
        results.append(spawn_worker(workload, job, trace, job["tag"]))
        job["start_step"] += results[-1]["steps"]

    # Workers send each distinct output (as JSON) with the number of
    # operations that gave it.
    counts = {}
    for res in results:
        for key, times in res["outputs"].items():
            counts[key] = counts.get(key, 0) + times
    records = [[json.loads(key), times] for key, times in counts.items()]
    kinds = check.verify(workload, records, refs)
    attempted = sum(counts.values())
    failed = sum(kinds.values())
    census = check.verify(workload, [[json.loads(key), times] for key, times
                                     in results[-1]["census"].items()], refs)
    unexpected = {k: v for k, v in census.items() if k not in check.KNOWN_KINDS}

    notes, calls_by_span, idle, self_over_wall = {}, {}, [], 0.0
    if trace:
        values, calls_by_span, idle = per_layer(workload, results)
        self_over_wall = max(res["traced"]["self_over_wall"] for res in results)
    else:
        values, notes = end_to_end(workload, results)
    correct = not failed and not unexpected and self_over_wall <= 1.0

    print(f"# env {json.dumps(environment(seed))}")
    print(f"# workload {workload}: seconds={seconds:g} trace={trace} workers={WORKERS} "
          f"pool={len(pool)} distinct_outputs={len(records)}")
    for name, value in values.items():
        note = f" ({notes[name]})" if name in notes else ""
        print(f"{workload} {name} = {value:.6g} {units[name]}{note}")
    if trace:
        print(f"{workload} span calls: {', '.join(f'{k} {v}' for k, v in calls_by_span.items())}; "
              f"max self/wall per op {self_over_wall:.4f}")
        if idle:
            print(f"{workload} spans not entered, their metrics read 0: {', '.join(idle)}")
    def kind_text(found):
        return ", ".join(f"{k}={v}" for k, v in sorted(found.items())) or "none"

    print(f"{workload} fail_share = {failed / attempted:.6g} ({failed}/{attempted} ops; "
          f"kinds: {kind_text(kinds)})")
    if census_pool:
        print(f"{workload} census fail_share = {sum(census.values()) / len(census_pool):.6g} "
              f"({sum(census.values())}/{len(census_pool)} untimed ops; "
              f"kinds: {kind_text(census)}; known defects: {', '.join(check.KNOWN_KINDS)})")
    if failed or unexpected:
        print(f"{workload} UNEXPECTED failures: timed {kinds}, census {unexpected}",
              file=sys.stderr)
    return {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in values.items()},
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=inputs.WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not args.seconds > 0:
        parser.error("--seconds must be > 0")
    if not os.path.isfile(os.path.join(ROOT, "src", "mathieucf", "__init__.py")):
        print(f"error: no package source at {os.path.join(ROOT, 'src', 'mathieucf')}",
              file=sys.stderr)
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fp:
        spec = json.load(fp)
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    os.makedirs(OUT, exist_ok=True)
    # Every process of the run inherits one CPU, so the speed probes gauge
    # the CPU that the measured work runs on.
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})

    workloads = inputs.WORKLOADS if args.workload == "all" else (args.workload,)
    results = {w: run_workload(w, args.seed, args.seconds, args.trace, units) for w in workloads}
    if args.workload != "all":
        print(json.dumps(results[args.workload]))
        return 0
    for w, res in results.items():
        print(f"# result {w} {json.dumps(res)}")
    print(json.dumps({
        "correct": all(res["correct"] for res in results.values()),
        "attempted": sum(res["attempted"] for res in results.values()),
        "failed": sum(res["failed"] for res in results.values()),
        "metrics": {f"{w}.{name}": m for w, res in results.items()
                    for name, m in res["metrics"].items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
