"""One benchmark worker: a fresh process that sets up, then runs timed
operations on the inputs it is sent.

    python3 perfbench/worker.py <workload>

Protocol on stdin/stdout: after importing the package and running one
warm-up pass the worker prints ``ready``; it then reads one JSON line
``{"inputs": [...], "seconds": s, "trace": 0|1, "tag": name, "census": [...]}``,
runs the timed loop, then the workload's defect census on the ``census`` r
values (untimed), and prints one JSON result line.  With ``trace`` set it spends
half the time untraced and half traced, so the two rates give the tracing
overhead.  ``cold-eval`` imports nothing from the package: each operation is
a fresh ``python -m mathieucf eval`` child, one at a time.

    python3 perfbench/worker.py cold-child <spans-file> <cli args...>

runs the CLI with spans installed and writes them to ``spans-file``; it is
the traced form of a cold-eval child.
"""

from __future__ import annotations

import json
import os
import resource
import statistics
import subprocess
import sys
import time

import inputs
import probe
import spans as spans_mod

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")

DEEP_K, DEEP_WIDTH = 1, 1e-12
CROSS_K, CROSS_TOL = 3, 1e-10
# Top of the crosscheck r range: warming up there fills the Bernoulli cache
# that `asymptotic` needs for every r in the range.
CROSS_WARM_R = 100.0


class Work:
    """What every workload shares: the speed probe run around its steps, and
    how strongly a probe's slowdown moves the steps (the slowdown is raised
    to ``elasticity``)."""

    nominal_s = probe.NOMINAL_S
    elasticity = 1.0

    def speed_probe(self):
        return probe.probe()


def _import_package():
    sys.path.insert(0, SRC)
    import mathieucf
    from mathieucf import cli, series

    return mathieucf, cli, series


class Sweep(Work):
    """In-process ``cli.run`` eval, cf only, k = 3, JSON output; each step
    is one chunk of r at tol 1e-12.  The census asks for a width below float
    resolution, where the walk saturates."""

    def __init__(self):
        self.package, self.cli, _ = _import_package()

    def warm_up(self):
        self.step(self._config([1e-2, 1.0, 1e3]))

    def _config(self, chunk, tol=inputs.SWEEP_TOL):
        return self.cli.RunConfig(command="eval", r_values=tuple(chunk), k=3, tol=tol,
                                  methods=("cf",), format="json")

    def prepare(self, pool):
        size = inputs.SWEEP_CHUNK
        self.steps = [self._config(pool[i:i + size]) for i in range(0, len(pool), size)]
        self.step_rs = [cfg.r_values for cfg in self.steps]

    def step(self, cfg):
        return cfg.tol, self.cli.run(cfg)[2]

    def records(self, raw):
        tol, text = raw
        for row in json.loads(text)["rows"]:
            yield {"r": row["r"], "tol": tol, "lower": row["lower"], "upper": row["upper"],
                   "terms": row["terms_used"], "note": row["note"]}

    def census(self, pool):
        return self.records(self.step(self._config(pool, inputs.CENSUS_TOL)))


class Deep(Work):
    """Library calls ``theorem1_to_width(r, 1, 1e-12)`` at the default cap."""

    def __init__(self):
        self.package, _, self.series = _import_package()

    def warm_up(self):
        self.series.theorem1_to_width(1.0, DEEP_K, DEEP_WIDTH, 2_000)

    def prepare(self, pool):
        self.steps = pool
        self.step_rs = [(r,) for r in pool]

    def step(self, r):
        return r, self.series.theorem1_to_width(r, DEEP_K, DEEP_WIDTH)

    def records(self, raw):
        r, (enc, terms, achieved) = raw
        yield {"r": r, "lower": enc.lower, "upper": enc.upper, "terms": terms,
               "achieved": achieved}


class Crosscheck(Work):
    """Per r, in-process ``cli.run`` compare (k = 3, tol 1e-10), then bounds."""

    # Its long operations (scipy quad, math.fsum, Fraction arithmetic) slow
    # down less than the pure-Python probe when the host does, its short ones
    # as much.  On a 2-vCPU Xeon guest the mean time per operation fitted
    # 0.65 and the median 1.0; 0.8 keeps both steady.
    elasticity = 0.8

    def __init__(self):
        self.package, self.cli, _ = _import_package()

    def warm_up(self):
        self.step(self._configs(CROSS_WARM_R))

    def _configs(self, r):
        return (r,
                self.cli.RunConfig(command="compare", r_values=(r,), k=CROSS_K, tol=CROSS_TOL,
                                   format="json"),
                self.cli.RunConfig(command="bounds", r_values=(r,), format="json"))

    def prepare(self, pool):
        self.steps = [self._configs(r) for r in pool]
        self.step_rs = [(r,) for r in pool]

    def step(self, cfgs):
        r, compare, bounds = cfgs
        _, compare_exit, compare_text = self.cli.run(compare)
        _, bounds_exit, bounds_text = self.cli.run(bounds)
        return r, (compare_exit, compare_text, bounds_exit, bounds_text)

    def records(self, raw):
        r, (compare_exit, compare_text, bounds_exit, bounds_text) = raw
        yield {"r": r, "compare_exit": compare_exit,
               "compare": json.loads(compare_text)["rows"][0],
               "bounds_exit": bounds_exit, "bounds": json.loads(bounds_text)["rows"][0]}


class ColdEval(Work):
    """Fresh ``python -m mathieucf eval --r X --format json`` processes with
    the default methods, one at a time."""

    nominal_s = probe.NOMINAL_COLD_S

    def speed_probe(self):
        return probe.cold_probe()

    def __init__(self):
        self.env = dict(os.environ, PYTHONPATH=SRC)
        self.out = os.path.join(OUT, "cold-child.out")
        self.err = os.path.join(OUT, "cold-child.err")
        self.spans_path = os.path.join(OUT, "cold-child.spans")
        # Set for a traced phase: children then run through `cold-child`.
        self.tracer = None
        self.child_rss_kb = []
        self.import_times = []

    def warm_up(self):
        self.step(1.0)
        self.child_rss_kb.clear()

    def prepare(self, pool):
        self.steps = pool
        self.step_rs = [(r,) for r in pool]

    def _argv(self, r):
        args = ["eval", "--r", repr(r), "--format", "json"]
        if self.tracer is not None:
            return [sys.executable, "-X", "importtime", os.path.abspath(__file__),
                    "cold-child", self.spans_path] + args
        return [sys.executable, "-m", "mathieucf"] + args

    def step(self, r):
        if self.tracer is not None and os.path.exists(self.spans_path):
            os.remove(self.spans_path)
        with open(self.out, "wb") as out, open(self.err, "wb") as err:
            proc = subprocess.Popen(self._argv(r), stdout=out, stderr=err, env=self.env,
                                    cwd=ROOT)
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:
                proc.kill()
                proc.wait()
                raise
            proc.returncode = os.waitstatus_to_exitcode(status)
        self.child_rss_kb.append(usage.ru_maxrss)
        return r, proc.returncode

    def records(self, raw):
        r, code = raw
        with open(self.out) as fp:
            text = fp.read()
        with open(self.err) as fp:
            err = fp.read()
        error = None
        if "Traceback (most recent call last)" in err:
            error = err.strip().splitlines()[-1]
        rows = []
        if text.strip():
            rows = [[row["method"], row["lower"], row["upper"], row["note"]]
                    for row in json.loads(text)["rows"]]
        if self.tracer is not None:
            self.import_times.append(spans_mod.import_split(err))
            self.tracer.spans.extend(spans_mod.read_spans(self.spans_path, self.tracer.op,
                                                          len(self.tracer.spans)))
        yield {"r": r, "exit": code, "rows": rows, "error": error}

    def census(self, pool):
        """The default eval of each r through in-process ``cli.run``: the
        path of a cold child without its process start."""
        _, cli, _ = _import_package()
        for r in pool:
            try:
                text = cli.run(cli.RunConfig(command="eval", r_values=(r,), format="json"))[2]
            except Exception as exc:
                yield {"r": r, "error": f"{type(exc).__name__}: {exc}"}
                continue
            rows = [[row["method"], row["lower"], row["upper"], row["note"]]
                    for row in json.loads(text)["rows"]]
            yield {"r": r, "rows": rows, "error": None}


WORKLOADS = {"sweep": Sweep, "deep": Deep, "crosscheck": Crosscheck, "cold-eval": ColdEval}


def tally(records, outputs):
    """Count each distinct output record (as JSON) into ``outputs``."""
    for rec in records:
        key = json.dumps(rec)
        outputs[key] = outputs.get(key, 0) + 1
    return outputs


def timed_loop(work, seconds, start_step, tracer=None):
    """Run steps from ``start_step`` on, cycling through the pool, until
    ``seconds`` have passed; only the step itself is timed.  A speed probe
    runs before every step and after the last one."""
    clock = time.perf_counter_ns
    walls, sizes, probes, outputs = [], [], [], {}
    deadline = clock() + int(seconds * 1e9)
    i = 0
    while i == 0 or clock() < deadline:
        idx = (start_step + i) % len(work.steps)
        if tracer is not None:
            tracer.op = i
        probes.append(work.speed_probe())
        start = clock()
        try:
            raw = work.step(work.steps[idx])
            error = None
        except Exception as exc:  # an operation that raises is a failure, not a crash
            error = f"{type(exc).__name__}: {exc}"
        walls.append(clock() - start)
        sizes.append(len(work.step_rs[idx]))
        recs = work.records(raw) if error is None else (
            {"r": r, "error": error} for r in work.step_rs[idx])
        tally(recs, outputs)
        i += 1
    probes.append(work.speed_probe())
    factors = [f ** work.elasticity for f in probe.slowdowns(probes, work.nominal_s)]
    scaled = [w / f for w, f in zip(walls, factors)]
    return {"ops": sum(sizes), "busy_ns": sum(scaled), "raw_busy_ns": sum(walls),
            "slowdown": statistics.median(factors),
            "latency_ms": [w / n / 1e6 for w, n in zip(scaled, sizes)],
            "raw_latency_ms": [w / n / 1e6 for w, n in zip(walls, sizes)],
            "walls": walls, "outputs": outputs, "steps": i}


def run_worker(workload: str) -> None:
    os.makedirs(OUT, exist_ok=True)
    work = WORKLOADS[workload]()
    start = time.perf_counter()
    work.warm_up()
    warmup_s = time.perf_counter() - start
    print("ready", flush=True)
    job = json.loads(sys.stdin.readline())
    work.prepare(job["inputs"])
    seconds, traced, start_step = job["seconds"], job["trace"], job["start_step"]
    result = {}
    if not traced:
        plain = timed_loop(work, seconds, start_step)
    else:
        plain = timed_loop(work, seconds / 2, start_step)
        tracer = spans_mod.Tracer()
        if workload == "cold-eval":
            work.tracer = tracer  # each child records its own spans
        else:
            tracer.install(work.package)
        traced_run = timed_loop(work, seconds / 2, start_step + plain["steps"], tracer)
        tracer.uninstall()
        by_op = spans_mod.self_by_op(tracer.spans)
        result["traced"] = {
            "ops": traced_run["ops"], "busy_ns": traced_run["busy_ns"],
            "table": spans_mod.aggregate(tracer.spans),
            "self_over_wall": max(by_op.get(i, 0) / w for i, w in enumerate(traced_run["walls"])),
            "import": work.import_times if workload == "cold-eval" else [],
        }
        for key, times in traced_run["outputs"].items():
            plain["outputs"][key] = plain["outputs"].get(key, 0) + times
        plain["steps"] += traced_run["steps"]
        tracer.write(os.path.join(OUT, f"spans-{job['tag']}.tsv"))
    # Read before the census, which may import the package into this process.
    self_rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    result["census"] = tally(work.census(job["census"]), {}) if job["census"] else {}
    if workload == "cold-eval":
        rss_kb = sorted(work.child_rss_kb)[len(work.child_rss_kb) // 2]
    else:
        rss_kb = self_rss_kb
    result.update({
        "ops": plain["ops"], "busy_ns": plain["busy_ns"], "raw_busy_ns": plain["raw_busy_ns"],
        "latency_ms": plain["latency_ms"], "raw_latency_ms": plain["raw_latency_ms"],
        "outputs": plain["outputs"],
        "rss_kb": rss_kb, "warmup_s": warmup_s, "steps": plain["steps"],
        "slowdown": plain["slowdown"],
    })
    sys.stdout.write(json.dumps(result) + "\n")
    sys.stdout.flush()


def run_cold_child(spans_path: str, argv) -> None:
    mathieucf, cli, _ = _import_package()
    tracer = spans_mod.Tracer()
    tracer.install(mathieucf)
    try:
        code = cli.main(argv)
    finally:
        tracer.write(spans_path)
    sys.exit(code)


if __name__ == "__main__":
    if sys.argv[1] == "cold-child":
        run_cold_child(sys.argv[2], sys.argv[3:])
    else:
        run_worker(sys.argv[1])
