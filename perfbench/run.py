"""Benchmark of the ftsmfc package: four workloads, end-to-end and per-layer.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Each workload is a closed loop with one caller: the next call starts when the
previous one has returned, in one single-threaded process.  With --trace 0
the run measures the end-to-end metrics with no function wrapped; with
--trace 1 it makes a coarse pass and a fully traced pass and reports the
per-layer metrics.  Every call's outputs go through the workload's
correctness gate.  The last line of standard output is one JSON object with
the keys correct, attempted, failed and metrics; the lines before it print
every metric by name with its unit, and the provenance of the run.
See NOTES.md for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.util
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import time

import spans

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")
REQUIRED = (
    os.path.join("src", "ftsmfc", "__init__.py"),
    os.path.join("configs", "synthetic_constant.yaml"),
    os.path.join("configs", "paper_experiment.yaml"),
)
WORKLOADS = ("closed_loop_constant", "closed_loop_ramp", "pendulum_reference", "verify_suites")

END_TO_END = (
    ("setup_s", "s"),
    ("call_s", "s"),
    ("peak_rss_mb", "MB"),
)

# Functions reported one by one: every traced function but the two that only
# matter for module totals.  Those called once or more per tick also get the
# median self time of one call.
REPORTED = tuple(
    f for f in spans.FULL if f not in ("fts_core.gamma_of_V", "sim_harness.compute_metrics")
)
PER_TICK = (
    "fts_core.holder_gain", "output_filter.filter_update",
    "ulm_observer.first_order_update", "ulm_observer.second_order_update",
    "ulm_observer.compute_F", "tracking_control.solve_input",
    "tracking_control.control_law_fts", "tracking_control.control_law_basic",
    "plant_models.noise_sample", "plant_models.pendulum_step",
    "plant_models.PendulumPlant.step", "plant_models.SyntheticUlmPlant.step",
)
SUITES = ("gamma", "rho", "lemma1", "holder", "control", "robustness")

PER_LAYER = (
    [
        ("simulate_s", "s"), ("sim_ticks_per_s", "ticks/s"), ("csv_rows_per_s", "rows/s"),
        ("trajectory_samples_per_s", "samples/s"), ("generate_trajectory_s", "s"),
        ("verify_s", "s"), ("failed_ratio", "1"),
        ("trace.overhead_ratio", "1"), ("trace.wall_s", "s"),
        ("tracking_control.svd_calls", "count"),
        ("fts_core.holder_gain.calls_per_tick", "1"),
        ("fts_core.fts_recursion.steps", "count"),
    ]
    + [(f"sim_harness.verify_suite.{s}.s", "s") for s in SUITES]
    + [(f"{m}.{stat}", unit) for m in spans.MODULES
       for stat, unit in (("self_s", "s"), ("share", "1"), ("errors", "count"))]
    + [("bench.self_s", "s"), ("bench.share", "1")]
    + [(f"{f}.{stat}", unit) for f in REPORTED
       for stat, unit in (("calls", "count"), ("self_s", "s"), ("share", "1"))]
    + [(f"{f}.self_us_p50", "us") for f in PER_TICK]
)


def _median(values):
    return statistics.median(values) if values else 0.0


def _high_percentile(samples):
    """Highest whole percentile with at least ten samples beyond it, or None."""
    n = len(samples)
    if n < 20:
        return None
    p = int(100 * (n - 10) / n)
    return p, statistics.quantiles(samples, n=100, method="inclusive")[p - 1]


class _Setup:
    """Times the set-up of fresh interpreters: ftsmfc imported and the config parsed.

    The child times itself from its first statement, so the interpreter's own
    start and exit, which no change to the package can move and which swing
    by a factor of two on a busy host, are not counted.  The machine's speed
    drifts in phases of a few seconds, so the samples are spread evenly over
    the run instead of taken back to back.
    """

    def __init__(self, config, repeats, seconds):
        self.code = (f"import time; t0 = time.perf_counter(); import sys; "
                     f"sys.path.insert(0, {SRC!r}); import ftsmfc")
        if config is not None:
            self.code += f"; ftsmfc.SimConfig.from_yaml({config!r})"
        self.code += "; print(repr(time.perf_counter() - t0))"
        self.repeats = repeats
        self.interval = seconds / repeats
        self.start = time.perf_counter()
        self.times = []

    def _spawn(self):
        done = subprocess.run([sys.executable, "-c", self.code], check=True, cwd=ROOT,
                              capture_output=True, text=True, timeout=60)
        self.times.append(float(done.stdout))

    def due(self):
        """Take the samples whose time has come."""
        while (len(self.times) < self.repeats
               and time.perf_counter() - self.start >= len(self.times) * self.interval):
            self._spawn()

    def finish(self):
        while len(self.times) < self.repeats:
            self._spawn()
        return self.times


def _measure(workload, seconds, min_calls, tracer=None, between=None):
    """Call the workload until `seconds` have passed; gate every call.

    `between`, if given, runs after each call, outside the timed region.
    """
    samples, outputs, problems = [], [], []
    failed = 0
    deadline = time.perf_counter() + seconds
    while len(samples) < min_calls or time.perf_counter() < deadline:
        t0 = time.perf_counter()
        try:
            if tracer is None:
                out = workload.call()
            else:
                with tracer.span("bench.call"):
                    out = workload.call()
        except Exception as exc:  # a raising call is a failed operation, not a crash
            samples.append(time.perf_counter() - t0)
            failed += 1
            problems.append(f"call raised {type(exc).__name__}: {exc}")
            continue
        samples.append(time.perf_counter() - t0)
        outputs.append(out)
        bad = workload.check(out)
        if bad:
            failed += 1
            problems += bad
        if between is not None:
            between()
    return samples, outputs, failed, problems


def _provenance(args):
    import numpy
    import yaml

    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next(line.split(":", 1)[1].strip() for line in fh
                       if line.startswith("model name"))
    except (OSError, StopIteration):
        pass
    commit = "unknown (not a git checkout)"
    if os.path.isdir(os.path.join(ROOT, ".git")):
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=30)
        commit = done.stdout.strip() or commit
    digest = hashlib.sha256()
    for base, _, files in sorted(os.walk(SRC)):
        for name in sorted(files):
            if name.endswith(".py"):
                path = os.path.join(base, name)
                digest.update(os.path.relpath(path, SRC).encode())
                with open(path, "rb") as fh:
                    digest.update(fh.read())
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "pyyaml": yaml.__version__,
        "numba": importlib.util.find_spec("numba") is not None,
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "git_commit": commit,
        "src_sha256": digest.hexdigest(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
    }


def _outputs_median(outputs, key):
    return _median([out[key] for out in outputs if key in out])


def end_to_end(workload, seconds, setup_repeats):
    problems = workload.warm_up()
    setup = _Setup(workload.config, setup_repeats, seconds)
    setup.due()
    samples, outputs, failed, bad = _measure(workload, seconds, min_calls=2,
                                             between=setup.due)
    setup = setup.finish()
    peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    metrics = {"setup_s": _median(setup), "call_s": _median(samples), "peak_rss_mb": peak_mb}
    extra = {"setup_s.samples": (len(setup), "count"), "call_s.samples": (len(samples), "count")}
    high = _high_percentile(samples)
    if high is not None:
        extra[f"call_s.p{high[0]}"] = (high[1], "s")
    for key in ("simulate_s", "generate_trajectory_s", "verify_s"):
        if any(key in out for out in outputs):
            extra[key] = (_outputs_median(outputs, key), "s")
    extra["failed_ratio"] = (failed / len(samples), "1")
    return metrics, extra, len(samples), failed, problems + bad


def traced(workload, seconds):
    problems = workload.warm_up()
    coarse = spans.Tracer()
    with spans.installed(coarse, spans.COARSE):
        c_samples, c_outputs, c_failed, c_bad = _measure(workload, seconds / 2, min_calls=1,
                                                         tracer=coarse)
    full = spans.Tracer()
    with spans.installed(full, spans.FULL, count_svd=True):
        f_samples, _, f_failed, f_bad = _measure(workload, seconds / 2, min_calls=1,
                                                 tracer=full)
    n_full = len(f_samples)
    summary = spans.summarize(full, n_full)
    os.makedirs(OUT, exist_ok=True)
    full.write(os.path.join(OUT, f"spans-{workload.name}.csv.gz"))
    if summary["min_self_ns"] < 0 or len(full.stack) != 1:
        problems.append("spans do not nest: a child span outlived its parent")

    def inclusive_s(label):
        return sum(e - s for n, s, e in zip(coarse.name, coarse.start, coarse.end)
                   if n == coarse.ids.get(label)) / 1e9

    def rate(label):
        seconds_in = inclusive_s(label)
        return coarse.work[label] / seconds_in if seconds_in else 0.0

    ticks = full.work[spans.LOOP]
    holder_calls = summary["functions"].get("fts_core.holder_gain", {}).get("calls", 0.0)
    attempted = len(c_samples) + n_full
    metrics = {
        "simulate_s": _outputs_median(c_outputs, "simulate_s"),
        "sim_ticks_per_s": rate(spans.LOOP),
        "csv_rows_per_s": rate("sim_harness.SimLog.to_csv"),
        "trajectory_samples_per_s": rate("plant_models.generate_desired_trajectory"),
        "generate_trajectory_s": _outputs_median(c_outputs, "generate_trajectory_s"),
        "verify_s": _outputs_median(c_outputs, "verify_s"),
        "failed_ratio": (c_failed + f_failed) / attempted,
        "trace.overhead_ratio": _median(f_samples) / _median(c_samples),
        "trace.wall_s": summary["wall_ns"] / n_full / 1e9,
        "tracking_control.svd_calls": full.svd_calls / n_full,
        "fts_core.holder_gain.calls_per_tick": holder_calls * n_full / ticks if ticks else 0.0,
        "fts_core.fts_recursion.steps": full.work["fts_core.fts_recursion"] / n_full,
    }
    for suite in SUITES:
        metrics[f"sim_harness.verify_suite.{suite}.s"] = _median(
            [out["suite_s"][suite] for out in c_outputs if suite in out.get("suite_s", {})]
        )
    bench = summary["functions"].get("bench.call", {"self_s": 0.0, "share": 0.0})
    metrics["bench.self_s"], metrics["bench.share"] = bench["self_s"], bench["share"]
    for module in spans.MODULES:
        row = summary["modules"].get(module, {})
        for stat in ("self_s", "share", "errors"):
            metrics[f"{module}.{stat}"] = row.get(stat, 0.0)
    for label in REPORTED:
        row = summary["functions"].get(label, {})
        for stat in ("calls", "self_s", "share"):
            metrics[f"{label}.{stat}"] = row.get(stat, 0.0)
    for label in PER_TICK:
        metrics[f"{label}.self_us_p50"] = summary["functions"].get(label, {}).get(
            "self_us_p50", 0.0)
    extra = {
        "coarse_calls": (len(c_samples), "count"),
        "traced_calls": (n_full, "count"),
        "spans": (len(full.start), "count"),
        "self_sum_minus_wall": (summary["self_sum_ns"] - summary["wall_ns"], "ns"),
    }
    return metrics, extra, attempted, c_failed + f_failed, problems + c_bad + f_bad


def main(argv=None, size=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args(argv)

    missing = [p for p in REQUIRED if not os.path.isfile(os.path.join(ROOT, p))]
    if missing:
        print(f"perfbench: {', '.join(missing)} not found; run from the root of a "
              "full checkout", file=sys.stderr)
        return 2
    if SRC not in sys.path:
        sys.path.insert(0, SRC)
    import ftsmfc

    if os.path.dirname(os.path.abspath(ftsmfc.__file__)) != os.path.join(SRC, "ftsmfc"):
        print(f"perfbench: imported ftsmfc from {ftsmfc.__file__}, not from {SRC}",
              file=sys.stderr)
        return 2
    import workloads

    size = size or workloads.FULL
    os.makedirs(OUT, exist_ok=True)
    with tempfile.TemporaryDirectory(dir=OUT) as workdir:
        workload = workloads.make(args.workload, ROOT, args.seed, workdir, size)
        if args.trace:
            measured = traced(workload, args.seconds)
        else:
            measured = end_to_end(workload, args.seconds, size.setup_repeats)
        metrics, extra, attempted, failed, problems = measured

    units = dict(PER_LAYER if args.trace else END_TO_END)
    print("provenance " + json.dumps(_provenance(args), sort_keys=True))
    if workload.info:
        print("outputs " + json.dumps(workload.info, sort_keys=True))
    for name, value in metrics.items():
        print(f"metric {name} = {value!r} {units[name]}")
    for name, (value, unit) in extra.items():
        print(f"info {name} = {value!r} {unit} (not gated)")
    for problem in problems:
        print(f"gate failed: {problem}")
    result = {
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
