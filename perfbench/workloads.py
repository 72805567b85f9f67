"""The benchmark's four workloads: inputs made from the seed, one timed call,
and the correctness gate applied to every call's outputs.

Each workload is driven only through `ftsmfc.cli.main` and public functions,
looked up at call time so that the traced run can wrap them.  `run.py` puts
the checkout's `src/` first on `sys.path` before importing this module.
See NOTES.md for why each workload exists.

The gate streams what it reads and keeps only digests between calls, so the
process's peak memory stays the program's, not the gate's.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import itertools
import math
import os
import re
import time
from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np
import yaml

from ftsmfc import cli, sim_harness

import reference

# The package's fixed CSV contract, restated here so that the gate does not
# trust the code it checks.
CSV_HEADER = (
    "t,x,theta,x_meas,theta_meas,x_hat,theta_hat,x_d,theta_d,"
    "ex,etheta,F1,F2,Fhat1,Fhat2,eF1,eF2,u1,u2"
)
TRAJECTORY_HEADER = "t,x_d,theta_d"

# A last-ulp re-baseline of the arithmetic moves the contracting closed loop by
# ~1e-15 (up to ~6e-11 on the ramp, whose second-order observer accumulates
# rounding); any change of gain, schedule or plant moves transients by far
# more than 1e-9.
CSV_TOL = 1e-9
# The metrics file is recomputed from the CSV it summarises, so only the
# summation order differs.
METRIC_RTOL = 1e-9

SUITES = ("gamma", "rho", "lemma1", "holder", "control", "robustness")
# The amount of work in these suites swings with the seed (0.1 s to 2.5 s
# across seeds 0-15), so they run at the seed `ftsmfc verify` uses and the
# suite-set time stays comparable between workload seeds.
FIXED_SEED_SUITES = ("lemma1", "holder")

SHIPPED_DIVERGENCE_TICK = 113


@dataclass(frozen=True)
class Size:
    """How much work one call does; the self-check shrinks it."""

    closed_loop_T: Optional[float] = None  # None keeps the config's 70 s horizon
    pendulum_T: Optional[float] = None
    settle_time: Optional[float] = None
    suites: Tuple[str, ...] = SUITES
    setup_repeats: int = 9


FULL = Size()
TINY = Size(closed_loop_T=2.0, pendulum_T=5.0, settle_time=1.0,
            suites=("rho", "holder", "control"), setup_repeats=1)


def _load(root: str, name: str) -> dict:
    with open(os.path.join(root, "configs", name)) as fh:
        return yaml.safe_load(fh)


def _write(doc: dict, path: str) -> str:
    with open(path, "w") as fh:
        yaml.safe_dump(doc, fh, sort_keys=False)
    return path


def _quiet_main(argv):
    """cli.main with its stdout and stderr captured, and its wall time."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        t0 = time.perf_counter()
        rc = cli.main(argv)
        seconds = time.perf_counter() - t0
    return rc, out.getvalue().strip(), err.getvalue().strip(), seconds


def _sha256(path: str) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            digest.update(block)
    return digest.hexdigest()


def _csv_rows(lines, header: str, columns: int):
    """Yield the rows of a CSV as floats; ValueError on any malformed line."""
    lines = iter(lines)
    first = next(lines, "")
    if first.rstrip("\n") != header:
        raise ValueError(f"header is {first.strip()!r}")
    for line in lines:
        if not line.endswith("\n"):
            raise ValueError("last row is not newline-terminated")
        row = tuple(float(v) for v in line.split(","))
        if len(row) != columns:
            raise ValueError(f"a row does not have {columns} fields")
        if not all(math.isfinite(v) for v in row):
            raise ValueError("non-finite value")
        yield row


def _compared(rows, expected, stats: dict):
    """Yield rows, recording in stats their worst deviation from expected.

    The deviation is |row - expected| / max(1, |expected|); a row count that
    differs from expected's raises ValueError.
    """
    for row, ref in itertools.zip_longest(rows, expected):
        if row is None or ref is None:
            raise ValueError("row count differs from the reference's")
        stats["worst"] = max(
            stats["worst"], max(abs(a - b) / max(1.0, abs(b)) for a, b in zip(row, ref))
        )
        yield row


def _close(a: float, b: float, rtol: float) -> bool:
    if math.isnan(a) or math.isnan(b):
        return math.isnan(a) and math.isnan(b)
    return abs(a - b) <= rtol * abs(b)


class ClosedLoop:
    """`ftsmfc simulate` on a synthetic plant; see NOTES.md."""

    def __init__(self, name: str, doc: dict, workdir: str, size: Size, shipped: Optional[str]):
        if size.closed_loop_T is not None:
            doc["T"] = size.closed_loop_T
        if size.settle_time is not None:
            doc["metrics"]["settle_time"] = size.settle_time
        self.name = name
        self.doc = doc
        self.shipped = shipped
        self.workdir = workdir
        self.config = _write(doc, os.path.join(workdir, f"{name}.yaml"))
        self.csv = os.path.join(workdir, f"{name}.csv")
        self.n_records = int(math.floor(float(doc["T"]) / float(doc["dt"]))) + 1
        self.first_sha = None
        self.info = {}

    def call(self) -> dict:
        rc, out, err, seconds = _quiet_main(
            ["simulate", "--config", self.config, "--out", self.csv]
        )
        return {"rc": rc, "stdout": out, "stderr": err, "simulate_s": seconds}

    def warm_up(self) -> list:
        """One untimed call; on the constant plant it runs the shipped config."""
        if self.shipped is None:
            return self.check(self.call())
        path = os.path.join(self.workdir, "shipped.csv")
        rc, _, err, _ = _quiet_main(["simulate", "--config", self.shipped, "--out", path])
        if rc != 0:
            return [f"shipped config: simulate exit {rc}: {err}"]
        self.info["shipped_csv_sha256"] = _sha256(path)
        return []

    def check(self, out: dict) -> list:
        if out["rc"] != 0:
            return [f"simulate exit {out['rc']}: {out['stderr']}"]
        if out["stdout"] != f"wrote {self.n_records} records to {self.csv}":
            return [f"unexpected simulate output {out['stdout']!r}"]
        digest = _sha256(self.csv)
        if self.first_sha is not None:
            return [] if digest == self.first_sha else ["CSV differs from the first call's"]
        with open(self.csv + ".metrics") as fh:
            metrics_text = fh.read()
        with open(self.csv) as fh:
            problems = self.check_outputs(fh, metrics_text)
        if not problems:
            self.first_sha = digest
            self.info["csv_sha256"] = digest
        return problems

    def check_outputs(self, csv_lines, metrics_text: str) -> list:
        """Gate the CSV against the reference loop, and the metrics against the CSV."""
        stats = {"worst": 0.0}
        rows = _compared(_csv_rows(csv_lines, CSV_HEADER, 19), reference.simulate(self.doc),
                         stats)
        try:
            want = reference.steady_state_metrics(
                rows, float(self.doc["metrics"]["settle_time"]), self.doc["metrics"]["bands"]
            )
        except ValueError as exc:
            return [f"CSV: {exc}"]
        self.info["max_rel_dev_vs_reference"] = stats["worst"]
        if stats["worst"] > CSV_TOL:
            return [f"CSV deviates from the reference loop by {stats['worst']:.3g}"]
        got = {}
        for line in metrics_text.splitlines():
            key, _, value = line.partition(" = ")
            got[key] = float(value)
        if set(got) != set(want):
            return [f"metrics keys {sorted(got)} differ from {sorted(want)}"]
        bad = [k for k in want if not _close(got[k], want[k], METRIC_RTOL)]
        if bad:
            return [f"steady-state metrics do not match the CSV: {', '.join(sorted(bad))}"]
        return []


def closed_loop_constant(root: str, seed: int, workdir: str, size: Size) -> ClosedLoop:
    rng = np.random.default_rng(seed)
    doc = _load(root, "synthetic_constant.yaml")
    doc["plant"]["spec"]["const"] = [float(v) for v in rng.uniform(-0.5, 0.5, 2)]
    doc["initial_estimate"][:2] = [float(v) for v in rng.uniform(-0.1, 0.1, 2)]
    doc["noise"]["phases"] = [float(v) for v in rng.uniform(0.0, 2.0 * math.pi, 2)]
    shipped = os.path.join(root, "configs", "synthetic_constant.yaml")
    return ClosedLoop("closed_loop_constant", doc, workdir, size, shipped)


def closed_loop_ramp(root: str, seed: int, workdir: str, size: Size) -> ClosedLoop:
    rng = np.random.default_rng(seed)
    doc = _load(root, "synthetic_constant.yaml")
    doc["plant"] = {
        "kind": "ramp",
        "spec": {
            "slope": [float(v) for v in rng.uniform(-0.002, 0.002, 2)],
            "G": doc["plant"]["spec"]["G"],
            "nu": 2,
        },
    }
    doc["controller"]["law"] = "basic"
    doc["observer"]["order"] = "second"
    doc["filter"]["enabled"] = False
    doc["noise"]["enabled"] = False
    return ClosedLoop("closed_loop_ramp", doc, workdir, size, None)


_DIVERGED = re.compile(r"diverged at step (\d+)")


class PendulumReference:
    """`generate-trajectory` then `simulate` on the pendulum experiment."""

    name = "pendulum_reference"

    def __init__(self, root: str, seed: int, workdir: str, size: Size):
        rng = np.random.default_rng(seed)
        doc = _load(root, "paper_experiment.yaml")
        doc["noise"]["phases"] = [float(v) for v in rng.uniform(0.0, 2.0 * math.pi, 2)]
        if size.pendulum_T is not None:
            doc["T"] = size.pendulum_T
        self.doc = doc
        self.shipped = os.path.join(root, "configs", "paper_experiment.yaml")
        self.workdir = workdir
        self.config = _write(doc, os.path.join(workdir, "pendulum.yaml"))
        self.trajectory = os.path.join(workdir, "trajectory.csv")
        self.sim_csv = os.path.join(workdir, "pendulum.csv")
        self.n_steps = int(math.floor(float(doc["T"]) / float(doc["dt"])))
        self.first = None  # (trajectory SHA-256, divergence tick) of the first call
        self.info = {}

    def call(self) -> dict:
        trajectory = _quiet_main(
            ["generate-trajectory", "--config", self.config, "--out", self.trajectory]
        )
        simulate = _quiet_main(["simulate", "--config", self.config, "--out", self.sim_csv])
        return {
            "trajectory": trajectory[:3], "generate_trajectory_s": trajectory[3],
            "simulate": simulate[:3], "simulate_s": simulate[3],
        }

    def warm_up(self) -> list:
        """The shipped config must diverge at its documented tick."""
        rc, _, err, _ = _quiet_main(
            ["simulate", "--config", self.shipped,
             "--out", os.path.join(self.workdir, "shipped.csv")]
        )
        match = _DIVERGED.search(err)
        tick = int(match.group(1)) if match else None
        self.info["shipped_divergence_tick"] = tick
        if rc != 2 or tick != SHIPPED_DIVERGENCE_TICK:
            return [f"shipped config: exit {rc}, divergence tick {tick}, "
                    f"expected exit 2 at tick {SHIPPED_DIVERGENCE_TICK}"]
        return []

    def check(self, out: dict) -> list:
        with open(self.trajectory) as fh:
            return self.check_outputs(out, fh, _sha256(self.trajectory))

    def check_outputs(self, out: dict, trajectory_lines, trajectory_sha: str) -> list:
        problems = []
        rc, stdout, err = out["trajectory"]
        if rc != 0:
            problems.append(f"generate-trajectory exit {rc}: {err}")
        elif stdout != f"wrote {self.n_steps + 1} samples to {self.trajectory}":
            problems.append(f"unexpected generate-trajectory output {stdout!r}")
        elif self.first is None:
            problems += self._check_trajectory(trajectory_lines)
        elif trajectory_sha != self.first[0]:
            problems.append("trajectory differs from the first call's")
        rc, _, err = out["simulate"]
        match = _DIVERGED.search(err)
        tick = int(match.group(1)) if match else None
        if rc != 2 or tick is None or not 0 < tick < self.n_steps:
            problems.append(f"simulate: exit {rc} ({err!r}); expected a divergence "
                            f"before tick {self.n_steps}")
        elif self.first is not None and tick != self.first[1]:
            problems.append(f"divergence tick {tick} differs from the first call's")
        if not problems and self.first is None:
            self.first = (trajectory_sha, tick)
            self.info["divergence_tick"] = tick
        return problems

    def _check_trajectory(self, lines) -> list:
        stats = {"worst": 0.0}
        rows = _compared(_csv_rows(lines, TRAJECTORY_HEADER, 3),
                         reference.desired_trajectory(self.doc), stats)
        try:
            for _ in rows:
                pass
        except ValueError as exc:
            return [f"trajectory: {exc}"]
        self.info["trajectory_max_rel_dev_vs_reference"] = stats["worst"]
        if stats["worst"] > CSV_TOL:
            return [f"trajectory deviates from the reference by {stats['worst']:.3g}"]
        return []


class VerifySuites:
    """`verify_suite(name, seed)` over the suite set; see NOTES.md."""

    name = "verify_suites"
    config = None

    def __init__(self, seed: int, size: Size):
        self.seed = seed
        self.suites = size.suites
        self.info = {}

    def _run(self, name: str):
        if name in FIXED_SEED_SUITES:
            return sim_harness.verify_suite(name)
        return sim_harness.verify_suite(name, self.seed)

    def call(self) -> dict:
        reports, times = [], {}
        for name in self.suites:
            t0 = time.perf_counter()
            reports.append(self._run(name))
            times[name] = time.perf_counter() - t0
        return {"reports": reports, "suite_s": times, "verify_s": sum(times.values())}

    def warm_up(self) -> list:
        return self.check({"reports": [self._run("rho")]})

    def check(self, out: dict) -> list:
        problems = []
        for report in out["reports"]:
            if report.suite not in SUITES:
                problems.append(f"unexpected suite {report.suite!r}")
            if not report.results:
                problems.append(f"suite {report.suite} checked nothing")
            for r in report.results:
                if not r.passed:
                    problems.append(f"suite {report.suite}: {r.name} failed "
                                    f"(worst margin {r.worst_margin:.6g})")
                self.info.setdefault("worst_margins", {})[f"{report.suite}: {r.name}"] = (
                    r.worst_margin
                )
        return problems


def make(name: str, root: str, seed: int, workdir: str, size: Size = FULL):
    if name == "closed_loop_constant":
        return closed_loop_constant(root, seed, workdir, size)
    if name == "closed_loop_ramp":
        return closed_loop_ramp(root, seed, workdir, size)
    if name == "pendulum_reference":
        return PendulumReference(root, seed, workdir, size)
    if name == "verify_suites":
        return VerifySuites(seed, size)
    raise ValueError(f"unknown workload {name!r}")
