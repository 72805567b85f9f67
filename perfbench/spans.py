"""Span tracer for the benchmark's traced run.

The tracer wraps public functions of the package where their callers look
them up (module globals such as `sim_harness.filter_update` and
`output_filter.holder_gain`, and class attributes such as
`PendulumPlant.step`).  Each call records a span: name, start, end and parent.
Spans stay in memory; `summarize` turns them into per-function and per-module
self times, where a span's self time is its duration minus the time covered
by its child spans.  The end-to-end run installs none of it.
"""

from __future__ import annotations

import gzip
import importlib
import statistics
import time
from collections import Counter, defaultdict
from contextlib import contextmanager

import numpy as np

MODULES = (
    "fts_core", "output_filter", "ulm_observer", "tracking_control",
    "plant_models", "sim_harness", "cli",
)

# Every public function the workloads reach, so that module self times cover
# the whole call.  Functions left out are charged to their caller's module.
FULL = (
    "fts_core.holder_gain", "fts_core.gamma_of_V", "fts_core.fts_recursion",
    "fts_core.verify_fts_condition", "fts_core.verify_holder_continuity",
    "output_filter.filter_update",
    "ulm_observer.first_order_update", "ulm_observer.second_order_update",
    "ulm_observer.compute_F",
    "tracking_control.solve_input", "tracking_control.control_law_fts",
    "tracking_control.control_law_basic",
    "plant_models.noise_sample", "plant_models.pendulum_step",
    "plant_models.generate_desired_trajectory", "plant_models.PendulumPlant.step",
    "plant_models.SyntheticUlmPlant.step",
    "sim_harness.run_closed_loop", "sim_harness.SimLog.to_csv",
    "sim_harness.SimConfig.from_yaml", "sim_harness.compute_metrics",
    "sim_harness.verify_suite",
    "cli.main",
)

# The once-per-call functions whose times give the throughput figures.  With
# at most a few spans per call this set costs nothing measurable, so the
# coarse pass stands in for the untraced run.
COARSE = (
    "cli.main", "sim_harness.run_closed_loop", "sim_harness.SimLog.to_csv",
    "sim_harness.SimConfig.from_yaml", "plant_models.generate_desired_trajectory",
    "sim_harness.verify_suite",
)

LOOP = "sim_harness.run_closed_loop"


def _ticks(args, result, exc):
    if exc is not None:
        return getattr(exc, "step_index", None) or 0
    return len(result)


# Work counted at a span boundary: name -> f(args, result, exception) -> units.
WORK = {
    LOOP: _ticks,
    "sim_harness.SimLog.to_csv": lambda args, result, exc: len(args[0]),
    "plant_models.generate_desired_trajectory":
        lambda args, result, exc: 0 if exc is not None else len(result),
    "fts_core.fts_recursion":
        lambda args, result, exc: 0 if exc is not None else len(result[0]) - 1,
}


class Tracer:
    """In-memory span store; one instance per traced pass."""

    def __init__(self):
        self.ids = {}
        self.labels = []
        self.name = []
        self.start = []
        self.end = []
        self.parent = []
        self.raised = []
        self.stack = [-1]
        self.work = Counter()
        self.svd_calls = 0

    def _id(self, label: str) -> int:
        if label not in self.ids:
            self.ids[label] = len(self.labels)
            self.labels.append(label)
        return self.ids[label]

    @contextmanager
    def span(self, label: str):
        name_id = self._id(label)
        i = len(self.start)
        self.name.append(name_id)
        self.parent.append(self.stack[-1])
        self.end.append(0)
        self.stack.append(i)
        self.start.append(time.perf_counter_ns())
        try:
            yield
        except Exception:
            self.raised.append(i)
            raise
        finally:
            self.end[i] = time.perf_counter_ns()
            self.stack.pop()

    def wrap(self, label: str, fn):
        name_id = self._id(label)
        names, starts, ends, parents, stack = (
            self.name, self.start, self.end, self.parent, self.stack,
        )
        raised, clock = self.raised, time.perf_counter_ns
        count = WORK.get(label)
        work = self.work

        def traced(*args, **kwargs):
            i = len(starts)
            names.append(name_id)
            parents.append(stack[-1])
            ends.append(0)
            stack.append(i)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                ends[i] = clock()
                stack.pop()
                raised.append(i)
                if count is not None:
                    work[label] += count(args, None, exc)
                raise
            ends[i] = clock()
            stack.pop()
            if count is not None:
                work[label] += count(args, result, None)
            return result

        traced.__wrapped__ = fn
        return traced

    def count_svd(self, fn):
        loop_id = self._id(LOOP)
        names, stack = self.name, self.stack

        def counted(*args, **kwargs):
            if any(names[i] == loop_id for i in stack[1:]):
                self.svd_calls += 1
            return fn(*args, **kwargs)

        return counted

    def write(self, path: str) -> None:
        """Write every span as gzip CSV: name,start_ns,end_ns,parent,raised."""
        raised = set(self.raised)
        with gzip.open(path, "wt", compresslevel=1) as fh:
            fh.write("name,start_ns,end_ns,parent,raised\n")
            labels = self.labels
            for i, (n, s, e, p) in enumerate(zip(self.name, self.start, self.end, self.parent)):
                fh.write(f"{labels[n]},{s},{e},{p},{int(i in raised)}\n")


def _resolve(label: str):
    """(owner, attribute, function, rebind) for 'module.func' or 'module.Class.meth'."""
    parts = label.split(".")
    module = importlib.import_module(f"ftsmfc.{parts[0]}")
    if len(parts) == 2:
        return module, parts[1], getattr(module, parts[1]), None
    owner = getattr(module, parts[1])
    raw = owner.__dict__[parts[2]]
    if isinstance(raw, staticmethod):
        return owner, parts[2], raw.__func__, staticmethod
    return owner, parts[2], raw, None


@contextmanager
def installed(tracer: Tracer, labels, count_svd: bool = False):
    """Patch each labelled function wherever the package binds it; undo on exit."""
    modules = [importlib.import_module("ftsmfc")] + [
        importlib.import_module(f"ftsmfc.{m}") for m in MODULES
    ]
    undo = []
    try:
        for label in labels:
            owner, attr, fn, rebind = _resolve(label)
            wrapper = tracer.wrap(label, fn)
            if owner in modules:
                for module in modules:
                    for name, value in list(vars(module).items()):
                        if value is fn:
                            undo.append((module, name, value))
                            setattr(module, name, wrapper)
            else:
                undo.append((owner, attr, owner.__dict__[attr]))
                setattr(owner, attr, rebind(wrapper) if rebind else wrapper)
        if count_svd:
            undo.append((np.linalg, "svd", np.linalg.svd))
            np.linalg.svd = tracer.count_svd(np.linalg.svd)
        yield tracer
    finally:
        for owner, attr, value in reversed(undo):
            setattr(owner, attr, value)


def summarize(tracer: Tracer, n_calls: int) -> dict:
    """Self times and counts per function and per module, per workload call.

    Returns {"functions": {label: {...}}, "modules": {module: {...}},
    "wall_ns": total duration of the root spans, "self_sum_ns": the sum of
    every span's self time, "min_self_ns": the smallest self time}.  The two
    totals are equal integers by construction; a negative self time means a
    child span outlived its parent.
    """
    n = len(tracer.start)
    dur = [e - s for s, e in zip(tracer.start, tracer.end)]
    child = [0] * n
    wall = 0
    for i, p in enumerate(tracer.parent):
        if p >= 0:
            child[p] += dur[i]
        else:
            wall += dur[i]
    selfs = defaultdict(list)
    for i in range(n):
        selfs[tracer.name[i]].append(dur[i] - child[i])
    errors = Counter(tracer.name[i] for i in tracer.raised)

    functions, modules = {}, defaultdict(lambda: {"self_ns": 0, "errors": 0})
    for name_id, values in selfs.items():
        label = tracer.labels[name_id]
        total = sum(values)
        functions[label] = {
            "calls": len(values) / n_calls,
            "self_s": total / n_calls / 1e9,
            "self_us_p50": statistics.median(values) / 1e3,
            "share": total / wall if wall else 0.0,
        }
        module = modules[label.split(".")[0]]
        module["self_ns"] += total
        module["errors"] += errors[name_id]
    return {
        "functions": functions,
        "modules": {
            m: {
                "self_s": v["self_ns"] / n_calls / 1e9,
                "share": v["self_ns"] / wall if wall else 0.0,
                "errors": v["errors"] / n_calls,
            }
            for m, v in modules.items()
        },
        "wall_ns": wall,
        "self_sum_ns": sum(sum(v) for v in selfs.values()),
        "min_self_ns": min(min(v) for v in selfs.values()),
    }
