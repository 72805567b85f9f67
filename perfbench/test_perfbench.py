"""Self-check of the benchmark.  Run from the root of a checkout:

    python3 -m pytest perfbench/test_perfbench.py

It runs every workload at a tiny size in both modes, checks that the result
names every metric of BENCHMARK.json with its unit, and checks that corrupted
outputs trip each workload's correctness gate.
"""

from __future__ import annotations

import io
import json
import os
import shutil
import subprocess
import sys

import pytest

import run

sys.path.insert(0, run.SRC)

import workloads  # noqa: E402
from ftsmfc.sim_harness import PropertyResult, SuiteReport  # noqa: E402

with open(os.path.join(run.ROOT, "BENCHMARK.json")) as _fh:
    BENCH = json.load(_fh)


def test_benchmark_json_matches_the_runner():
    assert [w["name"] for w in BENCH["workloads"]] == list(run.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in BENCH["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in BENCH["per_layer"]] == list(run.PER_LAYER)
    assert any(m["name"] == "setup_s" for m in BENCH["end_to_end"])
    assert workloads.SUITES == run.SUITES


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_tiny_run_prints_every_metric_with_its_unit(workload, trace, capsys):
    argv = ["--workload", workload, "--seed", "7", "--seconds", "0.1", "--trace", str(trace)]
    assert run.main(argv, size=workloads.TINY) == 0
    lines = capsys.readouterr().out.strip().split("\n")
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"], lines
    assert result["failed"] == 0 and result["attempted"] >= 1
    expected = BENCH["per_layer" if trace else "end_to_end"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in expected
    }
    for m in expected:
        assert any(line.startswith(f"metric {m['name']} = ") and line.endswith(f" {m['unit']}")
                   for line in lines), m["name"]
    if not trace:
        assert all(v["value"] > 0 for v in result["metrics"].values())
    else:
        assert result["metrics"]["trace.overhead_ratio"]["value"] > 0


def _corrupt_value(text: str, row: int, column: int) -> str:
    lines = text.split("\n")
    fields = lines[row].split(",")
    fields[column] = repr(float(fields[column]) * (1 + 1e-6) + 1e-6)
    lines[row] = ",".join(fields)
    return "\n".join(lines)


@pytest.mark.parametrize("name", ["closed_loop_constant", "closed_loop_ramp"])
def test_corrupted_closed_loop_outputs_trip_the_gate(name, tmp_path):
    wl = workloads.make(name, run.ROOT, 3, str(tmp_path), workloads.TINY)
    assert wl.check(wl.call()) == []
    with open(wl.csv) as fh:
        csv_text = fh.read()
    with open(wl.csv + ".metrics") as fh:
        metrics_text = fh.read()

    def gate(csv, metrics=metrics_text):
        return wl.check_outputs(io.StringIO(csv), metrics)

    assert gate(csv_text) == []
    assert gate(_corrupt_value(csv_text, 120, 6))
    assert gate(csv_text.replace("\n", "\nnan," + "0," * 18 + "0\n", 1))
    assert gate(csv_text[:csv_text.rindex("\n", 0, -1) + 1])  # last row dropped
    key, _, value = metrics_text.splitlines()[0].partition(" = ")
    assert gate(csv_text, metrics_text.replace(
        f"{key} = {value}", f"{key} = {float(value) * 1.001!r}"))

    out = wl.call()
    with open(wl.csv, "w") as fh:
        fh.write(_corrupt_value(csv_text, 5, 1))
    assert wl.check(out) == ["CSV differs from the first call's"]


def test_corrupted_pendulum_outputs_trip_the_gate(tmp_path):
    wl = workloads.make("pendulum_reference", run.ROOT, 3, str(tmp_path), workloads.TINY)
    assert wl.warm_up() == []
    out = wl.call()
    with open(wl.trajectory) as fh:
        trajectory = fh.read()
    corrupted = _corrupt_value(trajectory, 40, 1)
    fresh = workloads.make("pendulum_reference", run.ROOT, 3, str(tmp_path), workloads.TINY)
    assert fresh.check_outputs(out, io.StringIO(corrupted), "")
    assert wl.check(out) == []

    sha = wl.first[0]
    no_divergence = dict(out, simulate=(0, "wrote 501 records", ""))
    assert wl.check_outputs(no_divergence, io.StringIO(trajectory), sha)
    other_tick = dict(out, simulate=(2, "", "numerical failure: plant diverged at step 7"))
    assert wl.check_outputs(other_tick, io.StringIO(trajectory), sha)
    assert wl.check_outputs(out, io.StringIO(corrupted), "another digest")


def test_failed_suite_trips_the_gate():
    wl = workloads.make("verify_suites", run.ROOT, 3, "", workloads.TINY)
    failing = SuiteReport("rho", (PropertyResult("range [1,2]", 10, 0.5, False),))
    assert wl.check({"reports": [failing]})
    assert wl.check({"reports": [SuiteReport("rho", ())]})


def test_refuses_to_run_without_the_package(tmp_path):
    shutil.copy(os.path.join(run.ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(run.HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "closed_loop_constant",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode != 0
    assert '"correct"' not in done.stdout
