"""tools/pairs.py: the verdicts it prints on paired benchmark runs, the order it runs
them in, and the bytecode it keeps out of both trees."""

import importlib.util
import json
import subprocess
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parents[1]
_spec = importlib.util.spec_from_file_location("pairs", REPO / "tools" / "pairs.py")
pairs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(pairs)

PARENT = [1.00, 1.02, 0.98, 1.01, 0.99, 1.03, 0.97, 1.00, 1.02, 0.98]  # quartiles 0.9825 and 1.0175


def test_claim_needs_nine_of_ten_and_a_gap_past_the_parents_quartiles():
    change = [p - 0.05 for p in PARENT]
    s = pairs.summarize(PARENT, change, "lower", 0.25)
    assert (s["wins"], s["claim"], s["within_bound"]) == (10, True, True)
    two_lose = [p + 0.1 if i < 2 else p - 0.05 for i, p in enumerate(PARENT)]
    assert pairs.summarize(PARENT, two_lose, "lower", 0.25)["wins"] == 8
    assert not pairs.summarize(PARENT, two_lose, "lower", 0.25)["claim"]
    # ten of ten lower by less than the parent's interquartile range of 0.035
    assert not pairs.summarize(PARENT, [p - 0.01 for p in PARENT], "lower", 0.25)["claim"]
    # ties count for neither side
    assert pairs.summarize(PARENT, PARENT, "lower", 0.25)["wins"] == 0


def test_bound_is_relative_to_the_parents_median():
    assert pairs.summarize(PARENT, [p * 1.2 for p in PARENT], "lower", 0.25)["within_bound"]
    assert not pairs.summarize(PARENT, [p * 1.3 for p in PARENT], "lower", 0.25)["within_bound"]
    higher = pairs.summarize(PARENT, [p * 1.3 for p in PARENT], "higher", 0.25)
    assert (higher["wins"], higher["within_bound"]) == (10, True)
    assert not pairs.summarize(PARENT, [p * 0.7 for p in PARENT], "higher", 0.25)["within_bound"]


def _tree(tmp_path, name):
    tree = tmp_path / name
    tree.mkdir()
    (tree / "perfbench").mkdir()
    (tree / "BENCHMARK.json").write_text(json.dumps({"end_to_end": [
        {"name": "call_s", "unit": "s", "better": "lower", "bound": 0.25}]}))
    return str(tree)


@pytest.mark.parametrize("failed", [0, 1])
def test_runs_alternate_and_a_failed_run_is_an_error(tmp_path, monkeypatch, capsys, failed):
    parent, change = _tree(tmp_path, "parent"), _tree(tmp_path, "change")
    runs = []

    def run_once(tree, workload, seed, seconds, pycache):
        runs.append((tree, seed))
        return {"correct": True, "attempted": 5, "failed": failed if tree == change else 0,
                "metrics": {"call_s": {"value": 1.0 if tree == parent else 0.5, "unit": "s"}}}

    monkeypatch.setattr(pairs, "run_once", run_once)
    monkeypatch.setattr(pairs, "compile_tree", lambda tree, pycache: runs.append((tree, None)))
    rc = pairs.main([parent, change, "--workload", "w", "--pairs", "3", "--first-seed", "7"])
    assert rc == failed
    # each tree compiled once, before pair 1
    assert runs == [(parent, None), (change, None),
                    (parent, 7), (change, 7), (change, 8), (parent, 8), (parent, 9), (change, 9)]
    out = capsys.readouterr().out
    assert "change better in 3/3 pairs" in out and "within its bound 0.25" in out
    assert f"{3 * failed} runs incorrect or with failed operations" in out
    # the last line is the run as JSON, and it reads back to the verdicts printed
    record = json.loads(out.splitlines()[-1])
    assert (record["workload"], record["seeds"], record["seconds"]) == ("w", [7, 8, 9], 20.0)
    assert record["bad_runs"] == 3 * failed
    call = record["metrics"]["call_s"]
    assert call["pairs"] == [[1.0, 0.5]] * 3
    assert (call["parent"], call["change"]) == ([1.0, 1.0, 1.0], [0.5, 0.5, 0.5])
    assert (call["unit"], call["better"], call["bound"]) == ("s", "lower", 0.25)
    verdicts = (f"change better in {call['wins']}/{len(call['pairs'])} pairs; claim rule "
                f"{'holds' if call['claim'] else 'does not hold'}; "
                f"{'within' if call['within_bound'] else 'OUTSIDE'} its bound {call['bound']}")
    assert verdicts in out
    assert verdicts == "change better in 3/3 pairs; claim rule holds; within its bound 0.25"


def test_run_once_reads_and_writes_bytecode_under_the_prefix(tmp_path, monkeypatch):
    calls = []

    def run(argv, **kwargs):
        calls.append(kwargs)
        return subprocess.CompletedProcess(argv, 0, stdout='{"correct": true}\n', stderr="")

    monkeypatch.setattr(pairs.subprocess, "run", run)
    pycache = str(tmp_path / "pycache")
    assert pairs.run_once(str(tmp_path), "w", 1, 0.1, pycache) == {"correct": True}
    [kwargs] = calls
    assert kwargs["cwd"] == str(tmp_path)
    assert kwargs["env"]["PYTHONPYCACHEPREFIX"] == pycache


# A perfbench/run.py whose run is correct when the module it imports was compiled before
_RUN = """
import importlib.util, json, os, sys
compiled = os.path.exists(importlib.util.cache_from_source(os.path.abspath("src/mod.py")))
sys.path.insert(0, "src")
import mod
print(json.dumps({"correct": compiled and mod.OK, "attempted": 1, "failed": 0,
                  "metrics": {"call_s": {"value": 1.0, "unit": "s"}}}))
"""


def test_trees_compiled_before_the_runs_and_left_without_a_pycache(tmp_path, capsys):
    trees = [_tree(tmp_path, "parent"), _tree(tmp_path, "change")]
    for tree in map(Path, trees):
        (tree / "perfbench" / "run.py").write_text(_RUN)
        (tree / "src").mkdir()
        (tree / "src" / "mod.py").write_text("OK = True\n")
    assert pairs.main([*trees, "--workload", "w", "--pairs", "2"]) == 0
    assert "0 runs incorrect" in capsys.readouterr().out
    assert not [p for tree in trees for p in Path(tree).rglob("__pycache__")]
    assert not [p for tree in trees for p in Path(tree).rglob("*.pyc")]
