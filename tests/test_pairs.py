"""tools/pairs.py: the verdicts it prints on paired benchmark runs, the order it runs
them in, the tier-1 runs it records, and the bytecode it keeps out of both trees."""

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

    def run_tier1(tree, pycache):
        runs.append((tree, "tier1"))
        return {"wall_s": 30.5 if tree == parent else 20.25, "exit": 0,
                "summary": "3 passed in 1.00s", "slowest": [[1.5, "call", "tests/t.py::test_a"]]}

    monkeypatch.setattr(pairs, "run_once", run_once)
    monkeypatch.setattr(pairs, "compile_tree", lambda tree, pycache: runs.append((tree, None)))
    monkeypatch.setattr(pairs, "run_tier1", run_tier1)
    rc = pairs.main([parent, change, "--workload", "w", "--pairs", "3", "--first-seed", "7",
                     "--tier1"])
    assert rc == failed
    # each tree compiled once, before pair 1, and its tier-1 suite run once, after the pairs
    assert runs == [(parent, None), (change, None),
                    (parent, 7), (change, 7), (change, 8), (parent, 8), (parent, 9), (change, 9),
                    (parent, "tier1"), (change, "tier1")]
    out = capsys.readouterr().out
    assert "change better in 3/3 pairs" in out and "within its bound 0.25" in out
    assert f"{3 * failed} runs incorrect or with failed operations" in out
    # the last line is the run as JSON, and it reads back to the verdicts printed
    record = json.loads(out.splitlines()[-1])
    assert (record["workload"], record["seeds"], record["seconds"]) == ("w", [7, 8, 9], 20.0)
    assert record["bad_runs"] == 3 * failed
    assert record["host"].keys() == {"nproc", "load_1min", "python", "numpy"}
    assert record["host"]["nproc"] >= 1
    assert record["commits"] == {"parent": None, "change": None}  # neither tree is a checkout
    assert record["tier1"] == {side: run_tier1(tree, None)
                               for side, tree in (("parent", parent), ("change", change))}
    assert record["tier1"]["parent"].keys() == {"wall_s", "exit", "summary", "slowest"}
    assert ("tier-1 change: 20.2 s, 3 passed in 1.00s (exit 0); slowest: 1.50s tests/t.py::test_a"
            in out)
    call = record["metrics"]["call_s"]
    assert call["pairs"] == [[1.0, 0.5]] * 3
    assert (call["parent"], call["change"]) == ([1.0, 1.0, 1.0], [0.5, 0.5, 0.5])
    assert (call["unit"], call["better"], call["bound"]) == ("s", "lower", 0.25)
    verdicts = (f"change better in {call['wins']}/{len(call['pairs'])} pairs; claim rule "
                f"{'holds' if call['claim'] else 'does not hold'}; "
                f"{'within' if call['within_bound'] else 'OUTSIDE'} its bound {call['bound']}")
    assert verdicts in out
    assert verdicts == "change better in 3/3 pairs; claim rule holds; within its bound 0.25"


def test_head_commit_is_the_checkouts_own(tmp_path):
    tree = tmp_path / "tree"
    tree.mkdir()
    git = ["git", "-c", "user.name=t", "-c", "user.email=t@t", "-c", "commit.gpgsign=false"]
    subprocess.run([*git, "init", "-q"], cwd=tree, check=True)
    subprocess.run([*git, "commit", "-q", "--allow-empty", "-m", "m"], cwd=tree, check=True)
    head = subprocess.run(["git", "rev-parse", "HEAD"], cwd=tree, capture_output=True,
                          text=True, check=True).stdout.strip()
    assert pairs.head_commit(str(tree)) == head
    # a directory inside the checkout is not the root of one
    (tree / "sub").mkdir()
    assert pairs.head_commit(str(tree / "sub")) is None


_PYTEST_OUT = """\
........x.                                                               [100%]
============================= slowest 5 durations ==============================
2.66s call     tests/test_verify.py::test_peak_memory[lemma1]
0.92s setup    tests/test_cli.py::test_front_door_sweep[pendulum]
9 passed, 1 xfailed in 4.20s
"""


def test_tier1_runs_roadmaps_command_and_reads_its_durations(tmp_path, monkeypatch):
    calls = []

    def run(argv, **kwargs):
        calls.append((argv, kwargs))
        return subprocess.CompletedProcess(argv, 0, stdout=_PYTEST_OUT, stderr="")

    monkeypatch.setattr(pairs.subprocess, "run", run)
    monkeypatch.delenv("PYTHONPATH", raising=False)
    pycache = str(tmp_path / "pycache")
    result = pairs.run_tier1(str(tmp_path), pycache)
    [(argv, kwargs)] = calls
    assert argv[1:5] == ["-m", "pytest", "-q", "--continue-on-collection-errors"]
    assert "--durations=5" in argv
    assert kwargs["cwd"] == str(tmp_path)
    assert (kwargs["env"]["PYTHONPATH"], kwargs["env"]["PYTHONPYCACHEPREFIX"]) == ("src", pycache)
    assert result["wall_s"] >= 0
    del result["wall_s"]
    assert result == {"exit": 0, "summary": "9 passed, 1 xfailed in 4.20s", "slowest": [
        [2.66, "call", "tests/test_verify.py::test_peak_memory[lemma1]"],
        [0.92, "setup", "tests/test_cli.py::test_front_door_sweep[pendulum]"]]}


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
    out = capsys.readouterr().out
    assert "0 runs incorrect" in out
    assert json.loads(out.splitlines()[-1])["tier1"] is None  # no --tier1
    assert not [p for tree in trees for p in Path(tree).rglob("__pycache__")]
    assert not [p for tree in trees for p in Path(tree).rglob("*.pyc")]
