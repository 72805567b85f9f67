"""Paired benchmark runs of two checkouts: does a change hold its bounds, or claim a gain?

Usage, with PARENT and CHANGE the roots of two checkouts:

    python3 tools/pairs.py PARENT CHANGE --workload W [--pairs 10] [--seconds 20]
                           [--first-seed S]

Pair i runs `perfbench/run.py --workload W --seed S+i --seconds SECONDS --trace 0`
once in each checkout, the parent first in even pairs and the change first in odd
ones.  Bytecode goes to a temporary PYTHONPYCACHEPREFIX, so that neither tree gains
a __pycache__, and each tree is compiled there once before pair 1, so that no run
compiles a module: a compile's memory would count in its peak_rss_mb.
For each end-to-end metric of PARENT's BENCHMARK.json it prints every pair, each
side's median and quartiles, the pairs in which the change reads better, whether
a gain could be claimed (at least nine tenths of the pairs better, ties counting
for neither, and the medians apart by more than the distance between the
parent's quartiles) and whether the change's median stays within the metric's
bound.  Its last line is the same as one JSON object: the workload, the seeds and
seconds, and for each metric its pairs, quartiles, wins and verdicts.  It exits 1
when a run exits non-zero, fails its correctness gate or counts a failed operation.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import statistics
import subprocess
import sys
import tempfile


def _env(pycache: str) -> dict:
    """This environment, with Python's bytecode read from and written to pycache."""
    return dict(os.environ, PYTHONPYCACHEPREFIX=pycache)


def compile_tree(tree: str, pycache: str) -> None:
    """Compile every module of tree into pycache."""
    subprocess.run([sys.executable, "-m", "compileall", "-q", "."], cwd=tree, env=_env(pycache),
                   stdout=subprocess.DEVNULL)


def run_once(tree: str, workload: str, seed: int, seconds: float, pycache: str) -> dict:
    """One untraced benchmark run in tree: its last line, the JSON result."""
    proc = subprocess.run(
        [sys.executable, os.path.join("perfbench", "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=tree, env=_env(pycache), capture_output=True, text=True)
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{tree}: perfbench exited {proc.returncode}: {proc.stderr.strip()}")
    return json.loads(lines[-1])


def summarize(parent, change, better: str, bound: float) -> dict:
    """The verdict on one metric from its paired values, parent[i] against change[i]."""
    sign = 1.0 if better == "lower" else -1.0
    wins = sum(sign * (p - c) > 0 for p, c in zip(parent, change))
    (p1, pm, p3), (c1, cm, c3) = (statistics.quantiles(side, n=4, method="inclusive")
                                  for side in (parent, change))
    gap = sign * (pm - cm)  # positive when the change's median is better
    return {
        "pairs": list(zip(parent, change)), "parent": (p1, pm, p3), "change": (c1, cm, c3),
        "wins": wins, "claim": 10 * wins >= 9 * len(parent) and gap > p3 - p1,
        "within_bound": -gap <= bound * abs(pm),
    }


def _report(name: str, unit: str, better: str, bound: float, s: dict) -> str:
    """The lines printed for one metric's summarize() result s."""
    quart = "median {1:.4g} [Q1 {0:.4g}, Q3 {2:.4g}]".format
    pairs = ", ".join(f"{p:.4g}/{c:.4g}" for p, c in s["pairs"])
    return (f"{name} ({unit}, {better} is better): parent {quart(*s['parent'])}; "
            f"change {quart(*s['change'])}; change better in {s['wins']}/{len(s['pairs'])} "
            f"pairs; claim rule {'holds' if s['claim'] else 'does not hold'}; "
            f"{'within' if s['within_bound'] else 'OUTSIDE'} its bound {bound}\n"
            f"  pairs parent/change: {pairs}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent", help="root of the parent checkout")
    parser.add_argument("change", help="root of the changed checkout")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--first-seed", type=int, default=1)
    args = parser.parse_args(argv)
    if args.pairs < 2:
        parser.error("--pairs must be at least 2, for quartiles")

    with open(os.path.join(args.parent, "BENCHMARK.json")) as fh:
        metrics = json.load(fh)["end_to_end"]
    trees = {"parent": args.parent, "change": args.change}
    # perfbench/run.py makes perfbench/out for its scratch files: take it away again
    # where it was not there before, so that the run leaves perfbench/ as it was
    made = [out for out in (os.path.join(tree, "perfbench", "out") for tree in trees.values())
            if not os.path.exists(out)]
    values = {side: {m["name"]: [] for m in metrics} for side in trees}
    bad = 0
    try:
        with tempfile.TemporaryDirectory(prefix="pairs-pycache.") as pycache:
            for tree in trees.values():
                compile_tree(tree, pycache)
            for i in range(args.pairs):
                seed = args.first_seed + i
                for side in (("parent", "change") if i % 2 == 0 else ("change", "parent")):
                    try:
                        result = run_once(trees[side], args.workload, seed, args.seconds,
                                          pycache)
                    except RuntimeError as exc:
                        print(f"pair {i + 1} {side}: {exc}")
                        return 1
                    if not result["correct"] or result["failed"]:
                        bad += 1
                        print(f"pair {i + 1} {side}: correct {result['correct']}, failed "
                              f"{result['failed']} of {result['attempted']}")
                    for m in metrics:
                        values[side][m["name"]].append(result["metrics"][m["name"]]["value"])
                print(f"pair {i + 1}/{args.pairs} (seed {seed}) done", file=sys.stderr)
    finally:
        for out in made:
            with contextlib.suppress(OSError):  # left in place if anything is in it
                os.rmdir(out)
    seeds = list(range(args.first_seed, args.first_seed + args.pairs))
    print(f"workload {args.workload}: {args.pairs} pairs of {args.seconds:g} s, "
          f"seeds {seeds[0]}-{seeds[-1]}; {bad} runs incorrect or with failed operations")
    record = {"workload": args.workload, "seeds": seeds, "seconds": args.seconds,
              "bad_runs": bad, "metrics": {}}
    for m in metrics:
        s = summarize(values["parent"][m["name"]], values["change"][m["name"]], m["better"],
                      m["bound"])
        print(_report(m["name"], m["unit"], m["better"], m["bound"], s))
        record["metrics"][m["name"]] = {**m, **s}
    print(json.dumps(record))
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
