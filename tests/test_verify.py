"""The million-draw gamma and rho suites of ftsmfc.verify: slices, memory, pinned margins."""

import dataclasses
import json
import tracemalloc

import numpy as np
import pytest

from ftsmfc import verify

# verify_suite(suite, seed).format() and the margins' float.hex(), recorded before
# the suites computed their derived arrays in slices
PINNED = {
    ("gamma", 1): (
        "suite gamma: PASS\n"
        "  [pass] gamma identity vs (1-D^2)V^a: samples=1000000 worst_margin=3.34302e-13\n"
        "  [pass] public-function cross-check: samples=100 worst_margin=3.33067e-16\n"
        "  [pass] gamma boundary equals scale: samples=1000 worst_margin=6.80442e-16",
        ["0x1.7864000000000p-42", "0x1.8000000000000p-52", "0x1.883f73d273c18p-51"],
    ),
    ("gamma", 2): (
        "suite gamma: PASS\n"
        "  [pass] gamma identity vs (1-D^2)V^a: samples=1000000 worst_margin=3.18147e-13\n"
        "  [pass] public-function cross-check: samples=100 worst_margin=2.22045e-16\n"
        "  [pass] gamma boundary equals scale: samples=1000 worst_margin=8.58072e-16",
        ["0x1.6633c00000000p-42", "0x1.0000000000000p-52", "0x1.eea5182a6e852p-51"],
    ),
    ("rho", 1): (
        "suite rho: PASS\n"
        "  [pass] stable vs quotient form: samples=1000000 worst_margin=7.9603e-14\n"
        "  [pass] range [1,2]: samples=1000000 worst_margin=0\n"
        "  [pass] rho at gain 0 equals 1: samples=1 worst_margin=0",
        ["0x1.668005ed8e7b8p-44", "0x0.0p+0", "0x0.0p+0"],
    ),
    ("rho", 2): (
        "suite rho: PASS\n"
        "  [pass] stable vs quotient form: samples=1000000 worst_margin=7.9492e-14\n"
        "  [pass] range [1,2]: samples=1000000 worst_margin=0\n"
        "  [pass] rho at gain 0 equals 1: samples=1 worst_margin=0",
        ["0x1.660005dd9015cp-44", "0x0.0p+0", "0x0.0p+0"],
    ),
}


@pytest.mark.parametrize("suite, seed", PINNED, ids=[f"{s}-{n}" for s, n in PINNED])
def test_report_pinned(suite, seed):
    text, margins = PINNED[suite, seed]
    report = verify.verify_suite(suite, seed)
    assert report.format() == text
    assert [r.worst_margin.hex() for r in report.results] == margins


@pytest.mark.parametrize("suite", ["control", "gamma", "holder", "lemma1", "rho"])
def test_results_hold_builtins(suite):
    # what a JSON report of the suites will write
    for result in verify.verify_suite(suite).results:
        fields = dataclasses.asdict(result)
        assert {k: type(v) for k, v in fields.items()} == {
            "name": str, "samples": int, "worst_margin": float, "passed": bool, "note": str,
        }, result
        json.dumps(fields)


@pytest.mark.parametrize("suite, bound_mib", [("gamma", 32), ("rho", 16)])
def test_peak_memory(suite, bound_mib):
    # the draws (three 7.6 MiB arrays for gamma, one for rho) and a few slices;
    # computing every derived array whole peaked at 68.7 and 61.0 MiB
    tracemalloc.start()
    try:
        report = verify.verify_suite(suite, 1)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert report.passed
    assert peak < bound_mib * 2**20


def test_gamma_oracle_same_in_slices_and_gathered():
    n = 2 * verify._CHUNK + 3
    rng = np.random.default_rng(5)
    r = rng.uniform(1.01, 1.99, n)
    lam = 10.0 ** rng.uniform(-3, 3, n)
    V = 10.0 ** rng.uniform(-6, 6, n)
    whole = verify._gamma_oracle(r, lam, V)
    parts = [verify._gamma_oracle(r[i:i + verify._CHUNK], lam[i:i + verify._CHUNK],
                                  V[i:i + verify._CHUNK])
             for i in range(0, n, verify._CHUNK)]
    assert [len(p[0]) for p in parts] == [verify._CHUNK, verify._CHUNK, 3]
    idx = np.arange(0, n, n // 100)
    gathered = verify._gamma_oracle(r[idx], lam[idx], V[idx])
    for k, out in enumerate(whole):
        assert np.concatenate([p[k] for p in parts]).tobytes() == out.tobytes()
        assert gathered[k].tobytes() == out[idx].tobytes()
