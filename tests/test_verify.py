"""ftsmfc.verify in slices: the streamed draws, the block-wise recursion and verifiers,
the suites' memory and the pinned margins; the runs split between two processes."""

import dataclasses
import json
import os
import signal
import sys
import time
import tracemalloc

import numpy as np
import pytest
from conftest import assert_no_child_left

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
    ("robustness", 20240811): (
        "suite robustness: PASS\n"
        "  [pass] decrease outside neighborhood (drift 0.01): samples=60000 worst_margin=0\n"
        "  [pass] ultimate-bound membership (drift 0.01): samples=30000 worst_margin=0.604032 "
        "(margin is worst (1-|gain|)*||e||/B after settling)\n"
        "  [pass] decrease outside neighborhood (drift 0.1): samples=60000 worst_margin=0\n"
        "  [pass] ultimate-bound membership (drift 0.1): samples=30000 worst_margin=0.397905 "
        "(margin is worst (1-|gain|)*||e||/B after settling)",
        ["0x0.0p+0", "0x1.3543a4c9025a0p-1", "0x0.0p+0", "0x1.977461ceb81e1p-2"],
    ),
}


@pytest.mark.parametrize("suite, seed", PINNED, ids=[f"{s}-{n}" for s, n in PINNED])
def test_report_pinned(suite, seed):
    text, margins = PINNED[suite, seed]
    report = verify.verify_suite(suite, seed)
    assert report.format() == text
    assert [r.worst_margin.hex() for r in report.results] == margins


# The observer suites on a few draws of the default seed: the full suites take
# about 1.5 s each, these 0.1 and 0.2 s
OBSERVER_PINNED = {
    ("observer1", 5): ["0x1.12e06d09274a0p-30", "0x1.4ba806eec0000p-46"],
    ("observer2", 3): ["0x1.b796620823b47p-34", "0x1.ad7dfeb6c15eep-24"],
}


@pytest.mark.parametrize("suite, n", OBSERVER_PINNED, ids=[s for s, _ in OBSERVER_PINNED])
def test_observer_suite_pinned(suite, n):
    results = getattr(verify, f"_suite_{suite}")(np.random.default_rng(20240811), n=n)
    assert all(r.passed and r.samples == n for r in results)
    assert [r.worst_margin.hex() for r in results] == OBSERVER_PINNED[suite, n]


@pytest.mark.parametrize("suite", ["control", "gamma", "holder", "lemma1", "rho", "robustness"])
def test_results_hold_builtins(suite):
    # what a JSON report of the suites will write; the split suites' results come
    # through pickle, which would keep an np.float64
    for result in verify.verify_suite(suite).results:
        fields = dataclasses.asdict(result)
        assert {k: type(v) for k, v in fields.items()} == {
            "name": str, "samples": int, "worst_margin": float, "passed": bool, "note": str,
        }, result
        json.dumps(fields)


@pytest.mark.parametrize("suite, seed, bound_mib",
                         [("gamma", 1, 2), ("rho", 1, 2), ("lemma1", 20240811, 4),
                          ("holder", 20240811, 4)], ids=["gamma", "rho", "lemma1", "holder"])
def test_peak_memory(monkeypatch, suite, seed, bound_mib):
    # the whole suite in this process, where tracemalloc sees it: a few 8192-element
    # slices of each array at a time, peaks of 1.0, 0.7, 2.6 and 2.7 MiB (gamma 1.6
    # when it is a process's first suite, which imports modules); the trace of 302 790
    # steps (2.3 MiB) that lemma1 and holder build sets their peaks.  Slices of 65 536
    # peaked at 7.3, 5.0, 4.2 and 4.5 MiB; holding the gamma and rho draws whole at
    # 28.1 and 12.1, and that trace as a list of floats with whole-length temporaries
    # at 12.0
    monkeypatch.delattr(os, "fork")
    tracemalloc.start()
    try:
        report = verify.verify_suite(suite, seed)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert report.passed
    assert peak < bound_mib * 2**20


def test_sliced_draws_match_one_draw():
    n = 2 * verify._CHUNK + 3
    rng, one = np.random.default_rng(7), np.random.default_rng(7)
    bounds = ((1.01, 1.99), (-3, 3), (-6, 6))
    slices = [verify._slices(rng, k * n, n, low, high) for k, (low, high) in enumerate(bounds)]
    for (low, high), parts in zip(bounds, slices):
        parts = list(parts)
        assert [len(p) for p in parts] == [verify._CHUNK, verify._CHUNK, 3]
        assert np.concatenate(parts).tobytes() == one.uniform(low, high, n).tobytes()
    rng.bit_generator.advance(3 * n)
    assert rng.bit_generator.state == one.bit_generator.state
    assert rng.uniform(-2, 2, 1000).tobytes() == one.uniform(-2, 2, 1000).tobytes()


def test_recursion_runs_match_one_run_at_a_time():
    # the reference: each run's V0, eta and alpha drawn in turn, as scalars
    rng, one = np.random.default_rng(20240811), np.random.default_rng(20240811)
    runs = [(10.0 ** one.uniform(-6, 6), one.uniform(1e-3, 10.0), one.uniform(0.05, 0.95))
            for _ in range(300)]
    got = verify._recursion_runs(rng, 300)
    assert [tuple(map(float.hex, run)) for run in got] == [
        tuple(map(float.hex, run)) for run in runs]
    assert rng.bit_generator.state == one.bit_generator.state


@pytest.mark.parametrize("seed", [20240811, 1, 7])
def test_predicted_steps_match_the_recursion(seed):
    # the split of lemma1 and holder weighs each run by its predicted steps; at the
    # default seed one run of 302 790 steps outweighs the other 299 together
    checked = 0
    for run in verify._recursion_runs(np.random.default_rng(seed), 300):
        _, N = verify.fts_recursion(*run, max_steps=verify._MAX_STEPS)
        if N is not None and N >= 1000:
            assert verify._predicted_steps(run) == pytest.approx(N, rel=0.01), run
            checked += 1
    assert checked >= 10


def _list_recursion(V0, eta, alpha, max_steps):
    """fts_recursion as one list of floats: the reference for the block-wise trace."""
    V, vals = V0, [V0]
    for _ in range(max_steps if V > 0.0 else 0):
        V = V - eta * V ** alpha
        if not V > 0.0:
            vals.append(0.0)
            break
        vals.append(V)
    return vals, (len(vals) - 1 if vals[-1] == 0.0 else None)


C = verify._CHUNK


@pytest.mark.parametrize("V0, eta, max_steps, N", [
    (1.0, 1e-5, 10**6, 199_994),  # more than three slices
    # each eta is the middle of the interval of etas, found by bisection, that end on that step
    (1.0, 0.00012203308110049993, 10**6, 2 * C),  # 0 on the last step of the second slice
    (1.0, 0.0002440020578951743, 10**6, C),  # 0 on the last step of the first slice
    (1.0, 0.0002439722912088291, 10**6, C + 1),  # 0 on the first step of the second slice
    (1.0, 1e-6, C, None),
    (1.0, 1e-6, 2 * C, None),
    (1.0, 1e-6, 0, None),
    (0.0, 1e-6, 10, 0),
    (0.0, 1e-6, 0, 0),
], ids=["3-slices", "0-at-2C", "0-at-C", "0-at-C+1", "max-C", "max-2C", "max-0", "V0-0",
        "V0-0-max-0"])
def test_recursion_matches_list_reference(V0, eta, max_steps, N):
    trace, got_N = verify.fts_recursion(V0, eta, 0.5, max_steps=max_steps)
    vals, ref_N = _list_recursion(V0, eta, 0.5, max_steps)
    assert got_N == ref_N == N
    assert trace.values.tobytes() == np.array(vals).tobytes()


def _line(n):
    """A trace falling evenly from 10 to 1 in n values: about 3.7e-4 a step for n = 3C."""
    return np.linspace(10.0, 1.0, n)


def test_gamma_fn_sees_one_slice_at_a_time():
    calls = []

    def gamma(V):
        calls.append(V.shape)
        return 1e-6

    trace = verify.LyapunovTrace(values=_line(2 * C + 3), alpha=0.5, eta=1.0)
    assert verify.verify_fts_condition(trace, gamma, 1e-12)
    assert calls == [(C,), (C,), (2,), (C,), (C,), (3,)]


@pytest.mark.parametrize("at", [1, C, C + 1, 2 * C + 5, 3 * C - 1],
                         ids=["1", "C", "C+1", "2C+5", "3C-1"])
def test_verifiers_see_every_slice(at):
    values = _line(3 * C)
    assert verify.verify_fts_condition(verify.LyapunovTrace(values, 0.5, 1.0),
                                       lambda V: 1e-6, 1e-12)
    assert verify.verify_holder_continuity(verify.LyapunovTrace(values, 0.5, 1e-3), 1e-6)
    # a stall at `at` breaks the decrement; a drop of 0.5 from `at` on, the lag-1 Holder bound
    stalled, dropped = values.copy(), values.copy()
    stalled[at] = stalled[at - 1]
    dropped[at:] -= 0.5
    assert not verify.verify_fts_condition(verify.LyapunovTrace(stalled, 0.5, 1.0),
                                           lambda V: 1e-6, 1e-12)
    assert not verify.verify_holder_continuity(verify.LyapunovTrace(dropped, 0.5, 1e-3), 1e-6)
    # gamma below epsilon^(1-alpha) at the value at `at` alone breaks the gain condition
    assert not verify.verify_fts_condition(verify.LyapunovTrace(values, 0.5, 1.0),
                                           lambda V: np.where(V == values[at], 0.0, 1e-6), 1e-12)


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


@pytest.mark.parametrize("n", [0, 1, 2, 3, 4, 7])
def test_in_two_keeps_input_order(two_cpus, n):
    got = verify._in_two(lambda x: (x * x, os.getpid()), list(range(n)))
    assert [square for square, _ in got] == [x * x for x in range(n)]
    # equal weights alternate: the odd inputs, if there are two inputs or more, go to a child
    assert [pid == two_cpus for _, pid in got] == [x % 2 == 0 for x in range(n)]
    assert_no_child_left()


@pytest.mark.parametrize("weights, here", [
    ([1, 1, 1, 1, 1], [0, 2, 4]),  # ties go to this process, so equal weights alternate
    ([1, 2, 30, 4, 5, 6], [2]),  # an input heavier than the rest together is alone
    ([5, 4, 3, 3, 1], [0, 3]),  # heaviest first, each to the lighter side: 5+3 against 4+3+1
    ([0, 0, 0], [0, 1, 2]),  # no weight at all leaves the child nothing, so no child runs
], ids=["equal", "one-heavy", "greedy", "weightless"])
def test_in_two_gives_each_input_to_the_lighter_side(two_cpus, weights, here):
    inputs = [(i, w) for i, w in enumerate(weights)]
    got = verify._in_two(lambda x: (x, os.getpid()), inputs, weight=lambda x: x[1])
    assert [x for x, _ in got] == inputs  # in input order, whichever side computed them
    assert [i for i, (_, pid) in enumerate(got) if pid == two_cpus] == here
    assert_no_child_left()


def test_in_two_raises_the_childs_exception(two_cpus):
    def fn(x):
        if x == 3 and os.getpid() != two_cpus:
            raise verify.DomainError(f"input {x} lies outside the domain")
        return x

    with pytest.raises(verify.DomainError, match="^input 3 lies outside the domain$"):
        verify._in_two(fn, [0, 1, 2, 3])
    assert_no_child_left()


def test_in_two_names_the_signal_that_killed_the_child(two_cpus):
    def fn(x):
        if os.getpid() != two_cpus:
            os.kill(os.getpid(), signal.SIGKILL)
        return x

    with pytest.raises(ChildProcessError, match=f"killed by signal {signal.SIGKILL.value} "):
        verify._in_two(fn, [0, 1, 2, 3])
    assert_no_child_left()


def test_in_two_kills_the_child_when_this_process_raises(two_cpus):
    def fn(x):
        if os.getpid() != two_cpus:
            time.sleep(60)
        elif x == 2:
            raise KeyboardInterrupt
        return x

    t0 = time.perf_counter()
    with pytest.raises(KeyboardInterrupt):
        verify._in_two(fn, [0, 1, 2, 3])
    assert time.perf_counter() - t0 < 30
    assert_no_child_left()


def test_in_two_without_fork(two_cpus, monkeypatch):
    monkeypatch.delattr(os, "fork")
    assert verify._in_two(lambda x: (x + 1, os.getpid()), [1, 2, 3]) == [
        (2, two_cpus), (3, two_cpus), (4, two_cpus)]


def test_in_two_on_one_cpu(monkeypatch, children):
    # sim_harness.fork_helps, the CSV writer's test too: a child would only take turns
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
    assert verify._in_two(lambda x: (x + 1, os.getpid()), [1, 2, 3]) == [
        (2, os.getpid()), (3, os.getpid()), (4, os.getpid())]
    assert children == []


def test_in_two_flushes_no_inherited_buffer(two_cpus, capfd, monkeypatch):
    # a block-buffered stdout, as when it is a pipe or a file
    with open(os.dup(1), "w", buffering=1 << 16) as stdout:
        monkeypatch.setattr(sys, "stdout", stdout)
        print("written once")  # still in the buffer at the fork
        assert verify._in_two(abs, [-1, -2, -3]) == [1, 2, 3]
    assert capfd.readouterr().out == "written once\n"


def test_reaped_child_reports_its_cost(two_cpus, children):
    verify.verify_suite("rho", 1)
    [child] = children  # half of the 10^6 draws
    assert child.rusage.ru_utime + child.rusage.ru_stime > 0
    assert child.rusage.ru_maxrss > 0


# The split suites: the report of each, with the fork and without it
SPLIT = [("gamma", 1), ("rho", 1), ("robustness", 20240811), ("observer1", 5), ("observer2", 3),
         ("lemma1", 20240811), ("holder", 20240811)]


def _split_report(suite, arg):
    if suite.startswith("observer"):
        results = getattr(verify, f"_suite_{suite}")(np.random.default_rng(20240811), n=arg)
        report = verify.SuiteReport(suite, tuple(results))
    else:
        report = verify.verify_suite(suite, arg)
    return report.format(), [r.worst_margin.hex() for r in report.results]


@pytest.mark.parametrize("suite, arg", SPLIT, ids=[s for s, _ in SPLIT])
def test_split_suite_same_with_and_without_fork(two_cpus, monkeypatch, suite, arg):
    forked = _split_report(suite, arg)
    assert_no_child_left()
    monkeypatch.delattr(os, "fork")
    assert _split_report(suite, arg) == forked
