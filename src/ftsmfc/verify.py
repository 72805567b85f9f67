"""The seeded property-verification suites and the Lyapunov tools they check, on
NumPy arrays: the one module that imports NumPy when it is imported.  fts_core
and sim_harness bind its public names on first use (PEP 562), so `simulate`,
`generate-trajectory` and `sweep` never load it.  The suites call package
functions through their modules (`fts_core.holder_gain`, ...), so a wrapper put
on a module attribute sees every call made in this process.  Every suite but
`control` splits its independent runs by predicted cost between this process and
a forked child (`_in_two`), whose calls such a wrapper does not see.
"""

from __future__ import annotations

import copy
import functools
import math
from array import array
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

from . import fts_core, plant_models, sim_harness, tracking_control, ulm_observer
from .config import CTRL_PARAMS, OBS_PARAMS, ConfigError
from .fts_core import (DomainError, HolderGainParams, Pair, decrease_radius,
                       gamma_zero_crossing, robustness_radius)

# 64 KiB of float64 stays in L2; below this the longest trace, not a slice, sets the peak
_CHUNK = 1 << 13  # elements of any derived array this module's functions hold at once


def gamma_of_V(V, params: HolderGainParams):
    """Lyapunov decrement rate 4*scale*V^(2a) / (V^a + scale)^2 with a = holder_power.

    Class-K in V: zero at zero, strictly increasing.  Identical to
    (1 - holder_gain^2) * V^a when e is any vector with e^T W e = V.
    Accepts scalars or arrays.
    """
    V = np.asarray(V, dtype=float)
    if np.any(V < 0.0) or not np.all(np.isfinite(V)):
        raise DomainError("gamma_of_V: V must be finite and non-negative")
    a = params.holder_power
    x = np.power(V, a)
    out = 4.0 * params.scale * np.power(V, 2.0 * a) / np.square(x + params.scale)
    if out.ndim == 0:
        return float(out)
    return out


@dataclass(frozen=True)
class LyapunovTrace:
    """A non-negative Lyapunov sequence with its decrement parameters.

    Once a value reaches 0 all subsequent values must be 0.
    """

    values: np.ndarray
    alpha: float
    eta: float

    def __post_init__(self) -> None:
        v = np.asarray(self.values, dtype=float)
        if v.ndim != 1 or v.size == 0:
            raise DomainError("trace values must be a non-empty 1-d sequence")
        if not (v.min() >= 0.0 and math.isfinite(v.max())):  # a NaN fails the first
            raise DomainError("trace values must be finite and non-negative")
        first_min = int(np.argmin(v))  # the first 0, if there is one
        if v[first_min] == 0.0 and v[first_min:].max() != 0.0:
            raise DomainError("trace must stay at 0 after first reaching 0")
        if not (0.0 < self.alpha < 1.0):
            raise DomainError(f"alpha must lie in ]0,1[, got {self.alpha}")
        if not (math.isfinite(self.eta) and self.eta > 0.0):
            raise DomainError(f"eta must be positive, got {self.eta}")
        object.__setattr__(self, "values", v)

    def __len__(self) -> int:
        return len(self.values)


def fts_recursion(
    V0: float,
    eta: float,
    alpha: float,
    max_steps: int = 1_000_000,
) -> Tuple[LyapunovTrace, Optional[int]]:
    """Iterate V_{j+1} = max(0, V_j - eta*V_j^alpha) until 0 or max_steps.

    Negative intermediate values are clamped to 0 (the decrement bound going
    negative forces the Lyapunov value to 0).  Returns the trace and the first
    index N with V_N = 0, or None if 0 was not reached within max_steps.  The
    steps are gathered in a list a _CHUNK at a time and moved into one array of
    8-byte floats, whose buffer the trace's values view.
    """
    if not (math.isfinite(V0) and V0 >= 0.0):
        raise DomainError(f"V0 must be finite and non-negative, got {V0}")
    if not (math.isfinite(eta) and eta > 0.0):
        raise DomainError(f"eta must be positive, got {eta}")
    if not (0.0 < alpha < 1.0):
        raise DomainError(f"alpha must lie in ]0,1[, got {alpha}")
    if max_steps < 0:
        raise DomainError("max_steps must be non-negative")
    V, eta, alpha = float(V0), float(eta), float(alpha)
    vals, block, left = array("d"), [V], max_steps
    append = block.append
    while left > 0 and V > 0.0:
        vals.fromlist(block)
        block.clear()
        for _ in range(min(left, _CHUNK)):
            V = V - eta * V ** alpha
            if not V > 0.0:  # max(0.0, V) for negatives, -0.0 and nan alike
                append(0.0)
                break
            append(V)
        left -= _CHUNK
    vals.fromlist(block)
    trace = LyapunovTrace(values=np.frombuffer(vals), alpha=alpha, eta=eta)
    return trace, (len(vals) - 1 if vals[-1] == 0.0 else None)


def _eval_gamma(gamma_fn: Callable, V: np.ndarray) -> np.ndarray:
    """gamma_fn(V): a scalar, which broadcasts against V, or an array of V's shape."""
    g = np.asarray(gamma_fn(V), dtype=float)
    if g.ndim and g.shape != V.shape:  # never broadcast silently
        raise DomainError(f"gamma_fn returned shape {g.shape} for V of shape {V.shape}")
    return g


# Relative floating-point headroom used by the verifiers.  The recursion,
# its verifier and any external producer of a trace may round the same
# expression differently in the last ulp; equality cases in the spec'd
# conditions must still verify.
_VERIFY_RTOL = 1e-12


def verify_fts_condition(
    trace: LyapunovTrace,
    gamma_fn: Callable,
    epsilon: float,
) -> bool:
    """Check the finite-time-stability conditions on a Lyapunov trace.

    Two conditions, both with a 1e-12 relative floating-point headroom:
      1. decrement: V_{k+1} <= max(0, V_k - gamma_fn(V_k) * V_k^alpha) for
         every consecutive pair (the clamped form admits traces that hit 0);
      2. gain: gamma_fn(V) >= epsilon^(1-alpha) whenever V >= epsilon.
    Each condition is checked a _CHUNK of the trace at a time, all of the first
    before the second: gamma_fn maps each slice's array of V (for the decrement,
    one empty array when the trace has no pair) to a scalar or an array of its shape.
    """
    if epsilon <= 0.0:
        raise DomainError("epsilon must be positive")
    V = trace.values
    a = trace.alpha
    for i in range(0, max(len(V) - 1, 1), _CHUNK):
        prev = V[i:min(i + _CHUNK, len(V) - 1)]
        g = _eval_gamma(gamma_fn, prev)
        bound = np.maximum(0.0, prev - g * np.power(prev, a))
        bound += _VERIFY_RTOL * np.maximum(1.0, prev)
        if not np.all(V[i + 1:i + 1 + len(prev)] <= bound):
            return False
    eta = epsilon ** (1.0 - a)
    floor = eta - _VERIFY_RTOL * max(1.0, eta)
    for i in range(0, len(V), _CHUNK):
        v = V[i:i + _CHUNK]
        above = v[v >= epsilon]
        if len(above) and not np.all(_eval_gamma(gamma_fn, above) >= floor):
            return False
    return True


def verify_holder_continuity(trace: LyapunovTrace, epsilon: float) -> bool:
    """Check the discrete Holder-continuity bound on a Lyapunov trace.

    For every index pair at lag d the check requires

        |V_i - V_j| <= epsilon * d^(1/(1-alpha)) + slack_rate * d

    where slack_rate = eta * max(V)^alpha is the largest admissible one-step
    decrement of the trace.  The linear term is the documented bound on the
    remainder of the Holder inequality, whose second-and-higher-order terms
    are controlled by the per-step decrement rate; a trace whose jumps exceed
    that rate fails.  Lags whose worst possible change (d times the largest
    observed one-step change) already meets the bound are skipped, so the
    check is O(n) on traces produced by fts_recursion.  The one-step changes,
    the bounds and each checked lag's changes are formed a _CHUNK at a time.
    """
    if epsilon <= 0.0:
        raise DomainError("epsilon must be positive")
    V = trace.values
    n = len(V)
    if n < 2:
        return True
    a = trace.alpha
    h = 1.0 / (1.0 - a)
    vmax = float(np.max(V))
    slack_rate = trace.eta * vmax ** a
    max_step = max(float(np.max(np.abs(np.diff(V[i:i + _CHUNK + 1]))))
                   for i in range(0, n - 1, _CHUNK))
    tol = _VERIFY_RTOL * max(1.0, vmax)
    for i in range(1, n, _CHUNK):  # the lags i, i+1, ...
        d = np.arange(i, min(i + _CHUNK, n), dtype=float)
        bound = epsilon * np.power(d, h) + slack_rate * d + tol
        risky = d * max_step > bound
        for lag, limit in zip(d[risky].astype(int).tolist(), bound[risky].tolist()):
            for j in range(0, n - lag, _CHUNK):
                step = min(_CHUNK, n - lag - j)
                if np.max(np.abs(V[j + lag:j + lag + step] - V[j:j + step])) > limit:
                    return False
    return True


@dataclass(frozen=True)
class PropertyResult:
    """One verified property: sample count, worst-case margin, verdict."""

    name: str
    samples: int
    worst_margin: float
    passed: bool
    note: str = ""


@dataclass(frozen=True)
class SuiteReport:
    suite: str
    results: Tuple[PropertyResult, ...]

    @property
    def passed(self) -> bool:
        return all(r.passed for r in self.results)

    def format(self) -> str:
        lines = [f"suite {self.suite}: {'PASS' if self.passed else 'FAIL'}"]
        for r in self.results:
            status = "pass" if r.passed else "FAIL"
            line = (
                f"  [{status}] {r.name}: samples={r.samples}"
                f" worst_margin={r.worst_margin:.6g}"
            )
            if r.note:
                line += f" ({r.note})"
            lines.append(line)
        return "\n".join(lines)


def _gamma_oracle(r, lam, V):
    """The decrement rate gamma, the gain D and x = V^a for a = 1 - 1/r, elementwise."""
    a = 1.0 - 1.0 / r
    x = np.power(V, a)
    gamma = 4.0 * lam * np.power(V, 2 * a) / np.square(x + lam)
    D = (x - lam) / (x + lam)
    return gamma, D, x


def _slices(rng: np.random.Generator, skip: int, n: int, low: float, high: float):
    """uniform(low, high, n) from a copy of rng advanced by skip draws, a _CHUNK at a time."""
    copied = np.random.Generator(copy.deepcopy(rng.bit_generator).advance(skip))
    return (copied.uniform(low, high, min(_CHUNK, n - i)) for i in range(0, n, _CHUNK))


def _in_two(fn: Callable, inputs: list, weight: Callable = lambda x: 1.0) -> list:
    """[fn(x) for x in inputs], the inputs split by cost with a sim_harness.Child.

    weight(x) estimates one input's cost.  The inputs go out heaviest first, each to
    the side with less weight so far, ties to this process: with equal weights the
    sides alternate, and an input heavier than all the others together is this
    process's alone.  Each side computes its inputs in input order, and the results
    come back in input order.  The child runs only where sim_harness.fork_helps()
    and the split leaves the child an input.
    """
    load, sides = [0.0, 0.0], ([], [])  # this process's, the child's
    if sim_harness.fork_helps():
        weights = [weight(x) for x in inputs]
        for i in sorted(range(len(inputs)), key=weights.__getitem__, reverse=True):
            side = int(load[1] < load[0])
            load[side] += weights[i]
            sides[side].append(i)
    mine, theirs = sorted(sides[0]), sorted(sides[1])
    if not theirs:
        return [fn(x) for x in inputs]
    child = sim_harness.Child(lambda: [fn(inputs[i]) for i in theirs])
    try:
        head, tail = [fn(inputs[i]) for i in mine], child.result()
    finally:
        child.kill()
    done = [None] * len(inputs)
    for i, result in zip(mine + theirs, head + tail):
        done[i] = result
    return done


def _halves(n: int) -> List[Tuple[int, int]]:
    """Indices 0..n-1 as two ranges split at a multiple of _CHUNK, so that each
    range's slices are the slices of the whole."""
    mid = n // 2 // _CHUNK * _CHUNK
    return [(0, mid), (mid, n)]


def _gamma_range(rng: np.random.Generator, n: int, every: int, span: Tuple[int, int]):
    """The worst gap of the gamma identity over the draws in span of each of r, lam
    and V, and those draws at the indices in span that are multiples of every."""
    start, stop = span
    # r, lam and V are draws 0..n-1, n..2n-1 and 2n..3n-1 of rng's stream (one
    # 64-bit output a double)
    draws = [_slices(rng, k * n + start, stop - start, low, high)
             for k, (low, high) in enumerate(((1.01, 1.99), (-3, 3), (-6, 6)))]
    worst, spots = 0.0, ([], [], [])
    for i, r, lam, V in zip(range(start, stop, _CHUNK), *draws):
        np.power(10.0, lam, out=lam)
        np.power(10.0, V, out=V)
        gamma, D, x = _gamma_oracle(r, lam, V)
        diff = np.abs(gamma - (1.0 - D * D) * x) / np.maximum(1.0, gamma)
        worst = float(np.maximum(worst, diff.max()))  # a NaN stays, and fails
        for spot, a in zip(spots, (r, lam, V)):  # the draws at indices 0, every, 2*every, ...
            spot.extend(a[-i % every::every].tolist())
    return worst, spots


def _gamma_boundary(bounds: List[Pair]) -> float:
    """The worst relative gap between gamma at gamma_zero_crossing and the scale,
    over (exponent, scale) pairs."""
    worst = 0.0
    for exponent, scale in bounds:
        p = HolderGainParams(exponent=exponent, scale=scale)
        Vb = gamma_zero_crossing(p)
        worst = max(worst, abs(fts_core.gamma_of_V(Vb, p) - p.scale) / p.scale)
    return worst


def _suite_gamma(rng: np.random.Generator) -> List[PropertyResult]:
    n, every, m = 1_000_000, 10_000, 1000
    start = np.random.Generator(copy.deepcopy(rng.bit_generator))
    rng.bit_generator.advance(3 * n)  # rng moves on as if it had drawn r, lam and V
    # then each boundary check's exponent and scale exponent in turn, one double a draw
    bounds = [(e, 10.0 ** u) for e, u in rng.uniform((1.01, -2), (1.99, 2), (m, 2)).tolist()]
    tasks = [functools.partial(_gamma_range, start, n, every, span) for span in _halves(n)]
    tasks += [functools.partial(_gamma_boundary, bounds[:m // 2]),
              functools.partial(_gamma_boundary, bounds[m // 2:])]
    # alternating sides: each process draws one range and makes half the boundary checks
    (w0, s0), (w1, s1), b0, b1 = _in_two(lambda task: task(), tasks)
    worst, spots = float(np.maximum(w0, w1)), [a + b for a, b in zip(s0, s1)]
    results = [PropertyResult("gamma identity vs (1-D^2)V^a", n, worst, worst <= 1e-12)]
    # spot-check the vectorized oracle against the public functions
    gamma, D, _ = _gamma_oracle(*map(np.array, spots))
    worst = 0.0
    for ri, li, Vi, gi, Di in zip(*spots, gamma.tolist(), D.tolist()):
        p = HolderGainParams(exponent=ri, scale=li)
        g = fts_core.gamma_of_V(Vi, p)
        d = fts_core.holder_gain((math.sqrt(Vi), 0.0), p)
        worst = max(worst, abs(g - gi) / max(1.0, g), abs(d - Di))
    results.append(
        PropertyResult("public-function cross-check", 100, worst, worst <= 1e-12)
    )
    worst = max(b0, b1)  # the largest gap of either half, as one pass over both finds
    results.append(
        PropertyResult("gamma boundary equals scale", m, worst, worst <= 1e-12)
    )
    return results


def _rho_range(rng: np.random.Generator, span: Tuple[int, int]):
    """The worst gap of the two forms of rho over draws start..stop-1, and whether
    all of them lie in [1, 2]."""
    start, stop = span
    worst, in_range = 0.0, True
    for u in _slices(rng, start, stop - start, -6, 0):
        z = np.power(10.0, u)
        stable = 1.0 + np.sqrt(1.0 - z)
        # the quotient form loses ~6 digits to cancellation near zeta = 1e-6 in
        # double precision; evaluate it in extended precision for the comparison
        zl = z.astype(np.longdouble)
        quotient = (zl / (1.0 - np.sqrt(1.0 - zl))).astype(float)
        diff = np.abs(stable - quotient) / stable
        worst = float(np.maximum(worst, diff.max()))
        in_range &= bool(np.all((stable >= 1.0) & (stable <= 2.0)))
    return worst, in_range


def _suite_rho(rng: np.random.Generator) -> List[PropertyResult]:
    n = 1_000_000
    (w0, in0), (w1, in1) = _in_two(functools.partial(_rho_range, rng), _halves(n))
    rng.bit_generator.advance(n)  # the same stream as one draw of n
    worst, in_range = float(np.maximum(w0, w1)), in0 and in1
    return [
        PropertyResult("stable vs quotient form", n, worst, worst <= 1e-12),
        PropertyResult("range [1,2]", n, 0.0, in_range),
        PropertyResult(
            "rho at gain 0 equals 1", 1, abs(robustness_radius(0.0) - 1.0),
            robustness_radius(0.0) == 1.0,
        ),
    ]


_MAX_STEPS = 20_000_000


def _recursion_runs(rng: np.random.Generator, n: int) -> List[Tuple[float, float, float]]:
    """n seeded runs' (V0, eta, alpha) of V+ = max(0, V - eta*V^alpha), each run's
    draws in turn (one double a draw)."""
    draws = rng.uniform((-6, 1e-3, 0.05), (6, 10.0, 0.95), (n, 3)).tolist()
    return [(10.0 ** u, eta, alpha) for u, eta, alpha in draws]


def _predicted_steps(run: Tuple[float, float, float]) -> float:
    """The steps fts_recursion takes from V0 to 0, by the continuous-time bound
    V0^(1-alpha) / (eta*(1-alpha)), capped at _MAX_STEPS.  Within 0.25 % of N for
    every lemma1 run with N >= 1000 at seeds 20240811, 1 and 7."""
    V0, eta, alpha = run
    return min(V0 ** (1.0 - alpha) / (eta * (1.0 - alpha)), _MAX_STEPS)


def _recursion(run: Tuple[float, float, float]):
    """One run's trace, its N and eps = eta^(1/(1-alpha))."""
    V0, eta, alpha = run
    trace, N = fts_core.fts_recursion(V0, eta, alpha, max_steps=_MAX_STEPS)
    return trace, N, eta ** (1.0 / (1.0 - alpha))


def _lemma1_run(run: Tuple[float, float, float]) -> Tuple[Optional[int], bool]:
    """N, and whether a trace that reaches 0 meets the decrement/gain conditions."""
    trace, N, eps = _recursion(run)
    eta = run[1]
    return N, N is None or fts_core.verify_fts_condition(trace, lambda V: eta, eps)


def _holder_run(run: Tuple[float, float, float]) -> bool:
    """Whether the run's trace meets the Holder-continuity bound."""
    trace, _, eps = _recursion(run)
    return fts_core.verify_holder_continuity(trace, eps)


def _suite_lemma1(rng: np.random.Generator, n: int = 300) -> List[PropertyResult]:
    done = _in_two(_lemma1_run, _recursion_runs(rng, n), _predicted_steps)
    steps = [N for N, _ in done if N is not None]
    worst_N, all_finite = max(steps, default=0), len(steps) == n
    all_verified = all(verified for _, verified in done)
    return [
        PropertyResult("recursion reaches exactly 0", n, float(worst_N), all_finite,
                       note="margin is the largest step count"),
        PropertyResult("traces satisfy the decrement/gain conditions", n, 0.0, all_verified),
    ]


def _suite_holder(rng: np.random.Generator, n: int = 200) -> List[PropertyResult]:
    ok = all(_in_two(_holder_run, _recursion_runs(rng, n), _predicted_steps))
    return [PropertyResult("recursion traces are Holder-continuous", n, 0.0, ok)]


_CONVERGENCE_BUDGET = 25_000
_CONVERGENCE_TOL = 1e-9


def _uniform_pair(rng: np.random.Generator, low: float, high: float) -> Pair:
    """Two uniform draws as a pair of floats."""
    v0, v1 = rng.uniform(low, high, 2).tolist()
    return v0, v1


def _observer1_run(run: Tuple[Pair, Pair]) -> Tuple[float, float]:
    """One constant disturbance and an estimate off by d: the error left and the
    worst gap between the observer and the error recursion."""
    F_const, (d0, d1) = run
    c0, c1 = F_const
    F_hat = (c0 + d0, c1 + d1)
    e_pred = (F_hat[0] - c0, F_hat[1] - c1)
    worst_ident = 0.0
    for _ in range(_CONVERGENCE_BUDGET):
        # error recursion evaluated independently of the state update
        g = fts_core.holder_gain(e_pred, OBS_PARAMS)
        e_pred = (g * e_pred[0], g * e_pred[1])
        F_hat = ulm_observer.first_order_update(F_hat, F_const, OBS_PARAMS)
        e0, e1 = F_hat[0] - c0, F_hat[1] - c1
        worst_ident = max(worst_ident, abs(e0 - e_pred[0]), abs(e1 - e_pred[1]))
        if math.hypot(e0, e1) < _CONVERGENCE_TOL:
            break
    return math.hypot(e0, e1), worst_ident


def _suite_observer1(rng: np.random.Generator, n: int = 50) -> List[PropertyResult]:
    runs = [(_uniform_pair(rng, -5, 5), _uniform_pair(rng, -10, 10)) for _ in range(n)]
    done = _in_two(_observer1_run, runs)
    worst_err = max(0.0, *(err for err, _ in done))
    worst_ident = max(0.0, *(ident for _, ident in done))
    return [
        PropertyResult(
            "constant-disturbance rejection below 1e-9", n, worst_err,
            worst_err < _CONVERGENCE_TOL,
        ),
        PropertyResult(
            "error-recursion identity", n, worst_ident, worst_ident <= 1e-12
        ),
    ]


# the level error is driven by the difference error's slow tail
# (quasi-static balance ||e_F|| ~ (scale*||e_delta||/2)^(9/13) for these
# gains), so it gets a larger budget and a looser threshold
_LEVEL_TOL = 1e-7


def _observer2_run(run: Tuple[Pair, Pair]) -> Tuple[float, float]:
    """One ramp of slope d and an initial estimate F_hat: the level and difference
    errors left."""
    (d0, d1), F_hat = run
    dF_hat, F_prev = (0.0, 0.0), None
    eF = eD = math.inf
    for k in range(4 * _CONVERGENCE_BUDGET):
        F_k = (k * d0, k * d1)
        F_hat, dF_hat = ulm_observer.second_order_update(
            F_hat, dF_hat, F_prev, F_k, OBS_PARAMS
        )
        F_prev = F_k
        # after absorbing sample k the estimate predicts sample k+1
        eF = math.hypot(F_hat[0] - (k + 1) * d0, F_hat[1] - (k + 1) * d1)
        eD = math.hypot(dF_hat[0] - d0, dF_hat[1] - d1)
        if eF < _LEVEL_TOL and eD < _CONVERGENCE_TOL:
            break
    return eF, eD


def _suite_observer2(rng: np.random.Generator, n: int = 20) -> List[PropertyResult]:
    runs = [(_uniform_pair(rng, -0.05, 0.05), _uniform_pair(rng, -5, 5)) for _ in range(n)]
    done = _in_two(_observer2_run, runs)
    worst_eF = max(0.0, *(eF for eF, _ in done))
    worst_eD = max(0.0, *(eD for _, eD in done))
    return [
        PropertyResult("ramp rejection: difference error", n, worst_eD,
                       worst_eD < _CONVERGENCE_TOL),
        PropertyResult("ramp rejection: estimation error", n, worst_eF,
                       worst_eF < _LEVEL_TOL),
    ]


def _suite_control(rng: np.random.Generator, n: int = 20) -> List[PropertyResult]:
    worst_basic = 0.0
    worst_fts = 0.0
    worst_conv = 0.0
    G = ((0.559, 0.196), (0.196, 0.657))
    gains = tracking_control.ControlGains(params=CTRL_PARAMS, G=G)
    for _ in range(n):
        plant = plant_models.SyntheticUlmPlant(
            "sinusoid", G=G, nu=1, amplitude=_uniform_pair(rng, 0.1, 2.0),
            freq=_uniform_pair(rng, 0.01, 0.5), y_init=[_uniform_pair(rng, -1, 1)],
        )
        F_hat = _uniform_pair(rng, -1, 1)  # frozen imperfect estimate
        y_d = _uniform_pair(rng, -1, 1)
        e_F = [f_hat - f for f_hat, f in zip(F_hat, plant.true_F(plant.k))]
        y_next = plant.step(tracking_control.control_law_basic(y_d, F_hat, gains))
        worst_basic = max(worst_basic, *(abs(y - r + e) for y, r, e in zip(y_next, y_d, e_F)))

        e_y = (plant.output[0] - y_d[0], plant.output[1] - y_d[1])
        e_F = [f_hat - f for f_hat, f in zip(F_hat, plant.true_F(plant.k))]
        y_next = plant.step(tracking_control.control_law_fts(y_d, F_hat, e_y, gains))
        g = fts_core.holder_gain(e_y, CTRL_PARAMS)
        worst_fts = max(worst_fts, *(abs(y - r - (g * e - f))
                                     for y, r, e, f in zip(y_next, y_d, e_y, e_F)))

        # perfect estimation: tracking error contracts to below tolerance
        e_y = _uniform_pair(rng, -5, 5)
        for _ in range(_CONVERGENCE_BUDGET):
            g = fts_core.holder_gain(e_y, CTRL_PARAMS)
            e_y = (g * e_y[0], g * e_y[1])
            if math.hypot(*e_y) < _CONVERGENCE_TOL:
                break
        worst_conv = max(worst_conv, math.hypot(*e_y))
    return [
        PropertyResult("basic-law identity e_y = -e_F", n, worst_basic,
                       worst_basic <= 1e-10),
        PropertyResult("feedback-law error dynamics", n, worst_fts, worst_fts <= 1e-10),
        PropertyResult("perfect-estimate convergence below 1e-9", n, worst_conv,
                       worst_conv < _CONVERGENCE_TOL),
    ]


_DRIFT_SETTLE = 1500  # the steps before the ultimate bound is checked


def _robustness_run(run: tuple) -> Tuple[int, float, int]:
    """One disturbance F drifting by B a step along the (n, 2) array steps, from an
    estimate off by d: the steps whose error grows outside the neighbourhood, and
    after settling the worst margin and the steps outside the bound."""
    B, F, (d0, d1), steps = run
    F_hat = (F[0] + d0, F[1] + d1)
    norm, worst = math.inf, 0.0
    decrease_bad = violations = 0
    for k, (s0, s1) in enumerate(steps.tolist()):
        prev_norm = norm
        r = B / math.hypot(s0, s1)
        F = (F[0] + s0 * r, F[1] + s1 * r)
        F_hat = ulm_observer.first_order_update(F_hat, F, OBS_PARAMS)
        e = (F_hat[0] - F[0], F_hat[1] - F[1])
        norm = math.hypot(*e)
        gain = fts_core.holder_gain(e, OBS_PARAMS)
        margin = decrease_radius(gain) * norm
        if margin > B and norm > prev_norm + 1e-12:
            decrease_bad += 1
        if k >= _DRIFT_SETTLE:
            worst = max(worst, margin)
            if margin > B:
                violations += 1
    return decrease_bad, worst, violations


def _suite_robustness(rng: np.random.Generator) -> List[PropertyResult]:
    drifts, n_runs, n_steps = (0.01, 0.1), 20, 3000
    # F, d and the steps (the same stream as one (2,) draw a step) of every run, in turn
    runs = [(B, tuple(rng.standard_normal(2).tolist()), _uniform_pair(rng, -3, 3),
             rng.standard_normal((n_steps, 2))) for B in drifts for _ in range(n_runs)]
    done = _in_two(_robustness_run, runs)
    results = []
    for i, B in enumerate(drifts):
        part = done[i * n_runs:(i + 1) * n_runs]
        decrease_bad = sum(bad for bad, _, _ in part)
        worst = max(0.0, *(run_worst for _, run_worst, _ in part))
        violations = sum(run_violations for _, _, run_violations in part)
        results.append(
            PropertyResult(
                f"decrease outside neighborhood (drift {B})", n_runs * n_steps,
                float(decrease_bad), decrease_bad == 0,
            )
        )
        results.append(
            PropertyResult(
                f"ultimate-bound membership (drift {B})",
                n_runs * (n_steps - _DRIFT_SETTLE), worst / B, violations == 0,
                note="margin is worst (1-|gain|)*||e||/B after settling",
            )
        )
    return results


_SUITES: Dict[str, Callable[[np.random.Generator], List[PropertyResult]]] = {
    name: globals()[f"_suite_{name}"] for name in sim_harness.SUITE_NAMES}


def verify_suite(selector: str, seed: int = 20240811) -> SuiteReport:
    """Run one named property suite with a fixed seed and report margins."""
    if selector not in _SUITES:
        raise ConfigError(
            f"unknown suite {selector!r}; choose from {', '.join(sorted(_SUITES))}"
        )
    rng = np.random.default_rng(seed)
    return SuiteReport(suite=selector, results=tuple(_SUITES[selector](rng)))
