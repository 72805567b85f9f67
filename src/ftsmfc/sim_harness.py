"""Closed-loop experiment engine: scheduling, logging, metrics and the
property-verification suites.

Scheduling (relative degree nu): at tick k the harness measures y_k, filters
the measurement, reconstructs the newest computable unknown-dynamics sample
F_{k-nu} = y_hat_k - G u_{k-nu}, advances the disturbance observer on it,
computes u_k from the newest filtered tracking error and observer estimate,
and finally steps the plant.  No quantity ever depends on a signal that is
time-stamped later than its computation instant.
"""

from __future__ import annotations

import collections
import itertools
import math
from dataclasses import dataclass
from typing import Callable, Dict, Iterator, List, Sequence, Tuple

import numpy as np

from .config import CTRL_PARAMS, OBS_PARAMS, ConfigError, SimConfig
from .fts_core import (
    HolderGainParams,
    Pair,
    decrease_radius,
    fts_recursion,
    gamma_of_V,
    gamma_zero_crossing,
    holder_gain,
    robustness_radius,
    verify_fts_condition,
    verify_holder_continuity,
)
from .output_filter import filter_update
from .plant_models import (
    DivergenceError,
    PendulumPlant,
    SyntheticUlmPlant,
    desired_samples,
    noise_sample,
)
from .tracking_control import ControlGains, control_law_basic, control_law_fts
from .ulm_observer import compute_F, first_order_update, second_order_update


CSV_HEADER = (
    "t,x,theta,x_meas,theta_meas,x_hat,theta_hat,x_d,theta_d,"
    "ex,etheta,F1,F2,Fhat1,Fhat2,eF1,eF2,u1,u2"
)
# What generate-trajectory writes and trajectory source 'file' reads.
TRAJECTORY_HEADER = "t,x_d,theta_d"
CSV_BLOCK_ROWS = 256  # rows per `%` in write_csv: fast, and memory stays flat


def write_csv(path: str, header: str, columns) -> None:
    """Write the columns side by side under header, each float as `%.17g`, a block at a time."""
    table = np.column_stack(columns)
    row = ",".join(["%.17g"] * table.shape[1]) + "\n"
    with open(path, "w", newline="\n") as fh:
        fh.write(header + "\n")
        for block in np.split(table, range(CSV_BLOCK_ROWS, len(table), CSV_BLOCK_ROWS)):
            fh.write(row * len(block) % tuple(block.ravel().tolist()))


@dataclass(frozen=True)
class SimLog:
    """Per-step record stream of a closed-loop run.

    Arrays are (n_records,) for t and (n_records, 2) otherwise: true output y,
    measured y_meas, filtered y_hat, desired y_d, true tracking error e_y,
    newest reconstructed unknown term F, the estimate F_hat it was compared
    against, estimation error e_F = F_hat - F, and applied input u.  Rows
    before the first reconstructable F sample carry zeros in F, F_hat, e_F;
    the final row carries u = 0 (no input is applied at the last tick).
    """

    t: np.ndarray
    y: np.ndarray
    y_meas: np.ndarray
    y_hat: np.ndarray
    y_d: np.ndarray
    e_y: np.ndarray
    F: np.ndarray
    F_hat: np.ndarray
    e_F: np.ndarray
    u: np.ndarray

    def __len__(self) -> int:
        return len(self.t)

    def to_csv(self, path: str) -> None:
        """Write the log with the fixed header and 17-significant-digit floats."""
        write_csv(path, CSV_HEADER, (self.t, self.y, self.y_meas, self.y_hat, self.y_d,
                                     self.e_y, self.F, self.F_hat, self.e_F, self.u))


def _build_plant(config: SimConfig):
    if config.plant_kind == "pendulum":
        return PendulumPlant(config.initial_state, config.dt, config.plant_params)
    return SyntheticUlmPlant(config.plant_kind, **config.plant_spec)  # from_dict checked the spec


def _desired_trajectory(config: SimConfig, count: int) -> Iterator[Pair]:
    """The desired outputs y_d[0], y_d[1], ...; a file is read and checked for count rows here."""
    if config.trajectory_source == "zero":
        return itertools.repeat((0.0, 0.0))
    if config.trajectory_source == "generated":
        return desired_samples(config.trajectory_start, config.dt, config.plant_params)
    # the x_d,theta_d columns of the first count rows generate-trajectory wrote
    try:
        with open(config.trajectory_path, "r") as fh:
            header = fh.readline().rstrip("\n")
            rows = [row.split(",") for row in itertools.islice(fh, count)]
            table = np.array(rows, dtype=float)
    except OSError as exc:
        raise ConfigError(f"cannot read trajectory file: {exc}") from exc
    except ValueError as exc:
        raise ConfigError(f"cannot parse trajectory file: {exc}") from exc
    if header != TRAJECTORY_HEADER:
        raise ConfigError(f"trajectory file header {header!r} is not {TRAJECTORY_HEADER!r}")
    if table.shape != (count, 3) or not np.all(np.isfinite(table)):
        raise ConfigError(f"trajectory file needs {count} rows of 3 finite numbers")
    # row by row, so the run holds the table and not a list of it
    return map(tuple, map(np.ndarray.tolist, table[:, 1:]))


def run_closed_loop(config: SimConfig) -> SimLog:
    """Run one deterministic closed-loop experiment and return its log.

    Every signal in the loop is a pair of floats.  Raises DivergenceError
    when the plant or a generated desired trajectory diverges, with the
    failing tick as its step_index, DomainError when a signal turns
    non-finite, and ConfigError on inconsistent configuration.
    """
    plant = _build_plant(config)
    nu = plant.nu
    n_steps = config.n_steps
    n_records = n_steps + 1
    # u_k reads y_d[k + nu] up to k = n_steps - 1; each sample is taken when first read,
    # so a run that diverges at tick k asks for no desired sample past k + nu
    desired = _desired_trajectory(config, n_steps + nu)
    y_d_ahead = collections.deque(itertools.islice(desired, nu))  # y_d[k .. k + nu - 1]

    dt, gains, zero = config.dt, config.gains, (0.0, 0.0)
    # loop state: the filtered output and the measurement it was made against,
    # the observer's estimates of F and of its first difference, the previous
    # reconstructed sample (None before one), and the last nu inputs by k % nu
    y_hat, y_meas_prev = config.initial_estimate, None
    F_hat, dF_hat, F_prev = zero, zero, None
    u_sent = [zero] * nu

    # one row a tick: y, y_meas, y_hat, y_d, F, F_hat (before the update), u
    log = np.empty((n_records, 14))
    for k in range(n_records):
        y = plant.output
        eta = noise_sample(dt * k, config.noise) if config.noise_enabled else zero
        y_meas = (y[0] + eta[0], y[1] + eta[1])
        if not config.filter_enabled:
            y_hat = y_meas
        elif k > 0:
            # tick 0 keeps the initial estimate: there is no innovation yet
            y_hat = filter_update(y_hat, y_meas_prev, y_meas, config.filter_params)
        y_meas_prev = y_meas

        F_rec = F_seen = zero
        if k >= nu:
            F_rec, F_seen = compute_F(y_hat, gains.G, u_sent[k % nu]), F_hat
            if config.observer_order == "first":
                F_hat = first_order_update(F_hat, F_rec, config.observer_params)
            else:
                F_hat, dF_hat = second_order_update(
                    F_hat, dF_hat, F_prev, F_rec, config.observer_params
                )
                F_prev = F_rec

        y_d = y_d_ahead.popleft()
        u = zero
        if k < n_steps:
            try:
                y_d_future = next(desired)
            except DivergenceError as exc:
                # the generator counts samples; the loop reports its tick, as the plant does
                raise DivergenceError(str(exc), step_index=k) from exc
            y_d_ahead.append(y_d_future)
            if config.control_law == "fts":
                e_y_hat = (y_hat[0] - y_d[0], y_hat[1] - y_d[1])
                u = control_law_fts(y_d_future, F_hat, e_y_hat, gains)
            else:
                u = control_law_basic(y_d_future, F_hat, gains)
            plant.step(u)
            u_sent[k % nu] = u
        log[k] = (*y, *y_meas, *y_hat, *y_d, *F_rec, *F_seen, *u)

    # the errors are differences of logged columns
    y, y_d, F, F_hat = log[:, 0:2], log[:, 6:8], log[:, 8:10], log[:, 10:12]
    return SimLog(
        t=dt * np.arange(n_records), y=y, y_meas=log[:, 2:4], y_hat=log[:, 4:6], y_d=y_d,
        e_y=y - y_d, F=F, F_hat=F_hat, e_F=F_hat - F, u=log[:, 12:14],
    )


def compute_metrics(log: SimLog, settle_time: float, bands: Sequence[float]) -> Dict[str, float]:
    """Steady-state metrics of a run.

    Returns max |.| and RMS of each tracking-error and estimation-error
    channel over t > settle_time, plus the first time each tracking channel
    enters its band and stays there (NaN if it never settles).
    """
    mask = log.t > settle_time
    if not np.any(mask):
        raise ConfigError(
            f"no samples after settle_time={settle_time} (horizon {log.t[-1]})"
        )
    channels = {
        "ex": log.e_y[:, 0],
        "etheta": log.e_y[:, 1],
        "eF1": log.e_F[:, 0],
        "eF2": log.e_F[:, 1],
    }
    out: Dict[str, float] = {}
    for name, sig in channels.items():
        post = sig[mask]
        out[f"max_abs_{name}"] = float(np.max(np.abs(post)))
        out[f"rms_{name}"] = float(np.sqrt(np.mean(post * post)))
    for name, band in zip(("ex", "etheta"), bands):
        inside = np.abs(channels[name]) <= band
        # first index from which the channel never leaves the band again
        stay = np.flatnonzero(~inside[::-1])
        if stay.size == 0:
            out[f"settle_{name}"] = float(log.t[0])
        elif stay[0] == 0:
            out[f"settle_{name}"] = float("nan")
        else:
            out[f"settle_{name}"] = float(log.t[len(inside) - stay[0]])
    return out


def metrics_to_text(metrics: Dict[str, float]) -> str:
    """Flat key = value rendering of a metrics record."""
    return "".join(f"{k} = {v:.17g}\n" for k, v in sorted(metrics.items()))


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


def _suite_gamma(rng: np.random.Generator) -> List[PropertyResult]:
    n = 1_000_000
    r = rng.uniform(1.01, 1.99, n)
    lam = 10.0 ** rng.uniform(-3, 3, n)
    V = 10.0 ** rng.uniform(-6, 6, n)
    a = 1.0 - 1.0 / r
    x = np.power(V, a)
    gamma = 4.0 * lam * np.power(V, 2 * a) / np.square(x + lam)
    D = (x - lam) / (x + lam)
    diff = np.abs(gamma - (1.0 - D * D) * x) / np.maximum(1.0, gamma)
    results = [
        PropertyResult(
            "gamma identity vs (1-D^2)V^a", n, float(diff.max()), bool(diff.max() <= 1e-12)
        )
    ]
    # spot-check the vectorized oracle against the public functions
    worst = 0.0
    for i in range(0, n, n // 100):
        p = HolderGainParams(exponent=float(r[i]), scale=float(lam[i]))
        g = gamma_of_V(V[i], p)
        d = holder_gain((math.sqrt(V[i]), 0.0), p)
        worst = max(worst, abs(g - gamma[i]) / max(1.0, g), abs(d - D[i]))
    results.append(
        PropertyResult("public-function cross-check", 100, worst, worst <= 1e-12)
    )
    m = 1000
    worst = 0.0
    for i in range(m):
        p = HolderGainParams(
            exponent=float(rng.uniform(1.01, 1.99)), scale=float(10.0 ** rng.uniform(-2, 2))
        )
        Vb = gamma_zero_crossing(p)
        worst = max(worst, abs(gamma_of_V(Vb, p) - p.scale) / p.scale)
    results.append(
        PropertyResult("gamma boundary equals scale", m, worst, worst <= 1e-12)
    )
    return results


def _suite_rho(rng: np.random.Generator) -> List[PropertyResult]:
    n = 1_000_000
    zeta = 10.0 ** rng.uniform(-6, 0, n)
    stable = 1.0 + np.sqrt(1.0 - zeta)
    # the quotient form loses ~6 digits to cancellation near zeta = 1e-6 in
    # double precision; evaluate it in extended precision for the comparison
    zl = zeta.astype(np.longdouble)
    quotient = (zl / (1.0 - np.sqrt(1.0 - zl))).astype(float)
    diff = np.abs(stable - quotient) / stable
    in_range = bool(np.all((stable >= 1.0) & (stable <= 2.0)))
    return [
        PropertyResult(
            "stable vs quotient form", n, float(diff.max()), bool(diff.max() <= 1e-12)
        ),
        PropertyResult("range [1,2]", n, 0.0, in_range),
        PropertyResult(
            "rho at gain 0 equals 1", 1, abs(robustness_radius(0.0) - 1.0),
            robustness_radius(0.0) == 1.0,
        ),
    ]


def _suite_lemma1(rng: np.random.Generator, n: int = 300) -> List[PropertyResult]:
    worst_N = 0
    all_finite = True
    all_verified = True
    for _ in range(n):
        V0 = 10.0 ** rng.uniform(-6, 6)
        eta = rng.uniform(1e-3, 10.0)
        alpha = rng.uniform(0.05, 0.95)
        trace, N = fts_recursion(V0, eta, alpha, max_steps=20_000_000)
        if N is None:
            all_finite = False
            continue
        worst_N = max(worst_N, N)
        eps = eta ** (1.0 / (1.0 - alpha))
        if not verify_fts_condition(trace, lambda V: eta, eps):
            all_verified = False
    return [
        PropertyResult("recursion reaches exactly 0", n, float(worst_N), all_finite,
                       note="margin is the largest step count"),
        PropertyResult("traces satisfy the decrement/gain conditions", n, 0.0, all_verified),
    ]


def _suite_holder(rng: np.random.Generator, n: int = 200) -> List[PropertyResult]:
    ok = True
    for _ in range(n):
        V0 = 10.0 ** rng.uniform(-6, 6)
        eta = rng.uniform(1e-3, 10.0)
        alpha = rng.uniform(0.05, 0.95)
        trace, _ = fts_recursion(V0, eta, alpha, max_steps=20_000_000)
        eps = eta ** (1.0 / (1.0 - alpha))
        if not verify_holder_continuity(trace, eps):
            ok = False
    return [PropertyResult("recursion traces are Holder-continuous", n, 0.0, ok)]


_CONVERGENCE_BUDGET = 25_000
_CONVERGENCE_TOL = 1e-9


def _uniform_pair(rng: np.random.Generator, low: float, high: float) -> Pair:
    """Two uniform draws as a pair of floats."""
    v0, v1 = rng.uniform(low, high, 2).tolist()
    return v0, v1


def _suite_observer1(rng: np.random.Generator, n: int = 50) -> List[PropertyResult]:
    worst_err = 0.0
    worst_ident = 0.0
    for _ in range(n):
        c0, c1 = F_const = _uniform_pair(rng, -5, 5)
        d0, d1 = _uniform_pair(rng, -10, 10)
        F_hat = (c0 + d0, c1 + d1)
        e_pred = (F_hat[0] - c0, F_hat[1] - c1)
        for _ in range(_CONVERGENCE_BUDGET):
            # error recursion evaluated independently of the state update
            g = holder_gain(e_pred, OBS_PARAMS)
            e_pred = (g * e_pred[0], g * e_pred[1])
            F_hat = first_order_update(F_hat, F_const, OBS_PARAMS)
            e0, e1 = F_hat[0] - c0, F_hat[1] - c1
            worst_ident = max(worst_ident, abs(e0 - e_pred[0]), abs(e1 - e_pred[1]))
            if math.hypot(e0, e1) < _CONVERGENCE_TOL:
                break
        worst_err = max(worst_err, math.hypot(e0, e1))
    return [
        PropertyResult(
            "constant-disturbance rejection below 1e-9", n, worst_err,
            worst_err < _CONVERGENCE_TOL,
        ),
        PropertyResult(
            "error-recursion identity", n, worst_ident, worst_ident <= 1e-12
        ),
    ]


def _suite_observer2(rng: np.random.Generator, n: int = 20) -> List[PropertyResult]:
    worst_eF = 0.0
    worst_eD = 0.0
    # the level error is driven by the difference error's slow tail
    # (quasi-static balance ||e_F|| ~ (scale*||e_delta||/2)^(9/13) for these
    # gains), so it gets a larger budget and a looser threshold
    budget = 4 * _CONVERGENCE_BUDGET
    level_tol = 1e-7
    for _ in range(n):
        d0, d1 = _uniform_pair(rng, -0.05, 0.05)
        F_hat, dF_hat, F_prev = _uniform_pair(rng, -5, 5), (0.0, 0.0), None
        eF = eD = math.inf
        for k in range(budget):
            F_k = (k * d0, k * d1)
            F_hat, dF_hat = second_order_update(F_hat, dF_hat, F_prev, F_k, OBS_PARAMS)
            F_prev = F_k
            # after absorbing sample k the estimate predicts sample k+1
            eF = math.hypot(F_hat[0] - (k + 1) * d0, F_hat[1] - (k + 1) * d1)
            eD = math.hypot(dF_hat[0] - d0, dF_hat[1] - d1)
            if eF < level_tol and eD < _CONVERGENCE_TOL:
                break
        worst_eF = max(worst_eF, eF)
        worst_eD = max(worst_eD, eD)
    return [
        PropertyResult("ramp rejection: difference error", n, worst_eD,
                       worst_eD < _CONVERGENCE_TOL),
        PropertyResult("ramp rejection: estimation error", n, worst_eF,
                       worst_eF < level_tol),
    ]


def _suite_control(rng: np.random.Generator, n: int = 20) -> List[PropertyResult]:
    worst_basic = 0.0
    worst_fts = 0.0
    worst_conv = 0.0
    G = np.array([[0.559, 0.196], [0.196, 0.657]])
    gains = ControlGains(params=CTRL_PARAMS, G=G)
    for _ in range(n):
        plant = SyntheticUlmPlant(
            "sinusoid", G=G, amplitude=rng.uniform(0.1, 2.0, 2),
            freq=rng.uniform(0.01, 0.5, 2), y_init=rng.uniform(-1, 1, (1, 2)),
        )
        F_hat = _uniform_pair(rng, -1, 1)  # frozen imperfect estimate
        y_d = _uniform_pair(rng, -1, 1)
        e_F = np.subtract(F_hat, plant.true_F(plant.k))
        y_next = plant.step(control_law_basic(y_d, F_hat, gains))
        worst_basic = max(worst_basic, float(np.max(np.abs(np.subtract(y_next, y_d) + e_F))))

        e_y = (plant.output[0] - y_d[0], plant.output[1] - y_d[1])
        e_F = np.subtract(F_hat, plant.true_F(plant.k))
        y_next = plant.step(control_law_fts(y_d, F_hat, e_y, gains))
        predicted = holder_gain(e_y, CTRL_PARAMS) * np.array(e_y) - e_F
        worst_fts = max(worst_fts, float(np.max(np.abs(np.subtract(y_next, y_d) - predicted))))

        # perfect estimation: tracking error contracts to below tolerance
        e_y = _uniform_pair(rng, -5, 5)
        for _ in range(_CONVERGENCE_BUDGET):
            g = holder_gain(e_y, CTRL_PARAMS)
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


def _suite_robustness(rng: np.random.Generator) -> List[PropertyResult]:
    results = []
    for B in (0.01, 0.1):
        n_runs, n_steps, n_settle = 20, 3000, 1500
        violations = 0
        decrease_bad = 0
        worst = 0.0
        for _ in range(n_runs):
            F = tuple(rng.standard_normal(2).tolist())
            d0, d1 = _uniform_pair(rng, -3, 3)
            F_hat = (F[0] + d0, F[1] + d1)
            norm = math.inf
            # the same stream as one (2,) draw a step
            for k, (s0, s1) in enumerate(rng.standard_normal((n_steps, 2)).tolist()):
                prev_norm = norm
                r = B / math.hypot(s0, s1)
                F = (F[0] + s0 * r, F[1] + s1 * r)
                F_hat = first_order_update(F_hat, F, OBS_PARAMS)
                e = (F_hat[0] - F[0], F_hat[1] - F[1])
                norm = math.hypot(*e)
                gain = holder_gain(e, OBS_PARAMS)
                margin = decrease_radius(gain) * norm
                if margin > B and norm > prev_norm + 1e-12:
                    decrease_bad += 1
                if k >= n_settle:
                    worst = max(worst, margin)
                    if margin > B:
                        violations += 1
        results.append(
            PropertyResult(
                f"decrease outside neighborhood (drift {B})", n_runs * n_steps,
                float(decrease_bad), decrease_bad == 0,
            )
        )
        results.append(
            PropertyResult(
                f"ultimate-bound membership (drift {B})",
                n_runs * (n_steps - n_settle), worst / B, violations == 0,
                note="margin is worst (1-|gain|)*||e||/B after settling",
            )
        )
    return results


_SUITES: Dict[str, Callable[[np.random.Generator], List[PropertyResult]]] = {
    "gamma": _suite_gamma,
    "rho": _suite_rho,
    "lemma1": _suite_lemma1,
    "holder": _suite_holder,
    "observer1": _suite_observer1,
    "observer2": _suite_observer2,
    "control": _suite_control,
    "robustness": _suite_robustness,
}

SUITE_NAMES = tuple(sorted(_SUITES))


def verify_suite(selector: str, seed: int = 20240811) -> SuiteReport:
    """Run one named property suite with a fixed seed and report margins."""
    if selector not in _SUITES:
        raise ConfigError(
            f"unknown suite {selector!r}; choose from {', '.join(SUITE_NAMES)}"
        )
    rng = np.random.default_rng(seed)
    return SuiteReport(suite=selector, results=tuple(_SUITES[selector](rng)))
