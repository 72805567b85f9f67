"""Closed-loop experiment engine: configuration, scheduling, logging, metrics
and the property-verification suites.

Scheduling (relative degree nu): at tick k the harness measures y_k, filters
the measurement, reconstructs the newest computable unknown-dynamics sample
F_{k-nu} = y_hat_k - G u_{k-nu}, advances the disturbance observer on it,
computes u_k from the newest filtered tracking error and observer estimate,
and finally steps the plant.  No quantity ever depends on a signal that is
time-stamped later than its computation instant.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np
import yaml

from .fts_core import (
    DomainError,
    HolderGainParams,
    decrease_radius,
    fts_recursion,
    gamma_of_V,
    gamma_zero_crossing,
    holder_gain,
    robustness_radius,
    verify_fts_condition,
    verify_holder_continuity,
)
from .output_filter import OutputFilterState, filter_update
from .plant_models import (
    NoiseConfig,
    PendulumParams,
    PendulumPlant,
    SyntheticUlmPlant,
    generate_desired_trajectory,
    noise_sample,
)
from .tracking_control import ControlGains, control_law_basic, control_law_fts
from .ulm_observer import (
    FirstOrderObserverState,
    compute_F,
    first_order_update,
    second_order_observer,
    second_order_update,
)


class ConfigError(ValueError):
    """The experiment configuration is missing, malformed, or inconsistent."""


CSV_HEADER = (
    "t,x,theta,x_meas,theta_meas,x_hat,theta_hat,x_d,theta_d,"
    "ex,etheta,F1,F2,Fhat1,Fhat2,eF1,eF2,u1,u2"
)


def _as_float(value, what: str) -> float:
    """Accept a number or a fraction string like '9/7'."""
    if isinstance(value, str):
        try:
            return float(Fraction(value))
        except (ValueError, ZeroDivisionError) as exc:
            raise ConfigError(f"{what}: cannot parse {value!r} as a number") from exc
    if isinstance(value, (int, float)):
        return float(value)
    raise ConfigError(f"{what}: expected a number, got {value!r}")


def _as_vector(value, length: int, what: str) -> np.ndarray:
    try:
        v = np.asarray([_as_float(x, what) for x in value], dtype=float)
    except TypeError as exc:
        raise ConfigError(f"{what}: expected a sequence of {length} numbers") from exc
    if v.shape != (length,):
        raise ConfigError(f"{what}: expected {length} entries, got shape {v.shape}")
    return v


_NOISE_FIELDS = ("amplitudes", "base_freqs", "fm_depth", "fm_freqs", "phases")

# The keys from_dict reads, per section; any other key is a ConfigError.
_KEYS = {
    "controller": ("law", "exponent", "scale", "weight", "G", "G_times_dt"),
    "observer": ("order", "exponent", "scale", "weight"),
    "filter": ("enabled", "exponent", "scale", "weight"),
    "noise": ("enabled",) + _NOISE_FIELDS,
    "trajectory": ("source", "init", "path"),
    "metrics": ("settle_time", "bands"),
}
_ROOT_KEYS = ("dt", "T", "plant", "initial_state", "initial_estimate") + tuple(_KEYS)


def _reject_unknown(section: dict, keys: Sequence[str], prefix: str = "") -> None:
    unknown = [f"{prefix}{k}" for k in section if k not in keys]
    if unknown:
        raise ConfigError(f"unknown config key {', '.join(map(repr, unknown))}")


def _section(doc: dict, name: str, keys: Sequence[str]) -> dict:
    """doc[name] as a mapping ({} when absent or empty) holding only the given keys."""
    section = doc.get(name)
    if section is None:
        return {}
    if not isinstance(section, dict):
        raise ConfigError(f"{name}: expected a mapping, got {section!r}")
    _reject_unknown(section, keys, f"{name}.")
    return section


def load_doc(path: str) -> dict:
    """Read a YAML configuration document; an empty file reads as {}."""
    try:
        with open(path, "r") as fh:
            doc = yaml.safe_load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from exc
    except yaml.YAMLError as exc:
        raise ConfigError(f"cannot parse config file {path}: {exc}") from exc
    if doc is None:
        return {}
    if not isinstance(doc, dict):
        raise ConfigError("configuration document must be a mapping")
    return doc


def _gain_params(section: dict, what: str) -> HolderGainParams:
    try:
        exponent = _as_float(section["exponent"], f"{what}.exponent")
        scale = _as_float(section["scale"], f"{what}.scale")
    except KeyError as exc:
        raise ConfigError(f"{what}: missing key {exc}") from exc
    weight = section.get("weight")
    if weight is not None and np.ndim(weight) == 0:
        weight = _as_float(weight, f"{what}.weight")
    try:
        return HolderGainParams(exponent=exponent, scale=scale, weight=weight)
    except ValueError as exc:
        raise ConfigError(f"{what}: {exc}") from exc


_OBS_PARAMS = HolderGainParams(exponent=9.0 / 7.0, scale=1.5)
_CTRL_PARAMS = HolderGainParams(exponent=11.0 / 9.0, scale=0.35)


@dataclass(frozen=True)
class SimConfig:
    """Full description of one closed-loop experiment."""

    dt: float
    T: float
    plant_kind: str = "pendulum"
    plant_params: PendulumParams = field(default_factory=PendulumParams)
    plant_spec: dict = field(default_factory=dict)
    control_law: str = "fts"
    control_params: HolderGainParams = _CTRL_PARAMS
    G: np.ndarray = field(
        default_factory=lambda: 0.01 * np.array([[0.559, 0.196], [0.196, 0.657]])
    )
    observer_order: str = "first"
    observer_params: HolderGainParams = _OBS_PARAMS
    filter_params: HolderGainParams = field(
        default_factory=lambda: HolderGainParams(exponent=7.0 / 5.0, scale=2.0, weight=2.1)
    )
    filter_enabled: bool = True
    noise: NoiseConfig = field(default_factory=NoiseConfig)
    noise_enabled: bool = True
    initial_state: np.ndarray = field(
        default_factory=lambda: np.array([0.45, -0.14, -0.3, 0.05])
    )
    initial_estimate: np.ndarray = field(
        default_factory=lambda: np.array([0.0, 0.102, 0.0, 0.0])
    )
    trajectory_source: str = "generated"
    trajectory_init: Optional[np.ndarray] = None
    trajectory_path: Optional[str] = None
    settle_time: float = 20.0
    bands: np.ndarray = field(default_factory=lambda: np.array([0.5, 0.05]))
    # built by __post_init__, which checks the rank of G once for the whole run
    gains: ControlGains = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if not self.dt > 0.0:
            raise ConfigError(f"dt must be positive, got {self.dt}")
        if not self.T >= 0.0:
            raise ConfigError(f"T must be non-negative, got {self.T}")
        if self.control_law not in ("basic", "fts"):
            raise ConfigError(f"unknown control law {self.control_law!r}")
        if self.observer_order not in ("first", "second"):
            raise ConfigError(f"unknown observer order {self.observer_order!r}")
        if self.trajectory_source not in ("generated", "file", "zero"):
            raise ConfigError(f"unknown trajectory source {self.trajectory_source!r}")
        if self.trajectory_source == "file" and not self.trajectory_path:
            raise ConfigError("trajectory source 'file' requires trajectory.path")
        G = np.asarray(self.G, dtype=float)
        if G.shape != (2, 2):
            raise ConfigError(f"controller.G must be 2 x 2, got shape {G.shape}")
        try:
            gains = ControlGains(params=self.control_params, G=G)
        except DomainError as exc:
            raise ConfigError(f"controller.G: {exc}") from exc
        object.__setattr__(self, "G", G)
        object.__setattr__(self, "gains", gains)
        object.__setattr__(self, "initial_state", np.asarray(self.initial_state, dtype=float))
        object.__setattr__(
            self, "initial_estimate", np.asarray(self.initial_estimate, dtype=float)
        )
        object.__setattr__(self, "bands", np.asarray(self.bands, dtype=float))

    @property
    def n_steps(self) -> int:
        return int(math.floor(self.T / self.dt))

    @property
    def trajectory_start(self) -> np.ndarray:
        """(x, theta, xdot, thetadot) the generated trajectory starts from."""
        return self.initial_state if self.trajectory_init is None else self.trajectory_init

    @staticmethod
    def from_dict(doc: dict) -> "SimConfig":
        if not isinstance(doc, dict):
            raise ConfigError("configuration document must be a mapping")
        _reject_unknown(doc, _ROOT_KEYS)
        kwargs: dict = {}
        try:
            kwargs["dt"] = _as_float(doc["dt"], "dt")
            kwargs["T"] = _as_float(doc["T"], "T")
        except KeyError as exc:
            raise ConfigError(f"missing required key {exc}") from exc

        plant = _section(doc, "plant", ("kind", "params", "spec"))
        kind = plant.get("kind", "pendulum")
        _reject_unknown(plant, ("kind", "params" if kind == "pendulum" else "spec"), "plant.")
        kwargs["plant_kind"] = kind
        if kind == "pendulum":
            pp = plant.get("params", {})
            try:
                kwargs["plant_params"] = PendulumParams(
                    **{k: _as_float(v, f"plant.params.{k}") for k, v in pp.items()}
                )
            except (TypeError, ValueError) as exc:
                raise ConfigError(f"plant.params: {exc}") from exc
        else:
            kwargs["plant_spec"] = dict(plant.get("spec", {}))

        ctrl = _section(doc, "controller", _KEYS["controller"])
        kwargs["control_law"] = ctrl.get("law", "fts")
        if "exponent" in ctrl or "scale" in ctrl:
            kwargs["control_params"] = _gain_params(ctrl, "controller")
        if "G" in ctrl:
            G = np.asarray([_as_vector(row, 2, "controller.G") for row in ctrl["G"]])
            if ctrl.get("G_times_dt", False):
                G = kwargs["dt"] * G
            kwargs["G"] = G

        obs = _section(doc, "observer", _KEYS["observer"])
        kwargs["observer_order"] = obs.get("order", "first")
        if "exponent" in obs or "scale" in obs:
            kwargs["observer_params"] = _gain_params(obs, "observer")

        filt = _section(doc, "filter", _KEYS["filter"])
        kwargs["filter_enabled"] = bool(filt.get("enabled", True))
        if "exponent" in filt or "scale" in filt:
            kwargs["filter_params"] = _gain_params(filt, "filter")

        noise = _section(doc, "noise", _KEYS["noise"])
        kwargs["noise_enabled"] = bool(noise.get("enabled", True))
        fields = {}
        for name in _NOISE_FIELDS:
            if name in noise:
                fields[name] = _as_vector(noise[name], 2, f"noise.{name}")
        try:
            kwargs["noise"] = NoiseConfig(**fields)
        except ValueError as exc:
            raise ConfigError(f"noise: {exc}") from exc

        if "initial_state" in doc:
            kwargs["initial_state"] = _as_vector(doc["initial_state"], 4, "initial_state")
        if "initial_estimate" in doc:
            kwargs["initial_estimate"] = _as_vector(
                doc["initial_estimate"], 4, "initial_estimate"
            )

        traj = _section(doc, "trajectory", _KEYS["trajectory"])
        kwargs["trajectory_source"] = traj.get("source", "generated")
        if "init" in traj:
            kwargs["trajectory_init"] = _as_vector(traj["init"], 4, "trajectory.init")
        if "path" in traj:
            kwargs["trajectory_path"] = traj["path"]

        metrics = _section(doc, "metrics", _KEYS["metrics"])
        if "settle_time" in metrics:
            kwargs["settle_time"] = _as_float(metrics["settle_time"], "metrics.settle_time")
        if "bands" in metrics:
            kwargs["bands"] = _as_vector(metrics["bands"], 2, "metrics.bands")

        return SimConfig(**kwargs)

    @staticmethod
    def from_yaml(path: str) -> "SimConfig":
        return SimConfig.from_dict(load_doc(path))


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
        table = np.column_stack(
            (self.t, self.y, self.y_meas, self.y_hat, self.y_d, self.e_y,
             self.F, self.F_hat, self.e_F, self.u)
        )
        with open(path, "w", newline="\n") as fh:
            fh.write(CSV_HEADER + "\n")
            for row in table:
                fh.write(",".join(f"{v:.17g}" for v in row.tolist()) + "\n")


def _build_plant(config: SimConfig):
    if config.plant_kind == "pendulum":
        return PendulumPlant(config.initial_state, config.dt, config.plant_params)
    try:
        plant = SyntheticUlmPlant(config.plant_kind, **config.plant_spec)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"plant: {exc}") from exc
    if plant.n != 2 or plant.G.shape != (2, 2):
        raise ConfigError(
            f"plant: the log holds 2 outputs and 2 inputs, got n={plant.n}"
            f" and G of shape {plant.G.shape}"
        )
    return plant


def _desired_trajectory(config: SimConfig, count: int) -> np.ndarray:
    if config.trajectory_source == "zero":
        return np.zeros((count, 2))
    if config.trajectory_source == "file":
        try:
            samples = np.loadtxt(config.trajectory_path, delimiter=",", ndmin=2)
        except OSError as exc:
            raise ConfigError(f"cannot read trajectory file: {exc}") from exc
        except ValueError as exc:
            raise ConfigError(f"cannot parse trajectory file: {exc}") from exc
        if samples.shape[0] < count or samples.shape[1] < 2:
            raise ConfigError(
                f"trajectory file has shape {samples.shape}, need at least ({count}, 2)"
            )
        return samples[:count, :2]
    if config.plant_kind != "pendulum":
        raise ConfigError("generated trajectories require the pendulum plant")
    extra = count - (config.n_steps + 1)
    return generate_desired_trajectory(
        config.trajectory_start, config.T, config.dt, config.plant_params, n_extra=extra
    )


def run_closed_loop(config: SimConfig) -> SimLog:
    """Run one deterministic closed-loop experiment and return its log.

    Raises DivergenceError (with the step index) when the plant diverges,
    DomainError when a signal turns non-finite, and ConfigError on
    inconsistent configuration.
    """
    plant = _build_plant(config)
    nu = plant.nu
    n_steps = config.n_steps
    n_records = n_steps + 1
    y_d = _desired_trajectory(config, n_records + nu)

    gains = config.gains
    filt = OutputFilterState(
        y_hat=config.initial_estimate[:2], params=config.filter_params
    )
    if config.observer_order == "first":
        obs = FirstOrderObserverState(F_hat=np.zeros(2), params=config.observer_params)
    else:
        obs = second_order_observer(np.zeros(2), config.observer_params)

    t = config.dt * np.arange(n_records)
    cols = lambda: np.zeros((n_records, 2))  # noqa: E731
    log_y, log_meas, log_hat = cols(), cols(), cols()
    log_yd, log_ey, log_F, log_Fhat, log_eF, log_u = (
        cols(), cols(), cols(), cols(), cols(), cols(),
    )
    u_hist: List[np.ndarray] = []

    for k in range(n_records):
        y_true = plant.output
        eta = noise_sample(t[k], config.noise) if config.noise_enabled else np.zeros(2)
        y_meas = y_true + eta
        if config.filter_enabled:
            filt = filter_update(filt, y_meas)
            y_hat = filt.y_hat
        else:
            y_hat = y_meas

        if k >= nu:
            F_rec = compute_F(y_hat, config.G, u_hist[k - nu])
            F_hat_pre = obs.F_hat
            if config.observer_order == "first":
                obs = first_order_update(obs, F_rec)
            else:
                obs = second_order_update(obs, F_rec)
            log_F[k], log_Fhat[k] = F_rec, F_hat_pre
            log_eF[k] = F_hat_pre - F_rec

        log_y[k], log_meas[k], log_hat[k], log_yd[k] = y_true, y_meas, y_hat, y_d[k]
        log_ey[k] = y_true - y_d[k]

        if k < n_steps:
            e_y_hat = y_hat - y_d[k]
            if config.control_law == "fts":
                u = control_law_fts(y_d[k + nu], obs.F_hat, e_y_hat, gains)
            else:
                u = control_law_basic(y_d[k + nu], obs.F_hat, gains)
            plant.step(u)
        else:
            u = np.zeros(gains.G.shape[1])
        u_hist.append(u)
        log_u[k] = u

    return SimLog(
        t=t, y=log_y, y_meas=log_meas, y_hat=log_hat, y_d=log_yd, e_y=log_ey,
        F=log_F, F_hat=log_Fhat, e_F=log_eF, u=log_u,
    )


def compute_metrics(
    log: SimLog, settle_time: float = 20.0, bands: Sequence[float] = (0.5, 0.05)
) -> Dict[str, float]:
    """Steady-state metrics of a run.

    Returns max |.| and RMS of each tracking-error and estimation-error
    channel over t > settle_time, plus the first time each tracking channel
    enters its band and stays there (NaN if it never settles).
    """
    mask = log.t > settle_time
    if not np.any(mask):
        raise ValueError(
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
        e = np.array([math.sqrt(V[i]), 0.0])
        g = gamma_of_V(V[i], p)
        d = holder_gain(e, p)
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


def _suite_observer1(rng: np.random.Generator, n: int = 50) -> List[PropertyResult]:
    worst_err = 0.0
    worst_ident = 0.0
    for _ in range(n):
        F_const = rng.uniform(-5, 5, 2)
        state = FirstOrderObserverState(
            F_hat=F_const + rng.uniform(-10, 10, 2), params=_OBS_PARAMS
        )
        e_pred = state.F_hat - F_const
        for _ in range(_CONVERGENCE_BUDGET):
            # error recursion evaluated independently of the state update
            e_pred = holder_gain(e_pred, _OBS_PARAMS) * e_pred
            state = first_order_update(state, F_const)
            worst_ident = max(
                worst_ident, float(np.max(np.abs(state.error - e_pred)))
            )
            if np.linalg.norm(state.error) < _CONVERGENCE_TOL:
                break
        worst_err = max(worst_err, float(np.linalg.norm(state.error)))
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
        d = rng.uniform(-0.05, 0.05, 2)
        state = second_order_observer(rng.uniform(-5, 5, 2), _OBS_PARAMS)
        eF = eD = math.inf
        for k in range(budget):
            state = second_order_update(state, float(k) * d)
            # after absorbing sample k the state predicts sample k+1
            eF = float(np.linalg.norm(state.F_hat - float(k + 1) * d))
            eD = float(np.linalg.norm(state.dF_hat - d))
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
    gains = ControlGains(params=_CTRL_PARAMS, G=G)
    for _ in range(n):
        plant = SyntheticUlmPlant(
            "sinusoid", G=G, amplitude=rng.uniform(0.1, 2.0, 2),
            freq=rng.uniform(0.01, 0.5, 2), y_init=rng.uniform(-1, 1, (1, 2)),
        )
        F_hat = rng.uniform(-1, 1, 2)  # frozen imperfect estimate
        y_d = rng.uniform(-1, 1, 2)
        e_F = F_hat - plant.true_F(plant.k)
        y_next = plant.step(control_law_basic(y_d, F_hat, gains))
        worst_basic = max(worst_basic, float(np.max(np.abs((y_next - y_d) + e_F))))

        e_y = plant.output - y_d
        e_F = F_hat - plant.true_F(plant.k)
        y_next = plant.step(control_law_fts(y_d, F_hat, e_y, gains))
        predicted = holder_gain(e_y, _CTRL_PARAMS) * e_y - e_F
        worst_fts = max(worst_fts, float(np.max(np.abs((y_next - y_d) - predicted))))

        # perfect estimation: tracking error contracts to below tolerance
        e_y = rng.uniform(-5, 5, 2)
        for _ in range(_CONVERGENCE_BUDGET):
            e_y = holder_gain(e_y, _CTRL_PARAMS) * e_y
            if np.linalg.norm(e_y) < _CONVERGENCE_TOL:
                break
        worst_conv = max(worst_conv, float(np.linalg.norm(e_y)))
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
            F = rng.standard_normal(2)
            state = FirstOrderObserverState(
                F_hat=F + rng.uniform(-3, 3, 2), params=_OBS_PARAMS
            )
            for k in range(n_steps):
                prev_norm = (
                    np.linalg.norm(state.error) if state.error is not None else math.inf
                )
                step = rng.standard_normal(2)
                F = F + step * (B / np.linalg.norm(step))
                state = first_order_update(state, F)
                e = state.error
                norm = float(np.linalg.norm(e))
                gain = holder_gain(e, _OBS_PARAMS)
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
