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

import collections
import itertools
import math
from dataclasses import dataclass, fields
from fractions import Fraction
from typing import Callable, Dict, Iterator, List, Optional, Sequence, Tuple

import numpy as np
import yaml

from .fts_core import (
    DomainError,
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
    NoiseConfig,
    PendulumParams,
    PendulumPlant,
    SyntheticUlmPlant,
    desired_samples,
    noise_sample,
)
from .tracking_control import ControlGains, control_law_basic, control_law_fts
from .ulm_observer import compute_F, first_order_update, second_order_update


class ConfigError(ValueError):
    """The experiment configuration is missing, malformed, or inconsistent."""


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


def _as_float(value, what: str) -> float:
    """Accept a finite number or a fraction string like '9/7'; a YAML true/false is no number."""
    if isinstance(value, bool) or not isinstance(value, (str, int, float)):
        raise ConfigError(f"{what}: expected a number, got {value!r}")
    try:
        number = float(Fraction(value) if isinstance(value, str) else value)
    except (ValueError, ZeroDivisionError, OverflowError) as exc:
        raise ConfigError(f"{what}: {value!r} is not a finite number") from exc
    if not math.isfinite(number):
        raise ConfigError(f"{what}: {value!r} is not a finite number")
    return number


def _as_vector(value, length: int, what: str) -> Tuple[float, ...]:
    try:
        v = tuple(_as_float(x, what) for x in value)
    except TypeError as exc:
        raise ConfigError(f"{what}: expected a sequence of {length} numbers") from exc
    if len(v) != length:
        raise ConfigError(f"{what}: expected {length} entries, got {len(v)}")
    return v


def _as_matrix(value, what: str) -> Tuple[Tuple[float, ...], ...]:
    """Rows of finite numbers, each as long as the first, or one flat row; callers check shapes."""
    try:
        rows = [value] if isinstance(value[0], (str, int, float)) else value
        width = len(rows[0])
        return tuple(_as_vector(row, width, what) for row in rows)
    except (TypeError, IndexError, KeyError) as exc:
        raise ConfigError(f"{what}: expected rows of numbers, got {value!r}") from exc


def _as_bool(value, what: str) -> bool:
    if not isinstance(value, bool):
        raise ConfigError(f"{what}: expected true or false, got {value!r}")
    return value


# The keys from_dict reads, per section; any other key is a ConfigError.
_KEYS = {
    "controller": ("law", "exponent", "scale", "weight", "G", "G_times_dt"),
    "observer": ("order", "exponent", "scale", "weight"),
    "filter": ("enabled", "exponent", "scale", "weight"),
    "noise": ("enabled",) + tuple(f.name for f in fields(NoiseConfig)),
    "trajectory": ("source", "init", "path"),
    "metrics": ("settle_time", "bands"),
}
_ROOT_KEYS = ("dt", "T", "plant", "initial_state", "initial_estimate") + tuple(_KEYS)
# The plant.spec keys of each synthetic plant kind, besides G, nu and y_init.
_SPEC_KEYS = {"constant": ("const",), "ramp": ("slope",), "sinusoid": ("amplitude", "freq"),
              "random-walk": ("bound", "seed")}
_PLANT_KINDS = ("pendulum",) + tuple(_SPEC_KEYS)


def _reject_unknown(section: dict, keys: Sequence[str], prefix: str = "") -> None:
    unknown = [f"{prefix}{k}" for k in section if k not in keys]
    if unknown:
        raise ConfigError(f"unknown config key {', '.join(map(repr, unknown))}")


def _section(doc: dict, name: str, prefix: str = "") -> dict:
    """doc[name] as a mapping ({} when absent or empty), holding only _KEYS[name] if listed."""
    section = doc.get(name)
    if section is None:
        return {}
    if not isinstance(section, dict):
        raise ConfigError(f"{prefix}{name}: expected a mapping, got {section!r}")
    if name in _KEYS:
        _reject_unknown(section, _KEYS[name], f"{prefix}{name}.")
    return section


class _UniqueKeyLoader(yaml.SafeLoader):
    """yaml.SafeLoader that rejects a key repeated in one mapping, where the last would win."""

    def construct_mapping(self, node, deep=False):
        # the keys as written; a key may override one merged in by '<<'
        written = [key for key, _ in node.value if key.tag != "tag:yaml.org,2002:merge"]
        mapping = super().construct_mapping(node, deep)
        seen = set()
        for key_node in written:
            key = self.construct_object(key_node)
            if key in seen:
                raise ConfigError(f"repeated key {key!r} at line {key_node.start_mark.line + 1}")
            seen.add(key)
        return mapping


def parse_yaml(stream, what: str):
    """One YAML document read by _UniqueKeyLoader; a YAML error is a ConfigError led by what."""
    try:
        return yaml.load(stream, Loader=_UniqueKeyLoader)
    except yaml.YAMLError as exc:
        raise ConfigError(f"{what}: {exc}") from exc


def load_doc(path: str) -> dict:
    """Read a YAML configuration document; an empty file reads as {}."""
    try:
        with open(path, "r") as fh:
            doc = parse_yaml(fh, f"cannot parse config file {path}")
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from exc
    if doc is None:
        return {}
    if not isinstance(doc, dict):
        raise ConfigError("configuration document must be a mapping")
    return doc


def _as_2x2(value, what: str) -> Tuple[Pair, Pair]:
    """A 2 x 2 matrix of finite numbers: the log has two output and two input channels."""
    matrix = _as_matrix(value, what)
    if len(matrix) != 2 or len(matrix[0]) != 2:
        raise ConfigError(f"{what} must be 2 x 2, got {len(matrix)} x {len(matrix[0])}")
    return matrix


def _choice(section: dict, key: str, choices: Tuple[str, ...], what: str) -> str:
    """section[key], one of choices; the first choice is the default."""
    value = section.get(key, choices[0])
    if value not in choices:
        raise ConfigError(f"{what}: unknown value {value!r}; choose from {', '.join(choices)}")
    return value


def _gain_params(section: dict, what: str, default: HolderGainParams) -> HolderGainParams:
    """The gain group (exponent, scale, optional weight), given whole or not at all."""
    if not any(key in section for key in ("exponent", "scale", "weight")):
        return default
    try:
        exponent = _as_float(section["exponent"], f"{what}.exponent")
        scale = _as_float(section["scale"], f"{what}.scale")
    except KeyError as exc:
        raise ConfigError(f"{what}: missing key {exc}") from exc
    weight = section.get("weight")
    if isinstance(weight, (str, int, float)):
        weight = _as_float(weight, f"{what}.weight")
    elif weight is not None:
        weight = _as_2x2(weight, f"{what}.weight")
    try:
        return HolderGainParams(exponent=exponent, scale=scale, weight=weight)
    except ValueError as exc:
        raise ConfigError(f"{what}: {exc}") from exc


_OBS_PARAMS = HolderGainParams(exponent=9.0 / 7.0, scale=1.5)
_CTRL_PARAMS = HolderGainParams(exponent=11.0 / 9.0, scale=0.35)
_FILTER_PARAMS = HolderGainParams(exponent=7.0 / 5.0, scale=2.0, weight=2.1)

# The longest horizon accepted, in ticks: at about 300 log bytes a tick, 3 GB.
MAX_STEPS = 10_000_000


@dataclass(frozen=True)
class SimConfig:
    """Full description of one closed-loop experiment, as from_dict reads it."""

    dt: float
    T: float
    plant_kind: str
    plant_params: PendulumParams
    plant_spec: dict
    control_law: str
    gains: ControlGains  # the tracking law's gain and G, whose rank is checked once
    observer_order: str
    observer_params: HolderGainParams
    filter_enabled: bool
    filter_params: HolderGainParams
    noise_enabled: bool
    noise: NoiseConfig
    initial_state: Optional[Tuple[float, ...]]  # the pendulum's (x, theta, xdot, thetadot)
    initial_estimate: Pair
    trajectory_source: str
    trajectory_start: Optional[Tuple[float, ...]]  # where a generated trajectory starts
    trajectory_path: Optional[str]
    settle_time: float
    bands: Pair

    @property
    def n_steps(self) -> int:
        return int(math.floor(self.T / self.dt))

    @staticmethod
    def from_dict(doc: dict) -> "SimConfig":
        """Read and check a configuration document; every default is written here."""
        if not isinstance(doc, dict):
            raise ConfigError("configuration document must be a mapping")
        _reject_unknown(doc, _ROOT_KEYS)
        kwargs: dict = {}
        try:
            dt = kwargs["dt"] = _as_float(doc["dt"], "dt")
            T = kwargs["T"] = _as_float(doc["T"], "T")
        except KeyError as exc:
            raise ConfigError(f"missing required key {exc}") from exc
        if not dt > 0.0:
            raise ConfigError(f"dt must be positive, got {dt}")
        if not T >= 0.0:
            raise ConfigError(f"T must be non-negative, got {T}")
        if not T / dt < MAX_STEPS + 1:
            raise ConfigError(f"T: T/dt = {T / dt:g} ticks, more than the {MAX_STEPS} allowed")

        plant = _section(doc, "plant")
        kind = kwargs["plant_kind"] = _choice(plant, "kind", _PLANT_KINDS, "plant.kind")
        _reject_unknown(plant, ("kind", "params" if kind == "pendulum" else "spec"), "plant.")
        params = _section(plant, "params", prefix="plant.")
        _reject_unknown(params, [f.name for f in fields(PendulumParams)], "plant.params.")
        params = {k: _as_float(v, f"plant.params.{k}") for k, v in params.items()}
        try:
            kwargs["plant_params"] = PendulumParams(**params)
        except ValueError as exc:
            raise ConfigError(f"plant.params: {exc}") from exc
        section = _section(plant, "spec", prefix="plant.")
        _reject_unknown(section, ("G", "nu", "y_init") + _SPEC_KEYS.get(kind, ()), "plant.spec.")
        for key in (("G",) + _SPEC_KEYS[kind]) if kind != "pendulum" else ():
            if key not in section:
                raise ConfigError(f"missing required key 'plant.spec.{key}'")
        spec = kwargs["plant_spec"] = dict(section)
        for key, value in section.items():
            what = f"plant.spec.{key}"
            if key in ("const", "slope", "amplitude", "freq"):
                spec[key] = _as_vector(value, 2, what)
            elif key == "G":
                spec[key] = _as_2x2(value, what)
            elif key == "y_init":
                spec[key] = _as_matrix(value, what)
            elif key == "bound":
                spec[key] = _as_float(value, what)
            elif key in ("nu", "seed") and type(value) is not int:
                raise ConfigError(f"{what}: expected an integer, got {value!r}")
        nu = spec.get("nu", 1)
        if not 1 <= nu <= MAX_STEPS:
            raise ConfigError(f"plant.spec.nu: expected 1 to {MAX_STEPS}, got {nu}")
        for key, noun in (("seed", "integer"), ("bound", "number")):
            if spec.get(key, 0) < 0:  # a negative bound would step against the drawn direction
                raise ConfigError(f"plant.spec.{key}: expected a non-negative {noun}, "
                                  f"got {spec[key]}")
        y_init = spec.get("y_init")
        if y_init and (len(y_init), len(y_init[0])) != (nu, 2):
            raise ConfigError(f"plant.spec.y_init: expected shape ({nu}, 2), "
                              f"got ({len(y_init)}, {len(y_init[0])})")

        ctrl = _section(doc, "controller")
        kwargs["control_law"] = _choice(ctrl, "law", ("fts", "basic"), "controller.law")
        if "G" not in ctrl:
            raise ConfigError("missing required key 'controller.G'")
        G = _as_2x2(ctrl["G"], "controller.G")
        if _as_bool(ctrl.get("G_times_dt", False), "controller.G_times_dt"):
            G = tuple(tuple(dt * g for g in row) for row in G)
        control_params = _gain_params(ctrl, "controller", _CTRL_PARAMS)
        try:
            kwargs["gains"] = ControlGains(params=control_params, G=G)
        except DomainError as exc:
            raise ConfigError(f"controller.G: {exc}") from exc

        obs = _section(doc, "observer")
        kwargs["observer_order"] = _choice(obs, "order", ("first", "second"), "observer.order")
        kwargs["observer_params"] = _gain_params(obs, "observer", _OBS_PARAMS)

        filt = _section(doc, "filter")
        kwargs["filter_enabled"] = _as_bool(filt.get("enabled", True), "filter.enabled")
        kwargs["filter_params"] = _gain_params(filt, "filter", _FILTER_PARAMS)

        noise = _section(doc, "noise")
        kwargs["noise_enabled"] = _as_bool(noise.get("enabled", True), "noise.enabled")
        noise_fields = {key: _as_vector(value, 2, f"noise.{key}")
                        for key, value in noise.items() if key != "enabled"}
        try:
            kwargs["noise"] = NoiseConfig(**noise_fields)
        except ValueError as exc:
            raise ConfigError(f"noise: {exc}") from exc

        if kind != "pendulum" and "initial_state" in doc:
            raise ConfigError("initial_state: a synthetic plant starts from plant.spec.y_init")
        initial_state = kwargs["initial_state"] = _as_vector(
            doc.get("initial_state", [0.45, -0.14, -0.3, 0.05]), 4, "initial_state"
        ) if kind == "pendulum" else None
        kwargs["initial_estimate"] = _as_vector(
            doc.get("initial_estimate", [0.0, 0.102]), 2, "initial_estimate"
        )

        traj = _section(doc, "trajectory")
        source = _choice(traj, "source", ("generated", "file", "zero"), "trajectory.source")
        if source == "generated" and kind != "pendulum":
            raise ConfigError("trajectory.source: generated trajectories need the pendulum plant")
        kwargs["trajectory_source"] = source
        kwargs["trajectory_start"] = (
            _as_vector(traj["init"], 4, "trajectory.init") if "init" in traj else initial_state
        )
        path = kwargs["trajectory_path"] = traj.get("path")
        if "path" in traj and not isinstance(path, str):
            # open() would take an integer as a file descriptor
            raise ConfigError(f"trajectory.path: expected a string, got {path!r}")
        if source == "file" and not path:
            raise ConfigError("trajectory source 'file' requires trajectory.path")

        metrics = _section(doc, "metrics")
        kwargs["settle_time"] = _as_float(metrics.get("settle_time", 20.0), "metrics.settle_time")
        kwargs["bands"] = _as_vector(metrics.get("bands", [0.5, 0.05]), 2, "metrics.bands")
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
            g = holder_gain(e_pred, _OBS_PARAMS)
            e_pred = (g * e_pred[0], g * e_pred[1])
            F_hat = first_order_update(F_hat, F_const, _OBS_PARAMS)
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
            F_hat, dF_hat = second_order_update(F_hat, dF_hat, F_prev, F_k, _OBS_PARAMS)
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
    gains = ControlGains(params=_CTRL_PARAMS, G=G)
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
        predicted = holder_gain(e_y, _CTRL_PARAMS) * np.array(e_y) - e_F
        worst_fts = max(worst_fts, float(np.max(np.abs(np.subtract(y_next, y_d) - predicted))))

        # perfect estimation: tracking error contracts to below tolerance
        e_y = _uniform_pair(rng, -5, 5)
        for _ in range(_CONVERGENCE_BUDGET):
            g = holder_gain(e_y, _CTRL_PARAMS)
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
                F_hat = first_order_update(F_hat, F, _OBS_PARAMS)
                e = (F_hat[0] - F[0], F_hat[1] - F[1])
                norm = math.hypot(*e)
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
