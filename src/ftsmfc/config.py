"""Experiment configuration: the YAML reader and SimConfig, the checked form of
a config document.

SimConfig.from_dict converts and checks every value once (strict keys, shapes,
ranges, defaults) and hands the kernel Python floats and tuples.
"""

from __future__ import annotations

import math
from typing import Sequence, Tuple

from .fts_core import HolderGainParams, Pair, Record
from .plant_models import SPEC_KEYS, NoiseConfig, PendulumParams
from .tracking_control import ControlGains


class ConfigError(ValueError):
    """The experiment configuration is missing, malformed, or inconsistent."""


def _as_float(value, what: str) -> float:
    """Accept a finite number or a fraction string like '9/7'; a YAML true/false is no number.

    A string reads as float(Fraction(value)) would, without the fractions
    module: 'n/d' as int(n) / int(d), which rounds correctly, and any other
    string by float(), whose grammar is Fraction's plus the non-finite words.
    """
    if isinstance(value, bool) or not isinstance(value, (str, int, float)):
        raise ConfigError(f"{what}: expected a number, got {value!r}")
    try:
        if not isinstance(value, str):
            number = float(value)
        else:
            # strip() also drops '\x1c'..'\x1f', which Fraction skips and int() and float() do not
            text = value.strip()
            num, slash, den = text.partition("/")
            if slash:
                if not (num[-1:].isdecimal() and den[:1].isdecimal()):  # '1 / 3', '1/-3'
                    raise ValueError(value)
                number = int(num) / int(den)
            else:
                number = float(text)
                # a Fraction has no -0: '-0' is 0.0, while '-1e-400' is -0.0 either way
                if number == 0.0 and not any(d.isdecimal() and int(d)
                                             for d in text.lower().partition("e")[0]):
                    number = 0.0
    except (ValueError, ZeroDivisionError, OverflowError) as exc:
        raise ConfigError(f"{what}: {value!r} is not a finite number") from exc
    if not math.isfinite(number):
        raise ConfigError(f"{what}: {value!r} is not a finite number")
    return number


# Iterables that are not lists of numbers: '57' would read as (5, 7), b'57' (YAML !!binary)
# as (53, 55), and {5: 0, 7: 0} as (5, 7)
_NOT_A_LIST = (str, bytes, bytearray, dict)


def _as_vector(value, length: int, what: str) -> Tuple[float, ...]:
    try:
        if isinstance(value, _NOT_A_LIST):
            raise TypeError(value)
        v = tuple(_as_float(x, what) for x in value)
    except TypeError as exc:
        raise ConfigError(f"{what}: expected a list of {length} numbers, got {value!r}") from exc
    if len(v) != length:
        raise ConfigError(f"{what}: expected {length} entries, got {len(v)}")
    return v


def _as_matrix(value, what: str) -> Tuple[Tuple[float, ...], ...]:
    """Rows of finite numbers, each as long as the first, or one flat row; callers check shapes."""
    if isinstance(value, _NOT_A_LIST):
        raise ConfigError(f"{what}: expected rows of numbers, got {value!r}")
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
    "controller": ("law", "G", "G_times_dt") + HolderGainParams._fields,
    "observer": ("order",) + HolderGainParams._fields,
    "filter": ("enabled",) + HolderGainParams._fields,
    "noise": ("enabled",) + NoiseConfig._fields,
    "trajectory": ("source", "init", "path"),
    "metrics": ("settle_time", "bands"),
}
_ROOT_KEYS = ("dt", "T", "plant", "initial_state", "initial_estimate") + tuple(_KEYS)
_PLANT_KINDS = ("pendulum",) + tuple(SPEC_KEYS)


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


def parse_yaml(text: str, what: str):
    """One YAML document, read by block_yaml.load; a text outside its subset or a
    repeated key is a ConfigError led by what that names the text and its line."""
    from . import block_yaml

    try:
        return block_yaml.load(text)
    except block_yaml.Declined as exc:
        raise ConfigError(f"{what}: {exc}") from exc


def load_doc(path: str) -> dict:
    """Read a YAML configuration document; an empty file reads as {}."""
    try:
        with open(path, "r") as fh:
            text = fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from exc
    doc = parse_yaml(text, f"cannot parse config file {path}")
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


def _finite_phase(bounds: Sequence[float], what: str, phase: str) -> None:
    """bounds, per channel, bound a sine's argument over the run; math.sin of an
    infinite argument raises ValueError mid-run, so it is a ConfigError here."""
    if not all(map(math.isfinite, bounds)):
        raise ConfigError(f"{what}: the phase {phase} is not finite")


def _choice(section: dict, key: str, choices: Tuple[str, ...], what: str) -> str:
    """section[key], one of choices; the first choice is the default."""
    value = section.get(key, choices[0])
    if value not in choices:
        raise ConfigError(f"{what}: unknown value {value!r}; choose from {', '.join(choices)}")
    return value


def _checked(record, what: str, **fields):
    """record(**fields); a ValueError of the record's own check is a ConfigError led by what."""
    try:
        return record(**fields)
    except ValueError as exc:
        raise ConfigError(f"{what}: {exc}") from exc


def _gain_params(section: dict, what: str, default: HolderGainParams) -> HolderGainParams:
    """The gain group (exponent, scale, optional weight), given whole or not at all."""
    if not any(key in section for key in HolderGainParams._fields):
        return default
    *required, optional = HolderGainParams._fields
    try:
        fields = {key: _as_float(section[key], f"{what}.{key}") for key in required}
    except KeyError as exc:
        raise ConfigError(f"{what}: missing key {exc}") from exc
    weight = section.get(optional)  # None: the identity
    if isinstance(weight, (str, int, float)):
        weight = _as_float(weight, f"{what}.{optional}")
    elif weight is not None:
        weight = _as_2x2(weight, f"{what}.{optional}")
    fields[optional] = weight
    return _checked(HolderGainParams, what, **fields)


OBS_PARAMS = HolderGainParams(exponent=9.0 / 7.0, scale=1.5)
CTRL_PARAMS = HolderGainParams(exponent=11.0 / 9.0, scale=0.35)
_FILTER_PARAMS = HolderGainParams(exponent=7.0 / 5.0, scale=2.0, weight=2.1)

# The longest horizon accepted, in ticks.  simulate streams its rows and metrics, so its
# memory does not grow with the horizon; the limit bounds its time, about 10 us a tick.
MAX_STEPS = 10_000_000


class SimConfig(Record):
    """Full description of one closed-loop experiment, as from_dict reads it."""

    _fields = ("dt", "T", "plant_kind", "plant_params", "plant_spec", "control_law", "gains",
               "observer_order", "observer_params", "filter_params", "noise", "initial_state",
               "initial_estimate", "trajectory_source", "trajectory_start", "trajectory_path",
               "settle_time", "bands")
    # gains: the tracking law's gain and G, whose rank is checked once;
    # filter_params, noise: None when the filter or the noise is switched off;
    # initial_state: the pendulum's (x, theta, xdot, thetadot), None on other plants;
    # trajectory_start: where a generated trajectory starts

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
        _reject_unknown(params, PendulumParams._fields, "plant.params.")
        params = {k: _as_float(v, f"plant.params.{k}") for k, v in params.items()}
        kwargs["plant_params"] = _checked(PendulumParams, "plant.params", **params)
        section = _section(plant, "spec", prefix="plant.")
        _reject_unknown(section, ("G", "nu", "y_init") + SPEC_KEYS.get(kind, ()), "plant.spec.")
        for key in (("G",) + SPEC_KEYS[kind]) if kind != "pendulum" else ():
            if key not in section:
                raise ConfigError(f"missing required key 'plant.spec.{key}'")
        spec = kwargs["plant_spec"] = dict(section)
        for key, value in section.items():
            what = f"plant.spec.{key}"
            if key == "G":
                spec[key] = _as_2x2(value, what)
            elif key == "y_init":
                spec[key] = _as_matrix(value, what)
            elif key != "nu":  # one of the kind's SPEC_KEYS: a pair
                spec[key] = _as_vector(value, 2, what)
            elif type(value) is not int:
                raise ConfigError(f"{what}: expected an integer, got {value!r}")
        nu = spec.setdefault("nu", 1)
        if not 1 <= nu <= MAX_STEPS:
            raise ConfigError(f"plant.spec.nu: expected 1 to {MAX_STEPS}, got {nu}")
        if kind == "sinusoid":
            horizon = int(math.floor(T / dt)) + nu  # the loop's k < n_steps, nu ticks to spare
            _finite_phase([abs(f) * horizon for f in spec["freq"]], "plant.spec.freq",
                          f"|freq| * (n_steps + nu) for n_steps + nu = {horizon}")
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
        control_params = _gain_params(ctrl, "controller", CTRL_PARAMS)
        kwargs["gains"] = _checked(ControlGains, "controller.G", params=control_params, G=G)

        obs = _section(doc, "observer")
        kwargs["observer_order"] = _choice(obs, "order", ("first", "second"), "observer.order")
        kwargs["observer_params"] = _gain_params(obs, "observer", OBS_PARAMS)

        filt = _section(doc, "filter")
        filter_on = _as_bool(filt.get("enabled", True), "filter.enabled")
        filter_params = _gain_params(filt, "filter", _FILTER_PARAMS)  # checked even when off
        kwargs["filter_params"] = filter_params if filter_on else None

        noise = _section(doc, "noise")
        noise_on = _as_bool(noise.get("enabled", True), "noise.enabled")
        noise_fields = {key: _as_vector(value, 2, f"noise.{key}")
                        for key, value in noise.items() if key != "enabled"}
        n = _checked(NoiseConfig, "noise", **noise_fields)  # noise_sample reads t <= T
        kwargs["noise"] = n if noise_on else None
        _finite_phase([abs(w) * T + abs(d) + abs(p)
                       for w, d, p in zip(n.base_freqs, n.fm_depth, n.phases)],
                      "noise.base_freqs", f"|base_freqs| * T + |fm_depth| + |phases| for T = {T}")
        _finite_phase([abs(f) * T for f in n.fm_freqs], "noise.fm_freqs",
                      f"|fm_freqs| * T for T = {T}")

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
        bands = kwargs["bands"] = _as_vector(metrics.get("bands", [0.5, 0.05]), 2,
                                             "metrics.bands")
        if bands[0] < 0.0 or bands[1] < 0.0:  # no error is ever within a negative band
            raise ConfigError(f"metrics.bands: expected non-negative numbers, got {bands}")
        return SimConfig(**kwargs)

    @staticmethod
    def from_yaml(path: str) -> "SimConfig":
        return SimConfig.from_dict(load_doc(path))
