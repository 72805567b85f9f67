"""Unit tests for configuration, the closed-loop engine, logging, and metrics."""

import copy
import math
import os
import re
import tracemalloc
from array import array
from pathlib import Path

import numpy as np
import pytest
import yaml

from ftsmfc import cli, sim_harness
from ftsmfc import config as config_module
from ftsmfc.config import MAX_STEPS, load_doc
from ftsmfc.fts_core import DomainError, Record
from ftsmfc.plant_models import (
    SPEC_KEYS,
    DivergenceError,
    NoiseConfig,
    PendulumParams,
)
from ftsmfc.sim_harness import (
    CSV_HEADER,
    LOG_WIDTH,
    ConfigError,
    CsvOutput,
    SimConfig,
    SimLog,
    SteadyState,
    compute_metrics,
    metrics_to_text,
    run_closed_loop,
)
from ftsmfc.tracking_control import ControlGains
from ftsmfc.verify import verify_suite

CONFIGS = Path(__file__).resolve().parents[1] / "configs"
BASE_DOC = {
    "dt": 0.01,
    "T": 2.0,
    "plant": {
        "kind": "constant",
        "spec": {
            "const": [0.3, -0.2],
            "G": [[0.559, 0.196], [0.196, 0.657]],
            "nu": 1,
        },
    },
    "controller": {
        "law": "fts",
        "exponent": "11/9",
        "scale": 0.35,
        "G": [[0.559, 0.196], [0.196, 0.657]],
    },
    "observer": {"order": "first", "exponent": "9/7", "scale": 1.5},
    "filter": {"enabled": False, "exponent": "7/5", "scale": 2.0, "weight": 2.1},
    "noise": {"enabled": False},
    "initial_estimate": [0.0, 0.0],
    "trajectory": {"source": "zero"},
    "metrics": {"settle_time": 1.0, "bands": [0.5, 0.05]},
}


def _save_trajectory(path, samples, dt=0.01) -> None:
    """Write samples in the generate-trajectory format: header t,x_d,theta_d."""
    table = np.column_stack([dt * np.arange(len(samples)), samples])
    np.savetxt(path, table, delimiter=",", header="t,x_d,theta_d", comments="")


def make_config(**overrides) -> SimConfig:
    doc = copy.deepcopy(BASE_DOC)
    for key, value in overrides.items():
        node = doc
        parts = key.split(".")
        for part in parts[:-1]:
            node = node.setdefault(part, {})
        node[parts[-1]] = value
    return SimConfig.from_dict(doc)


class TestSimConfig:
    def test_fraction_exponents_parsed(self):
        config = make_config()
        assert config.gains.params.exponent == pytest.approx(11 / 9, abs=1e-15)
        assert config.observer_params.exponent == pytest.approx(9 / 7, abs=1e-15)

    def test_missing_dt_rejected(self):
        doc = copy.deepcopy(BASE_DOC)
        del doc["dt"]
        with pytest.raises(ConfigError):
            SimConfig.from_dict(doc)

    def test_bad_dt_rejected(self):
        with pytest.raises(ConfigError):
            make_config(dt=0.0)

    def test_bad_exponent_rejected(self):
        with pytest.raises(ConfigError):
            make_config(**{"controller.exponent": 2.5})

    def test_unknown_law_rejected(self):
        with pytest.raises(ConfigError):
            make_config(**{"controller.law": "pid"})

    @pytest.mark.parametrize(
        "key, value",
        [("controller.law", "pid"), ("observer.order", "third"), ("trajectory.source", "spline")],
    )
    def test_unknown_name_names_the_key(self, key, value):
        with pytest.raises(ConfigError, match=re.escape(f"{key}: unknown value {value!r}")):
            make_config(**{key: value})

    def test_generated_trajectory_needs_pendulum_at_config_time(self):
        # raised when the config is read, before any run
        with pytest.raises(ConfigError, match="trajectory.source: generated"):
            make_config(**{"trajectory.source": "generated"})

    @pytest.mark.parametrize("dt, T", [(1e-300, 1e10), (1.0, MAX_STEPS + 1.0)])
    def test_horizon_bounded(self, dt, T):
        # built only, never run: such a log would not fit in memory
        assert make_config(dt=1.0, T=MAX_STEPS + 0.5).n_steps == MAX_STEPS
        with pytest.raises(ConfigError, match=re.escape("T: T/dt")):
            make_config(dt=dt, T=T)

    def test_unknown_plant_kind_rejected(self):
        with pytest.raises(ConfigError, match="plant.kind: unknown value 'chirp'"):
            run_closed_loop(make_config(**{"plant.kind": "chirp"}), SimLog())

    @pytest.mark.parametrize(
        "overrides, key",
        [({"plant.spec.n": 3}, "plant.spec.n"),
         ({"plant.spec.slope": [0.1, 0.0]}, "plant.spec.slope"),
         ({"plant.kind": "sinusoid", "plant.spec.amplitude": [0.1, 0.1],
           "plant.spec.freq": [0.1, 0.1]}, "plant.spec.const")],
        ids=["n", "constant-with-slope", "sinusoid-with-const"],
    )
    def test_plant_spec_keys_checked_per_kind(self, overrides, key):
        with pytest.raises(ConfigError, match=re.escape(f"unknown config key '{key}'")):
            make_config(**overrides)

    @pytest.mark.parametrize(
        "overrides, key",
        [({"T": True}, "T"),
         ({"controller.scale": True}, "controller.scale"),
         ({"plant.spec.const": [True, False]}, "plant.spec.const"),
         ({"plant": {"kind": "pendulum", "params": {"M_cart": True}}}, "plant.params.M_cart")],
        ids=["T", "controller.scale", "plant.spec.const", "plant.params.M_cart"],
    )
    def test_boolean_is_not_a_number(self, overrides, key):
        # YAML reads yes/true as a bool, which Python counts as the integer 1
        with pytest.raises(ConfigError, match=re.escape(f"{key}: expected a number, got True")):
            make_config(**overrides)

    @pytest.mark.parametrize(
        "overrides, message",
        [({"plant.spec.nu": 0}, "plant.spec.nu: expected 1 to 10000000, got 0"),
         ({"plant.spec.nu": 10**12}, "plant.spec.nu: expected 1 to 10000000"),
         ({"plant.kind": "sinusoid", "plant.spec": {"G": BASE_DOC["plant"]["spec"]["G"],
                                                     "amplitude": [0.1, 0.1]}},
          "missing required key 'plant.spec.freq'"),
         ({"plant.kind": "sinusoid", "plant.spec": {"G": BASE_DOC["plant"]["spec"]["G"],
                                                     "freq": [0.1, 0.1]}},
          "missing required key 'plant.spec.amplitude'"),
         ({"plant.spec.nu": 2, "plant.spec.y_init": [[0.1, 0.2]]},
          "plant.spec.y_init: expected shape (2, 2), got (1, 2)"),
         ({"plant.spec.y_init": [[0.1, 0.2, 0.3]]},
          "plant.spec.y_init: expected shape (1, 2), got (1, 3)"),
         # no error is ever within a negative band: every settle_* would be NaN
         ({"metrics.bands": [-1, -1]},
          "metrics.bands: expected non-negative numbers, got (-1.0, -1.0)"),
         ({"metrics.bands": [0.5, -1e-300]}, "metrics.bands: expected non-negative numbers")],
        ids=["nu-zero", "nu-huge", "missing-freq", "missing-amplitude", "y_init-rows",
             "y_init-columns", "negative-bands", "one-negative-band"],
    )
    def test_plant_spec_checked_when_read(self, overrides, message):
        # from_dict builds no plant, so a huge nu allocates nothing here
        with pytest.raises(ConfigError, match=f"^{re.escape(message)}"):
            make_config(**overrides)

    def test_file_trajectory_requires_path(self):
        with pytest.raises(ConfigError):
            make_config(**{"trajectory.source": "file"})

    @pytest.mark.parametrize("value", [float("nan"), float("inf"), "1e400", 10**400])
    def test_non_finite_number_rejected(self, value):
        with pytest.raises(ConfigError, match="initial_state: .* is not a finite number"):
            make_config(plant={"kind": "pendulum"}, initial_state=[value, 0.0, 0.0, 0.0])

    @pytest.mark.parametrize("key", ["initial_state", "trajectory.init"])
    @pytest.mark.parametrize(
        "value, message",
        [([0.0, 0.0, 0.0], "expected 4 entries, got 3"),
         ([[0.0, 0.0], [0.0, 0.0]], "expected a number"),
         (3.0, "expected a list of 4 numbers"),
         ([0.0, float("nan"), 0.0, 0.0], "is not a finite number")],
        ids=["three", "matrix", "scalar", "nan"],
    )
    def test_pendulum_init_checked_when_read(self, key, value, message):
        # the pendulum plant and the trajectory generator take the checked 4 floats as they are
        with pytest.raises(ConfigError, match=f"^{re.escape(key)}: .*{message}"):
            make_config(plant={"kind": "pendulum"}, **{key: value})

    @pytest.mark.parametrize("key", ["filter.enabled", "noise.enabled", "controller.G_times_dt"])
    def test_switch_must_be_boolean(self, key):
        # a quoted "false" is a non-empty string, which bool() reads as true
        with pytest.raises(ConfigError, match=re.escape(key)):
            make_config(**{key: "false"})

    def test_trajectory_path_must_be_string(self):
        # an integer path would be opened as a file descriptor
        with pytest.raises(ConfigError, match="trajectory.path"):
            make_config(trajectory={"source": "file", "path": 3})

    def test_G_times_dt_scaling(self):
        config = make_config(**{"controller.G_times_dt": True})
        np.testing.assert_allclose(
            config.gains.G, 0.01 * np.array([[0.559, 0.196], [0.196, 0.657]])
        )

    def test_merge_key_is_config_error(self, tmp_path):
        # anchors, aliases and '<<' are outside the block subset that ftsmfc reads
        path = tmp_path / "doc.yaml"
        path.write_text("base: &b {x: 1, y: 2}\nother:\n  <<: *b\n  x: 3\n")
        message = f"cannot parse config file {path}: line 1: '&b {{x: 1, y: 2}}' is outside"
        with pytest.raises(ConfigError, match=f"^{re.escape(message)}"):
            load_doc(str(path))

    def test_from_yaml_missing_file(self):
        with pytest.raises(ConfigError):
            SimConfig.from_yaml("/nonexistent/config.yaml")

    def test_n_steps(self):
        assert make_config().n_steps == 200

    @pytest.mark.parametrize("name", ["synthetic_constant.yaml", "paper_experiment.yaml"])
    def test_two_reads_compare_equal(self, name):
        doc = load_doc(str(CONFIGS / name))
        assert SimConfig.from_dict(doc) == SimConfig.from_dict(copy.deepcopy(doc))

    # each synthetic kind's spec written with integers where floats will be read
    INT_SPECS = {
        "ramp": {"slope": [1, -2], "y_init": [0, 1]},
        "sinusoid": {"amplitude": [1, 2], "freq": [1, 0], "nu": 2, "y_init": [[1, 2], [3, 4]]},
    }
    # and the noise pairs, which NoiseConfig stores as from_dict read them
    INT_NOISE = {"amplitudes": [0, 1], "base_freqs": [120, 150], "fm_depth": [5, 5],
                 "fm_freqs": [1, 2], "phases": [1, 2]}

    @pytest.mark.parametrize(
        "name",
        ["synthetic_constant.yaml", "paper_experiment.yaml", "ramp", "sinusoid"],
    )
    def test_config_holds_no_array(self, name):
        # the reader hands the kernel floats and tuples, and the plants take them as they
        # are, so from_dict is the one place a value turns into a float; walk every
        # field, nested ones too
        def walk(value):
            if isinstance(value, Record):
                for v in vars(value).values():
                    yield from walk(v)
            elif isinstance(value, dict):
                for v in value.values():
                    yield from walk(v)
            elif isinstance(value, (list, tuple)):
                for v in value:
                    yield from walk(v)
            else:
                yield value

        if name.endswith(".yaml"):
            config = SimConfig.from_yaml(str(CONFIGS / name))
        else:
            doc = load_doc(str(CONFIGS / "synthetic_constant.yaml"))
            doc["plant"] = {"kind": name, "spec": {"G": [[1, 0], [0, 2]], **self.INT_SPECS[name]}}
            doc["noise"].update(self.INT_NOISE)
            config = SimConfig.from_dict(doc)
            assert config.plant_spec["nu"] == self.INT_SPECS[name].get("nu", 1)
            pairs = [getattr(config.noise, key) for key in self.INT_NOISE]
            assert pairs == [tuple(map(float, v)) for v in self.INT_NOISE.values()]
            assert {type(pair) for pair in pairs} == {tuple}
            assert {type(v) for v in walk(config.noise)} == {float}
        leaves = list(walk(config))
        assert not [v for v in leaves if isinstance(v, (np.ndarray, np.generic))]
        assert {type(v) for v in leaves} <= {float, int, str, bool, type(None)}
        if config.plant_kind != "pendulum":
            # every number written as an integer above is a float now, but for the count nu
            ints = [v for v in walk(config.plant_spec) if type(v) is int]
            assert ints == [config.plant_spec["nu"]]

    def test_initial_estimate_is_two_numbers(self):
        assert make_config(initial_estimate=[0.2, -0.1]).initial_estimate == (0.2, -0.1)
        doc = copy.deepcopy(BASE_DOC)
        del doc["initial_estimate"]
        assert SimConfig.from_dict(doc).initial_estimate == (0.0, 0.102)
        with pytest.raises(ConfigError, match="initial_estimate: expected 2 entries, got 4"):
            make_config(initial_estimate=[0.0, 0.0, 5.0, -7.0])

    def test_initial_state_on_synthetic_plant_rejected(self):
        # a synthetic plant's outputs start from plant.spec.y_init
        with pytest.raises(ConfigError, match=r"^initial_state: .*plant\.spec\.y_init"):
            make_config(initial_state=[0.0, 0.0, 0.0, 0.0])
        config = make_config(plant={"kind": "pendulum"}, initial_state=[0.1, 0.2, 0.0, 0.0])
        assert config.initial_state == config.trajectory_start == (0.1, 0.2, 0.0, 0.0)


class TestStrictConfig:
    @pytest.mark.parametrize(
        "key", ["controler", "controller.scal", "metrics.setle_time", "plant.params"]
    )
    def test_unknown_key_is_named(self, key):
        # plant.params is not read on a synthetic plant
        with pytest.raises(ConfigError, match=re.escape(repr(key))):
            make_config(**{key: 1.0})

    def test_unknown_pendulum_param_is_named(self):
        with pytest.raises(ConfigError, match=r"^unknown config key 'plant.params.mass'$"):
            make_config(plant={"kind": "pendulum", "params": {"mass": 1.0}})

    def test_spec_on_pendulum_rejected(self):
        with pytest.raises(ConfigError, match="'plant.spec'"):
            make_config(plant={"kind": "pendulum", "spec": {}})

    def test_section_must_be_a_mapping(self):
        with pytest.raises(ConfigError, match="controller"):
            make_config(controller=[1, 2])

    def test_empty_section_keeps_defaults(self):
        assert make_config(observer=None).observer_order == "first"

    @pytest.mark.parametrize(
        "G", [[[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]], np.eye(3).tolist(), [[1.0, 0.0]], 3]
    )
    def test_controller_G_must_be_2x2(self, G):
        with pytest.raises(ConfigError, match="controller.G"):
            make_config(**{"controller.G": G})

    @pytest.mark.parametrize("section", ["controller", "observer", "filter"])
    def test_gain_group_given_whole(self, section):
        # a lone weight must not be dropped in favour of the default gains
        doc = copy.deepcopy(BASE_DOC)
        del doc[section]["exponent"], doc[section]["scale"]
        doc[section]["weight"] = 1.0
        with pytest.raises(ConfigError, match=f"{section}: missing key 'exponent'"):
            SimConfig.from_dict(doc)

    @pytest.mark.parametrize("section", ["controller", "observer", "filter"])
    def test_weight_matrix_must_be_2x2(self, section):
        # the gain weighs the two output channels, so a 3 x 3 weight cannot apply
        make_config(**{f"{section}.weight": [[2.0, 0.0], [0.0, 1.0]]})
        with pytest.raises(ConfigError, match=re.escape(f"{section}.weight must be 2 x 2")):
            make_config(**{f"{section}.weight": np.eye(3).tolist()})

    def test_flat_y_init_is_one_row(self):
        # nu = 1 takes y_init as one flat row; the reader checks its numbers
        config = make_config(**{"plant.spec.y_init": [0.1, 0.2]})
        np.testing.assert_array_equal(config.plant_spec["y_init"], [[0.1, 0.2]])
        log = run_closed_loop(config, SimLog())
        np.testing.assert_array_equal(log.rows[1:3], [0.1, 0.2])  # x,theta

    def test_singular_controller_G_is_config_error(self):
        with pytest.raises(ConfigError, match="controller.G"):
            make_config(**{"controller.G": [[1.0, 2.0], [2.0, 4.0]]})

    @pytest.mark.parametrize(
        "spec", [{"n": 3}, {"G": np.eye(3).tolist()}, {"G": [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]]}]
    )
    def test_plant_must_be_2x2(self, spec):
        # a 3 x 3 or wide G fails in from_dict, the unknown key n in the plant
        with pytest.raises(ConfigError, match="plant"):
            run_closed_loop(make_config(**{f"plant.spec.{k}": v for k, v in spec.items()}),
                            SimLog())


# The inert-key oracle's bases, one a plant kind, with every key from_dict reads
# among them.  Each spec comes with bands that cross a settle tick of its run,
# so that x1.1 + 0.01 on a band moves that channel's settle_* metric.
INERT_SPECS = {
    # no y_init here, so that nu + 1 is a run and not a y_init of the wrong shape
    "constant": ({"const": [0.3, -0.2], "nu": 1}, [0.01, 0.01]),
    "ramp": ({"slope": [0.0013, -0.0007], "nu": 2, "y_init": [[0.1, -0.1], [0.1, -0.1]]},
             [0.003, 0.003]),
    "sinusoid": ({"amplitude": [0.3, 0.2], "freq": [0.5, 0.25], "nu": 2,
                  "y_init": [[0.1, -0.1], [0.2, 0.05]]}, [0.25, 0.1]),
}
_GAIN_KEYS = ("exponent", "scale", "weight")
# The allowlist: key -> (switch, values), the switch in the same config whose
# values turn the key off.  from_dict still checks such a key; the run ignores it.
SWITCHED_OFF_BY = {
    **{f"noise.{key}": ("noise.enabled", (False,)) for key in NoiseConfig._fields},
    **{f"filter.{key}": ("filter.enabled", (False,)) for key in _GAIN_KEYS},
    **{f"controller.{key}": ("controller.law", ("basic",)) for key in _GAIN_KEYS},
    "initial_estimate": ("filter.enabled", (False,)),  # the filter's state y_hat_0
    "trajectory.init": ("trajectory.source", ("zero", "file")),
    "trajectory.path": ("trajectory.source", ("zero", "generated")),
}
_OTHER_CHOICE = {"fts": "basic", "basic": "fts", "first": "second", "second": "first",
                 "generated": "zero", "zero": "generated", "pendulum": "constant",
                 "constant": "ramp", "ramp": "sinusoid", "sinusoid": "constant"}


def _inert_key_base(kind) -> dict:
    if kind == "pendulum":
        doc = load_doc(str(CONFIGS / "paper_experiment.yaml"))
        # the tracking errors are back near zero at t = 0.29, long before the divergence
        doc["T"] = 0.3
        doc["observer"]["weight"] = 1.0
        doc["metrics"] = {"settle_time": 0.1, "bands": [0.3, 0.1]}
        return doc
    doc = load_doc(str(CONFIGS / "synthetic_constant.yaml"))
    spec, bands = INERT_SPECS[kind]
    doc["T"] = 2.0
    doc["plant"] = {"kind": kind, "spec": {"G": doc["plant"]["spec"]["G"], **spec}}
    doc["controller"]["weight"] = [[1.0, 0.0], [0.0, 1.0]]
    # not the first measurement, or the filter's innovation is 0 from tick 1 on
    doc["initial_estimate"] = [0.05, -0.03]
    doc["trajectory"] = {"source": "zero", "init": [0.1, 0.2, 0.0, 0.0], "path": "unread.csv"}
    doc["metrics"] = {"settle_time": 1.0, "bands": bands}
    if kind == "ramp":  # the second-order observer and the basic law, filter and noise off
        doc["controller"]["law"], doc["observer"]["order"] = "basic", "second"
        doc["filter"]["enabled"] = doc["noise"]["enabled"] = False
    return doc


def _leaves(node, path=()):
    """The key paths of node's scalars, list entries included."""
    items = node.items() if isinstance(node, dict) else enumerate(node)
    for key, value in items:
        if isinstance(value, (dict, list)):
            yield from _leaves(value, path + (key,))
        else:
            yield path + (key,)


def _key(path) -> str:
    return ".".join(part for part in path if isinstance(part, str))


def _switched_off(doc, key) -> bool:
    """Whether a switch of doc turns key off: the allowlist."""
    if key not in SWITCHED_OFF_BY:
        return False
    switch, values = SWITCHED_OFF_BY[key]
    section, name = switch.split(".")
    return doc[section][name] in values


def _perturbed(value):
    """value moved a little: a number x1.1 + 0.01, a count + 1, a switch flipped,
    a choice swapped for another, a path renamed."""
    if isinstance(value, bool):
        return not value
    if isinstance(value, int):
        return value + 1
    if isinstance(value, float):
        return value * 1.1 + 0.01
    if value in _OTHER_CHOICE:
        return _OTHER_CHOICE[value]
    if "/" in value:  # an exponent written as a fraction
        num, den = value.split("/")
        return float(num) / float(den) * 1.1 + 0.01
    return "other-" + value


def _outcome(doc):
    """The log and metrics text of a run of doc, or the error that ends it; None
    when from_dict rejects doc."""
    try:
        config = SimConfig.from_dict(doc)
    except ConfigError:
        return None
    try:
        log = run_closed_loop(config, SimLog())
        return log.rows.tobytes(), metrics_to_text(
            compute_metrics(log, config.settle_time, config.bands))
    except (ConfigError, DivergenceError, DomainError) as exc:
        return repr(exc)


class TestNoInertKey:
    @pytest.mark.parametrize("kind", ["pendulum", *INERT_SPECS])
    def test_each_key_changes_the_run(self, kind):
        # each leaf of the base moved alone: the log (the CSV's rows) or the
        # metrics change, or from_dict rejects the value, or a switch of the
        # base turns the key off; and then the key changes nothing
        base = _inert_key_base(kind)
        expected = _outcome(base)
        assert isinstance(expected, tuple), expected  # the base runs to its horizon
        failures = []
        for path in _leaves(base):
            doc = copy.deepcopy(base)
            node = doc
            for part in path[:-1]:
                node = node[part]
            node[path[-1]] = value = _perturbed(node[path[-1]])
            got = _outcome(doc)
            case = f"{'.'.join(map(str, path))} = {value!r}"
            if got is None:
                continue
            if _switched_off(base, _key(path)):
                if got != expected:
                    failures.append(f"{case} changed the run, though its switch is off")
            elif got == expected:
                failures.append(f"{case} changed nothing")
        assert not failures, "\n".join(failures)

    def test_bases_hold_every_key_and_use_the_whole_allowlist(self):
        read = {key for key in config_module._ROOT_KEYS
                if key not in config_module._KEYS and key != "plant"}
        read |= {f"{section}.{key}" for section, keys in config_module._KEYS.items()
                 for key in keys}
        read |= {"plant.kind", *(f"plant.params.{key}" for key in PendulumParams._fields)}
        read |= {f"plant.spec.{key}" for keys in SPEC_KEYS.values()
                 for key in ("G", "nu", "y_init") + keys}
        bases = [_inert_key_base(kind) for kind in ["pendulum", *INERT_SPECS]]
        assert {_key(path) for base in bases for path in _leaves(base)} == read
        # no allowlist entry is there for a key that no base turns off
        off = {_key(path) for base in bases for path in _leaves(base)
               if _switched_off(base, _key(path))}
        assert off == set(SWITCHED_OFF_BY)


class TestRunClosedLoop:
    def test_zero_horizon_single_record_no_control(self):
        log = run_closed_loop(make_config(T=0.0), SimLog())
        assert len(log) == 1
        np.testing.assert_array_equal(log.rows[17:19], [0.0, 0.0])  # u1,u2

    def test_record_internal_consistency(self):
        rows = np.frombuffer(run_closed_loop(make_config(), SimLog()).rows).reshape(-1, LOG_WIDTH)
        # CSV_HEADER columns: eF = Fhat - F, and ex,etheta = x,theta - x_d,theta_d
        np.testing.assert_allclose(rows[:, 15:17], rows[:, 13:15] - rows[:, 11:13], atol=1e-12)
        np.testing.assert_allclose(rows[:, 9:11], rows[:, 1:3] - rows[:, 7:9], atol=1e-12)
        dt = np.diff(rows[:, 0])
        np.testing.assert_allclose(dt, 0.01, atol=1e-12)

    def test_rows_before_first_sample_are_zero(self):
        log = run_closed_loop(make_config(), SimLog())
        # nu = 1: row 0 has no reconstructable sample yet, so F1,F2,Fhat1,Fhat2 are 0
        np.testing.assert_array_equal(log.rows[11:15], [0.0] * 4)

    def test_last_record_has_zero_input(self):
        log = run_closed_loop(make_config(), SimLog())
        np.testing.assert_array_equal(log.rows[-2:], [0.0, 0.0])  # u1,u2 of the last row

    def test_noise_off_filter_off_errors_decay(self):
        rows = np.frombuffer(run_closed_loop(make_config(T=50.0, dt=1.0), SimLog()).rows)
        rows = rows.reshape(-1, LOG_WIDTH)
        # CSV_HEADER columns 15:17 are eF1,eF2 and 9:11 are ex,etheta
        assert np.linalg.norm(rows[-1, 15:17]) < np.linalg.norm(rows[1, 15:17]) * 1e-2
        assert np.abs(rows[-1, 9:11]).max() < 1e-2

    def test_reconstructed_F_matches_truth_without_noise(self):
        rows = np.frombuffer(run_closed_loop(make_config(), SimLog()).rows).reshape(-1, LOG_WIDTH)
        # noise and filter off: reconstruction recovers the scripted constant in F1,F2
        np.testing.assert_allclose(rows[1:, 11:13], np.tile([0.3, -0.2], (200, 1)), atol=1e-12)

    def test_G_rank_checked_once_at_config_time(self, monkeypatch):
        check = ControlGains.__init__
        calls = []

        def counted(self, *args, **kwargs):
            calls.append(1)
            return check(self, *args, **kwargs)

        monkeypatch.setattr(ControlGains, "__init__", counted)
        monkeypatch.setattr(np.linalg, "svd", None)  # the 2 x 2 check needs no SVD
        config = make_config()
        assert len(calls) == 1
        run_closed_loop(config, SimLog())
        assert len(calls) == 1

    def test_determinism_identical_logs(self):
        config = make_config(**{"noise.enabled": True, "filter.enabled": True})
        a = run_closed_loop(config, SimLog())
        b = run_closed_loop(config, SimLog())
        assert a.rows.tobytes() == b.rows.tobytes()

    def test_causality_future_trajectory_cannot_affect_past(self, tmp_path):
        # perturb the desired trajectory from sample j on; all records that
        # precede the first input computed from it must be identical
        n, j = 100, 60
        base = np.column_stack([np.linspace(0, 1, n + 5), np.linspace(0, -1, n + 5)])
        perturbed = base.copy()
        perturbed[j:] += 0.5
        paths = []
        for i, traj in enumerate((base, perturbed)):
            path = tmp_path / f"traj{i}.csv"
            _save_trajectory(path, traj)
            paths.append(str(path))
        logs = [
            np.frombuffer(run_closed_loop(
                make_config(
                    T=1.0,
                    **{"trajectory.source": "file", "trajectory.path": p},
                ),
                SimLog(),
            ).rows).reshape(-1, LOG_WIDTH)
            for p in paths
        ]
        nu = 1
        first_affected = j - nu  # u_k depends on y_d[k + nu]
        # CSV_HEADER columns 1:3 are x,theta and 17:19 are u1,u2
        np.testing.assert_array_equal(
            logs[0][:first_affected + 1, 1:3], logs[1][:first_affected + 1, 1:3]
        )
        np.testing.assert_array_equal(
            logs[0][:first_affected, 17:19], logs[1][:first_affected, 17:19]
        )
        assert not np.array_equal(logs[0][first_affected, 17:19], logs[1][first_affected, 17:19])

    def test_file_trajectory_needs_exactly_the_rows_read(self, tmp_path):
        # T = 1.0, nu = 1: the loop reads y_d[0 .. 100], T/dt + 1 rows
        traj = np.column_stack([np.linspace(0, 1, 101), np.linspace(0, -1, 101)])
        path = tmp_path / "traj.csv"
        _save_trajectory(path, traj)
        config = make_config(T=1.0, trajectory={"source": "file", "path": str(path)})
        rows = np.frombuffer(run_closed_loop(config, SimLog()).rows).reshape(-1, LOG_WIDTH)
        np.testing.assert_array_equal(rows[:, 7:9], traj)  # x_d,theta_d
        _save_trajectory(path, traj[:100])
        with pytest.raises(ConfigError, match="needs 101 rows"):
            run_closed_loop(config, SimLog())

    def test_unreadable_trajectory_file_is_config_error(self, tmp_path):
        config = make_config(trajectory={"source": "file", "path": str(tmp_path)})  # a directory
        with pytest.raises(ConfigError, match="^cannot read trajectory file: .*Is a directory"):
            run_closed_loop(config, SimLog())

    def test_file_trajectory_is_parsed_row_by_row(self, tmp_path):
        # the 7002 rows generate-trajectory writes for T = 70.01: the reader keeps
        # x_d and theta_d (112 KB) and parses into one table of floats (168 KB);
        # the whole file's split rows, held at once, peaked at 2.7 MB
        doc = load_doc(str(CONFIGS / "paper_experiment.yaml"))
        doc["T"] = 70.01
        config_path, path = tmp_path / "pendulum.yaml", tmp_path / "traj.csv"
        config_path.write_text(yaml.safe_dump(doc))
        assert cli.main(["generate-trajectory", "--config", str(config_path),
                         "--out", str(path)]) == 0
        doc.update(T=70.0, trajectory={"source": "file", "path": str(path)})
        config = SimConfig.from_dict(doc)
        tracemalloc.start()
        try:
            samples = sim_harness._desired_trajectory(config, 7001)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2**19
        assert sum(1 for _ in samples) == 7001

    def test_file_trajectory_header_checked(self, tmp_path):
        # a headerless file would otherwise be read as (t, x_d)
        path = tmp_path / "traj.csv"
        np.savetxt(path, np.zeros((300, 3)), delimiter=",")
        config = make_config(T=1.0, trajectory={"source": "file", "path": str(path)})
        with pytest.raises(ConfigError, match="header"):
            run_closed_loop(config, SimLog())

    @pytest.mark.parametrize("row", ["0,1", "0,1,nan", "0,1,x"])
    def test_file_trajectory_rows_checked(self, tmp_path, row):
        path = tmp_path / "traj.csv"
        path.write_text("t,x_d,theta_d\n" + f"{row}\n" * 300)
        config = make_config(T=1.0, trajectory={"source": "file", "path": str(path)})
        with pytest.raises(ConfigError, match="trajectory file"):
            run_closed_loop(config, SimLog())

    def test_pendulum_diverges_with_step_diagnostic(self):
        from pathlib import Path

        from ftsmfc.plant_models import DivergenceError

        config_path = Path(__file__).resolve().parents[1] / "configs" / "paper_experiment.yaml"
        config = SimConfig.from_yaml(str(config_path))
        with pytest.raises(DivergenceError) as info:
            run_closed_loop(config, SimLog())
        assert info.value.step_index == 113

    @pytest.mark.parametrize("order, law, with_filter, tick", [
        ("first", "fts", True, 113), ("first", "fts", False, 141),
        ("first", "basic", True, 93), ("first", "basic", False, 129),
        ("second", "fts", True, 85), ("second", "fts", False, 122),
        ("second", "basic", True, 78), ("second", "basic", False, 100),
    ])
    def test_pendulum_variants_diverge_at_their_ticks(self, order, law, with_filter, tick):
        # every observer x law x filter variant of the shipped pendulum run, stepped in the loop
        doc = load_doc(str(CONFIGS / "paper_experiment.yaml"))
        doc["observer"]["order"], doc["controller"]["law"] = order, law
        doc["filter"]["enabled"] = with_filter
        with pytest.raises(DivergenceError, match=f"^plant diverged at step {tick}$") as info:
            run_closed_loop(SimConfig.from_dict(doc), SimLog())
        assert info.value.step_index == tick

    def test_trajectory_divergence_reports_the_tick(self):
        # sample 3 leaves the admissible region; tick 3 - nu = 1 is the first to read it
        config = SimConfig.from_dict({
            "dt": 0.01, "T": 1.0, "controller": {"G": [[1.0, 0.0], [0.0, 1.0]]},
            "trajectory": {"init": [0.0, 0.0, 4.0e7, 0.0]},
        })
        with pytest.raises(DivergenceError, match="^trajectory generation diverged at step 3$") \
                as info:
            run_closed_loop(config, SimLog())
        assert info.value.step_index == 1

    def test_rows_before_a_divergence_reach_the_sink(self):
        # the paper run diverges in tick 113's plant step: ticks 0 to 112 are handed on,
        # bit-identical to the first rows of the same run with a horizon that ends at tick 113
        doc = load_doc(str(CONFIGS / "paper_experiment.yaml"))
        log, blocks = SimLog(), _Blocks()
        with pytest.raises(DivergenceError) as info:
            run_closed_loop(SimConfig.from_dict(doc), log, blocks)
        assert info.value.step_index == 113
        assert len(log) == 113 and blocks.rows == [113]
        doc["T"] = 1.14
        whole = run_closed_loop(SimConfig.from_dict(doc), SimLog())
        assert len(whole) == 114
        assert log.rows.tobytes() == whole.rows[:113 * LOG_WIDTH].tobytes()

    def test_each_block_reaches_each_sink_once(self):
        # 601 rows: two full blocks and the last, shorter one, to every sink in turn
        sinks = _Blocks(), _Blocks()
        assert run_closed_loop(make_config(T=6.0), *sinks) is sinks[-1]
        assert sinks[0].rows == sinks[1].rows == [256, 256, 89]
        # a sink that raises ends the run with its error, and no sink gets a block again
        sinks = _Blocks(), _Blocks(fail=1), _Blocks()
        with pytest.raises(RuntimeError, match="^sink failed$"):
            run_closed_loop(make_config(T=6.0), *sinks)
        assert [sink.rows for sink in sinks] == [[256, 256], [256], [256]]

    def test_sink_is_required(self):
        with pytest.raises(TypeError):
            run_closed_loop(make_config())


class _Blocks:
    """A sink that records the rows of each block it is handed, and raises in place of
    taking block number fail."""

    def __init__(self, fail=None):
        self.rows, self.fail = [], fail

    def write(self, block):
        if len(self.rows) == self.fail:
            raise RuntimeError("sink failed")
        self.rows.append(len(block) // LOG_WIDTH)


@pytest.mark.usefixtures("two_cpus")  # the formatting child forks on any host
class TestCsvOutput:
    def test_header_and_shape(self, tmp_path):
        log = run_closed_loop(make_config(), SimLog())
        path = tmp_path / "out.csv"
        log.to_csv(str(path))
        lines = path.read_text().splitlines()
        assert lines[0] == CSV_HEADER
        assert len(lines) == len(log) + 1
        assert all(len(line.split(",")) == 19 for line in lines[1:])

    def test_seventeen_significant_digits_roundtrip(self, tmp_path):
        log = run_closed_loop(make_config(), SimLog())
        path = tmp_path / "out.csv"
        log.to_csv(str(path))
        data = np.loadtxt(path, delimiter=",", skiprows=1)
        rows = np.frombuffer(log.rows).reshape(-1, LOG_WIDTH)
        np.testing.assert_array_equal(data[:, 1:3], rows[:, 1:3])  # x,theta
        np.testing.assert_array_equal(data[:, 17:19], rows[:, 17:19])  # u1,u2

    @pytest.mark.parametrize("base", ["synthetic_constant.yaml", "second-order ramp",
                                      "pendulum T=1"])
    def test_log_row_is_csv_row(self, tmp_path, base):
        # each tick's log entry is one CSV_HEADER row, t, e_y and e_F included,
        # so the file parses back to the log's floats bit for bit
        if base == "pendulum T=1":  # ends before the divergence at t = 1.13
            doc = load_doc(str(CONFIGS / "paper_experiment.yaml"))
            doc["T"] = 1.0
        else:
            doc = load_doc(str(CONFIGS / "synthetic_constant.yaml"))
        if base == "second-order ramp":
            doc["plant"] = {"kind": "ramp", "spec": {
                "slope": [0.0013, -0.0007], "G": doc["plant"]["spec"]["G"], "nu": 2}}
            doc["controller"]["law"], doc["observer"]["order"] = "basic", "second"
            doc["filter"]["enabled"] = doc["noise"]["enabled"] = False
        config = SimConfig.from_dict(doc)
        log = run_closed_loop(config, SimLog())
        path = tmp_path / "out.csv"
        log.to_csv(str(path))
        assert LOG_WIDTH == len(CSV_HEADER.split(","))
        rows = np.frombuffer(log.rows).reshape(-1, LOG_WIDTH)
        assert len(rows) == config.n_steps + 1
        assert np.loadtxt(path, delimiter=",", skiprows=1).tobytes() == rows.tobytes()
        # and the derived columns are what the header names: t = dt*k,
        # ex,etheta = x,theta - x_d,theta_d and eF1,eF2 = Fhat1,Fhat2 - F1,F2
        assert rows[:, 0].tobytes() == (config.dt * np.arange(len(log))).tobytes()
        assert rows[:, 9:11].tobytes() == (rows[:, 1:3] - rows[:, 7:9]).tobytes()
        assert rows[:, 15:17].tobytes() == (rows[:, 13:15] - rows[:, 11:13]).tobytes()

    def test_byte_identical_across_runs(self, tmp_path):
        config = make_config(**{"noise.enabled": True, "filter.enabled": True})
        payloads = []
        for name in ("a.csv", "b.csv"):
            path = tmp_path / name
            run_closed_loop(config, SimLog()).to_csv(str(path))
            payloads.append(path.read_bytes())
        assert payloads[0] == payloads[1]


# Values whose `%.17g` text is easy to get wrong: the sign of zero, the
# smallest subnormal, the switch to exponent notation, and extremes.
_SPECIAL_VALUES = [-0.0, 5e-324, 1e16, 1e17, 0.1, -1e-5, 1e300]


def _random_magnitudes(n, seed=8):
    rng = np.random.default_rng(seed)
    return rng.choice([-1.0, 1.0], n) * 10.0 ** rng.uniform(-320.0, 308.0, n)


def _oracle_csv(header, table) -> bytes:
    """The writer's contract, one value at a time: each float as `%.17g`."""
    lines = [header] + [",".join("%.17g" % v for v in row) for row in table.tolist()]
    return ("\n".join(lines) + "\n").encode()


def _header(n_cols) -> str:
    """A header of n_cols fields, which sets the writer's row width."""
    return ",".join(f"c{j}" for j in range(n_cols))


def _write_table(path, header, table) -> None:
    """table written through CsvOutput under header, as one flat array('d')."""
    assert len(header.split(",")) == table.shape[1]
    _write_csv(path, header, array("d", table.tobytes()))


def _write_csv(path, header, flat) -> None:
    """flat's rows, a float for each field of header, written in one CsvOutput.write."""
    with CsvOutput(str(path), header) as out:
        out.write(flat)
        out.commit()


# The columns of a ramp log (filter and noise off, y_d = 0) as indices into 19
# distinct ones: x_meas, x_hat and ex repeat x; theta_meas, theta_hat and
# etheta repeat theta; theta_d repeats x_d.
_RAMP_COLUMNS = [0, 1, 2, 1, 2, 1, 2, 7, 7, 1, 2, 11, 12, 13, 14, 15, 16, 17, 18]


@pytest.mark.usefixtures("two_cpus")  # the formatting child forks on any host
class TestWriteCsv:
    # one block is 256 rows: one row, one short of a block, one block, one
    # past it, two blocks and one row, and 4 and 28 blocks, which the writer
    # splits at 2 and at 14 (one block forks no child; 2 and 3 split at 1)
    @pytest.mark.parametrize("n_rows", [1, 255, 256, 257, 513, 769, 7001])
    @pytest.mark.parametrize("n_cols", [19, 3])
    def test_bytes_match_per_value_format(self, tmp_path, n_rows, n_cols):
        values = np.concatenate([_SPECIAL_VALUES, _random_magnitudes(10_000)])
        table = np.resize(values, (n_rows, n_cols))
        path = tmp_path / "out.csv"
        _write_table(path, _header(n_cols), table)
        assert path.read_bytes() == _oracle_csv(_header(n_cols), table)

    @pytest.mark.parametrize("n_rows", [1, 255, 256, 257, 513, 769, 7001])
    def test_repeated_columns_match_per_value_format(self, tmp_path, n_rows):
        values = np.concatenate([_SPECIAL_VALUES, _random_magnitudes(10_000)])
        table = np.resize(values, (n_rows, 19))[:, _RAMP_COLUMNS]
        path = tmp_path / "out.csv"
        _write_table(path, CSV_HEADER, table)
        assert path.read_bytes() == _oracle_csv(CSV_HEADER, table)

    def test_signed_zero_columns_keep_their_sign(self, tmp_path):
        # 0.0 == -0.0, but the columns differ in their bytes, and print 0 and -0
        table = np.zeros((300, 4))
        table[:, 1] = table[:, 3] = -0.0
        path = tmp_path / "out.csv"
        _write_table(path, _header(4), table)
        assert path.read_bytes() == _oracle_csv(_header(4), table)
        assert path.read_bytes().splitlines()[1:] == [b"0,-0,0,-0"] * 300

    @pytest.mark.parametrize("row", [0, 255, 256, 300, 512])
    def test_columns_that_differ_in_one_row(self, tmp_path, row):
        # the block holding the row has distinct columns; the others repeat one
        col = _random_magnitudes(513)
        other = col.copy()
        other[row] = np.nextafter(other[row], np.inf)
        table = np.column_stack([col, other, col])
        path = tmp_path / "out.csv"
        _write_table(path, _header(3), table)
        assert path.read_bytes() == _oracle_csv(_header(3), table)

    def test_every_random_magnitude_matches(self, tmp_path):
        values = np.concatenate([_SPECIAL_VALUES, _random_magnitudes(10_000, seed=9)])
        table = np.resize(values, (-(-len(values) // 19), 19))
        path = tmp_path / "out.csv"
        _write_table(path, CSV_HEADER, table)
        assert path.read_bytes() == _oracle_csv(CSV_HEADER, table)

    def test_log_matches_per_value_format(self, tmp_path):
        config = make_config(**{"noise.enabled": True, "filter.enabled": True})
        log = run_closed_loop(config, SimLog())
        path = tmp_path / "out.csv"
        log.to_csv(str(path))
        table = np.loadtxt(path, delimiter=",", skiprows=1)
        assert path.read_bytes() == _oracle_csv(CSV_HEADER, table)

    def test_streams_in_blocks(self, tmp_path, monkeypatch):
        # one block's columns and strings; a writer that took every row at once
        # would hold about 3 MB of floats, and a single `%` over them 6 MB more.
        # tracemalloc sees this process only, so the bound is checked again
        # with no os.fork, where one process formats every block
        table = _random_magnitudes(5000 * 19).reshape(5000, 19)
        assert _write_peak(tmp_path / "out.csv", table) < table.nbytes + 2**20
        monkeypatch.delattr(os, "fork")
        assert _write_peak(tmp_path / "out.csv", table) < table.nbytes + 2**20

    def test_streams_in_blocks_with_repeated_columns(self, tmp_path, monkeypatch):
        # the same bound where each distinct column's strings are kept for the block
        table = _random_magnitudes(5000 * 19).reshape(5000, 19)[:, _RAMP_COLUMNS]
        assert _write_peak(tmp_path / "out.csv", table) < table.nbytes + 2**20
        monkeypatch.delattr(os, "fork")
        assert _write_peak(tmp_path / "out.csv", table) < table.nbytes + 2**20


def _write_peak(path, table) -> int:
    """The tracemalloc peak of writing table, whose rows the file must then hold."""
    flat = array("d", table.tobytes())  # made before tracing: the writer's input
    tracemalloc.start()
    try:
        _write_csv(path, CSV_HEADER, flat)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert path.read_bytes().count(b"\n") == len(table) + 1
    return peak


class TestComputeMetrics:
    @staticmethod
    def _log_from_errors(e_y, e_F=None, dt=1.0):
        e_y = np.asarray(e_y, dtype=float)
        n = len(e_y)
        z = np.zeros((n, 2))
        e_F = z if e_F is None else np.asarray(e_F, dtype=float)
        # t = dt*k; y = y_meas = y_hat = e_y against y_d = 0, and F_hat = e_F against F = 0
        t = dt * np.arange(n)[:, None]
        table = np.hstack([t, e_y, e_y, e_y, z, e_y, z, e_F, e_F, z])
        return SimLog(array("d", table.tobytes()))

    def test_all_zero_errors_give_zero_metrics(self):
        log = self._log_from_errors(np.zeros((10, 2)))
        m = compute_metrics(log, settle_time=4.0, bands=(0.5, 0.05))
        for key in ("max_abs_ex", "rms_ex", "max_abs_etheta", "rms_etheta"):
            assert m[key] == 0.0
        assert m["settle_ex"] == 0.0 and m["settle_etheta"] == 0.0

    def test_spike_before_settle_excluded(self):
        e = np.zeros((10, 2))
        e[2, 0] = 100.0  # transient spike at t = 2
        m = compute_metrics(self._log_from_errors(e), settle_time=4.0, bands=(0.5, 0.05))
        assert m["max_abs_ex"] == 0.0

    def test_settle_time_enter_and_stay(self):
        e = np.zeros((10, 2))
        e[:5, 0] = 1.0  # outside band until t = 4, inside from t = 5
        m = compute_metrics(self._log_from_errors(e), settle_time=4.0, bands=(0.5, 0.05))
        assert m["settle_ex"] == 5.0

    def test_never_settles_is_nan(self):
        e = np.ones((10, 2))
        m = compute_metrics(self._log_from_errors(e), settle_time=4.0, bands=(0.5, 0.05))
        assert np.isnan(m["settle_ex"])

    def test_reentry_not_counted_as_settled(self):
        e = np.zeros((10, 2))
        e[7, 0] = 1.0  # leaves the band again at t = 7
        m = compute_metrics(self._log_from_errors(e), settle_time=4.0, bands=(0.5, 0.05))
        assert m["settle_ex"] == 8.0

    def test_empty_window_rejected(self):
        log = self._log_from_errors(np.zeros((5, 2)))
        with pytest.raises(ValueError):
            compute_metrics(log, settle_time=10.0, bands=(0.5, 0.05))

    def test_rms(self):
        e = np.zeros((10, 2))
        e[5:, 1] = 2.0
        m = compute_metrics(self._log_from_errors(e), settle_time=4.0, bands=(0.5, 0.05))
        assert m["rms_etheta"] == pytest.approx(2.0)


def _numpy_metrics(log, settle_time, bands):
    """compute_metrics as NumPy formulas: the results the plain-float version
    must reproduce bit for bit."""
    rows = np.frombuffer(log.rows).reshape(-1, LOG_WIDTH)
    t, columns = rows[:, 0], CSV_HEADER.split(",")
    mask = t > settle_time
    channels = {name: rows[:, columns.index(name)] for name in ("ex", "etheta", "eF1", "eF2")}
    out = {}
    for name, sig in channels.items():
        post = sig[mask]
        out[f"max_abs_{name}"] = float(np.max(np.abs(post)))
        out[f"rms_{name}"] = float(np.sqrt(np.mean(post * post)))
    for name, band in zip(("ex", "etheta"), bands):
        inside = np.abs(channels[name]) <= band
        stay = np.flatnonzero(~inside[::-1])
        if stay.size == 0:
            out[f"settle_{name}"] = float(t[0])
        elif stay[0] == 0:
            out[f"settle_{name}"] = float("nan")
        else:
            out[f"settle_{name}"] = float(t[len(inside) - stay[0]])
    return out


def _hex(metrics):
    return {key: float.hex(value) for key, value in metrics.items()}


class TestComputeMetricsMatchesNumpy:
    """The RMS is a pairwise sum in np.mean's order (blocks of 128 with eight
    accumulators), so the lengths around 8, 128 and 256 change its shape."""

    # feed "log": compute_metrics on the whole log, after a random number of
    # pre-settle rows.  The other feeds put the same kind of log through SteadyState
    # in 256-row blocks, with settle_time just before a block's first row, inside a
    # block, or just before a block's last row.
    @pytest.mark.parametrize("post_len, feed", [
        pytest.param(post_len, feed, id=str(post_len) if feed == "log" else f"{post_len}-{feed}")
        for feed in ("log", "block-start", "block-inside", "block-end")
        for post_len in [*range(1, 10), 127, 128, 129, 255, 256, 257, 1000, 7001, 12_345, 20_000]
    ])
    def test_random_log_bit_identical(self, post_len, feed):
        rng = np.random.default_rng(post_len)
        pre = {"log": int(rng.integers(0, 50)), "block-start": 256, "block-inside": 300,
               "block-end": 511}[feed]
        n, dt = post_len + pre, 0.01
        # errors that decay over the run, so that the bands are crossed on the way
        scale = 10.0 ** rng.uniform(-3, 3) * np.exp(-np.arange(n) / (0.3 * n))[:, None]
        table = rng.standard_normal((n, 19)) * scale
        table[:, 0] = dt * np.arange(n)  # the time column, t = dt*k
        log = SimLog(array("d", table.tobytes()))
        settle_time = dt * (n - post_len - 0.5)
        bands = tuple(10.0 ** rng.uniform(-3, 3, 2))
        if feed == "log":
            got = compute_metrics(log, settle_time, bands)
        else:
            metrics, step = SteadyState(n, settle_time, bands), 256 * LOG_WIDTH
            for start in range(0, len(log.rows), step):
                metrics.write(log.rows[start:start + step])
            got = metrics.result()
        assert _hex(got) == _hex(_numpy_metrics(log, settle_time, bands))

    @pytest.mark.parametrize("ex, settle", [
        ([0.1, 0.2, 0.0, 0.3], 0.0),           # always inside the band: t[0]
        ([1.0, 2.0, 3.0, 4.0], math.nan),      # never inside
        ([0.1, 0.2, 0.3, 4.0], math.nan),      # leaves the band at the last tick
        ([1.0, 2.0, 3.0, 0.4], 3.0),           # enters it at the last tick
        ([1.0, 0.1, 2.0, 0.1], 3.0),           # re-enters for good at the last tick
        ([0.5, -0.5, 0.5, -0.5], 0.0),         # on the band's edge counts as inside
    ])
    def test_settle_edge_cases(self, ex, settle):
        e = np.zeros((len(ex), 2))
        e[:, 0] = ex
        log = TestComputeMetrics._log_from_errors(e)
        got = compute_metrics(log, settle_time=0.5, bands=(0.5, 0.05))
        assert float.hex(got["settle_ex"]) == float.hex(settle)
        assert _hex(got) == _hex(_numpy_metrics(log, 0.5, (0.5, 0.05)))


class TestVerifySuites:
    def test_unknown_suite_rejected(self):
        with pytest.raises(ConfigError):
            verify_suite("nonexistent")

    def test_rho_suite_passes_and_reports(self):
        report = verify_suite("rho")
        assert report.passed
        text = report.format()
        assert "suite rho: PASS" in text
        assert "samples=" in text and "worst_margin=" in text

    def test_control_suite_passes(self):
        assert verify_suite("control").passed

    def test_fixed_seed_reproducible(self):
        a = verify_suite("gamma")
        b = verify_suite("gamma")
        assert a.format() == b.format()
