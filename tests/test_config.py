"""The config reader on its own: strings and mappings where lists belong."""

import copy
import re

import pytest
import yaml

from ftsmfc import cli, config

G = [[0.559, 0.196], [0.196, 0.657]]
BASE_DOC = {
    "dt": 0.01,
    "T": 0.5,
    "plant": {"kind": "constant", "spec": {"const": [0.3, -0.2], "G": G, "nu": 1}},
    "controller": {"law": "fts", "G": G},
    "noise": {"enabled": False},
    "trajectory": {"source": "zero"},
    "metrics": {"settle_time": 0.2},
}


def _doc(**overrides) -> dict:
    """BASE_DOC with dotted keys set, as in {"noise.phases": "00"}."""
    doc = copy.deepcopy(BASE_DOC)
    for key, value in overrides.items():
        node = doc
        *parents, last = key.split(".")
        for part in parents:
            node = node.setdefault(part, {})
        node[last] = value
    return doc


# A string where a list belongs must not be read one character at a time, nor
# bytes (YAML's !!binary) one byte at a time, nor a mapping as its keys.
NOT_A_LIST = [
    ("metrics.bands", "57"),
    ("initial_estimate", "12"),
    ("noise.phases", "00"),
    ("plant.spec.const", "34"),
    ("plant.spec.y_init", "12"),
    ("metrics.bands", {5: 0, 7: 0}),
    ("plant.spec.y_init", {0: [1, 2]}),
    ("metrics.bands", b"57"),
    ("plant.spec.y_init", b"12"),
]
IDS = [f"{key}-{type(value).__name__}" for key, value in NOT_A_LIST]


@pytest.mark.parametrize("key, value", NOT_A_LIST, ids=IDS)
def test_string_or_mapping_for_a_list_is_config_error(key, value):
    message = f"^{key}: expected .*, got {re.escape(repr(value))}$"
    with pytest.raises(config.ConfigError, match=message):
        config.SimConfig.from_dict(_doc(**{key: value}))


@pytest.mark.parametrize("key, value", NOT_A_LIST, ids=IDS)
def test_string_or_mapping_for_a_list_exits_1(tmp_path, capsys, key, value):
    path = tmp_path / "config.yaml"
    path.write_text(yaml.safe_dump(_doc(**{key: value})))
    rc = cli.main(["simulate", "--config", str(path), "--out", str(tmp_path / "run.csv")])
    _, err = capsys.readouterr()
    assert rc == cli.EXIT_CONFIG
    assert err.startswith(f"config error: {key}: ") and err.count("\n") == 1, err
    assert not (tmp_path / "run.csv").exists()


@pytest.mark.parametrize("key", ["metrics.bands", "initial_estimate", "plant.spec.y_init"])
def test_bytearray_for_a_list_is_config_error(key):
    # YAML gives bytes, never a bytearray, but from_dict takes either from Python
    value = bytearray(b"57")
    message = f"^{key}: expected .*, got {re.escape(repr(value))}$"
    with pytest.raises(config.ConfigError, match=message):
        config.SimConfig.from_dict(_doc(**{key: value}))


def test_fraction_string_is_one_number():
    cfg = config.SimConfig.from_dict(_doc(**{"metrics.bands": ["1/2", "1/20"],
                                             "metrics.settle_time": "1/5"}))
    assert (cfg.bands, cfg.settle_time) == ((0.5, 0.05), 0.2)

