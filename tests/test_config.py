"""The config reader on its own: strings and mappings where lists belong."""

import copy
import math
import re
from fractions import Fraction
from pathlib import Path

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



# config._as_float reads a string without the fractions module; it must read
# each the way float(Fraction(s)) does, and reject the same ones
FRACTION_STRINGS = ["11/9", "-2/4", " 9/7 ", "1/0", "1/-3", "1 / 3", "1_0/3", "1e-3", ".5",
                    "5.", "nan", "inf", "1e400", "1" * 400 + "/1", "0x10", "", "-0", "-0/5",
                    "-0.0e7", "-1e-400", "+3/1_000", "1/3/4", "/3", "3/", "1_/3", "\u0661/\u0663",
                    "1/3\n", "1 /3", "\t-7", "\x1c2/3\x1f", "\x1e.5"]


@pytest.mark.parametrize("text", FRACTION_STRINGS)
def test_string_reads_as_a_fraction(text):
    try:
        want = float(Fraction(text))
        if not math.isfinite(want):
            raise OverflowError(want)
    except (ValueError, ZeroDivisionError, OverflowError):
        message = f"^key: {re.escape(repr(text))} is not a finite number$"
        with pytest.raises(config.ConfigError, match=message):
            config._as_float(text, "key")
    else:
        assert repr(config._as_float(text, "key")) == repr(want)  # -0.0 is not 0.0 here


CONFIGS = Path(__file__).resolve().parents[1] / "configs"


class _PurePythonLoader(yaml.SafeLoader):
    """The config loader's repeated-key check on PyYAML's pure-Python parser."""

    construct_mapping = config._unique_key_loader().construct_mapping


PARITY_DOCUMENTS = {
    "synthetic_constant": (CONFIGS / "synthetic_constant.yaml").read_text(),
    "paper_experiment": (CONFIGS / "paper_experiment.yaml").read_text(),
    "merge-key": "base: &b {scale: 0.35, exponent: 11/9}\n"
                 "controller:\n  <<: *b\n  scale: 0.5\nobserver: {<<: [*b], order: first}\n",
    "nested": "plant:\n  spec:\n    G:\n      - [1, 0]\n      - [0, 1.5e+3]\n    nu: 2\n",
    # sweep --values entries
    **{repr(text): text for text in ["0.5", "1e-3", "yes", "~", "[0.1, 2]", "11/9", "-.5",
                                     "0x1A", "1_000", ".inf", "'0.5'", "off", "2024-01-01",
                                     "[[1, 0], [0, 1]]", "{a: 1, b: [2, 3]}", ""]},
}


@pytest.mark.parametrize("text", PARITY_DOCUMENTS.values(), ids=PARITY_DOCUMENTS.keys())
def test_loader_gives_the_pure_python_document(text):
    expected = yaml.load(text, Loader=_PurePythonLoader)
    document = config.parse_yaml(text, "unused")
    assert document == expected and repr(document) == repr(expected)


@pytest.mark.parametrize("text, message", [
    ("dt: 0.01\nT: 0.5\nT: 0.6\n", "repeated key 'T' at line 3"),
    ("controller:\n  scale: 0.35\n\n  scale: 0.5\n", "repeated key 'scale' at line 4"),
    ("{a: 1, b: 2, a: 3}", "repeated key 'a' at line 1"),
], ids=["top-level", "nested", "flow"])
def test_repeated_key_names_its_line_on_either_parser(text, message):
    for load in (lambda: config.parse_yaml(text, "unused"),
                 lambda: yaml.load(text, Loader=_PurePythonLoader)):
        with pytest.raises(config.ConfigError, match=f"^{message}$"):
            load()


def test_loader_parses_with_libyaml():
    # a refactor that dropped the C parser would still pass every other test, slower
    if not yaml.__with_libyaml__:
        pytest.skip("PyYAML is built without libyaml")
    assert issubclass(config._unique_key_loader(), yaml.CSafeLoader)
