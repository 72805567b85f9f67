"""The config reader on its own: strings and mappings where lists belong."""

import copy
import math
import random
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
    "controller": {"law": "fts", "G": copy.deepcopy(G)},  # no YAML alias of plant.spec.G
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
    # YAML writes such a string quoted and bytes tagged, both outside the block subset
    prefix = f"{key}: " if isinstance(value, dict) else f"cannot parse config file {path}: line "
    assert err.startswith(f"config error: {prefix}") and err.count("\n") == 1, err
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
    """The oracle: PyYAML's pure-Python safe loader, with the block reader's repeated-key error."""

    def construct_mapping(self, node, deep=False):
        mapping = super().construct_mapping(node, deep)
        seen = set()
        for key_node, _ in node.value:
            key = self.construct_object(key_node)
            if key in seen:
                line = key_node.start_mark.line + 1
                raise config.ConfigError(f"repeated key {key!r} at line {line}")
            seen.add(key)
        return mapping


SHIPPED = {name: (CONFIGS / f"{name}.yaml").read_text()
           for name in ("synthetic_constant", "paper_experiment")}
# the configs as yaml.safe_dump writes them: perfbench and tests/test_numpy_free.py write these
DUMPED = {f"{name}-{form}": yaml.safe_dump(yaml.safe_load(text), sort_keys=sort_keys)
          for name, text in SHIPPED.items()
          for form, sort_keys in (("dumped", False), ("dumped-sorted", True))}

PARITY_DOCUMENTS = {
    **SHIPPED,
    **DUMPED,
    "nested": "plant:\n  spec:\n    G:\n      - [1, 0]\n      - [0, 1.5e+3]\n    nu: 2\n",
    # sweep --values entries
    **{repr(text): text for text in ["0.5", "1e-3", "yes", "~", "[0.1, 2]", "11/9", "-.5",
                                     ".inf", "off", "[[1, 0], [0, 1]]", "", "+.5", "1.0e-05",
                                     "-0", "[0.5, 0.05]"]},
}
# YAML that PyYAML reads and the block reader declines, with the part it declines on line 1
DECLINED_DOCUMENTS = {
    "merge-key": ("base: &b {scale: 0.35, exponent: 11/9}\n"
                  "controller:\n  <<: *b\n  scale: 0.5\nobserver: {<<: [*b], order: first}\n",
                  "&b {scale: 0.35, exponent: 11/9}"),
    # sweep --values entries
    **{repr(text): (text, text) for text in ["0x1A", "1_000", "'0.5'", "2024-01-01",
                                             "{a: 1, b: [2, 3]}", "010", "1:30"]},
}
_CASES = {**{key: (text, None) for key, text in PARITY_DOCUMENTS.items()}, **DECLINED_DOCUMENTS}


def _declined(what: str, line: int, text: str) -> str:
    return f"{what}: line {line}: {text!r} is outside the YAML subset ftsmfc reads"


@pytest.mark.parametrize("text, declined", _CASES.values(), ids=_CASES.keys())
def test_loader_gives_the_pure_python_document(text, declined):
    """parse_yaml gives the oracle's document, or declines a text outside the subset."""
    if declined is not None:
        message = re.escape(_declined("what", 1, declined))
        with pytest.raises(config.ConfigError, match=f"^{message}$"):
            config.parse_yaml(text, "what")
        return
    expected = yaml.load(text, Loader=_PurePythonLoader)
    document = config.parse_yaml(text, "unused")
    assert document == expected and repr(document) == repr(expected)


@pytest.mark.parametrize("text, message, declined", [
    ("dt: 0.01\nT: 0.5\nT: 0.6\n", "repeated key 'T' at line 3", None),
    ("controller:\n  scale: 0.35\n\n  scale: 0.5\n", "repeated key 'scale' at line 4", None),
    # a flow mapping is outside the subset: the reader declines it before reading a key
    ("{a: 1, b: 2, a: 3}", "repeated key 'a' at line 1", "{a: 1, b: 2, a: 3}"),
], ids=["top-level", "nested", "flow"])
def test_repeated_key_names_its_line_on_either_parser(text, message, declined):
    with pytest.raises(config.ConfigError, match=f"^{message}$"):
        yaml.load(text, Loader=_PurePythonLoader)
    message = _declined("unused", 1, declined) if declined else f"unused: {message}"
    with pytest.raises(config.ConfigError, match=f"^{re.escape(message)}$"):
        config.parse_yaml(text, "unused")


@pytest.mark.parametrize("text", {**SHIPPED, **DUMPED}.values(), ids={**SHIPPED, **DUMPED}.keys())
def test_configs_are_in_the_block_subset(text):
    # so reading them imports no PyYAML; the parity test above checks the document
    from ftsmfc import block_yaml

    assert block_yaml.load(text) == yaml.safe_load(text)


def test_undecodable_file_is_config_error(tmp_path):
    path = tmp_path / "config.yaml"
    path.write_bytes(b"dt: 0.01\nT: \xff\n")
    with pytest.raises(config.ConfigError, match=f"^cannot read config file {path}: "):
        config.load_doc(str(path))


def test_empty_file_reads_as_empty_mapping(tmp_path):
    path = tmp_path / "config.yaml"
    path.write_text("# only a comment\n")
    assert config.load_doc(str(path)) == {}


def test_document_that_is_no_mapping_is_config_error(tmp_path):
    path = tmp_path / "config.yaml"
    path.write_text("- dt: 0.01\n- T: 1.0\n")
    message = "^configuration document must be a mapping$"
    with pytest.raises(config.ConfigError, match=message):
        config.load_doc(str(path))
    with pytest.raises(config.ConfigError, match=message):
        config.SimConfig.from_dict([{"dt": 0.01}, {"T": 1.0}])


# A value of a switched-off part: still checked, then dropped, so it is no field
SWITCHED_OFF = [
    ("filter", {"exponent": "7/5", "scale": 2.0, "weight": 2.1},
     {"exponent": 1.9, "scale": 0.5, "weight": [[2.0, 0.5], [0.5, 1.0]]}),
    ("noise", {"amplitudes": [0.5, 0.5]}, {"phases": [1.0, -1.0], "fm_freqs": [0.1, 0.2]}),
]


@pytest.mark.parametrize("part, one, other", SWITCHED_OFF, ids=[p for p, *_ in SWITCHED_OFF])
def test_switched_off_value_is_no_field(part, one, other):
    cfgs = [config.SimConfig.from_dict(_doc(**{part: {"enabled": False, **values}}))
            for values in (one, other, {})]
    assert cfgs[0] == cfgs[1] == cfgs[2]
    assert getattr(cfgs[0], {"filter": "filter_params", "noise": "noise"}[part]) is None
    assert len(config.SimConfig._fields) == 18
    assert not {"filter_enabled", "noise_enabled"} & set(config.SimConfig._fields)


# Plain scalars that PyYAML resolves in ways that are easy to get wrong, then some
# that are not plain scalars of the block reader's subset
SCALAR_TRAPS = ["0.5", "-0.25", "+7", "0", "-0", "010", "08", "1.", "00.5", "1.0e-05", "1.5E+3",
                "1e-3", "1e+3", "-.5", "+.5", ".5", "1:30", "1:30.5", "2024-01-01", "11/9",
                "0x1A", "0b11", "0o7", "1_000", "1_0.5", ".inf", "-.inf", ".nan", "yes", "No",
                "OFF", "on", "y", "nULL", "null", "~", "true", "=", "<<", "a=b", "-a", "a b",
                "x.y", "/p", "+", "_", "a -b", "2001-12-14 21:59:43.10 -5"]
OUTSIDE_SCALARS = ["'q'", '"q"', "&a x", "*a", "!!str x", "|", ">", "{a: 1}", "a,b", "a#b",
                   "%x", "@x", "?", "-", "é", "\tx", "x\r", "a: b", "[1,]", "[1, [2]", "a:"]
KEYS = ["a", "b", "T", "1", "yes", "~", "1.0", "-k", "k v", "<<", "010"]


def _random_document(rng) -> str:
    """A small document of the block subset's grammar, sometimes just outside it."""
    def scalar():
        return rng.choice(OUTSIDE_SCALARS if rng.random() < 0.03 else SCALAR_TRAPS)

    def leaf():
        if rng.random() < 0.75:
            return scalar()
        items = [leaf() for _ in range(rng.randrange(4))]
        return "[" + rng.choice([", ", ",", " , "]).join(items) + "]"

    def node(indent, depth, kind=None):
        kind = kind or rng.choice(["map", "seq", "map", "seq", "leaf"] if depth < 3 else ["leaf"])
        pad = " " * indent
        if kind == "leaf":
            return [pad + leaf()]
        lines = []
        for _ in range(rng.randint(1, 3)):
            r = rng.random()
            head = pad + (rng.choice(KEYS) + rng.choice([":", ":", " :"]) if kind == "map" else "-")
            if r < 0.45:
                lines.append(head + " " + leaf())
            elif r < 0.55:
                lines.append(head)  # a null value
            elif r < 0.75:
                lines += [head] + node(indent + rng.randint(1, 3), depth + 1)
            elif kind == "map":  # a sequence at the key's own indent
                lines += [head] + node(indent, depth + 1, "seq")
            else:  # a compact '- - x' or '- k: v' entry
                inner = node(indent + 2, depth + 1, rng.choice(["map", "seq"]))
                lines += [head + " " + inner[0].lstrip(" ")] + inner[1:]
        return lines

    lines = node(rng.randrange(2), 0)
    for _ in range(rng.randrange(4)):  # comments, blank lines and trailing spaces
        at = rng.randrange(len(lines) + 1)
        r = rng.random()
        if r < 0.3:
            lines.insert(at, " " * rng.randrange(4) + "# c")
        elif r < 0.6:
            lines.insert(at, " " * rng.randrange(3))
        elif at < len(lines):
            lines[at] += rng.choice(["  ", " # c #", " "])
    if rng.random() < 0.2:  # one step outside the subset
        at = rng.randrange(len(lines))
        lines[at] = rng.choice([" " + lines[at], lines[at][1:], lines[at] + "\r",
                                "\t" + lines[at], lines[at] + "\n" + " " * 6 + "more",
                                "---\n" + lines[at], lines[at] + " &x", lines[at] + ":"])
    return "\n".join(lines) + rng.choice(["", "\n"])


def _outcome(load, text):
    """load(text) with its repr, only its repr if it holds a NaN, or the error it raised."""
    try:
        document = load(text)
    except config.ConfigError as exc:
        return "error", str(exc)
    except yaml.YAMLError as exc:
        return "error", f"what: {exc}"
    return "document", repr(document) if "nan" in repr(document) else document, repr(document)


def test_block_reader_agrees_with_pyyaml_on_random_documents():
    from ftsmfc import block_yaml

    rng = random.Random(20240101)
    read = 0
    for _ in range(2000):
        text = _random_document(rng)
        try:
            got = _outcome(block_yaml.load, text)
        except block_yaml.Declined as exc:  # parse_yaml leads its message with what
            got = "error", f"what: {exc}"
        assert _outcome(lambda t: config.parse_yaml(t, "what"), text) == got, text
        if got[0] == "document" or "repeated key" in got[1]:  # as the oracle reads it
            read += 1
            expected = _outcome(lambda t: yaml.load(t, Loader=_PurePythonLoader), text)
            if expected[0] == "error":  # the oracle's repeated-key error, not led by what
                expected = "error", f"what: {expected[1]}"
            assert got == expected, text
    assert 600 < read < 1900, read  # both sides of the selection are taken
