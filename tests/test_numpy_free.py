"""`simulate`, `generate-trajectory` and `sweep` run without importing NumPy or PyYAML.

pytest has imported both already, so the run path, `simulate` on every plant
kind included, is driven in a fresh interpreter, which reports after each step
whether `numpy` and `yaml` are in `sys.modules`.  Only `verify` loads NumPy: no
other module of the package imports it.  Nothing loads PyYAML:
`ftsmfc.block_yaml` is the one YAML reader, a text outside its subset is a
ConfigError, no module of the package imports `yaml`, and `block_yaml` imports
no module of the package.  The same interpreter reports which of the modules that
start-up does not need were loaded by `import ftsmfc` and by reading a config: none.
"""

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

import yaml

import ftsmfc

CONFIGS = Path(__file__).resolve().parents[1] / "configs"
SRC = str(Path(ftsmfc.__file__).resolve().parents[1])

# argv: the config to read, the JSON list of [step, cli argv] to run, the JSON out path
_CHILD = """
import json, sys
config, steps, out = sys.argv[1:]
unloaded = [m for m in ("dataclasses", "fractions", "yaml", "numpy") if m not in sys.modules]
import ftsmfc
loaded = [["import ftsmfc", [m for m in unloaded if m in sys.modules]]]
ftsmfc.SimConfig.from_dict({"dt": 0.01, "T": 1, "controller": {"G": [[1, 0], [0, 1]]}})
loaded.append(["from_dict", [m for m in unloaded if m in sys.modules]])
ftsmfc.SimConfig.from_yaml(config)
loaded.append(["from_yaml", [m for m in unloaded if m in sys.modules]])
report = [["from_yaml", None, "numpy" in sys.modules, "yaml" in sys.modules]]
from ftsmfc import cli
for step, argv in json.loads(steps):
    report.append([step, cli.main(argv), "numpy" in sys.modules, "yaml" in sys.modules])
    assert "yaml" not in sys.modules, step
# a flow mapping is outside the block subset: a ConfigError, and PyYAML stays unloaded
try:
    ftsmfc.config.parse_yaml("{a: 1}", "--values")
except ftsmfc.config.ConfigError as exc:
    report.append(["flow mapping", str(exc), None, "yaml" in sys.modules])
assert "yaml" not in sys.modules
with open(out, "w") as fh:
    json.dump({"unloaded": unloaded, "loaded": loaded, "report": report}, fh)
"""


def _config(path, name: str, **changes) -> str:
    """configs/<name> with top-level keys replaced, written to path."""
    with open(CONFIGS / name) as fh:
        doc = yaml.safe_load(fh)
    doc.update(changes)
    path.write_text(yaml.safe_dump(doc))
    return str(path)


def test_run_path_imports_no_numpy(tmp_path):
    G = [[0.559, 0.196], [0.196, 0.657]]
    short = {"T": 1.0, "metrics": {"settle_time": 0.5}}
    constant = _config(tmp_path / "constant.yaml", "synthetic_constant.yaml", **short)
    ramp = _config(tmp_path / "ramp.yaml", "synthetic_constant.yaml", **short,
                   plant={"kind": "ramp", "spec": {"slope": [0.001, -0.002], "G": G, "nu": 2}},
                   observer={"order": "second"})
    sinusoid = _config(tmp_path / "sinusoid.yaml", "synthetic_constant.yaml", **short, plant={
        "kind": "sinusoid", "spec": {"amplitude": [0.3, 0.2], "freq": [0.1, 0.2], "G": G}})
    pendulum = str(CONFIGS / "paper_experiment.yaml")  # diverges at tick 113: exit 2
    trajectory = _config(tmp_path / "pendulum.yaml", "paper_experiment.yaml", T=1.0)
    out = str(tmp_path / "out")

    def simulate(config):
        return ["simulate", "--config", config, "--out", out + ".csv"]

    steps = [
        ["simulate constant", simulate(constant)],
        ["simulate ramp", simulate(ramp)],
        ["simulate sinusoid", simulate(sinusoid)],
        ["simulate pendulum", simulate(pendulum)],
        ["generate-trajectory", ["generate-trajectory", "--config", trajectory,
                                 "--out", out + "_traj.csv"]],
        ["sweep", ["sweep", "--config", constant, "--param", "controller.scale",
                   "--values", "0.2,0.5", "--out", out + "_sweep"]],
    ]
    report_path = tmp_path / "report.json"
    # development mode, with every warning an error: no step may warn, for instance
    # of an unclosed file, nor leave an exception to an unraisable hook
    proc = subprocess.run(
        [sys.executable, "-X", "dev", "-W", "error", "-c", _CHILD, constant, json.dumps(steps),
         str(report_path)],
        capture_output=True, text=True, env={**os.environ, "PYTHONPATH": SRC}, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert "Warning" not in proc.stderr and "Exception ignored" not in proc.stderr, proc.stderr
    child = json.loads(report_path.read_text())
    assert child["loaded"] == [["import ftsmfc", []], ["from_dict", []], ["from_yaml", []]]
    report = [tuple(step) for step in child["report"]]
    assert report == [
        ("from_yaml", None, False, False),
        ("simulate constant", 0, False, False),
        ("simulate ramp", 0, False, False),
        ("simulate sinusoid", 0, False, False),
        ("simulate pendulum", 2, False, False),
        ("generate-trajectory", 0, False, False),
        ("sweep", 0, False, False),
        ("flow mapping", "--values: line 1: '{a: 1}' is outside the YAML subset ftsmfc reads",
         None, False),
    ], proc.stderr
    assert "plant diverged at step 113" in proc.stderr


def _imports(path: Path):
    """The import statements of a module with the names each imports: absolute names as
    written, a relative import as its dots and module ('.', '.config')."""
    tree = ast.parse(path.read_text(), str(path))
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            yield tree, node, [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            yield tree, node, ["." * node.level + (node.module or "")]


MODULES = sorted(Path(SRC, "ftsmfc").glob("*.py"))


def test_no_module_imports_yaml():
    # PyYAML is a test dependency only: block_yaml reads every config
    for path in MODULES:
        for _, _, names in _imports(path):
            assert not any(name.split(".")[0] == "yaml" for name in names), (path.name, names)


def test_numpy_imported_by_verify_only():
    found = {}
    for path in MODULES:
        for tree, node, names in _imports(path):
            if any(name.split(".")[0] == "numpy" for name in names):
                found.setdefault(path.stem, (tree, []))[1].append(node)
    assert sorted(found) == ["verify"]
    tree, nodes = found["verify"]
    assert all(node in tree.body for node in nodes)  # at module level


def test_block_yaml_is_a_leaf_module():
    # the reader raises Declined; config.parse_yaml alone turns it into a ConfigError
    names = [name for _, _, names in _imports(Path(SRC, "ftsmfc", "block_yaml.py"))
             for name in names]
    assert not [name for name in names if name[0] == "." or name.split(".")[0] == "ftsmfc"]
