"""The numerical contract of the float kernel.

`perfbench/reference.py` is an independent loop in plain Python floats that
shares no code with the package.  The CSVs that `ftsmfc simulate` and
`ftsmfc generate-trajectory` write must agree with it to 1e-9, measured as
|got - want| / max(1, |want|) over every value, the same measure the
benchmark's gate uses.  Byte-identity is pinned separately by
`TestRegressionAnchors`; this bound is what any change of rounding must keep.
"""

import importlib.util
from pathlib import Path

import numpy as np
import pytest
import yaml

from ftsmfc import cli

ROOT = Path(__file__).resolve().parents[1]
CONFIGS = ROOT / "configs"
RTOL = 1e-9

_spec = importlib.util.spec_from_file_location(
    "perfbench_reference", ROOT / "perfbench" / "reference.py"
)
reference = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(reference)


def _doc(name: str) -> dict:
    with open(CONFIGS / name) as fh:
        return yaml.safe_load(fh)


def _second_order_ramp() -> dict:
    # the second-order observer and the basic law, with filter and noise off
    doc = _doc("synthetic_constant.yaml")
    doc["plant"] = {"kind": "ramp", "spec": {
        "slope": [0.0013, -0.0007], "G": doc["plant"]["spec"]["G"], "nu": 2,
    }}
    doc["controller"]["law"] = "basic"
    doc["observer"]["order"] = "second"
    doc["filter"]["enabled"] = False
    doc["noise"]["enabled"] = False
    return doc


def _max_rel_dev(csv_path: Path, expected_rows) -> float:
    got = np.loadtxt(csv_path, delimiter=",", skiprows=1, ndmin=2)
    want = np.array(list(expected_rows), dtype=float)
    assert got.shape == want.shape
    return float(np.max(np.abs(got - want) / np.maximum(1.0, np.abs(want))))


def _run(tmp_path, command: str, doc: dict) -> Path:
    config, out = tmp_path / "config.yaml", tmp_path / "out.csv"
    config.write_text(yaml.safe_dump(doc, sort_keys=False))
    assert cli.main([command, "--config", str(config), "--out", str(out)]) == cli.EXIT_OK
    return out


def _report(capsys, what: str, deviation: float) -> None:
    with capsys.disabled():
        print(f"\n{what}: max relative deviation from perfbench/reference.py {deviation:.3g}")


def _constant_with_estimate() -> dict:
    # the shipped initial_estimate equals the first measurement, so the filter's
    # innovation is 0 at every tick; this one starts it away from it
    doc = _doc("synthetic_constant.yaml")
    doc["initial_estimate"] = [0.05, -0.03]
    return doc


@pytest.mark.parametrize(
    "name, doc",
    [("synthetic_constant", _doc("synthetic_constant.yaml")),
     ("second-order ramp", _second_order_ramp()),
     ("synthetic_constant, initial_estimate [0.05, -0.03]", _constant_with_estimate())],
    ids=["synthetic_constant", "second_order_ramp", "synthetic_constant_initial_estimate"],
)
def test_closed_loop_csv_matches_reference(tmp_path, capsys, name, doc):
    deviation = _max_rel_dev(_run(tmp_path, "simulate", doc), reference.simulate(doc))
    _report(capsys, f"{name} CSV", deviation)
    assert deviation <= RTOL


def test_paper_trajectory_matches_reference(tmp_path, capsys):
    doc = _doc("paper_experiment.yaml")
    out = _run(tmp_path, "generate-trajectory", doc)
    deviation = _max_rel_dev(out, reference.desired_trajectory(doc))
    _report(capsys, "paper trajectory", deviation)
    assert deviation <= RTOL
