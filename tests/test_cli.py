"""Contract tests for the command line: exit codes 0/1/2/3 and one-line errors."""

import math
import os
import subprocess
import sys
from pathlib import Path

import pytest
import yaml

import ftsmfc
from ftsmfc import cli, sim_harness
from ftsmfc.sim_harness import PropertyResult

CONFIGS = Path(__file__).resolve().parents[1] / "configs"


def _doc(name: str, **top) -> dict:
    with open(CONFIGS / name) as fh:
        doc = yaml.safe_load(fh)
    doc.update(top)
    return doc


def _write(tmp_path, doc: dict, name: str = "config.yaml") -> str:
    path = tmp_path / name
    path.write_text(yaml.safe_dump(doc, sort_keys=False))
    return str(path)


def _main(capsys, *argv):
    rc = cli.main(list(argv))
    out, err = capsys.readouterr()
    return rc, out, err


def _one_line(err: str, prefix: str) -> str:
    assert "Traceback" not in err
    lines = err.splitlines()
    assert len(lines) == 1, err
    assert lines[0].startswith(prefix), err
    return lines[0]


def _short_constant(**top) -> dict:
    doc = _doc("synthetic_constant.yaml", T=0.5)
    doc["metrics"]["settle_time"] = 0.2
    doc.update(top)
    return doc


class TestSimulate:
    def test_ok(self, tmp_path, capsys):
        out_csv = str(tmp_path / "run.csv")
        rc, out, err = _main(
            capsys, "simulate", "--config", _write(tmp_path, _short_constant()), "--out", out_csv
        )
        assert (rc, err) == (cli.EXIT_OK, "")
        assert out.strip() == f"wrote 51 records to {out_csv}"
        assert os.path.getsize(out_csv + ".metrics") > 0

    def test_misspelt_section_is_config_error(self, tmp_path, capsys):
        doc = _short_constant()
        doc["controler"] = doc.pop("controller")
        rc, _, err = _main(
            capsys, "simulate", "--config", _write(tmp_path, doc),
            "--out", str(tmp_path / "run.csv"),
        )
        assert rc == cli.EXIT_CONFIG
        assert "'controler'" in _one_line(err, "config error:")

    @pytest.mark.parametrize(
        "G", [[[1.0, 2.0], [2.0, 4.0]], [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]]],
        ids=["singular", "wide"],
    )
    def test_bad_controller_G_is_config_error(self, tmp_path, capsys, G):
        doc = _short_constant()
        doc["controller"]["G"] = G
        rc, _, err = _main(
            capsys, "simulate", "--config", _write(tmp_path, doc),
            "--out", str(tmp_path / "run.csv"),
        )
        assert rc == cli.EXIT_CONFIG
        assert "controller.G" in _one_line(err, "config error:")

    def test_three_output_plant_is_config_error(self, tmp_path, capsys):
        doc = _short_constant()
        doc["plant"]["spec"]["n"] = 3
        rc, _, err = _main(
            capsys, "simulate", "--config", _write(tmp_path, doc),
            "--out", str(tmp_path / "run.csv"),
        )
        assert rc == cli.EXIT_CONFIG
        _one_line(err, "config error: plant")

    def test_unparsable_yaml_is_one_line(self, tmp_path, capsys):
        path = tmp_path / "broken.yaml"
        path.write_text("dt: [0.01\nT: 1.0\n")
        rc, _, err = _main(capsys, "simulate", "--config", str(path), "--out", "unused.csv")
        assert rc == cli.EXIT_CONFIG
        _one_line(err, "config error: cannot parse")

    def test_missing_config_file(self, tmp_path, capsys):
        rc, _, err = _main(
            capsys, "simulate", "--config", str(tmp_path / "absent.yaml"), "--out", "unused.csv"
        )
        assert rc == cli.EXIT_CONFIG
        _one_line(err, "config error: cannot read")

    def test_divergence_is_numerical_failure(self, tmp_path, capsys):
        rc, _, err = _main(
            capsys, "simulate", "--config", str(CONFIGS / "paper_experiment.yaml"),
            "--out", str(tmp_path / "run.csv"),
        )
        assert rc == cli.EXIT_NUMERICAL
        assert _one_line(err, "numerical failure:").endswith("diverged at step 113")

    def test_non_finite_signal_is_numerical_failure(self, tmp_path, capsys):
        # the scripted disturbance is NaN, so the first per-tick update that
        # sees it raises DomainError
        doc = _short_constant()
        doc["plant"]["spec"]["const"] = [math.nan, 0.0]
        rc, _, err = _main(
            capsys, "simulate", "--config", _write(tmp_path, doc),
            "--out", str(tmp_path / "run.csv"),
        )
        assert rc == cli.EXIT_NUMERICAL
        assert "non-finite" in _one_line(err, "numerical failure:")

    def test_entry_point_prints_no_traceback(self, tmp_path):
        doc = _short_constant()
        doc["controler"] = doc.pop("controller")
        src = str(Path(ftsmfc.__file__).resolve().parents[1])
        env = {**os.environ, "PYTHONPATH": src}
        proc = subprocess.run(
            [sys.executable, "-m", "ftsmfc.cli", "simulate",
             "--config", _write(tmp_path, doc), "--out", str(tmp_path / "run.csv")],
            capture_output=True, text=True, env=env, timeout=60,
        )
        assert proc.returncode == cli.EXIT_CONFIG
        _one_line(proc.stderr, "config error:")


class TestGenerateTrajectory:
    def test_ok(self, tmp_path, capsys):
        out_csv = tmp_path / "traj.csv"
        config = _write(tmp_path, _doc("paper_experiment.yaml", T=1.0))
        rc, out, err = _main(capsys, "generate-trajectory", "--config", config, "--out", str(out_csv))
        assert (rc, err) == (cli.EXIT_OK, "")
        assert out.strip() == f"wrote 101 samples to {out_csv}"
        assert out_csv.read_text().splitlines()[0] == "t,x_d,theta_d"

    def test_unknown_key_is_config_error(self, tmp_path, capsys):
        doc = _doc("paper_experiment.yaml", T=1.0)
        doc["trajectory"]["int"] = doc["trajectory"].pop("init")
        rc, _, err = _main(
            capsys, "generate-trajectory", "--config", _write(tmp_path, doc),
            "--out", str(tmp_path / "traj.csv"),
        )
        assert rc == cli.EXIT_CONFIG
        assert "'trajectory.int'" in _one_line(err, "config error:")

    def test_divergence_is_numerical_failure(self, tmp_path, capsys):
        doc = _doc("paper_experiment.yaml", T=1.0)
        doc["trajectory"]["init"] = [0.0, 0.0, 1.0e9, 0.0]
        rc, _, err = _main(
            capsys, "generate-trajectory", "--config", _write(tmp_path, doc),
            "--out", str(tmp_path / "traj.csv"),
        )
        assert rc == cli.EXIT_NUMERICAL
        assert "diverged" in _one_line(err, "numerical failure:")


class TestVerify:
    def test_passing_suite(self, capsys):
        rc, out, err = _main(capsys, "verify", "--suite", "rho")
        assert (rc, err) == (cli.EXIT_OK, "")
        assert out.startswith("suite rho: PASS")

    def test_failing_suite(self, capsys, monkeypatch):
        monkeypatch.setitem(
            sim_harness._SUITES, "rho", lambda rng: [PropertyResult("always fails", 1, 1.0, False)]
        )
        rc, out, err = _main(capsys, "verify", "--suite", "rho")
        assert (rc, err) == (cli.EXIT_VERIFY, "")
        assert out.startswith("suite rho: FAIL")
        assert "[FAIL] always fails" in out


class TestSweep:
    def test_ok(self, tmp_path, capsys):
        out_dir = tmp_path / "sweep"
        rc, out, err = _main(
            capsys, "sweep", "--config", _write(tmp_path, _short_constant()),
            "--param", "controller.scale", "--values", "0.2,0.5", "--out", str(out_dir),
        )
        assert (rc, err) == (cli.EXIT_OK, "")
        assert len(out.splitlines()) == 2
        metrics = (out_dir / "run_001_0.5.csv.metrics").read_text()
        assert metrics.startswith("# controller.scale = 0.5\n")

    def test_misspelt_param_is_config_error(self, tmp_path, capsys):
        rc, _, err = _main(
            capsys, "sweep", "--config", _write(tmp_path, _short_constant()),
            "--param", "controller.scal", "--values", "0.2", "--out", str(tmp_path / "sweep"),
        )
        assert rc == cli.EXIT_CONFIG
        assert "'controller.scal'" in _one_line(err, "config error:")

    def test_unparsable_value_is_config_error(self, tmp_path, capsys):
        rc, _, err = _main(
            capsys, "sweep", "--config", _write(tmp_path, _short_constant()),
            "--param", "controller.G", "--values", "[[1, 0]", "--out", str(tmp_path / "sweep"),
        )
        assert rc == cli.EXIT_CONFIG
        _one_line(err, "config error: --values")

    def test_divergence_is_numerical_failure(self, tmp_path, capsys):
        rc, _, err = _main(
            capsys, "sweep", "--config", str(CONFIGS / "paper_experiment.yaml"),
            "--param", "controller.scale", "--values", "0.35", "--out", str(tmp_path / "sweep"),
        )
        assert rc == cli.EXIT_NUMERICAL
        _one_line(err, "numerical failure:")
