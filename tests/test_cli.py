"""Contract tests for the command line: exit codes 0/1/2/3 and one-line errors."""

import copy
import errno
import functools
import hashlib
import math
import os
import stat
import subprocess
import sys
import time
from pathlib import Path

import pytest
import yaml
from conftest import assert_no_child_left

import ftsmfc
from ftsmfc import cli, config, plant_models, sim_harness, verify
from ftsmfc.verify import PropertyResult

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

    @pytest.mark.parametrize("metrics_out", ["r.txt", "./r.txt"])
    def test_metrics_out_naming_the_csv_is_config_error(
        self, tmp_path, capsys, monkeypatch, metrics_out
    ):
        # the metrics would overwrite the CSV: refused before the run, no file written
        config_path = _write(tmp_path, _short_constant())
        monkeypatch.chdir(tmp_path)
        rc, out, err = _main(capsys, "simulate", "--config", config_path, "--out", "r.txt",
                             "--metrics-out", metrics_out)
        assert (rc, out) == (cli.EXIT_CONFIG, "")
        assert _one_line(err, "config error:") == (
            f"config error: --metrics-out {metrics_out} names the --out file")
        assert sorted(os.listdir(tmp_path)) == ["config.yaml"]

    def test_unwritable_metrics_out_leaves_no_csv(self, tmp_path, capsys):
        out_csv = tmp_path / "run.csv"
        rc, out, err = _main(
            capsys, "simulate", "--config", _write(tmp_path, _short_constant()),
            "--out", str(out_csv), "--metrics-out", str(tmp_path / "no" / "such" / "m.txt"),
        )
        assert (rc, out) == (cli.EXIT_CONFIG, "")
        assert "No such file or directory" in _one_line(err, "output error:")
        assert not out_csv.exists()

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
        "G",
        [[[1.0, 2.0], [2.0, 4.0]], [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]],
         # determinants that underflow to 0 (a division by zero in the solve)
         # and overflow to inf (every input 0)
         [[1e-300, 0.0], [0.0, 1e-300]], [[1e300, 0.0], [0.0, 1e300]]],
        ids=["singular", "wide", "det-underflow", "det-overflow"],
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
        assert "unknown config key 'plant.spec.n'" in _one_line(err, "config error:")

    @pytest.mark.parametrize(
        "plant, message",
        [({"kind": "chirp"}, "plant.kind: unknown value 'chirp'"),
         ({"spec": {"slope": [0.1, 0.0]}}, "unknown config key 'plant.spec.slope'"),
         ({"kind": "ramp"}, "unknown config key 'plant.spec.const'")],
        ids=["unknown-kind", "constant-with-slope", "ramp-with-const"],
    )
    def test_plant_kind_and_spec_keys_checked(self, tmp_path, capsys, plant, message):
        doc = _short_constant()
        doc["plant"]["kind"] = plant.get("kind", "constant")
        doc["plant"]["spec"].update(plant.get("spec", {}))
        rc, _, err = _main(
            capsys, "simulate", "--config", _write(tmp_path, doc),
            "--out", str(tmp_path / "run.csv"),
        )
        assert rc == cli.EXIT_CONFIG
        assert message in _one_line(err, "config error:")

    def test_unparsable_yaml_is_one_line(self, tmp_path, capsys):
        path = tmp_path / "broken.yaml"
        path.write_text("dt: [0.01\nT: 1.0\n")
        rc, _, err = _main(capsys, "simulate", "--config", str(path), "--out", "unused.csv")
        assert rc == cli.EXIT_CONFIG
        _one_line(err, "config error: cannot parse")

    @pytest.mark.parametrize("line, declined", [
        ("  law: 'fts'", "'fts'"),
        ("  law: 'f  ts'", "'f  ts'"),  # stderr keeps both spaces
        ("  law: {name: fts}", "{name: fts}"),
        ("  law: &law fts", "&law fts"),
    ], ids=["quoted-scalar", "quoted-spaces", "flow-mapping", "anchor"])
    def test_text_outside_the_block_subset_is_one_line(self, tmp_path, capsys, line, declined):
        # block_yaml is the one reader: what it declines is exit 1, naming the text and its line
        path = tmp_path / "config.yaml"
        text = (CONFIGS / "synthetic_constant.yaml").read_text()
        lines = text.splitlines()
        number = lines.index("  law: fts") + 1
        lines[number - 1] = line
        path.write_text("\n".join(lines))
        rc, _, err = _main(capsys, "simulate", "--config", str(path),
                           "--out", str(tmp_path / "run.csv"))
        assert rc == cli.EXIT_CONFIG
        assert _one_line(err, "config error:") == (
            f"config error: cannot parse config file {path}: line {number}: {declined!r} "
            "is outside the YAML subset ftsmfc reads")
        assert not (tmp_path / "run.csv").exists()

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

    def test_diverging_run_generates_only_the_samples_it_reads(
        self, tmp_path, capsys, monkeypatch
    ):
        # the plant diverges at tick 113, whose input reads y_d[113 + nu]; the
        # generator takes one step for each of y_2 .. y_{113 + nu}
        steps = []
        open_loop_input = plant_models.open_loop_input

        def counted(*args):
            steps.append(1)
            return open_loop_input(*args)

        monkeypatch.setattr(plant_models, "open_loop_input", counted)
        rc, _, err = _main(
            capsys, "simulate", "--config", str(CONFIGS / "paper_experiment.yaml"),
            "--out", str(tmp_path / "run.csv"),
        )
        assert rc == cli.EXIT_NUMERICAL
        assert _one_line(err, "numerical failure:").endswith("plant diverged at step 113")
        assert len(steps) == 113 + plant_models.PendulumPlant.nu - 1

    def test_generated_trajectory_divergence_is_numerical_failure(self, tmp_path, capsys):
        # y_d[k] = (k * 4e5, 0) leaves the admissible region at sample 3, which
        # tick 1 reads before the plant has gone that far
        doc = _doc("paper_experiment.yaml", T=1.0)
        doc["trajectory"]["init"] = [0.0, 0.0, 4.0e7, 0.0]
        rc, _, err = _main(
            capsys, "simulate", "--config", _write(tmp_path, doc),
            "--out", str(tmp_path / "run.csv"),
        )
        assert rc == cli.EXIT_NUMERICAL
        assert _one_line(err, "numerical failure:").endswith(
            "trajectory generation diverged at step 3"
        )

    def test_boolean_number_is_config_error(self, tmp_path, capsys):
        # YAML reads `yes` as true, and a bool is no horizon
        config = tmp_path / "config.yaml"
        config.write_text(yaml.safe_dump(_short_constant(), sort_keys=False).replace(
            "\nT: 0.5\n", "\nT: yes\n"
        ))
        rc, _, err = _main(
            capsys, "simulate", "--config", str(config), "--out", str(tmp_path / "run.csv")
        )
        assert rc == cli.EXIT_CONFIG
        assert _one_line(err, "config error:") == "config error: T: expected a number, got True"

    def test_non_finite_signal_is_numerical_failure(self, tmp_path, capsys, monkeypatch):
        # a NaN in the config is a config error, so the plant's scripted
        # disturbance turns NaN here; the first per-tick update that sees it
        # raises DomainError
        monkeypatch.setattr(
            plant_models.SyntheticUlmPlant, "true_F", lambda self, k: [math.nan, 0.0]
        )
        rc, _, err = _main(
            capsys, "simulate", "--config", _write(tmp_path, _short_constant()),
            "--out", str(tmp_path / "run.csv"),
        )
        assert rc == cli.EXIT_NUMERICAL
        assert "non-finite" in _one_line(err, "numerical failure:")

    @pytest.mark.parametrize(
        "kind, key, value, message",
        [("constant", "const", [math.nan, 0.0], "not a finite number"),
         ("constant", "const", ["1e400", 0.0], "not a finite number"),
         ("constant", "G", [[math.inf, 0.0], [0.0, 1.0]], "not a finite number"),
         ("constant", "nu", 2.5, "expected an integer"),
         ("ramp", "slope", [math.inf, 0.0], "not a finite number"),
         ("constant", "y_init", [[math.nan, 0.0]], "not a finite number"),
         # a window this long cannot be allocated: checked before the plant is built
         ("constant", "nu", 10**12, "expected 1 to 10000000")],
        ids=["const-nan", "const-overflow", "G-inf", "nu-float", "slope-inf", "y_init-nan",
             "nu-huge"],
    )
    def test_bad_plant_spec_number_is_config_error(
        self, tmp_path, capsys, kind, key, value, message
    ):
        doc = _short_constant()
        doc["plant"]["kind"] = kind
        spec = doc["plant"]["spec"]
        if kind == "ramp":
            del spec["const"]  # a ramp reads slope, not const
        spec[key] = value
        rc, _, err = _main(
            capsys, "simulate", "--config", _write(tmp_path, doc),
            "--out", str(tmp_path / "run.csv"),
        )
        assert rc == cli.EXIT_CONFIG
        line = _one_line(err, "config error:")
        assert f"plant.spec.{key}" in line and message in line

    @pytest.mark.parametrize(
        "old, new, message",
        [("\nT: 0.5\n", "\nT: 0.5\nT: 0.6\n", "repeated key 'T'"),
         ("\n  scale: 0.35\n", "\n  scale: 0.35\n  scale: 0.5\n", "repeated key 'scale'")],
        ids=["top-level", "nested"],
    )
    def test_repeated_key_is_config_error(self, tmp_path, capsys, old, new, message):
        # YAML would let the second value win
        text = yaml.safe_dump(_short_constant(), sort_keys=False)
        assert old in text
        text = text.replace(old, new)
        config = tmp_path / "config.yaml"
        config.write_text(text)
        rc, _, err = _main(
            capsys, "simulate", "--config", str(config), "--out", str(tmp_path / "run.csv")
        )
        assert rc == cli.EXIT_CONFIG
        line = text.splitlines().index(new.strip("\n").splitlines()[1]) + 1
        assert _one_line(err, "config error:") == (
            f"config error: cannot parse config file {config}: {message} at line {line}")

    def test_non_finite_initial_state_is_config_error(self, tmp_path, capsys):
        doc = _doc("paper_experiment.yaml", T=1.0, initial_state=[math.nan, 0.0, 0.0, 0.0])
        rc, _, err = _main(
            capsys, "simulate", "--config", _write(tmp_path, doc),
            "--out", str(tmp_path / "run.csv"),
        )
        assert rc == cli.EXIT_CONFIG
        assert "initial_state" in _one_line(err, "config error:")

    def test_removed_random_walk_kind_is_config_error(self, tmp_path, capsys):
        # every synthetic plant is a closed form of its script's pairs
        doc = _short_constant()
        doc["plant"] = {"kind": "random-walk", "spec": {"G": [[1, 0], [0, 1]], "bound": 0.01,
                                                        "seed": 3}}
        out_csv = tmp_path / "run.csv"
        rc, out, err = _main(capsys, "simulate", "--config", _write(tmp_path, doc),
                             "--out", str(out_csv))
        assert (rc, out) == (cli.EXIT_CONFIG, "")
        assert _one_line(err, "config error:") == (
            "config error: plant.kind: unknown value 'random-walk'; "
            "choose from pendulum, constant, ramp, sinusoid")
        assert not out_csv.exists()

    @pytest.mark.parametrize(
        "spec, message",
        [(None, "missing required key 'plant.spec.G'"),
         ([0.3, -0.2], "plant.spec: expected a mapping"),
         ({"G": [[1.0, 0.0], [0.0, 1.0]]}, "missing required key 'plant.spec.const'")],
        ids=["null", "list", "no-const"],
    )
    def test_bad_plant_spec_is_config_error(self, tmp_path, capsys, spec, message):
        doc = _short_constant()
        doc["plant"]["spec"] = spec
        rc, _, err = _main(
            capsys, "simulate", "--config", _write(tmp_path, doc),
            "--out", str(tmp_path / "run.csv"),
        )
        assert rc == cli.EXIT_CONFIG
        assert message in _one_line(err, "config error:")

    def test_null_pendulum_params_keep_defaults(self, tmp_path, capsys):
        doc = _doc("paper_experiment.yaml", T=1.0)
        paths = []
        for name, params in (("given", doc["plant"]["params"]), ("null", None)):
            doc["plant"]["params"] = params
            paths.append(tmp_path / f"{name}.csv")
            rc, _, err = _main(
                capsys, "generate-trajectory", "--config", _write(tmp_path, doc),
                "--out", str(paths[-1]),
            )
            assert (rc, err) == (cli.EXIT_OK, "")
        assert paths[0].read_bytes() == paths[1].read_bytes()

    def test_missing_controller_G_is_config_error(self, tmp_path, capsys):
        doc = _short_constant()
        del doc["controller"]["G"]
        rc, _, err = _main(
            capsys, "simulate", "--config", _write(tmp_path, doc),
            "--out", str(tmp_path / "run.csv"),
        )
        assert rc == cli.EXIT_CONFIG
        assert "'controller.G'" in _one_line(err, "config error:")

    def test_horizon_within_settle_time_is_config_error(self, tmp_path, capsys):
        doc = _short_constant()
        doc["metrics"]["settle_time"] = doc["T"]
        out_csv = tmp_path / "run.csv"
        rc, _, err = _main(
            capsys, "simulate", "--config", _write(tmp_path, doc), "--out", str(out_csv)
        )
        assert rc == cli.EXIT_CONFIG
        assert "settle_time" in _one_line(err, "config error:")
        assert not out_csv.exists()  # the metrics are computed before the CSV is written
        assert not os.path.exists(str(out_csv) + ".metrics")

    @pytest.mark.parametrize("key, value", [("noise.base_freqs", [1e308, 1e308]),
                                            ("noise.fm_freqs", [1e308, 1.0]),
                                            ("plant.spec.freq", [1e308, 1.0])])
    def test_phase_that_overflows_is_config_error(self, tmp_path, capsys, key, value):
        # each value is finite, but past t = 1.8 s (or tick 2 of the sinusoid
        # plant) the sine's argument is inf, and math.sin(inf) raises
        doc = _short_constant(T=3.0)
        if key == "plant.spec.freq":
            doc["plant"] = {"kind": "sinusoid", "spec": {
                "amplitude": [0.3, 0.2], "freq": value, "G": doc["plant"]["spec"]["G"]}}
        else:
            doc["noise"][key.split(".")[1]] = value
        out_csv = tmp_path / "run.csv"
        rc, _, err = _main(
            capsys, "simulate", "--config", _write(tmp_path, doc), "--out", str(out_csv)
        )
        assert rc == cli.EXIT_CONFIG
        assert _one_line(err, "config error:").startswith(f"config error: {key}: the phase ")
        assert not out_csv.exists()

    def test_unwritable_out_is_exit_1(self, tmp_path, capsys):
        # the same line on every run: it names --out, not a random temporary file
        out_csv = str(tmp_path / "absent" / "run.csv")
        config = _write(tmp_path, _short_constant())
        lines = []
        for _ in range(2):
            rc, _, err = _main(capsys, "simulate", "--config", config, "--out", out_csv)
            assert rc == cli.EXIT_CONFIG
            lines.append(_one_line(err, "output error:"))
        assert lines[0] == lines[1] == (
            f"output error: [Errno {errno.ENOENT}] {os.strerror(errno.ENOENT)}: {out_csv!r}")

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

    def test_file_source_reads_generated_file(self, tmp_path, capsys):
        # the file a slightly longer generate-trajectory run writes drives the
        # loop exactly as the generated trajectory does
        doc = _doc("paper_experiment.yaml", T=1.05)
        traj_csv = str(tmp_path / "traj.csv")
        rc, _, err = _main(
            capsys, "generate-trajectory", "--config", _write(tmp_path, doc, "long.yaml"),
            "--out", traj_csv,
        )
        assert (rc, err) == (cli.EXIT_OK, "")
        doc["T"] = 1.0
        doc["metrics"]["settle_time"] = 0.5
        payloads = []
        for source in ({"source": "generated"}, {"source": "file", "path": traj_csv}):
            doc["trajectory"] = {**doc["trajectory"], **source}
            out_csv = tmp_path / f"{source['source']}.csv"
            rc, _, err = _main(
                capsys, "simulate", "--config", _write(tmp_path, doc), "--out", str(out_csv)
            )
            assert (rc, err) == (cli.EXIT_OK, "")
            payloads.append(out_csv.read_bytes())
        assert payloads[0] == payloads[1]

    def test_unwritable_out_is_exit_1(self, tmp_path, capsys):
        rc, _, err = _main(
            capsys, "generate-trajectory",
            "--config", _write(tmp_path, _doc("paper_experiment.yaml", T=1.0)),
            "--out", str(tmp_path / "absent" / "traj.csv"),
        )
        assert rc == cli.EXIT_CONFIG
        _one_line(err, "output error:")

    def test_unknown_key_is_config_error(self, tmp_path, capsys):
        doc = _doc("paper_experiment.yaml", T=1.0)
        doc["trajectory"]["int"] = doc["trajectory"].pop("init")
        rc, _, err = _main(
            capsys, "generate-trajectory", "--config", _write(tmp_path, doc),
            "--out", str(tmp_path / "traj.csv"),
        )
        assert rc == cli.EXIT_CONFIG
        assert "'trajectory.int'" in _one_line(err, "config error:")

    def test_synthetic_plant_is_config_error(self, tmp_path, capsys):
        # the trajectory generator propagates the pendulum, so it needs one
        out_csv = tmp_path / "traj.csv"
        rc, _, err = _main(
            capsys, "generate-trajectory",
            "--config", str(CONFIGS / "synthetic_constant.yaml"), "--out", str(out_csv),
        )
        assert rc == cli.EXIT_CONFIG
        assert "plant.kind" in _one_line(err, "config error:")
        assert not out_csv.exists()

    def test_divergence_is_numerical_failure(self, tmp_path, capsys):
        doc = _doc("paper_experiment.yaml", T=1.0)
        doc["trajectory"]["init"] = [0.0, 0.0, 1.0e9, 0.0]
        rc, _, err = _main(
            capsys, "generate-trajectory", "--config", _write(tmp_path, doc),
            "--out", str(tmp_path / "traj.csv"),
        )
        assert rc == cli.EXIT_NUMERICAL
        assert "diverged" in _one_line(err, "numerical failure:")


@pytest.mark.parametrize("command", ["simulate", "generate-trajectory"])
def test_non_finite_open_loop_input_is_numerical_failure(tmp_path, capsys, command):
    # y_1 = y_0 + dt * thetadot_0 overflows to inf, so the generator's second
    # input is NaN; the plant's divergence test ends the run, not a traceback
    doc = _doc("paper_experiment.yaml", dt=10)
    doc["controller"]["G_times_dt"] = False
    doc["trajectory"]["init"] = [0, 0, 0, 1e308]
    doc["metrics"]["settle_time"] = 0
    out_csv = tmp_path / "out.csv"
    rc, _, err = _main(capsys, command, "--config", _write(tmp_path, doc), "--out", str(out_csv))
    assert rc == cli.EXIT_NUMERICAL
    assert _one_line(err, "numerical failure:").endswith("trajectory generation diverged at step 2")
    assert not out_csv.exists()


# The front door: each numeric leaf of a config set to each of these values
EDGE_VALUES = (0, -1, 1e-300, 1e300, 1e308)
# One spec a synthetic kind, with every key its kind reads; the sinusoid has nu = 2
SWEPT_SPECS = {
    "constant": {"const": [0.3, -0.2], "nu": 1, "y_init": [0.1, -0.1]},
    "ramp": {"slope": [0.0013, -0.0007], "nu": 1, "y_init": [0.1, -0.1]},
    "sinusoid": {"amplitude": [0.3, 0.2], "freq": [0.5, 0.25], "nu": 2,
                 "y_init": [[0.1, -0.1], [0.2, 0.05]]},
}


def _numeric_leaves(node, path=()):
    """The key paths of node's numbers, list entries and fraction strings included."""
    items = node.items() if isinstance(node, dict) else enumerate(node)
    for key, value in items:
        if isinstance(value, (dict, list)):
            yield from _numeric_leaves(value, path + (key,))
        elif isinstance(value, (int, float, str)) and not isinstance(value, bool):
            if not isinstance(value, str) or value.replace("/", "", 1).isdecimal():
                yield path + (key,)


@pytest.mark.parametrize("kind", ["pendulum"] + list(SWEPT_SPECS))
def test_front_door_sweep(tmp_path, capsys, kind):
    # each numeric leaf at each edge value: simulate returns 0, 1 or 2 and raises
    # nothing, a failure prints one stderr line, and a config error writes no CSV.
    # The leaves are those of the whole config on the pendulum and the constant
    # plant, and of the spec on the other kinds.  T = 2 reaches past t = 1.8 s,
    # where a sine's argument at 1e308 overflows; the pendulum config diverges at
    # t = 1.13 s, so the constant plant's run is the one that gets there.
    if kind == "pendulum":
        base = _doc("paper_experiment.yaml", T=2)
        leaves = list(_numeric_leaves(base))
    else:
        base = _doc("synthetic_constant.yaml", T=2)
        base["plant"] = {"kind": kind, "spec": {"G": base["controller"]["G"], **SWEPT_SPECS[kind]}}
        leaves = [path for path in _numeric_leaves(base)
                  if kind == "constant" or path[:2] == ("plant", "spec")]
    base["metrics"]["settle_time"] = 1
    dumper = getattr(yaml, "CSafeDumper", yaml.SafeDumper)
    config, out_csv = tmp_path / "config.yaml", tmp_path / "run.csv"
    failures = []
    for path in leaves:
        for value in EDGE_VALUES:
            doc = copy.deepcopy(base)
            node = doc
            for key in path[:-1]:
                node = node[key]
            node[path[-1]] = value
            config.write_text(yaml.dump(doc, Dumper=dumper))
            case = f"{'.'.join(map(str, path))}={value!r}"
            try:
                rc, _, err = _main(capsys, "simulate", "--config", str(config),
                                   "--out", str(out_csv))
            except Exception as exc:
                failures.append(f"{case}: raised {exc!r}")
                continue
            if rc not in (cli.EXIT_OK, cli.EXIT_CONFIG, cli.EXIT_NUMERICAL):
                failures.append(f"{case}: exit {rc}")
            if rc != cli.EXIT_OK and (len(err.splitlines()) != 1 or "Traceback" in err):
                failures.append(f"{case}: stderr {err!r}")
            if rc == cli.EXIT_CONFIG and out_csv.exists():
                failures.append(f"{case}: exit 1 left {out_csv.name}")
            for left in (out_csv, tmp_path / "run.csv.metrics"):
                left.unlink(missing_ok=True)
    assert len(leaves) >= 9 and not failures, "\n".join(failures)


def _sha256(path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


class TestRegressionAnchors:
    """SHA-256 of outputs that refactors of the loop must leave byte-identical.

    Re-pinned once when the kernel moved from NumPy 2-vectors to pairs of
    floats; TestReferenceAgreement bounds how far those bytes may move.
    """

    def test_synthetic_constant_csv(self, tmp_path, capsys):
        out_csv = tmp_path / "run.csv"
        rc, _, err = _main(
            capsys, "simulate", "--config", str(CONFIGS / "synthetic_constant.yaml"),
            "--out", str(out_csv),
        )
        assert (rc, err) == (cli.EXIT_OK, "")
        assert _sha256(out_csv) == (
            "9fadc31439f76efe0f454e499bd8d358f6fd2794c5e3cf8a34d3a78970024d62"
        )

    def test_paper_trajectory_csv(self, tmp_path, capsys):
        out_csv = tmp_path / "traj.csv"
        rc, _, err = _main(
            capsys, "generate-trajectory", "--config", str(CONFIGS / "paper_experiment.yaml"),
            "--out", str(out_csv),
        )
        assert (rc, err) == (cli.EXIT_OK, "")
        assert _sha256(out_csv) == (
            "14763c2bb908c3179fc26546755d8412741c9fe54b5f071ac4357402cbcf6555"
        )

    def test_second_order_ramp_csv(self, tmp_path, capsys):
        # the second-order observer and the basic law, with filter and noise off
        doc = _doc("synthetic_constant.yaml")
        doc["plant"] = {"kind": "ramp", "spec": {
            "slope": [0.0013, -0.0007], "G": doc["plant"]["spec"]["G"], "nu": 2,
        }}
        doc["controller"]["law"] = "basic"
        doc["observer"]["order"] = "second"
        doc["filter"]["enabled"] = False
        doc["noise"]["enabled"] = False
        out_csv = tmp_path / "run.csv"
        rc, _, err = _main(
            capsys, "simulate", "--config", _write(tmp_path, doc), "--out", str(out_csv)
        )
        assert (rc, err) == (cli.EXIT_OK, "")
        assert _sha256(out_csv) == (
            "1930b99805e4f5f9b99396b9102f242e9415ae419105499bcfd2dab9c80c96f8"
        )


# `ftsmfc verify --suite S` stdout for the suites that take about a second in all
FAST_SUITES_STDOUT = (
    "suite control: PASS\n"
    "  [pass] basic-law identity e_y = -e_F: samples=20 worst_margin=4.44089e-16\n"
    "  [pass] feedback-law error dynamics: samples=20 worst_margin=6.66134e-16\n"
    "  [pass] perfect-estimate convergence below 1e-9: samples=20 worst_margin=9.99854e-10\n"
    "suite gamma: PASS\n"
    "  [pass] gamma identity vs (1-D^2)V^a: samples=1000000 worst_margin=3.26524e-13\n"
    "  [pass] public-function cross-check: samples=100 worst_margin=2.77556e-16\n"
    "  [pass] gamma boundary equals scale: samples=1000 worst_margin=7.52642e-16\n"
    "suite holder: PASS\n"
    "  [pass] recursion traces are Holder-continuous: samples=200 worst_margin=0\n"
    "suite lemma1: PASS\n"
    "  [pass] recursion reaches exactly 0: samples=300 worst_margin=302789"
    " (margin is the largest step count)\n"
    "  [pass] traces satisfy the decrement/gain conditions: samples=300 worst_margin=0\n"
    "suite rho: PASS\n"
    "  [pass] stable vs quotient form: samples=1000000 worst_margin=7.74936e-14\n"
    "  [pass] range [1,2]: samples=1000000 worst_margin=0\n"
    "  [pass] rho at gain 0 equals 1: samples=1 worst_margin=0\n"
)


class TestVerify:
    def test_fast_suites_pinned(self, capsys):
        out = ""
        for suite in ("control", "gamma", "holder", "lemma1", "rho"):
            rc, stdout, err = _main(capsys, "verify", "--suite", suite)
            assert (rc, err) == (cli.EXIT_OK, "")
            out += stdout
        assert out == FAST_SUITES_STDOUT
        assert hashlib.sha256(out.encode()).hexdigest() == (
            "760f910b8e442e47b162db15162e5f53533877b4bcf95b5dcce33d58b270ef16"
        )

    def test_passing_suite(self, capsys):
        rc, out, err = _main(capsys, "verify", "--suite", "rho")
        assert (rc, err) == (cli.EXIT_OK, "")
        assert out.startswith("suite rho: PASS")

    def test_runs_without_the_sim_harness_names(self, capsys, monkeypatch):
        # the CLI takes verify_suite from ftsmfc.verify, not through sim_harness
        monkeypatch.delattr(sim_harness, "verify_suite", raising=False)  # bound by a lookup
        monkeypatch.delattr(sim_harness, "__getattr__")
        rc, out, err = _main(capsys, "verify", "--suite", "rho")
        assert (rc, err) == (cli.EXIT_OK, "")
        assert out.startswith("suite rho: PASS")

    def test_failing_suite(self, capsys, monkeypatch):
        monkeypatch.setitem(
            verify._SUITES, "rho", lambda rng: [PropertyResult("always fails", 1, 1.0, False)]
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

    def test_null_section_takes_a_key(self, tmp_path, capsys):
        # a section written as null reads as empty, so the sweep can set a key in it
        doc = _short_constant(observer=None)
        rc, _, err = _main(
            capsys, "sweep", "--config", _write(tmp_path, doc),
            "--param", "observer.order", "--values", "second", "--out", str(tmp_path / "sweep"),
        )
        assert (rc, err) == (cli.EXIT_OK, "")

    def test_misspelt_param_is_config_error(self, tmp_path, capsys):
        rc, _, err = _main(
            capsys, "sweep", "--config", _write(tmp_path, _short_constant()),
            "--param", "controller.scal", "--values", "0.2", "--out", str(tmp_path / "sweep"),
        )
        assert rc == cli.EXIT_CONFIG
        assert "'controller.scal'" in _one_line(err, "config error:")

    @pytest.mark.parametrize("param, values, message", [
        ("dt.x", "0.2", "config key 'dt.x': 'dt' is not a mapping"),
        ("controller.scale", ",", "--values must list at least one value"),
    ], ids=["scalar-parent", "no-values"])
    def test_bad_param_or_values_is_config_error(self, tmp_path, capsys, param, values, message):
        out_dir = tmp_path / "sweep"
        rc, out, err = _main(
            capsys, "sweep", "--config", _write(tmp_path, _short_constant()),
            "--param", param, "--values", values, "--out", str(out_dir),
        )
        assert (rc, out) == (cli.EXIT_CONFIG, "")
        assert _one_line(err, "config error:") == f"config error: {message}"
        assert not out_dir.exists()

    def test_unparsable_value_is_config_error(self, tmp_path, capsys):
        rc, _, err = _main(
            capsys, "sweep", "--config", _write(tmp_path, _short_constant()),
            "--param", "controller.G", "--values", "[[1, 0]", "--out", str(tmp_path / "sweep"),
        )
        assert rc == cli.EXIT_CONFIG
        _one_line(err, "config error: --values")

    @pytest.mark.parametrize("values", ["0.2,-1", "0.2,["], ids=["unchecked", "unparsable"])
    def test_bad_later_value_writes_nothing(self, tmp_path, capsys, values):
        # every value is read and checked before the first run
        out_dir = tmp_path / "sweep"
        rc, out, err = _main(
            capsys, "sweep", "--config", _write(tmp_path, _short_constant()),
            "--param", "controller.scale", "--values", values, "--out", str(out_dir),
        )
        assert (rc, out) == (cli.EXIT_CONFIG, "")
        _one_line(err, "config error:")
        assert not out_dir.exists()

    def test_value_with_no_settle_window_writes_nothing(self, tmp_path, capsys):
        # a horizon that ends before settle_time leaves no rows for the metrics
        out_dir = tmp_path / "sweep"
        rc, out, err = _main(
            capsys, "sweep", "--config", str(CONFIGS / "synthetic_constant.yaml"),
            "--param", "T", "--values", "21,0.5", "--out", str(out_dir),
        )
        assert (rc, out) == (cli.EXIT_CONFIG, "")
        assert _one_line(err, "config error:") == (
            "config error: no samples after settle_time=20.0 (horizon 0.5)")
        assert not out_dir.exists()

    def test_vector_key(self, tmp_path, capsys):
        # a comma inside [] separates no values
        out_dir = tmp_path / "sweep"
        rc, out, err = _main(
            capsys, "sweep", "--config", _write(tmp_path, _short_constant()),
            "--param", "metrics.bands", "--values", "[0.5, 0.05],[0.004, 0.0004]",
            "--out", str(out_dir),
        )
        assert (rc, err) == (cli.EXIT_OK, "")
        assert len(out.splitlines()) == 2
        wide = (out_dir / "run_000_[0.5, 0.05].csv.metrics").read_text()
        narrow = (out_dir / "run_001_[0.004, 0.0004].csv.metrics").read_text()
        assert wide.startswith("# metrics.bands = [0.5, 0.05]\n")
        assert wide.split("\n", 1)[1] != narrow.split("\n", 1)[1]

    def test_flow_mapping_value_is_config_error(self, tmp_path, capsys):
        rc, out, err = _main(
            capsys, "sweep", "--config", _write(tmp_path, _short_constant()),
            "--param", "controller.scale", "--values", "{a: 1}", "--out", str(tmp_path / "sweep"),
        )
        assert (rc, out) == (cli.EXIT_CONFIG, "")
        assert _one_line(err, "config error:") == (
            "config error: --values: cannot parse '{a: 1}': line 1: '{a: 1}' "
            "is outside the YAML subset ftsmfc reads")
        assert not (tmp_path / "sweep").exists()

    def test_repeated_key_value_is_config_error(self, tmp_path, capsys):
        rc, out, err = _main(
            capsys, "sweep", "--config", _write(tmp_path, _short_constant()),
            "--param", "plant.spec", "--values", "const: [0.1, 0.2]\nconst: [0.3, 0.4]",
            "--out", str(tmp_path / "sweep"),
        )
        assert (rc, out) == (cli.EXIT_CONFIG, "")
        assert _one_line(err, "config error:") == (
            "config error: --values: cannot parse 'const: [0.1, 0.2]\\nconst: [0.3, 0.4]': "
            "repeated key 'const' at line 2")
        assert not (tmp_path / "sweep").exists()

    def test_values_read_by_the_config_loader(self):
        # one YAML loader: sweep values go through config, and cli binds no yaml
        assert not hasattr(cli, "yaml")
        assert config.parse_yaml("[0.1, 2]", "unused") == [0.1, 2]

    def test_unwritable_out_is_exit_1(self, tmp_path, capsys):
        blocker = tmp_path / "file"
        blocker.write_text("")
        rc, _, err = _main(
            capsys, "sweep", "--config", _write(tmp_path, _short_constant()),
            "--param", "controller.scale", "--values", "0.2", "--out", str(blocker / "sweep"),
        )
        assert rc == cli.EXIT_CONFIG
        _one_line(err, "output error:")

    def test_divergence_is_numerical_failure(self, tmp_path, capsys):
        rc, _, err = _main(
            capsys, "sweep", "--config", str(CONFIGS / "paper_experiment.yaml"),
            "--param", "controller.scale", "--values", "0.35", "--out", str(tmp_path / "sweep"),
        )
        assert rc == cli.EXIT_NUMERICAL
        _one_line(err, "numerical failure:")


@pytest.mark.usefixtures("two_cpus")  # the formatting child forks on any host
class TestCsvChild:
    """The forked child that formats the CSV blocks it reads from a pipe: it is
    always reaped, and its failure is one line of output error, exit 1."""

    # 1101 rows: five blocks, which the child formats while the loop runs
    T = 11.0

    def _config(self, tmp_path) -> str:
        return _write(tmp_path, _short_constant(T=self.T))

    def test_no_child_left_after_each_command(self, tmp_path, capsys):
        config = self._config(tmp_path)
        pendulum = _write(tmp_path, _doc("paper_experiment.yaml", T=self.T), "pendulum.yaml")
        for argv in (
            ["simulate", "--config", config, "--out", str(tmp_path / "run.csv")],
            ["generate-trajectory", "--config", pendulum, "--out", str(tmp_path / "traj.csv")],
            ["sweep", "--config", config, "--param", "controller.scale",
             "--values", "0.2,0.5", "--out", str(tmp_path / "sweep")],
        ):
            rc, _, err = _main(capsys, *argv)
            assert (rc, err) == (cli.EXIT_OK, "")
            assert_no_child_left()

    def test_one_cpu_forks_no_child(self, tmp_path, monkeypatch, children):
        # on one CPU a child would only take turns with this process, so it formats
        # every block itself, into the same bytes
        argv = ["simulate", "--config", self._config(tmp_path), "--out"]
        assert cli.main(argv + [str(tmp_path / "forked.csv")]) == cli.EXIT_OK
        assert len(children) == 1
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
        assert cli.main(argv + [str(tmp_path / "alone.csv")]) == cli.EXIT_OK
        assert len(children) == 1
        for suffix in ("", ".metrics"):
            forked, alone = tmp_path / f"forked.csv{suffix}", tmp_path / f"alone.csv{suffix}"
            assert alone.read_bytes() == forked.read_bytes()

    def test_failing_child_is_output_error(self, tmp_path, capsys, monkeypatch):
        parent, block_text = os.getpid(), sim_harness._block_text

        def fails_in_child(columns):
            if os.getpid() != parent:
                raise RuntimeError("formatting failed")
            return block_text(columns)

        monkeypatch.setattr(sim_harness, "_block_text", fails_in_child)
        rc, out, err = _main(capsys, "simulate", "--config", self._config(tmp_path),
                             "--out", str(tmp_path / "run.csv"))
        assert (rc, out) == (cli.EXIT_CONFIG, "")
        _one_line(err, "output error:")
        assert_no_child_left()

    def test_failing_parent_kills_and_reaps_the_child(self, tmp_path, capsys, monkeypatch):
        config, out_csv = self._config(tmp_path), tmp_path / "run.csv"
        assert cli.main(["simulate", "--config", config, "--out", str(out_csv)]) == 0
        capsys.readouterr()
        previous = out_csv.read_bytes()
        parent, block_text, write, calls = (
            os.getpid(), sim_harness._block_text, sim_harness.CsvOutput.write, [])

        def sleeps_in_child(columns):
            if os.getpid() != parent:
                time.sleep(60)  # only a kill ends the child within the bound below
            return block_text(columns)

        def fails_on_the_second_block(self, block):
            calls.append(1)
            if len(calls) == 2:  # the child holds the first block
                raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))
            return write(self, block)

        monkeypatch.setattr(sim_harness, "_block_text", sleeps_in_child)
        monkeypatch.setattr(sim_harness.CsvOutput, "write", fails_on_the_second_block)
        t0 = time.monotonic()
        rc, out, err = _main(capsys, "simulate", "--config", config, "--out", str(out_csv))
        assert time.monotonic() - t0 < 30
        assert (rc, out) == (cli.EXIT_CONFIG, "")
        assert "No space left on device" in _one_line(err, "output error:")
        assert_no_child_left()
        # the file the run before wrote is left as it was, and the temporary file removed
        assert out_csv.read_bytes() == previous
        assert sorted(os.listdir(tmp_path)) == ["config.yaml", "run.csv", "run.csv.metrics"]

    def test_each_line_printed_once_when_stdout_is_a_file(self, tmp_path):
        # a file makes stdout block-buffered (PYTHONUNBUFFERED unset), so a child
        # that flushed the buffer it inherited would print the lines before it twice
        values = ("0.2", "0.35", "0.5")
        src = str(Path(ftsmfc.__file__).resolve().parents[1])
        env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
        stdout, out_dir = tmp_path / "stdout.txt", tmp_path / "sweep"
        with open(stdout, "w") as fh:
            proc = subprocess.run(
                [sys.executable, "-m", "ftsmfc.cli", "sweep", "--config",
                 self._config(tmp_path), "--param", "controller.scale",
                 "--values", ",".join(values), "--out", str(out_dir)],
                stdout=fh, stderr=subprocess.PIPE, text=True,
                env={**env, "PYTHONPATH": src}, timeout=120,
            )
        assert proc.returncode == cli.EXIT_OK, proc.stderr
        assert stdout.read_text().splitlines() == [
            f"controller.scale={v}: wrote {out_dir / f'run_{i:03d}_{v}.csv'}"
            for i, v in enumerate(values)
        ]


@pytest.mark.usefixtures("two_cpus")  # the formatting child forks on any host
class TestParentShare:
    """While the formatting child still has a whole block of floats unread, the
    parent formats the next block itself and sends its text in its place."""

    T = 11.0  # 1101 rows: five blocks

    def test_parent_formats_while_the_child_is_slow(self, tmp_path, capsys, monkeypatch):
        config = _write(tmp_path, _short_constant(T=self.T))
        parent, block_text, in_parent = os.getpid(), sim_harness._block_text, []

        def slow_in_child(columns):
            if os.getpid() == parent:
                in_parent.append(len(columns[0]))
            else:
                time.sleep(0.2)  # the parent sends the next blocks meanwhile
            return block_text(columns)

        monkeypatch.setattr(sim_harness, "_block_text", slow_in_child)
        rc, _, err = _main(capsys, "simulate", "--config", config,
                           "--out", str(tmp_path / "shared.csv"))
        assert (rc, err) == (cli.EXIT_OK, "")
        assert in_parent  # at least one block formatted here, not in the child
        assert_no_child_left()
        monkeypatch.delattr(os, "fork")
        rc, _, err = _main(capsys, "simulate", "--config", config,
                           "--out", str(tmp_path / "alone.csv"))
        assert (rc, err) == (cli.EXIT_OK, "")
        assert (tmp_path / "shared.csv").read_bytes() == (tmp_path / "alone.csv").read_bytes()


class TestFailedWrite:
    """A CSV write that fails leaves --out as it was, opens no metrics file and
    removes its temporary file; a device is never removed."""

    # 1601 rows: seven blocks; the third that a process formats fails
    T = 16.0

    @pytest.fixture
    def enospc_on_third_block(self, monkeypatch):
        block_text, calls = sim_harness._block_text, []

        def fails(columns):
            calls.append(1)
            if len(calls) == 3:
                raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))
            return block_text(columns)

        monkeypatch.setattr(sim_harness, "_block_text", fails)

    @pytest.fixture
    def removed(self, monkeypatch):
        # records what would be removed, and removes nothing
        paths = []
        monkeypatch.setattr(os, "remove", paths.append)
        monkeypatch.setattr(os, "unlink", paths.append)
        return paths

    def _failed(self, capsys, *argv):
        rc, out, err = _main(capsys, *argv)
        assert (rc, out) == (cli.EXIT_CONFIG, "")
        assert "No space left on device" in _one_line(err, "output error:")
        assert_no_child_left()

    def test_simulate(self, tmp_path, capsys, enospc_on_third_block):
        out_csv = tmp_path / "run.csv"
        self._failed(capsys, "simulate", "--config", _write(tmp_path, _short_constant(T=self.T)),
                     "--out", str(out_csv))
        assert sorted(os.listdir(tmp_path)) == ["config.yaml"]

    def test_sweep(self, tmp_path, capsys, enospc_on_third_block):
        out_dir = tmp_path / "sweep"
        self._failed(capsys, "sweep", "--config", _write(tmp_path, _short_constant(T=self.T)),
                     "--param", "controller.scale", "--values", "0.2,0.5", "--out", str(out_dir))
        assert os.listdir(out_dir) == []

    def test_generate_trajectory(self, tmp_path, capsys, enospc_on_third_block):
        doc = _doc("paper_experiment.yaml", T=self.T)
        self._failed(capsys, "generate-trajectory", "--config", _write(tmp_path, doc),
                     "--out", str(tmp_path / "traj.csv"))
        assert sorted(os.listdir(tmp_path)) == ["config.yaml"]

    def test_symbolic_link_out_keeps_its_target(self, tmp_path, capsys, enospc_on_third_block):
        target, link = tmp_path / "target.csv", tmp_path / "link.csv"
        target.write_text("old\n")
        link.symlink_to(target)
        doc = _doc("paper_experiment.yaml", T=self.T)
        self._failed(capsys, "generate-trajectory", "--config", _write(tmp_path, doc),
                     "--out", str(link))
        # no partial text, the link left
        assert target.read_text() == "old\n" and link.is_symlink()

    def test_device_out_is_never_removed(self, tmp_path, capsys, enospc_on_third_block,
                                         removed):
        # /dev/null is written in place, and the metrics file is opened only after the CSV
        metrics = tmp_path / "m.txt"
        self._failed(capsys, "simulate", "--config", _write(tmp_path, _short_constant(T=self.T)),
                     "--out", os.devnull, "--metrics-out", str(metrics))
        assert removed == [] and not metrics.exists()
        assert stat.S_ISCHR(os.stat(os.devnull).st_mode)

    def test_unwritable_metrics_out_never_touches_out(self, tmp_path, capsys, removed):
        rc, out, err = _main(
            capsys, "simulate", "--config", _write(tmp_path, _short_constant()),
            "--out", os.devnull, "--metrics-out", str(tmp_path / "no" / "such" / "m.txt"),
        )
        assert (rc, out) == (cli.EXIT_CONFIG, "")
        assert "No such file or directory" in _one_line(err, "output error:")
        assert removed == []


@pytest.mark.usefixtures("two_cpus")  # the formatting child forks on any host
class TestReplaceNeverTruncate:
    """--out is replaced only once the run, its CSV and its metrics file have all been
    written: any failure leaves a previous --out byte-identical, and no temporary file
    is left beside it.  A symbolic link's target is what is replaced; /dev/null is
    written in place, never replaced or removed."""

    T = 16.0  # 1601 rows: seven blocks

    def _config(self, tmp_path) -> str:
        return _write(tmp_path, _short_constant(T=self.T))

    @staticmethod
    def _old(path: Path) -> bytes:
        path.write_text("old\n")
        return path.read_bytes()

    @pytest.mark.parametrize("error", ["divergence", "domain"])
    def test_numerical_failure_after_streamed_blocks(self, tmp_path, capsys, monkeypatch,
                                                     error):
        config, out_csv = self._config(tmp_path), tmp_path / "run.csv"
        old, write, blocks = self._old(out_csv), sim_harness.CsvOutput.write, []
        step, true_F = plant_models.SyntheticUlmPlant.step, plant_models.SyntheticUlmPlant.true_F

        def counted(self, block):
            blocks.append(len(block))
            return write(self, block)

        def diverges(self, u):
            if self.k == 600:
                raise plant_models.DivergenceError("plant diverged at step 600", step_index=600)
            return step(self, u)

        monkeypatch.setattr(sim_harness.CsvOutput, "write", counted)
        if error == "divergence":
            monkeypatch.setattr(plant_models.SyntheticUlmPlant, "step", diverges)
        else:
            monkeypatch.setattr(plant_models.SyntheticUlmPlant, "true_F",
                                lambda self, k: (math.nan, 0.0) if k >= 600 else true_F(self, k))
        rc, out, err = _main(capsys, "simulate", "--config", config, "--out", str(out_csv))
        assert (rc, out) == (cli.EXIT_NUMERICAL, "")
        _one_line(err, "numerical failure:")
        # ticks 0 to 511 were streamed before the failure, then the rows from 512 to the
        # last complete tick: 599, or 600, whose step makes y_601 the non-finite measurement
        last = {"divergence": 599, "domain": 600}[error]
        assert blocks == [256 * 19, 256 * 19, (last - 511) * 19]
        assert_no_child_left()
        assert out_csv.read_bytes() == old
        assert sorted(os.listdir(tmp_path)) == ["config.yaml", "run.csv"]

    def test_failing_child(self, tmp_path, capsys, monkeypatch):
        config, out_csv = self._config(tmp_path), tmp_path / "run.csv"
        old, parent, block_text = self._old(out_csv), os.getpid(), sim_harness._block_text

        def fails_in_child(columns):
            if os.getpid() != parent:
                raise OSError(errno.EIO, os.strerror(errno.EIO))
            return block_text(columns)

        monkeypatch.setattr(sim_harness, "_block_text", fails_in_child)
        rc, out, err = _main(capsys, "simulate", "--config", config, "--out", str(out_csv))
        assert (rc, out) == (cli.EXIT_CONFIG, "")
        assert _one_line(err, "output error:").endswith(f"{out_csv}: [Errno 5] Input/output error")
        assert_no_child_left()
        assert out_csv.read_bytes() == old
        assert sorted(os.listdir(tmp_path)) == ["config.yaml", "run.csv"]

    def test_unwritable_metrics_out(self, tmp_path, capsys):
        config, out_csv = self._config(tmp_path), tmp_path / "run.csv"
        old = self._old(out_csv)
        rc, out, err = _main(capsys, "simulate", "--config", config, "--out", str(out_csv),
                             "--metrics-out", str(tmp_path / "no" / "such" / "m.txt"))
        assert (rc, out) == (cli.EXIT_CONFIG, "")
        assert "No such file or directory" in _one_line(err, "output error:")
        assert_no_child_left()
        assert out_csv.read_bytes() == old
        assert sorted(os.listdir(tmp_path)) == ["config.yaml", "run.csv"]

    def test_success_replaces_out_and_leaves_no_temporary_file(self, tmp_path, capsys):
        config, out_csv = self._config(tmp_path), tmp_path / "run.csv"
        self._old(out_csv)
        rc, _, err = _main(capsys, "simulate", "--config", config, "--out", str(out_csv))
        assert (rc, err) == (cli.EXIT_OK, "")
        assert out_csv.read_text().count("\n") == 1602  # the header and 1601 rows
        assert sorted(os.listdir(tmp_path)) == ["config.yaml", "run.csv", "run.csv.metrics"]

    def test_symbolic_link_target_replaced_on_success(self, tmp_path, capsys):
        config = self._config(tmp_path)
        target, link, plain = tmp_path / "target.csv", tmp_path / "link.csv", tmp_path / "a.csv"
        self._old(target)
        link.symlink_to(target)
        for out_csv in (plain, link):
            rc, _, err = _main(capsys, "simulate", "--config", config, "--out", str(out_csv),
                               "--metrics-out", str(tmp_path / "m.txt"))
            assert (rc, err) == (cli.EXIT_OK, "")
        assert link.is_symlink() and os.readlink(link) == str(target)
        assert target.read_bytes() == plain.read_bytes()
        assert sorted(os.listdir(tmp_path)) == [
            "a.csv", "config.yaml", "link.csv", "m.txt", "target.csv"]

    @pytest.mark.parametrize("fails", [False, True], ids=["success", "failing-child"])
    def test_device_is_never_replaced_or_removed(self, tmp_path, capsys, monkeypatch, fails):
        touched = []
        for name in ("replace", "rename", "remove", "unlink"):
            monkeypatch.setattr(os, name, functools.partial(
                lambda fn, *args, **kw: (touched.extend(args), fn(*args, **kw))[1],
                getattr(os, name)))
        parent, block_text = os.getpid(), sim_harness._block_text
        if fails:
            monkeypatch.setattr(sim_harness, "_block_text", lambda columns: (
                block_text(columns) if os.getpid() == parent else 1 / 0))
        rc, _, _ = _main(capsys, "simulate", "--config", self._config(tmp_path),
                         "--out", os.devnull, "--metrics-out", str(tmp_path / "m.txt"))
        assert rc == (cli.EXIT_CONFIG if fails else cli.EXIT_OK)
        assert_no_child_left()
        assert os.devnull not in touched and os.path.realpath(os.devnull) not in touched
        assert stat.S_ISCHR(os.stat(os.devnull).st_mode)

    @pytest.mark.parametrize("umask", [0o022, 0o077, 0o002])
    def test_new_file_mode_follows_the_umask(self, tmp_path, capsys, umask):
        # the mode open(path, "w") gives a new file, not mkstemp's 0600
        config, out_csv, fresh = self._config(tmp_path), tmp_path / "run.csv", tmp_path / "fresh"
        previous = os.umask(umask)
        try:
            rc, _, err = _main(capsys, "simulate", "--config", config, "--out", str(out_csv))
            open(fresh, "w").close()
        finally:
            os.umask(previous)
        assert (rc, err) == (cli.EXIT_OK, "")
        assert stat.S_IMODE(out_csv.stat().st_mode) == stat.S_IMODE(fresh.stat().st_mode)
        assert stat.S_IMODE(fresh.stat().st_mode) == 0o666 & ~umask

    @pytest.mark.parametrize("command", ["simulate", "generate-trajectory"])
    def test_existing_out_keeps_its_mode(self, tmp_path, capsys, command):
        config = (self._config(tmp_path) if command == "simulate" else
                  _write(tmp_path, _doc("paper_experiment.yaml", T=1.0)))
        out_csv = tmp_path / "run.csv"
        self._old(out_csv)
        out_csv.chmod(0o600)
        previous = os.umask(0o022)
        try:
            rc, _, err = _main(capsys, command, "--config", config, "--out", str(out_csv))
        finally:
            os.umask(previous)
        assert (rc, err) == (cli.EXIT_OK, "")
        assert out_csv.read_text() != "old\n"
        assert stat.S_IMODE(out_csv.stat().st_mode) == 0o600


@pytest.mark.usefixtures("two_cpus")  # the formatting child forks on any host
class TestMetricsReplaced:
    """--metrics-out is replaced like --out: its text goes to a temporary file beside
    the file it names, which is put in place only after the CSV, so a failure leaves
    a previous metrics file byte-identical and no temporary file."""

    @pytest.mark.parametrize("T", [0.5, 16.0], ids=["in-process", "forked"])
    def test_failed_csv_replace_keeps_the_previous_metrics(self, tmp_path, capsys,
                                                            monkeypatch, T):
        out_csv, metrics = tmp_path / "run.csv", tmp_path / "run.csv.metrics"
        out_csv.write_text("old csv\n")
        metrics.write_text("old metrics\n")
        config, replace = _write(tmp_path, _short_constant(T=T)), os.replace

        def fails_on_the_csv(src, dst, **kwargs):
            if os.path.basename(dst) == "run.csv":
                raise OSError(errno.EACCES, os.strerror(errno.EACCES))
            return replace(src, dst, **kwargs)

        monkeypatch.setattr(os, "replace", fails_on_the_csv)
        rc, out, err = _main(capsys, "simulate", "--config", config, "--out", str(out_csv))
        assert (rc, out) == (cli.EXIT_CONFIG, "")
        assert "Permission denied" in _one_line(err, "output error:")
        assert out_csv.read_bytes() == b"old csv\n"
        assert metrics.read_bytes() == b"old metrics\n"
        assert sorted(os.listdir(tmp_path)) == ["config.yaml", "run.csv", "run.csv.metrics"]

    def test_existing_metrics_keep_their_mode_and_links(self, tmp_path, capsys):
        target, link = tmp_path / "m.txt", tmp_path / "link.txt"
        target.write_text("old\n")
        target.chmod(0o600)
        link.symlink_to(target)
        rc, _, err = _main(capsys, "simulate", "--config", _write(tmp_path, _short_constant()),
                           "--out", str(tmp_path / "run.csv"), "--metrics-out", str(link))
        assert (rc, err) == (cli.EXIT_OK, "")
        assert link.is_symlink() and target.read_text().startswith("max_abs_eF1 = ")
        assert stat.S_IMODE(target.stat().st_mode) == 0o600
        assert sorted(os.listdir(tmp_path)) == ["config.yaml", "link.txt", "m.txt", "run.csv"]

    def test_device_metrics_written_in_place(self, tmp_path, capsys):
        rc, _, err = _main(capsys, "simulate", "--config", _write(tmp_path, _short_constant()),
                           "--out", str(tmp_path / "run.csv"), "--metrics-out", os.devnull)
        assert (rc, err) == (cli.EXIT_OK, "")
        assert stat.S_ISCHR(os.stat(os.devnull).st_mode)
        assert sorted(os.listdir(tmp_path)) == ["config.yaml", "run.csv"]


def test_reaped_formatting_child_reports_its_cost(tmp_path, capsys, two_cpus, children):
    # 1101 rows: the first full block of 256 forks the formatting child
    rc, _, err = _main(capsys, "simulate", "--config", _write(tmp_path, _short_constant(T=11.0)),
                       "--out", str(tmp_path / "run.csv"))
    assert (rc, err) == (cli.EXIT_OK, "")
    [child] = children
    assert child.rusage.ru_utime + child.rusage.ru_stime > 0
    assert child.rusage.ru_maxrss > 0


# Prints the ru_maxrss of this process and of its largest child, in KiB, after cli.main,
# which forks the formatting child whatever the host's CPU count, as under two_cpus
_PEAKS = """
import os, resource, sys
from ftsmfc import cli
os.sched_getaffinity = lambda pid: {0, 1}
assert cli.main(sys.argv[1:]) == 0
print(*(resource.getrusage(who).ru_maxrss
        for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN)))
"""


def test_peak_memory_does_not_grow_with_the_horizon(tmp_path):
    # simulate streams its rows, so ten times the ticks (7001 against 70 001) peak
    # within 3 MB of each other, in this process and in the formatting child
    src = str(Path(ftsmfc.__file__).resolve().parents[1])
    peaks = []
    for T in (70.0, 700.0):
        proc = subprocess.run(
            [sys.executable, "-c", _PEAKS, "simulate",
             "--config", _write(tmp_path, _doc("synthetic_constant.yaml", T=T)),
             "--out", str(tmp_path / "run.csv")],
            capture_output=True, text=True, env={**os.environ, "PYTHONPATH": src}, timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        peaks.append([int(kib) / 1024 for kib in proc.stdout.splitlines()[-1].split()])
    (self_70, child_70), (self_700, child_700) = peaks
    assert child_70 > 0  # the formatting child ran
    assert abs(self_700 - self_70) <= 3.0, peaks
    assert abs(child_700 - child_70) <= 3.0, peaks


class TestUsage:
    @pytest.mark.parametrize(
        "argv",
        [[], ["simulate", "--out", "x.csv"], ["verify", "--suite", "nonexistent"],
         ["simulate", "--config", "c.yaml", "--out", "x.csv", "--bogus"], ["frobnicate"]],
        ids=["no-command", "missing-argument", "bad-choice", "unknown-option", "bad-command"],
    )
    def test_usage_error_is_exit_1(self, capsys, argv):
        rc, out, err = _main(capsys, *argv)
        assert (rc, out) == (cli.EXIT_CONFIG, "")
        _one_line(err, "config error:")
