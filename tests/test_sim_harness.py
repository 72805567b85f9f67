"""Unit tests for configuration, the closed-loop engine, logging, and metrics."""

import copy
import re

import numpy as np
import pytest

from ftsmfc.sim_harness import (
    CSV_HEADER,
    ConfigError,
    SimConfig,
    SimLog,
    compute_metrics,
    run_closed_loop,
    verify_suite,
)

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
    "initial_state": [0.0, 0.0, 0.0, 0.0],
    "initial_estimate": [0.0, 0.0, 0.0, 0.0],
    "trajectory": {"source": "zero"},
    "metrics": {"settle_time": 1.0, "bands": [0.5, 0.05]},
}


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
        assert config.control_params.exponent == pytest.approx(11 / 9, abs=1e-15)
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

    def test_unknown_plant_kind_rejected(self):
        config = make_config(**{"plant.kind": "chirp"})
        with pytest.raises(ConfigError):
            run_closed_loop(config)

    def test_file_trajectory_requires_path(self):
        with pytest.raises(ConfigError):
            make_config(**{"trajectory.source": "file"})

    def test_G_times_dt_scaling(self):
        config = make_config(**{"controller.G_times_dt": True})
        np.testing.assert_allclose(
            config.G, 0.01 * np.array([[0.559, 0.196], [0.196, 0.657]])
        )

    def test_from_yaml_missing_file(self):
        with pytest.raises(ConfigError):
            SimConfig.from_yaml("/nonexistent/config.yaml")

    def test_n_steps(self):
        assert make_config().n_steps == 200


class TestStrictConfig:
    @pytest.mark.parametrize(
        "key", ["controler", "controller.scal", "metrics.setle_time", "plant.params"]
    )
    def test_unknown_key_is_named(self, key):
        # plant.params is not read on a synthetic plant
        with pytest.raises(ConfigError, match=re.escape(repr(key))):
            make_config(**{key: 1.0})

    def test_spec_on_pendulum_rejected(self):
        with pytest.raises(ConfigError, match="'plant.spec'"):
            make_config(plant={"kind": "pendulum", "spec": {}})

    def test_section_must_be_a_mapping(self):
        with pytest.raises(ConfigError, match="controller"):
            make_config(controller=[1, 2])

    def test_empty_section_keeps_defaults(self):
        assert make_config(observer=None).observer_order == "first"

    @pytest.mark.parametrize(
        "G", [[[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]], np.eye(3).tolist(), [[1.0, 0.0]]]
    )
    def test_controller_G_must_be_2x2(self, G):
        with pytest.raises(ConfigError, match="controller.G"):
            make_config(**{"controller.G": G})

    def test_singular_controller_G_is_config_error(self):
        with pytest.raises(ConfigError, match="controller.G"):
            make_config(**{"controller.G": [[1.0, 2.0], [2.0, 4.0]]})

    @pytest.mark.parametrize(
        "spec", [{"n": 3}, {"G": np.eye(3).tolist()}, {"G": [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]]}]
    )
    def test_plant_must_be_2x2(self, spec):
        config = make_config(**{f"plant.spec.{k}": v for k, v in spec.items()})
        with pytest.raises(ConfigError, match="plant"):
            run_closed_loop(config)


class TestRunClosedLoop:
    def test_zero_horizon_single_record_no_control(self):
        log = run_closed_loop(make_config(T=0.0))
        assert len(log) == 1
        np.testing.assert_array_equal(log.u, [[0.0, 0.0]])

    def test_record_internal_consistency(self):
        log = run_closed_loop(make_config())
        np.testing.assert_allclose(log.e_F, log.F_hat - log.F, atol=1e-12)
        np.testing.assert_allclose(log.e_y, log.y - log.y_d, atol=1e-12)
        dt = np.diff(log.t)
        np.testing.assert_allclose(dt, 0.01, atol=1e-12)

    def test_rows_before_first_sample_are_zero(self):
        log = run_closed_loop(make_config())
        # nu = 1: row 0 has no reconstructable sample yet
        np.testing.assert_array_equal(log.F[0], [0.0, 0.0])
        np.testing.assert_array_equal(log.F_hat[0], [0.0, 0.0])

    def test_last_record_has_zero_input(self):
        log = run_closed_loop(make_config())
        np.testing.assert_array_equal(log.u[-1], [0.0, 0.0])

    def test_noise_off_filter_off_errors_decay(self):
        log = run_closed_loop(make_config(T=50.0, dt=1.0))
        assert np.linalg.norm(log.e_F[-1]) < np.linalg.norm(log.e_F[1]) * 1e-2
        assert np.abs(log.e_y[-1]).max() < 1e-2

    def test_reconstructed_F_matches_truth_without_noise(self):
        log = run_closed_loop(make_config())
        # noise and filter off: reconstruction recovers the scripted constant
        np.testing.assert_allclose(log.F[1:], np.tile([0.3, -0.2], (200, 1)), atol=1e-12)

    def test_G_rank_checked_once_at_config_time(self, monkeypatch):
        svd = np.linalg.svd
        calls = []

        def counted(*args, **kwargs):
            calls.append(1)
            return svd(*args, **kwargs)

        monkeypatch.setattr(np.linalg, "svd", counted)
        config = make_config()
        assert len(calls) == 1
        run_closed_loop(config)
        assert len(calls) == 1

    def test_determinism_identical_logs(self):
        config = make_config(**{"noise.enabled": True, "filter.enabled": True})
        a = run_closed_loop(config)
        b = run_closed_loop(config)
        for name in ("t", "y", "y_meas", "y_hat", "y_d", "e_y", "F", "F_hat", "e_F", "u"):
            np.testing.assert_array_equal(getattr(a, name), getattr(b, name))

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
            np.savetxt(path, traj, delimiter=",")
            paths.append(str(path))
        logs = [
            run_closed_loop(
                make_config(
                    T=1.0,
                    **{"trajectory.source": "file", "trajectory.path": p},
                )
            )
            for p in paths
        ]
        nu = 1
        first_affected = j - nu  # u_k depends on y_d[k + nu]
        np.testing.assert_array_equal(
            logs[0].y[:first_affected + 1], logs[1].y[:first_affected + 1]
        )
        np.testing.assert_array_equal(
            logs[0].u[:first_affected], logs[1].u[:first_affected]
        )
        assert not np.array_equal(logs[0].u[first_affected], logs[1].u[first_affected])

    def test_pendulum_diverges_with_step_diagnostic(self):
        from pathlib import Path

        from ftsmfc.plant_models import DivergenceError

        config_path = Path(__file__).resolve().parents[1] / "configs" / "paper_experiment.yaml"
        config = SimConfig.from_yaml(str(config_path))
        with pytest.raises(DivergenceError) as info:
            run_closed_loop(config)
        assert info.value.step_index is not None


class TestCsvOutput:
    def test_header_and_shape(self, tmp_path):
        log = run_closed_loop(make_config())
        path = tmp_path / "out.csv"
        log.to_csv(str(path))
        lines = path.read_text().splitlines()
        assert lines[0] == CSV_HEADER
        assert len(lines) == len(log) + 1
        assert all(len(line.split(",")) == 19 for line in lines[1:])

    def test_seventeen_significant_digits_roundtrip(self, tmp_path):
        log = run_closed_loop(make_config())
        path = tmp_path / "out.csv"
        log.to_csv(str(path))
        data = np.loadtxt(path, delimiter=",", skiprows=1)
        np.testing.assert_array_equal(data[:, 1:3], log.y)
        np.testing.assert_array_equal(data[:, 17:19], log.u)

    def test_byte_identical_across_runs(self, tmp_path):
        config = make_config(**{"noise.enabled": True, "filter.enabled": True})
        payloads = []
        for name in ("a.csv", "b.csv"):
            path = tmp_path / name
            run_closed_loop(config).to_csv(str(path))
            payloads.append(path.read_bytes())
        assert payloads[0] == payloads[1]


class TestComputeMetrics:
    @staticmethod
    def _log_from_errors(e_y, e_F=None, dt=1.0):
        e_y = np.asarray(e_y, dtype=float)
        n = len(e_y)
        z = np.zeros((n, 2))
        e_F = z if e_F is None else np.asarray(e_F, dtype=float)
        return SimLog(
            t=dt * np.arange(n), y=e_y.copy(), y_meas=e_y.copy(), y_hat=e_y.copy(),
            y_d=z, e_y=e_y, F=z, F_hat=e_F.copy(), e_F=e_F, u=z,
        )

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
            compute_metrics(log, settle_time=10.0)

    def test_rms(self):
        e = np.zeros((10, 2))
        e[5:, 1] = 2.0
        m = compute_metrics(self._log_from_errors(e), settle_time=4.0, bands=(0.5, 0.05))
        assert m["rms_etheta"] == pytest.approx(2.0)


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
