"""Unit tests for the output measurement smoother."""

from pathlib import Path

import numpy as np
import pytest

from ftsmfc.config import load_doc
from ftsmfc.fts_core import DomainError, HolderGainParams, holder_gain
from ftsmfc.output_filter import filter_update
from ftsmfc.plant_models import NoiseConfig, noise_sample
from ftsmfc.sim_harness import CSV_HEADER, LOG_WIDTH, SimConfig, SimLog, run_closed_loop

CONFIGS = Path(__file__).resolve().parents[1] / "configs"
FILT = HolderGainParams(exponent=7 / 5, scale=2.0, weight=2.1)


class TestFilterUpdate:
    def test_loop_keeps_initial_estimate_on_tick_0(self):
        # no innovation exists at tick 0: the loop logs the configured
        # estimate there, and filters from tick 1 on
        doc = load_doc(str(CONFIGS / "synthetic_constant.yaml"))
        assert SimConfig.from_dict(doc).filter_params is not None
        config = SimConfig.from_dict({**doc, "T": 0.05, "initial_estimate": [0.2, -0.1]})
        rows = np.frombuffer(run_closed_loop(config, SimLog()).rows).reshape(-1, LOG_WIDTH)
        cols = CSV_HEADER.split(",")
        y_meas, y_hat = (rows[:, cols.index(x):cols.index(x) + 2] for x in ("x_meas", "x_hat"))
        np.testing.assert_array_equal(y_hat[0], [0.2, -0.1])
        assert not np.array_equal(y_hat[0], y_meas[0])
        np.testing.assert_array_equal(
            y_hat[1], filter_update(y_hat[0], y_meas[0], y_meas[1], config.filter_params),
        )

    def test_update_formula(self):
        y_hat, y0 = np.array([1.0, 0.0]), np.zeros(2)
        y1 = np.array([0.2, -0.1])
        e = y_hat - y0
        expected = y1 + holder_gain(e, FILT) * e
        np.testing.assert_allclose(filter_update(y_hat, y0, y1, FILT), expected, atol=1e-15)

    def test_exact_estimate_tracks_exactly(self):
        y_hat = y_prev = np.array([0.3, 0.3])
        for y in ([0.4, 0.2], [0.5, 0.1], [-1.0, 2.0]):
            y_hat = filter_update(y_hat, y_prev, y, FILT)
            y_prev = np.asarray(y)
            np.testing.assert_array_equal(y_hat, y)

    def test_innovation_contracts_on_constant_stream(self):
        y_hat = np.array([5.0, -3.0])
        y = np.array([0.1, 0.2])
        prev = np.inf
        for _ in range(300):
            y_hat = filter_update(y_hat, y, y, FILT)
            norm = np.linalg.norm(y_hat - y)
            assert norm < prev
            prev = norm

    def test_innovation_converges_below_tolerance(self):
        # the innovation tail slows as the gain approaches -1 near the
        # origin; 1e-7 is reachable in a 25k budget for these gains
        y_hat = np.array([5.0, -3.0])
        y = np.array([0.1, 0.2])
        for _ in range(25_000):
            y_hat = filter_update(y_hat, y, y, FILT)
            if np.linalg.norm(y_hat - y) < 1e-7:
                break
        assert np.linalg.norm(y_hat - y) < 1e-7

    def test_filtered_output_stays_within_noise_band_after_transient(self):
        # bounded measurement noise produces a bounded filtered deviation
        cfg = NoiseConfig()
        truth = np.array([0.05, -0.02])
        y_hat = np.array([1.0, 1.0])
        y_prev = truth + noise_sample(0.0, cfg)
        dev = []
        for k in range(1, 4000):
            y_meas = truth + noise_sample(0.01 * k, cfg)
            y_hat = filter_update(y_hat, y_prev, y_meas, FILT)
            y_prev = y_meas
            if k > 2000:
                dev.append(np.abs(y_hat - truth).max())
        assert max(dev) < 5 * np.asarray(cfg.amplitudes).max()

    def test_nonfinite_measurement_rejected(self):
        with pytest.raises(DomainError):
            filter_update(np.zeros(2), np.zeros(2), [np.inf, 0.0], FILT)
