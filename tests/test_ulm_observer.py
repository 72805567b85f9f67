"""Unit tests for the unknown-dynamics reconstruction and observers."""

import numpy as np
import pytest

from ftsmfc.fts_core import DomainError, HolderGainParams, holder_gain
from ftsmfc.ulm_observer import compute_F, first_order_update, second_order_update

OBS = HolderGainParams(exponent=9 / 7, scale=1.5)
A = np.array([[0.559, 0.196], [0.196, 0.657]])


class TestComputeF:
    def test_zero_input(self):
        np.testing.assert_array_equal(
            compute_F([1.0, 2.0], np.eye(2), [0.0, 0.0]), [1.0, 2.0]
        )

    def test_identity_subtraction(self):
        np.testing.assert_allclose(
            compute_F([1.0, 2.0], np.eye(2), [1.0, 1.0]), [0.0, 1.0]
        )

    def test_reference_matrix(self):
        F = compute_F([0.0, 0.0], 0.01 * A, [1.0, 0.0])
        np.testing.assert_allclose(F, [-0.00559, -0.00196], atol=1e-15)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            compute_F([1.0, 2.0, 3.0], np.eye(2), [1.0, 1.0])
        with pytest.raises(ValueError):
            compute_F([1.0, 2.0], np.eye(2), [1.0])

    def test_wide_matrix(self):
        # two inputs by contract: a wide G does not unpack into 2 x 2 rows
        G = np.array([[1.0, 0.0, 2.0], [0.0, 1.0, 0.0]])
        with pytest.raises(ValueError):
            compute_F([3.0, 1.0], G, [1.0, 1.0, 1.0])


class TestFirstOrderObserver:
    def test_exact_estimate_stays_exact(self):
        c = np.array([0.7, -0.3])
        F_hat = c
        for _ in range(5):
            F_hat = first_order_update(F_hat, c, OBS)
            np.testing.assert_array_equal(F_hat, c)
            np.testing.assert_array_equal(F_hat - c, [0.0, 0.0])

    def test_single_update_oracle(self):
        F_hat = first_order_update(np.array([1.0, 0.0]), np.zeros(2), OBS)
        # gain([1,0]) = -0.2, so the next estimate is [-0.2, 0]
        np.testing.assert_allclose(F_hat, [-0.2, 0.0], atol=1e-15)

    def test_second_update_oracle(self):
        F_hat = first_order_update(np.array([1.0, 0.0]), np.zeros(2), OBS)
        F_hat = first_order_update(F_hat, np.zeros(2), OBS)
        # e = [-0.2, 0]: x = 0.04^(2/9), gain = -0.5082633..., estimate 0.10165267...
        np.testing.assert_allclose(F_hat, [0.10165266906015361, 0.0], atol=1e-12)

    def test_error_recursion_identity(self):
        # e_{k+1} = gain(e_k) e_k - (F_{k+1} - F_k), tracked independently
        rng = np.random.default_rng(3)
        F_hat = rng.uniform(-5, 5, 2)
        F_prev = rng.uniform(-1, 1, 2)
        e_pred = F_hat - F_prev
        F_hat = first_order_update(F_hat, F_prev, OBS)
        for _ in range(50):
            F_k = F_prev + rng.uniform(-0.1, 0.1, 2)
            e_pred = holder_gain(e_pred, OBS) * e_pred - (F_k - F_prev)
            np.testing.assert_allclose(F_hat - F_k, e_pred, atol=1e-12)
            F_hat = first_order_update(F_hat, F_k, OBS)
            F_prev = F_k

    def test_constant_rejection_to_tolerance(self):
        F_hat = np.array([8.0, -6.0])
        c = np.array([0.25, 0.5])
        for _ in range(25_000):
            F_hat = first_order_update(F_hat, c, OBS)
            if np.linalg.norm(F_hat - c) < 1e-9:
                break
        assert np.linalg.norm(F_hat - c) < 1e-9

    def test_monotone_error_norm_for_constant_sample(self):
        F_hat = np.array([3.0, 4.0])
        prev = np.inf
        for _ in range(200):
            F_hat = first_order_update(F_hat, np.zeros(2), OBS)
            norm = np.linalg.norm(F_hat)  # the error against the zero sample
            assert norm < prev
            prev = norm


# A non-finite sample in either component, through each update; the second-order one
# reads it in e alone on the first sample and in e_delta once F_prev is set
NON_FINITE = [(channel, value) for value in (np.nan, np.inf, -np.inf) for channel in (0, 1)]
UPDATES = {
    "first": lambda F_k: first_order_update((0.1, -0.2), F_k, OBS),
    "second-first-sample": lambda F_k: second_order_update((0.1, -0.2), (0.0, 0.0), None, F_k, OBS),
    "second": lambda F_k: second_order_update((0.1, -0.2), (0.01, 0.0), (0.3, 0.4), F_k, OBS),
}


@pytest.mark.parametrize("update", UPDATES.values(), ids=UPDATES.keys())
@pytest.mark.parametrize("channel, value", NON_FINITE,
                         ids=[f"{value}-F{channel}" for channel, value in NON_FINITE])
def test_nonfinite_sample_rejected(update, channel, value):
    F_k = [0.5, -0.5]
    F_k[channel] = value
    with pytest.raises(DomainError, match="^holder_gain: non-finite quadratic form"):
        update(tuple(F_k))


class TestSecondOrderObserver:
    def test_exact_constant_stays_exact(self):
        c = np.array([0.7, -0.3])
        F_hat, dF_hat, F_prev = c, np.zeros(2), None
        for _ in range(5):
            F_hat, dF_hat = second_order_update(F_hat, dF_hat, F_prev, c, OBS)
            F_prev = c
            np.testing.assert_array_equal(F_hat, c)
            np.testing.assert_array_equal(dF_hat, [0.0, 0.0])

    def test_correction_term_oracle(self):
        # e_F = [1,0] and e_delta = [0.5,0]: correction is
        # gain([1,0])*[1,0] + gain([0.5,0])*[0.5,0] = [-0.2,0] + [-0.17118,0]
        g_half = holder_gain([0.5, 0.0], OBS)
        assert g_half == pytest.approx(-0.342361612388597, abs=1e-12)

        F_prev, F_k = np.array([1.0, 1.0]), np.array([1.3, 0.9])
        dF = F_k - F_prev
        F_hat, _ = second_order_update(
            F_k + np.array([1.0, 0.0]), dF + np.array([0.5, 0.0]), F_prev, F_k, OBS
        )
        expected_corr = np.array([-0.2 + 0.5 * g_half, 0.0])
        np.testing.assert_allclose(F_hat, F_k + dF + expected_corr, atol=1e-12)

    def test_bootstrap_first_call_acts_first_order(self):
        F0 = np.array([0.4, -0.1])
        F_hat, dF_hat = second_order_update(np.array([1.4, -0.1]), np.zeros(2), None, F0, OBS)
        # no previous sample yet: dF_hat stays zero and F_hat = gain(e)e + F0
        np.testing.assert_allclose(dF_hat, [0.0, 0.0])
        np.testing.assert_allclose(F_hat, F0 + np.array([-0.2, 0.0]), atol=1e-14)

    def test_ramp_difference_error_converges(self):
        d = (0.01, -0.02)
        F_hat, dF_hat, F_prev = (2.0, -1.0), (0.0, 0.0), None
        for k in range(60_000):
            F_k = (k * d[0], k * d[1])
            F_hat, dF_hat = second_order_update(F_hat, dF_hat, F_prev, F_k, OBS)
            F_prev = F_k
            if np.linalg.norm(np.subtract(dF_hat, d)) < 1e-9:
                break
        assert np.linalg.norm(np.subtract(dF_hat, d)) < 1e-9
