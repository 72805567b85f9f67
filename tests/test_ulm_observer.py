"""Unit tests for the unknown-dynamics reconstruction and observers."""

import numpy as np
import pytest

from ftsmfc.fts_core import DomainError, HolderGainParams, holder_gain
from ftsmfc.ulm_observer import (
    FirstOrderObserverState,
    compute_F,
    first_order_update,
    second_order_observer,
    second_order_update,
)

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
        G = np.array([[1.0, 0.0, 2.0], [0.0, 1.0, 0.0]])
        np.testing.assert_allclose(
            compute_F([3.0, 1.0], G, [1.0, 1.0, 1.0]), [0.0, 0.0]
        )


class TestFirstOrderObserver:
    def test_exact_estimate_stays_exact(self):
        c = np.array([0.7, -0.3])
        state = FirstOrderObserverState(F_hat=c, params=OBS)
        for _ in range(5):
            state = first_order_update(state, c)
            np.testing.assert_array_equal(state.F_hat, c)
            np.testing.assert_array_equal(state.error, [0.0, 0.0])

    def test_single_update_oracle(self):
        state = FirstOrderObserverState(F_hat=np.array([1.0, 0.0]), params=OBS)
        state = first_order_update(state, np.zeros(2))
        # gain([1,0]) = -0.2, so the next estimate is [-0.2, 0]
        np.testing.assert_allclose(state.F_hat, [-0.2, 0.0], atol=1e-15)

    def test_second_update_oracle(self):
        state = FirstOrderObserverState(F_hat=np.array([1.0, 0.0]), params=OBS)
        state = first_order_update(state, np.zeros(2))
        state = first_order_update(state, np.zeros(2))
        # e = [-0.2, 0]: x = 0.04^(2/9), gain = -0.5082633..., estimate 0.10165267...
        np.testing.assert_allclose(
            state.F_hat, [0.10165266906015361, 0.0], atol=1e-12
        )

    def test_error_property_before_first_sample(self):
        state = FirstOrderObserverState(F_hat=np.zeros(2), params=OBS)
        assert state.error is None

    def test_error_recursion_identity(self):
        # e_{k+1} = gain(e_k) e_k - (F_{k+1} - F_k), tracked independently
        rng = np.random.default_rng(3)
        state = FirstOrderObserverState(F_hat=rng.uniform(-5, 5, 2), params=OBS)
        F_prev = rng.uniform(-1, 1, 2)
        e_pred = state.F_hat - F_prev
        state = first_order_update(state, F_prev)
        for _ in range(50):
            F_k = F_prev + rng.uniform(-0.1, 0.1, 2)
            e_pred = holder_gain(e_pred, OBS) * e_pred - (F_k - F_prev)
            np.testing.assert_allclose(state.F_hat - F_k, e_pred, atol=1e-12)
            state = first_order_update(state, F_k)
            F_prev = F_k

    def test_constant_rejection_to_tolerance(self):
        state = FirstOrderObserverState(F_hat=np.array([8.0, -6.0]), params=OBS)
        c = np.array([0.25, 0.5])
        for _ in range(25_000):
            state = first_order_update(state, c)
            if np.linalg.norm(state.error) < 1e-9:
                break
        assert np.linalg.norm(state.error) < 1e-9

    def test_monotone_error_norm_for_constant_sample(self):
        state = FirstOrderObserverState(F_hat=np.array([3.0, 4.0]), params=OBS)
        prev = np.inf
        for _ in range(200):
            state = first_order_update(state, np.zeros(2))
            norm = np.linalg.norm(state.error)
            assert norm < prev
            prev = norm

    def test_nonfinite_sample_rejected(self):
        state = FirstOrderObserverState(F_hat=np.zeros(2), params=OBS)
        with pytest.raises(DomainError):
            first_order_update(state, [np.nan, 0.0])


class TestSecondOrderObserver:
    def test_exact_constant_stays_exact(self):
        c = np.array([0.7, -0.3])
        state = second_order_observer(c, OBS)
        for _ in range(5):
            state = second_order_update(state, c)
            np.testing.assert_array_equal(state.F_hat, c)
            np.testing.assert_array_equal(state.dF_hat, [0.0, 0.0])

    def test_correction_term_oracle(self):
        # e_F = [1,0] and e_delta = [0.5,0]: correction is
        # gain([1,0])*[1,0] + gain([0.5,0])*[0.5,0] = [-0.2,0] + [-0.17118,0]
        g_half = holder_gain([0.5, 0.0], OBS)
        assert g_half == pytest.approx(-0.342361612388597, abs=1e-12)
        from ftsmfc.ulm_observer import SecondOrderObserverState

        F_prev, F_k = np.array([1.0, 1.0]), np.array([1.3, 0.9])
        dF = F_k - F_prev
        state = SecondOrderObserverState(
            F_hat=F_k + np.array([1.0, 0.0]),
            dF_hat=dF + np.array([0.5, 0.0]),
            params_F=OBS,
            params_delta=OBS,
            F_history=(F_prev,),
        )
        state = second_order_update(state, F_k)
        expected_corr = np.array([-0.2 + 0.5 * g_half, 0.0])
        np.testing.assert_allclose(
            state.F_hat, F_k + dF + expected_corr, atol=1e-12
        )

    def test_bootstrap_first_call_acts_first_order(self):
        F0 = np.array([0.4, -0.1])
        state = second_order_observer(np.array([1.4, -0.1]), OBS)
        state = second_order_update(state, F0)
        # no history yet: dF_hat stays zero and F_hat = gain(e)e + F0
        np.testing.assert_allclose(state.dF_hat, [0.0, 0.0])
        np.testing.assert_allclose(state.F_hat, F0 + np.array([-0.2, 0.0]), atol=1e-14)

    def test_ramp_difference_error_converges(self):
        d = np.array([0.01, -0.02])
        state = second_order_observer(np.array([2.0, -1.0]), OBS)
        for k in range(60_000):
            state = second_order_update(state, float(k) * d)
            if np.linalg.norm(state.dF_hat - d) < 1e-9:
                break
        assert np.linalg.norm(state.dF_hat - d) < 1e-9

    def test_history_bounded(self):
        state = second_order_observer(np.zeros(2), OBS)
        for k in range(5):
            state = second_order_update(state, np.array([float(k), 0.0]))
        assert len(state.F_history) == 2

    def test_error_before_samples_is_none(self):
        state = second_order_observer(np.zeros(2), OBS)
        assert state.error is None
