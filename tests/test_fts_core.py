"""Unit tests for the sigmoid-gain primitives and Lyapunov verifiers."""

import math

import numpy as np
import pytest

from ftsmfc.fts_core import (
    DomainError,
    HolderGainParams,
    LyapunovTrace,
    decrease_radius,
    fts_recursion,
    gamma_of_V,
    gamma_zero_crossing,
    holder_gain,
    robustness_radius,
    verify_fts_condition,
    verify_holder_continuity,
)

OBS = HolderGainParams(exponent=9 / 7, scale=1.5)


class TestHolderGainParams:
    def test_valid_ranges(self):
        HolderGainParams(exponent=1.5, scale=0.1)
        HolderGainParams(exponent=1.01, scale=1e-6, weight=2.1)
        HolderGainParams(exponent=1.99, scale=1e6, weight=np.eye(3))

    @pytest.mark.parametrize("exponent", [1.0, 2.0, 0.5, 3.0, float("nan")])
    def test_exponent_out_of_range(self, exponent):
        with pytest.raises(DomainError):
            HolderGainParams(exponent=exponent, scale=1.0)

    @pytest.mark.parametrize("scale", [0.0, -1.0, float("inf")])
    def test_scale_out_of_range(self, scale):
        with pytest.raises(DomainError):
            HolderGainParams(exponent=1.5, scale=scale)

    def test_weight_must_be_spd(self):
        with pytest.raises(DomainError):
            HolderGainParams(exponent=1.5, scale=1.0, weight=-2.0)
        with pytest.raises(DomainError):
            HolderGainParams(exponent=1.5, scale=1.0, weight=np.array([[1, 2], [0, 1]]))
        with pytest.raises(DomainError):
            HolderGainParams(
                exponent=1.5, scale=1.0, weight=np.array([[1.0, 0.0], [0.0, -1.0]])
            )

    def test_holder_power(self):
        assert HolderGainParams(exponent=9 / 7, scale=1.5).holder_power == pytest.approx(
            2 / 9, abs=1e-15
        )


class TestHolderGain:
    def test_zero_vector_is_exactly_minus_one(self):
        for dim in (1, 2, 5):
            assert holder_gain(np.zeros(dim), OBS) == -1.0

    def test_unit_vector_oracle(self):
        # x = 1 so gain = (1 - 1.5)/(1 + 1.5)
        assert holder_gain([1.0, 0.0], OBS) == pytest.approx(-0.2, abs=1e-15)

    def test_half_vector_oracle(self):
        # x = 0.25^(2/9) = 0.7348672461..., gain = (x-1.5)/(x+1.5)
        assert holder_gain([0.5, 0.0], OBS) == pytest.approx(
            -0.342361612388597, abs=1e-12
        )

    def test_zero_crossing_when_quad_form_power_equals_scale(self):
        norm = OBS.scale ** (1.0 / (2 * OBS.holder_power))
        assert holder_gain([norm, 0.0], OBS) == pytest.approx(0.0, abs=1e-14)

    def test_range_and_monotonicity(self):
        norms = np.logspace(-8, 8, 200)
        gains = np.array([holder_gain([n, 0.0], OBS) for n in norms])
        assert np.all(gains >= -1.0) and np.all(gains < 1.0)
        assert np.all(np.diff(gains) > 0.0)

    def test_weight_matrix_equivalence(self):
        W = np.array([[2.0, 0.3], [0.3, 1.0]])
        p = HolderGainParams(exponent=1.4, scale=2.0, weight=W)
        e = np.array([0.7, -1.1])
        q = float(e @ W @ e)
        x = q ** p.holder_power
        assert holder_gain(e, p) == pytest.approx((x - 2.0) / (x + 2.0), abs=1e-14)

    def test_scalar_weight_equals_scaled_identity(self):
        ps = HolderGainParams(exponent=1.4, scale=2.0, weight=2.1)
        pm = HolderGainParams(exponent=1.4, scale=2.0, weight=2.1 * np.eye(2))
        e = np.array([0.3, -0.4])
        assert holder_gain(e, ps) == pytest.approx(holder_gain(e, pm), abs=1e-15)

    def test_nonfinite_rejected(self):
        with pytest.raises(DomainError):
            holder_gain([np.nan, 0.0], OBS)
        with pytest.raises(DomainError):
            holder_gain([np.inf, 1.0], OBS)


class TestGammaOfV:
    def test_zero_at_origin(self):
        assert gamma_of_V(0.0, OBS) == 0.0

    def test_unit_oracle(self):
        # 4*1.5/(1+1.5)^2 = 0.96 = 1 - (-0.2)^2
        assert gamma_of_V(1.0, OBS) == pytest.approx(0.96, abs=1e-15)

    def test_boundary_equals_scale(self):
        Vb = gamma_zero_crossing(OBS)
        assert Vb == pytest.approx(1.5 ** 4.5, rel=1e-14)
        assert gamma_of_V(Vb, OBS) == pytest.approx(OBS.scale, rel=1e-14)

    def test_identity_with_gain(self):
        # a last-ulp difference in x = V^a between the two code paths is
        # amplified by ~x/scale in 1 - D^2 when x >> scale, so the relative
        # tolerance here reflects that conditioning; the exact-arithmetic
        # identity is asserted at 1e-12 in the acceptance tests
        rng = np.random.default_rng(7)
        for _ in range(200):
            p = HolderGainParams(
                exponent=rng.uniform(1.01, 1.99), scale=10 ** rng.uniform(-3, 3)
            )
            e = np.array([10 ** rng.uniform(-3, 3), 0.0])
            V = float(e @ e)
            D = holder_gain(e, p)
            expected = (1.0 - D * D) * V ** p.holder_power
            assert gamma_of_V(V, p) == pytest.approx(expected, rel=1e-9, abs=1e-15)

    def test_class_k(self):
        V = np.logspace(-6, 6, 500)
        g = gamma_of_V(V, OBS)
        assert np.all(np.diff(g) > 0.0)
        assert np.all(g > 0.0)

    def test_negative_rejected(self):
        with pytest.raises(DomainError):
            gamma_of_V(-1.0, OBS)

    def test_array_input(self):
        out = gamma_of_V(np.array([0.0, 1.0]), OBS)
        assert out.shape == (2,)
        assert out[0] == 0.0 and out[1] == pytest.approx(0.96, abs=1e-15)


class TestFtsRecursion:
    def test_zero_start(self):
        trace, N = fts_recursion(0.0, 1.0, 0.5)
        assert N == 0 and len(trace) == 1 and trace.values[0] == 0.0

    def test_one_step(self):
        trace, N = fts_recursion(1.0, 1.0, 0.5)
        assert N == 1
        np.testing.assert_array_equal(trace.values, [1.0, 0.0])

    def test_hand_iteration(self):
        trace, N = fts_recursion(1.0, 0.5, 0.5)
        assert N == 3
        expected = [1.0, 0.5, 0.5 - 0.5 * math.sqrt(0.5), 0.0]
        np.testing.assert_allclose(trace.values, expected, rtol=1e-15)

    def test_clamping_keeps_nonnegative(self):
        trace, N = fts_recursion(0.3, 10.0, 0.9)
        assert N is not None
        assert np.all(trace.values >= 0.0)

    def test_max_steps_exhaustion(self):
        trace, N = fts_recursion(1e6, 1e-3, 0.95, max_steps=10)
        assert N is None and len(trace) == 11

    def test_monotone_nonincreasing(self):
        trace, _ = fts_recursion(123.4, 0.07, 0.6)
        assert np.all(np.diff(trace.values) <= 0.0)

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(V0=-1.0, eta=1.0, alpha=0.5),
            dict(V0=1.0, eta=0.0, alpha=0.5),
            dict(V0=1.0, eta=1.0, alpha=0.0),
            dict(V0=1.0, eta=1.0, alpha=1.0),
            dict(V0=float("nan"), eta=1.0, alpha=0.5),
        ],
    )
    def test_domain_errors(self, kwargs):
        with pytest.raises(DomainError):
            fts_recursion(**kwargs)


class TestLyapunovTrace:
    def test_rejects_negative_values(self):
        with pytest.raises(DomainError):
            LyapunovTrace(values=np.array([1.0, -0.1]), alpha=0.5, eta=1.0)

    def test_rejects_resurrection_after_zero(self):
        with pytest.raises(DomainError):
            LyapunovTrace(values=np.array([1.0, 0.0, 0.5]), alpha=0.5, eta=1.0)


class TestVerifyFtsCondition:
    def test_constant_zero_trace(self):
        trace = LyapunovTrace(values=np.zeros(5), alpha=0.5, eta=1.0)
        assert verify_fts_condition(trace, lambda V: 1.0, 1.0)

    @pytest.mark.parametrize("eta,alpha", [(1.0, 0.5), (0.5, 0.5), (0.03, 0.8)])
    def test_recursion_traces_verify_with_equality(self, eta, alpha):
        trace, _ = fts_recursion(7.0, eta, alpha)
        eps = eta ** (1.0 / (1.0 - alpha))
        assert verify_fts_condition(trace, lambda V: eta, eps)

    def test_increasing_trace_fails(self):
        trace = LyapunovTrace(values=np.array([1.0, 2.0]), alpha=0.5, eta=1.0)
        assert not verify_fts_condition(trace, lambda V: 1.0, 1.0)

    def test_too_slow_decay_fails(self):
        # decays, but slower than the decrement bound requires
        trace = LyapunovTrace(values=np.array([1.0, 0.9, 0.81]), alpha=0.5, eta=0.5)
        assert not verify_fts_condition(trace, lambda V: 0.5, 0.25)

    def test_gain_condition_failure(self):
        trace, _ = fts_recursion(7.0, 1.0, 0.5)
        # gamma too small above epsilon
        assert not verify_fts_condition(trace, lambda V: 1e-6, 1.0)

    def test_epsilon_positive_required(self):
        trace, _ = fts_recursion(1.0, 1.0, 0.5)
        with pytest.raises(DomainError):
            verify_fts_condition(trace, lambda V: 1.0, 0.0)

    def test_vectorized_gamma_accepted(self):
        trace, _ = fts_recursion(7.0, 0.5, 0.5)
        fn = lambda V: np.full_like(np.asarray(V, dtype=float), 0.5)  # noqa: E731
        assert verify_fts_condition(trace, fn, 0.25)

    def test_scalar_gamma_called_once_per_condition(self):
        # a constant gamma broadcasts instead of being called per element
        eta, alpha = 0.03, 0.8
        trace, _ = fts_recursion(7.0, eta, alpha)
        eps = eta ** (1.0 / (1.0 - alpha))
        calls = []

        def gamma(V):
            calls.append(np.shape(V))
            return eta

        assert verify_fts_condition(trace, gamma, eps)
        assert calls == [(len(trace) - 1,), (int(np.count_nonzero(trace.values >= eps)),)]

    def test_scalar_only_gamma_falls_back_per_element(self):
        trace, _ = fts_recursion(7.0, 0.5, 0.5)
        calls = []

        def gamma(V):
            calls.append(V)
            return 0.5 + 0.0 * math.sqrt(V)  # TypeError on arrays

        assert verify_fts_condition(trace, gamma, 0.25)
        n_above = int(np.count_nonzero(trace.values >= 0.25))
        assert len(calls) == 1 + (len(trace) - 1) + 1 + n_above


class TestVerifyHolderContinuity:
    def test_all_zero_trace(self):
        trace = LyapunovTrace(values=np.zeros(4), alpha=0.5, eta=1.0)
        assert verify_holder_continuity(trace, 1.0)

    def test_single_step_trace(self):
        trace, _ = fts_recursion(1.0, 1.0, 0.5)
        assert verify_holder_continuity(trace, 1.0)

    def test_recursion_trace_passes(self):
        trace, _ = fts_recursion(50.0, 0.3, 0.7)
        eps = 0.3 ** (1.0 / 0.3)
        assert verify_holder_continuity(trace, eps)

    def test_jump_violation_fails(self):
        # a 100 -> 0 cliff with a tiny epsilon is not Holder at the bound
        trace = LyapunovTrace(
            values=np.array([100.0, 0.0]), alpha=0.5, eta=0.01
        )
        assert not verify_holder_continuity(trace, 0.01)

    def test_epsilon_positive_required(self):
        trace, _ = fts_recursion(1.0, 1.0, 0.5)
        with pytest.raises(DomainError):
            verify_holder_continuity(trace, -1.0)


class TestRadii:
    def test_robustness_radius_oracles(self):
        assert robustness_radius(0.0) == 1.0  # zeta = 1
        assert robustness_radius(0.5) == pytest.approx(1.5, abs=1e-15)  # zeta = 0.75
        assert robustness_radius(-1.0) == pytest.approx(2.0, abs=1e-15)

    def test_robustness_radius_range(self):
        for g in np.linspace(-1.0, 0.999999, 1000):
            assert 1.0 <= robustness_radius(float(g)) <= 2.0

    def test_decrease_radius_is_one_minus_abs_gain(self):
        for g in np.linspace(-1.0, 0.999, 500):
            assert decrease_radius(float(g)) == pytest.approx(1.0 - abs(g), abs=1e-12)

    def test_domain(self):
        for fn in (robustness_radius, decrease_radius):
            with pytest.raises(DomainError):
                fn(1.0)
            with pytest.raises(DomainError):
                fn(-1.0000001)
            with pytest.raises(DomainError):
                fn(float("nan"))
