"""Unit tests for the truth models, trajectory generator, and noise waveform."""

import math

import numpy as np
import pytest

from ftsmfc.plant_models import (
    DIVERGENCE_LIMIT,
    DivergenceError,
    LiftedPlantState,
    NoiseConfig,
    PendulumParams,
    PendulumPlant,
    SyntheticUlmPlant,
    bias_vector,
    generate_desired_trajectory,
    mass_matrix,
    noise_sample,
    open_loop_input,
    pendulum_step,
    pendulum_ulm_terms,
)

P = PendulumParams()


class TestPendulumPhysics:
    def test_mass_matrix_values(self):
        M = mass_matrix(0.0, P)
        np.testing.assert_allclose(
            M, [[2.0, -0.7], [-0.7, 0.84 + 0.5 * 1.4 * 1.4]], atol=1e-15
        )

    def test_mass_matrix_spd_everywhere(self):
        for theta in np.linspace(-math.pi, math.pi, 50):
            M = mass_matrix(float(theta), P)
            np.testing.assert_allclose(M, M.T)
            assert np.linalg.eigvalsh(M).min() > 0.0

    def test_bias_vector_at_rest_upright(self):
        np.testing.assert_allclose(bias_vector(0.0, 0.0, 0.0, P), [0.0, 0.0])

    def test_bias_vector_components(self):
        theta, xdot, thetadot = 0.3, -0.2, 0.7
        b = bias_vector(theta, xdot, thetadot, P)
        ml = P.m_pend * P.l_half
        assert b[0] == pytest.approx(
            ml * thetadot**2 * math.sin(theta) + P.c_x * math.tanh(xdot), abs=1e-15
        )
        assert b[1] == pytest.approx(
            P.c_theta * math.tanh(thetadot)
            - P.m_pend * P.g * P.l_half * math.sin(theta),
            abs=1e-15,
        )

    def test_params_positive(self):
        with pytest.raises(ValueError):
            PendulumParams(M_cart=-1.0)
        with pytest.raises(ValueError):
            PendulumParams(g=0.0)


class TestPendulumUlmTerms:
    def test_step_matches_F_plus_Gu(self):
        rng = np.random.default_rng(9)
        for _ in range(20):
            state = LiftedPlantState(rng.uniform(-1, 1, 2), rng.uniform(-1, 1, 2))
            u = rng.uniform(-5, 5, 2)
            F, G = pendulum_ulm_terms(state, 0.01, P)
            np.testing.assert_allclose(
                pendulum_step(state, u, 0.01, P), F + G @ u, atol=1e-14
            )

    def test_G_is_dt_squared_times_inverse_mass(self):
        state = LiftedPlantState([0.0, 0.2], [0.01, 0.21])
        _, G = pendulum_ulm_terms(state, 0.01, P)
        np.testing.assert_allclose(
            G, 1e-4 * np.linalg.inv(mass_matrix(0.2, P)), atol=1e-16
        )

    def test_zero_input_free_dynamics(self):
        # equilibrium at rest, theta = 0: output stays put
        state = LiftedPlantState([0.3, 0.0], [0.3, 0.0])
        y2 = pendulum_step(state, np.zeros(2), 0.01, P)
        np.testing.assert_allclose(y2, [0.3, 0.0], atol=1e-15)

    def test_upright_instability(self):
        # a small angle grows without input
        state = LiftedPlantState([0.0, 0.01], [0.0, 0.01])
        y = state
        for _ in range(200):
            y_next = pendulum_step(y, np.zeros(2), 0.01, P)
            y = LiftedPlantState(y.y_curr, y_next)
        assert abs(y.y_curr[1]) > 0.02


class TestOpenLoopInput:
    def test_zero_at_origin(self):
        np.testing.assert_allclose(open_loop_input(0.0, 0.0, P), [0.0, 0.0])

    def test_oracle_point(self):
        u = open_loop_input(0.1, 0.0, P)
        assert u[0] == pytest.approx(-4.901588521728485, abs=1e-12)
        assert u[1] == pytest.approx(-0.6848572381972412, abs=1e-12)

    def test_torque_formula(self):
        theta = 0.77
        u = open_loop_input(theta, 1.3, P)
        assert u[1] == pytest.approx(
            -P.m_pend * P.g * P.l_half * math.sin(theta), abs=1e-15
        )


class TestDesiredTrajectory:
    INIT = np.array([0.45, -0.14, -0.3, 0.05])

    def test_sample_count_and_seed_rows(self):
        traj = generate_desired_trajectory(self.INIT, 1.0, 0.01, P)
        assert traj.shape == (101, 2)
        np.testing.assert_array_equal(traj[0], [0.45, -0.14])
        np.testing.assert_allclose(traj[1], [0.45 - 0.003, -0.14 + 0.0005], atol=1e-15)

    def test_n_extra(self):
        traj = generate_desired_trajectory(self.INIT, 1.0, 0.01, P, n_extra=2)
        assert traj.shape == (103, 2)

    def test_zero_horizon(self):
        traj = generate_desired_trajectory(self.INIT, 0.0, 0.01, P)
        assert traj.shape == (1, 2)

    def test_full_horizon_bounded_with_known_envelope(self):
        traj = generate_desired_trajectory(self.INIT, 70.0, 0.01, P)
        assert traj.shape == (7001, 2)
        assert np.all(np.isfinite(traj))
        assert np.all(np.abs(traj) < DIVERGENCE_LIMIT)
        # regression envelope of the generated swing
        assert np.abs(traj[:, 0]).max() == pytest.approx(121.6, abs=1.0)
        assert np.abs(traj[:, 1]).max() == pytest.approx(44.9, abs=0.5)

    def test_bad_init_shape(self):
        with pytest.raises(ValueError):
            generate_desired_trajectory([0.0, 0.0], 1.0, 0.01, P)


class TestNoise:
    def test_bounded_by_amplitudes(self):
        cfg = NoiseConfig()
        t = np.linspace(0.0, 70.0, 20001)
        samples = np.array([noise_sample(float(tt), cfg) for tt in t])
        assert np.all(np.abs(samples) <= cfg.amplitudes + 1e-15)
        # and the bound is nearly attained (the waveform is not degenerate)
        assert np.abs(samples).max() > 0.9 * cfg.amplitudes.max()

    def test_deterministic(self):
        cfg = NoiseConfig()
        np.testing.assert_array_equal(noise_sample(1.23, cfg), noise_sample(1.23, cfg))

    def test_waveform_formula(self):
        cfg = NoiseConfig()
        t = 0.37
        expected = cfg.amplitudes * np.sin(
            cfg.base_freqs * t + cfg.fm_depth * np.sin(cfg.fm_freqs * t) + cfg.phases
        )
        np.testing.assert_allclose(noise_sample(t, cfg), expected, atol=1e-15)

    def test_negative_amplitude_rejected(self):
        with pytest.raises(ValueError):
            NoiseConfig(amplitudes=[-0.1, 0.0])

    def test_negative_time_rejected(self):
        with pytest.raises(ValueError):
            noise_sample(-0.1, NoiseConfig())


class TestPendulumPlant:
    def test_relative_degree_two_latency(self):
        # the input affects the output exactly two output-clock ticks later
        init = [0.0, 0.05, 0.0, 0.0]
        p1 = PendulumPlant(init, 0.01, P)
        p2 = PendulumPlant(init, 0.01, P)
        p1.step([0.0, 0.0])
        p2.step([5.0, 5.0])
        np.testing.assert_array_equal(p1.output, p2.output)  # y_1 unchanged
        p1.step([0.0, 0.0])
        p2.step([0.0, 0.0])
        assert not np.array_equal(p1.output, p2.output)  # y_2 differs

    def test_divergence_error_carries_step_index(self):
        plant = PendulumPlant([0.0, 0.05, 0.0, 0.0], 0.01, P)
        with pytest.raises(DivergenceError) as info:
            for _ in range(10_000):
                plant.step([1e5, 1e5])
        assert info.value.step_index is not None


class TestSyntheticPlants:
    def test_constant(self):
        plant = SyntheticUlmPlant("constant", const=[0.3, -0.2], nu=1)
        y = plant.step([0.0, 0.0])
        np.testing.assert_allclose(y, [0.3, -0.2])
        np.testing.assert_allclose(plant.true_F(5), [0.3, -0.2])

    def test_ramp(self):
        plant = SyntheticUlmPlant("ramp", slope=[0.1, -0.2], nu=1)
        np.testing.assert_allclose(plant.true_F(3), [0.3, -0.6])

    def test_sinusoid(self):
        plant = SyntheticUlmPlant("sinusoid", amplitude=[1.0, 2.0], freq=[0.5, 0.25])
        np.testing.assert_allclose(
            plant.true_F(2), [math.sin(1.0), 2.0 * math.sin(0.5)], atol=1e-15
        )

    def test_random_walk_step_norm_and_reproducibility(self):
        a = SyntheticUlmPlant("random-walk", bound=0.1, seed=42)
        b = SyntheticUlmPlant("random-walk", bound=0.1, seed=42)
        for k in range(1, 20):
            step = a.true_F(k) - a.true_F(k - 1)
            assert np.linalg.norm(step) == pytest.approx(0.1, rel=1e-12)
            np.testing.assert_array_equal(a.true_F(k), b.true_F(k))

    def test_step_semantics(self):
        G = np.array([[2.0, 0.0], [0.0, 3.0]])
        plant = SyntheticUlmPlant("constant", G=G, const=[1.0, 1.0], nu=2)
        u0 = np.array([1.0, -1.0])
        y2 = plant.step(u0)
        np.testing.assert_allclose(y2, plant.true_F(0) + G @ u0)
        # with nu = 2 the new output surfaces after one more step
        np.testing.assert_array_equal(plant.output, [0.0, 0.0])
        plant.step([0.0, 0.0])
        np.testing.assert_allclose(plant.output, y2)

    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            SyntheticUlmPlant("chirp")

    def test_random_walk_requires_seed_and_bound(self):
        with pytest.raises(ValueError):
            SyntheticUlmPlant("random-walk", bound=0.1)
