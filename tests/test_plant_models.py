"""Unit tests for the truth models, trajectory generator, and noise waveform."""

import itertools
import math
from array import array

import numpy as np
import pytest

from ftsmfc.plant_models import (
    DIVERGENCE_LIMIT,
    SINK_ROWS,
    DivergenceError,
    NoiseConfig,
    PendulumParams,
    PendulumPlant,
    SyntheticUlmPlant,
    desired_samples,
    generate_desired_trajectory,
    noise_sample,
    open_loop_input,
    pendulum_step,
    pendulum_ulm_terms,
)

P = PendulumParams()


def mass_matrix(theta):
    """M(theta), written out from the parameters."""
    ml = P.m_pend * P.l_half
    return np.array([[P.M_cart + P.m_pend, -ml * math.cos(theta)],
                     [-ml * math.cos(theta), P.I_pend + ml * P.l_half]])


def bias(theta, xdot, thetadot):
    """The friction, Coriolis and gravity bias D(theta, qdot), written out."""
    return np.array([
        P.m_pend * P.l_half * thetadot**2 * math.sin(theta) + P.c_x * math.tanh(xdot),
        P.c_theta * math.tanh(thetadot) - P.m_pend * P.g * P.l_half * math.sin(theta),
    ])


class TestPendulumPhysics:
    # pendulum_ulm_terms holds M(theta)^-1 and the bias; these read them back
    # through G = dt^2 M^-1 and F = 2 y_1 - y_0 - G D
    def test_mass_matrix_values(self):
        _, G = pendulum_ulm_terms((0.3, 0.0), (0.3, 0.0), 0.01, P)
        M = 1e-4 * np.linalg.inv(G)
        np.testing.assert_allclose(M, [[2.0, -0.7], [-0.7, 0.84 + 0.5 * 1.4 * 1.4]], rtol=1e-14)
        np.testing.assert_allclose(M, mass_matrix(0.0), rtol=1e-14)

    def test_mass_matrix_spd_everywhere(self):
        for theta in np.linspace(-math.pi, math.pi, 50):
            M = mass_matrix(float(theta))
            assert np.linalg.eigvalsh(M).min() > 0.0
            _, G = pendulum_ulm_terms((0.0, float(theta)), (0.0, float(theta)), 0.01, P)
            G = np.array(G)
            np.testing.assert_array_equal(G, G.T)
            np.testing.assert_allclose(G, 1e-4 * np.linalg.inv(M), rtol=1e-13)

    def test_bias_vector_at_rest_upright(self):
        # at rest upright D = 0, so F = 2 y_1 - y_0 = y_1 exactly
        assert bias(0.0, 0.0, 0.0).tolist() == [0.0, 0.0]
        F, _ = pendulum_ulm_terms((0.3, 0.0), (0.3, 0.0), 0.01, P)
        assert F == (0.3, 0.0)

    def test_bias_vector_components(self):
        y_prev, y_curr, dt = (0.1, 0.3), (0.098, 0.307), 0.01
        F, G = pendulum_ulm_terms(y_prev, y_curr, dt, P)
        D = bias(0.3, (0.098 - 0.1) / dt, (0.307 - 0.3) / dt)
        np.testing.assert_allclose(2 * np.array(y_curr) - y_prev - F, np.array(G) @ D, rtol=1e-10)

    def test_params_positive(self):
        with pytest.raises(ValueError):
            PendulumParams(M_cart=-1.0)
        with pytest.raises(ValueError):
            PendulumParams(g=0.0)

    def test_derived_constants_are_not_fields(self):
        # derived once, as HolderGainParams derives its holder_power; ==, hash and repr skip them
        p = PendulumParams(m_pend=0.25)
        assert (p.ml, p.m_total, p.I_total, p.mgl, p.m_total_g) == (
            0.25 * 1.4, 1.5 + 0.25, 0.84 + 0.25 * 1.4 * 1.4, 0.25 * 9.8 * 1.4, (1.5 + 0.25) * 9.8)
        assert repr(p) == ("PendulumParams(M_cart=1.5, m_pend=0.25, l_half=1.4, I_pend=0.84, "
                           "g=9.8, c_x=0.028, c_theta=0.0032)")
        assert p == PendulumParams(m_pend=0.25) and hash(p) == hash(PendulumParams(m_pend=0.25))
        with pytest.raises(AttributeError):
            p.ml = 1.0


class TestPendulumUlmTerms:
    def test_step_matches_F_plus_Gu(self):
        rng = np.random.default_rng(9)
        for _ in range(20):
            y_prev, y_curr = rng.uniform(-1, 1, 2), rng.uniform(-1, 1, 2)
            u = rng.uniform(-5, 5, 2)
            F, G = pendulum_ulm_terms(y_prev, y_curr, 0.01, P)
            np.testing.assert_allclose(
                pendulum_step(y_prev, y_curr, u, 0.01, P), F + G @ u, atol=1e-14
            )

    def test_G_is_dt_squared_times_inverse_mass(self):
        _, G = pendulum_ulm_terms(np.array([0.0, 0.2]), np.array([0.01, 0.21]), 0.01, P)
        np.testing.assert_allclose(G, 1e-4 * np.linalg.inv(mass_matrix(0.2)), atol=1e-16)

    def test_zero_input_free_dynamics(self):
        # equilibrium at rest, theta = 0: output stays put
        y_rest = np.array([0.3, 0.0])
        y2 = pendulum_step(y_rest, y_rest, np.zeros(2), 0.01, P)
        np.testing.assert_allclose(y2, [0.3, 0.0], atol=1e-15)

    def test_upright_instability(self):
        # a small angle grows without input
        y_prev, y_curr = np.array([0.0, 0.01]), np.array([0.0, 0.01])
        for _ in range(200):
            y_prev, y_curr = y_curr, pendulum_step(y_prev, y_curr, np.zeros(2), 0.01, P)
        assert abs(y_curr[1]) > 0.02


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


def _trajectory(init, T, dt=0.01, blocks=None):
    """generate_desired_trajectory's rows, collected through a sink, as an (n, 3) array;
    the row count of each block it hands over is appended to blocks."""
    rows = array("d")

    class Sink:
        def write(self, block):
            if blocks is not None:
                blocks.append(len(block) // 3)
            rows.extend(block)

    sink = Sink()
    assert generate_desired_trajectory(init, T, dt, P, sink) is sink
    return np.frombuffer(rows).reshape(-1, 3)


class TestDesiredTrajectory:
    INIT = np.array([0.45, -0.14, -0.3, 0.05])

    def test_sample_count_and_seed_rows(self):
        traj = _trajectory(self.INIT, 1.0)
        assert traj.shape == (101, 3)
        np.testing.assert_array_equal(traj[0, 1:], [0.45, -0.14])
        np.testing.assert_allclose(traj[1, 1:], [0.45 - 0.003, -0.14 + 0.0005], atol=1e-15)
        # the time column is dt * k, as the CSV writes it
        assert traj[:, 0].tolist() == [0.01 * k for k in range(101)]

    def test_rows_are_the_generator_prefix(self):
        blocks = []
        traj = _trajectory(self.INIT, 5.0, blocks=blocks)
        assert blocks == [SINK_ROWS, 501 - SINK_ROWS]  # full blocks, the last one shorter
        samples = desired_samples(self.INIT, 0.01, P)
        prefix = np.array(list(itertools.islice(samples, 501)))
        assert prefix.tobytes() == np.ascontiguousarray(traj[:, 1:]).tobytes()
        # and the generator goes on past the horizon
        assert np.all(np.isfinite(next(samples)))

    def test_zero_horizon(self):
        traj = _trajectory(self.INIT, 0.0)
        assert traj.shape == (1, 3)

    def test_full_horizon_bounded_with_known_envelope(self):
        traj = _trajectory(self.INIT, 70.0)[:, 1:]
        assert traj.shape == (7001, 2)
        assert np.all(np.isfinite(traj))
        assert np.all(np.abs(traj) < DIVERGENCE_LIMIT)
        # regression envelope of the generated swing
        assert np.abs(traj[:, 0]).max() == pytest.approx(121.6, abs=1.0)
        assert np.abs(traj[:, 1]).max() == pytest.approx(44.9, abs=0.5)

    def test_divergence_names_the_sample_index(self):
        # x_k = k * dt * xdot_0 = k * 4e5 first exceeds the limit at sample 3
        init = [0.0, 0.0, 4.0e7, 0.0]
        with pytest.raises(DivergenceError, match=r"generation diverged at step 3$") as info:
            _trajectory(init, 1.0)
        assert info.value.step_index == 3
        samples = desired_samples(init, 0.01, P)
        assert len(list(itertools.islice(samples, 3))) == 3
        with pytest.raises(DivergenceError, match=r"generation diverged at step 3$") as info:
            next(samples)
        assert info.value.step_index == 3


class TestNoise:
    def test_bounded_by_amplitudes(self):
        cfg = NoiseConfig()
        t = np.linspace(0.0, 70.0, 20001)
        samples = np.array([noise_sample(float(tt), cfg) for tt in t])
        assert np.all(np.abs(samples) <= np.asarray(cfg.amplitudes) + 1e-15)
        # and the bound is nearly attained (the waveform is not degenerate)
        assert np.abs(samples).max() > 0.9 * np.asarray(cfg.amplitudes).max()

    def test_deterministic(self):
        cfg = NoiseConfig()
        np.testing.assert_array_equal(noise_sample(1.23, cfg), noise_sample(1.23, cfg))

    def test_waveform_formula(self):
        cfg = NoiseConfig()
        t = 0.37
        expected = np.asarray(cfg.amplitudes) * np.sin(
            np.asarray(cfg.base_freqs) * t
            + np.asarray(cfg.fm_depth) * np.sin(np.asarray(cfg.fm_freqs) * t)
            + np.asarray(cfg.phases)
        )
        np.testing.assert_allclose(noise_sample(t, cfg), expected, atol=1e-15)

    def test_negative_amplitude_rejected(self):
        with pytest.raises(ValueError):
            NoiseConfig(amplitudes=[-0.1, 0.0])


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
        plant = SyntheticUlmPlant("constant", G=np.eye(2), const=[0.3, -0.2], nu=1)
        y = plant.step([0.0, 0.0])
        np.testing.assert_allclose(y, [0.3, -0.2])
        np.testing.assert_allclose(plant.true_F(5), [0.3, -0.2])

    def test_ramp(self):
        plant = SyntheticUlmPlant("ramp", G=np.eye(2), slope=[0.1, -0.2], nu=1)
        np.testing.assert_allclose(plant.true_F(3), [0.3, -0.6])

    def test_sinusoid(self):
        plant = SyntheticUlmPlant(
            "sinusoid", G=np.eye(2), amplitude=[1.0, 2.0], freq=[0.5, 0.25], nu=1
        )
        np.testing.assert_allclose(
            plant.true_F(2), [math.sin(1.0), 2.0 * math.sin(0.5)], atol=1e-15
        )

    @pytest.mark.parametrize("kind, script", [
        ("constant", {}),
        ("constant", {"const": (1.0, 0.0), "slope": (1.0, 0.0)}),
        ("ramp", {"const": (1.0, 0.0)}),
        ("sinusoid", {"amplitude": (1.0, 1.0)}),
        ("sinusoid", {"freq": (1.0, 1.0)}),
        ("sinusoid", {"amplitude": (1.0, 1.0), "freq": (1.0, 1.0), "slope": (1.0, 0.0)}),
    ], ids=["constant-missing", "constant-extra", "const-on-ramp", "sinusoid-no-freq",
            "sin-no-amp", "sinusoid-extra"])
    def test_script_must_be_exactly_the_kinds_keys(self, kind, script):
        with pytest.raises(TypeError, match=f"a {kind} plant's script is "):
            SyntheticUlmPlant(kind, G=np.eye(2), nu=1, **script)

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
