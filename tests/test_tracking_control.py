"""Unit tests for the input solve and tracking control laws."""

import numpy as np
import pytest

from ftsmfc.fts_core import DomainError, HolderGainParams, holder_gain
from ftsmfc.plant_models import SyntheticUlmPlant
from ftsmfc.tracking_control import (
    ControlGains,
    control_law_basic,
    control_law_fts,
    solve_input,
)

CTRL = HolderGainParams(exponent=11 / 9, scale=0.35)
A = np.array([[0.559, 0.196], [0.196, 0.657]])


class TestSolveInput:
    def test_identity(self):
        np.testing.assert_allclose(
            solve_input(np.eye(2), [3.0, -4.0]), [3.0, -4.0]
        )

    def test_reference_matrix(self):
        u = solve_input(0.01 * A, [0.1, 0.2])
        # 2x2 solve; det of the unscaled matrix is 0.328847
        expected = np.linalg.solve(0.01 * A, [0.1, 0.2])
        np.testing.assert_allclose(u, expected, rtol=1e-14)
        np.testing.assert_allclose(u, [8.0584, 28.0373], atol=5e-4)
        assert abs(np.linalg.det(A) - 0.328847) < 1e-6

    def test_residual_bound(self):
        rng = np.random.default_rng(5)
        for _ in range(50):
            G = rng.standard_normal((2, 2))
            rhs = rng.standard_normal(2)
            u = solve_input(G, rhs)
            assert np.linalg.norm(G @ u - rhs) <= 1e-10 * max(1.0, np.linalg.norm(rhs))

    def test_tall_rejected(self):
        with pytest.raises(ValueError):
            solve_input(np.ones((3, 2)), [1.0, 1.0, 1.0])

    def test_rhs_shape_rejected(self):
        with pytest.raises(ValueError):
            solve_input(np.eye(2), [1.0, 1.0, 1.0])


class TestControlGains:
    def test_valid(self):
        ControlGains(params=CTRL, G=A)

    def test_rank_deficient_rejected(self):
        # two outputs, two inputs: G must be a full-rank 2 x 2 matrix
        # 1e-300 I and 1e300 I are well conditioned, but their determinant, which
        # solve_input divides by, underflows to 0 and overflows to inf
        for G in ([[1.0, 2.0], [2.0, 4.0]], np.eye(3), [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]],
                  1e-300 * np.eye(2), 1e300 * np.eye(2)):
            with pytest.raises(DomainError):
                ControlGains(params=CTRL, G=G)

    @pytest.mark.parametrize("form", [list, tuple, np.array], ids=["list", "tuple", "array"])
    def test_G_stored_as_float_rows(self, form):
        gains = ControlGains(params=CTRL, G=form([form(row) for row in A.tolist()]))
        assert gains.G == ((0.559, 0.196), (0.196, 0.657))
        assert all(type(v) is float for row in gains.G for v in row)


class TestBasicLaw:
    def test_identity_G_subtraction(self):
        gains = ControlGains(params=CTRL, G=np.eye(2))
        np.testing.assert_allclose(
            control_law_basic([1.0, 1.0], [0.5, 0.0], gains), [0.5, 1.0]
        )

    def test_perfect_estimate_lands_on_target(self):
        gains = ControlGains(params=CTRL, G=A)
        plant = SyntheticUlmPlant("constant", G=A, const=[0.3, -0.2], nu=1)
        y_d = np.array([0.7, 0.1])
        u = control_law_basic(y_d, plant.true_F(0), gains)
        y_next = plant.step(u)
        np.testing.assert_allclose(y_next, y_d, atol=1e-12)

    def test_tracking_error_equals_minus_estimation_error(self):
        gains = ControlGains(params=CTRL, G=A)
        rng = np.random.default_rng(2)
        for _ in range(20):
            plant = SyntheticUlmPlant(
                "constant", G=A, const=rng.uniform(-1, 1, 2), nu=1
            )
            e_F = rng.uniform(-0.5, 0.5, 2)
            F_hat = plant.true_F(0) + e_F
            y_d = rng.uniform(-1, 1, 2)
            y_next = plant.step(control_law_basic(y_d, F_hat, gains))
            np.testing.assert_allclose(y_next - y_d, -e_F, atol=1e-12)


class TestFtsLaw:
    def test_closed_loop_error_dynamics(self):
        gains = ControlGains(params=CTRL, G=A)
        rng = np.random.default_rng(4)
        for _ in range(20):
            plant = SyntheticUlmPlant(
                "constant", G=A, const=rng.uniform(-1, 1, 2), nu=1,
                y_init=rng.uniform(-1, 1, (1, 2)),
            )
            e_F = rng.uniform(-0.5, 0.5, 2)
            F_hat = plant.true_F(0) + e_F
            y_d = rng.uniform(-1, 1, 2)
            e_y = plant.output - y_d
            y_next = plant.step(control_law_fts(y_d, F_hat, e_y, gains))
            predicted = holder_gain(e_y, CTRL) * e_y - e_F
            np.testing.assert_allclose(y_next - y_d, predicted, atol=1e-12)

    def test_zero_error_reduces_to_basic(self):
        gains = ControlGains(params=CTRL, G=A)
        y_d, F_hat = np.array([0.3, -0.4]), np.array([0.1, 0.1])
        u_fts = control_law_fts(y_d, F_hat, np.zeros(2), gains)
        u_basic = control_law_basic(y_d, F_hat, gains)
        np.testing.assert_allclose(u_fts, u_basic, atol=1e-15)

    def test_perfect_estimate_convergence(self):
        # with e_F = 0 the tracking error contracts below 1e-9 in finite steps
        e_y = np.array([4.0, -3.0])
        for _ in range(25_000):
            e_y = holder_gain(e_y, CTRL) * e_y
            if np.linalg.norm(e_y) < 1e-9:
                break
        assert np.linalg.norm(e_y) < 1e-9
