"""Unit tests for the sigmoid-gain primitives and Lyapunov verifiers."""

import itertools
import math
import types

import numpy as np
import pytest

from ftsmfc import (
    cli,
    config,
    fts_core,
    output_filter,
    plant_models,
    sim_harness,
    tracking_control,
    ulm_observer,
)
from ftsmfc.fts_core import (
    DomainError,
    HolderGainParams,
    LyapunovTrace,
    Record,
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
        HolderGainParams(exponent=1.99, scale=1e6, weight=np.eye(2))

    @pytest.mark.parametrize("exponent", [1.0, 2.0, 0.5, 3.0, math.nan, math.inf, -math.inf])
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
        # two channels: the weight is 2 x 2
        with pytest.raises(DomainError, match="2 x 2"):
            HolderGainParams(exponent=1.5, scale=1.0, weight=np.eye(3))

    def test_holder_power(self):
        assert HolderGainParams(exponent=9 / 7, scale=1.5).holder_power == pytest.approx(
            2 / 9, abs=1e-15
        )

    @pytest.mark.parametrize("form", [list, tuple, np.array], ids=["list", "tuple", "array"])
    def test_matrix_weight_stored_as_float_rows(self, form):
        rows = [[2.0, 0.3], [0.3, 1.0]]
        p = HolderGainParams(exponent=1.4, scale=2.0, weight=form([form(r) for r in rows]))
        assert p.weight == ((2.0, 0.3), (0.3, 1.0))
        assert all(type(v) is float for row in p.weight for v in row)
        assert (p.w00, p.w01, p.w11) == (2.0, 0.3, 1.0)

    def test_scalar_weight_stored_as_float(self):
        p = HolderGainParams(exponent=1.4, scale=2.0, weight=np.float32(2.5))
        assert type(p.weight) is float and p.weight == 2.5

    def test_matrix_weight_hashable_and_equal_to_its_twin(self):
        a = HolderGainParams(exponent=1.4, scale=2.0, weight=[[2.0, 0.3], [0.3, 1.0]])
        b = HolderGainParams(exponent=1.4, scale=2.0, weight=np.array([[2.0, 0.3], [0.3, 1.0]]))
        assert a == b and hash(a) == hash(b)
        assert a != HolderGainParams(exponent=1.4, scale=2.0, weight=[[2.0, 0.3], [0.3, 1.5]])


def test_record_takes_exactly_its_fields_by_keyword():
    class Point(Record):
        _fields = ("x", "y")

    assert Point(y=2.0, x=1.0) == Point(x=1.0, y=2.0)
    assert repr(Point(y=2.0, x=1.0)).endswith("Point(x=1.0, y=2.0)")  # in _fields order
    for args, kwargs in (((), {"x": 1.0}), ((), {"x": 1.0, "y": 2.0, "z": 3.0}), ((1.0, 2.0), {})):
        with pytest.raises(TypeError):
            Point(*args, **kwargs)


def _accepted(weight) -> bool:
    """Whether HolderGainParams takes weight; a non-SPD weight is its only DomainError here."""
    try:
        HolderGainParams(exponent=1.5, scale=1.0, weight=weight)
    except DomainError as exc:
        assert "positive definite" in str(exc)
        return False
    return True


# Where the closed-form check and eigvalsh may disagree: a smallest eigenvalue
# within this fraction of the largest absolute eigenvalue of zero, where both
# round the sign of a near-zero determinant.  About 4.5 ulps; the largest
# disagreement seen on 20 000 near-singular matrices was 7e-17.
SPD_REL_MARGIN = 1e-15


class TestWeightSpdCheck:
    def _agrees(self, w) -> bool:
        eig = np.linalg.eigvalsh(w)
        return _accepted(w) == (eig.min() > 0.0) or (
            abs(eig.min()) <= SPD_REL_MARGIN * np.abs(eig).max()
        )

    def test_agrees_with_eigvalsh_on_random_symmetric(self):
        rng = np.random.default_rng(11)
        n = 10_000
        scale = 10.0 ** rng.uniform(-6, 6, n)
        a, c = rng.uniform(-0.2, 1.0, (2, n)) * scale
        b = rng.uniform(-1.0, 1.0, n) * scale
        accepted = 0
        for i in range(n):
            w = np.array([[a[i], b[i]], [b[i], c[i]]])
            assert self._agrees(w), w
            accepted += _accepted(w)
        # both verdicts are exercised
        assert 0.2 * n < accepted < 0.8 * n

    def test_agrees_with_eigvalsh_near_singular(self):
        # b^2 = a*c (1 + delta): singular for delta = 0, indefinite above it
        rng = np.random.default_rng(12)
        for _ in range(2000):
            a, c = 10.0 ** rng.uniform(-3, 3, 2)
            delta = rng.choice([-1.0, 1.0]) * 10.0 ** rng.uniform(-17, -1)
            b = rng.choice([-1.0, 1.0]) * math.sqrt(a * c * (1.0 + delta))
            w = np.array([[a, b], [b, c]])
            assert self._agrees(w), w

    @pytest.mark.parametrize(
        "w, spd",
        [([[1.0, 2.0], [2.0, 1.0]], False), ([[0.0, 0.0], [0.0, 1.0]], False),
         ([[1.0, 0.0], [0.0, 0.0]], False), ([[-1.0, 0.0], [0.0, -1.0]], False),
         ([[0.0, 1.0], [1.0, 0.0]], False), ([[-1.0, 0.0], [0.0, 2.0]], False),
         ([[2.0, 0.0], [0.0, -1e-300]], False), ([[1.0, 1e200], [1e200, 1.0]], False),
         ([[1.0, 1.0], [1.0, 1.0]], False), ([[1e-300, 0.0], [0.0, 1e-300]], True),
         ([[1e300, 0.0], [0.0, 1e300]], True), ([[1.0, 0.999], [0.999, 1.0]], True)],
    )
    def test_edge_cases(self, w, spd):
        # indefinite, semi-definite, and tiny or huge but definite weights
        assert _accepted(w) == spd
        assert (np.linalg.eigvalsh(np.array(w)).min() > 0.0) == spd

    @pytest.mark.parametrize("w", [[[math.inf, 0.0], [0.0, 1.0]], [[1.0, 0.0], [0.0, math.nan]]])
    def test_non_finite_diagonal_rejected(self, w):
        assert not _accepted(w)

    @pytest.mark.parametrize("base", [0.0, 0.3, -0.7, 5.0, 1e6])
    @pytest.mark.parametrize("factor", [1.0 - 1e-3, 1.0 + 1e-3], ids=["inside", "outside"])
    @pytest.mark.parametrize("sign", [1.0, -1.0])
    def test_symmetry_tolerance_is_allclose(self, base, factor, sign):
        # |w01 - w10| just inside and just outside atol + rtol*|w|, w01 above and below w10
        w10 = base + sign * factor * (1e-12 + 1e-12 * abs(base))
        for w in (np.array([[1e7, base], [w10, 1e7]]), np.array([[1e7, w10], [base, 1e7]])):
            expected = bool(np.allclose(w, w.T, rtol=1e-12, atol=1e-12))
            assert expected == (factor < 1.0)
            try:
                HolderGainParams(exponent=1.5, scale=1.0, weight=w)
                symmetric = True
            except DomainError as exc:
                assert "symmetric" in str(exc)
                symmetric = False
            assert symmetric == expected


def test_kernel_modules_bind_no_numpy():
    # the kernel, the config reader, the plants, the loop and the CLI run on floats only;
    # NumPy is bound in ftsmfc.verify
    for module in (fts_core, output_filter, ulm_observer, tracking_control, config,
                   plant_models, sim_harness, cli):
        bound = [name for name, value in vars(module).items()
                 if isinstance(value, types.ModuleType) and value.__name__.split(".")[0] == "numpy"]
        assert bound == [], (module.__name__, bound)


class TestHolderGain:
    def test_zero_vector_is_exactly_minus_one(self):
        assert holder_gain((0.0, 0.0), OBS) == -1.0
        # the gain takes a pair; other lengths are rejected
        for dim in (1, 5):
            with pytest.raises(ValueError):
                holder_gain(np.zeros(dim), OBS)

    # The floating-point floor: the gain is exactly -1.0 up to a radius where x is lost
    # against scale, and above -1.0 just past it, on either axis and either sign.
    @pytest.mark.parametrize("params, last_minus_one, first_above", [
        (config.OBS_PARAMS, 1.26e-36, 1.27e-36),
        (config.CTRL_PARAMS, 2.94e-46, 2.95e-46),
        (config._FILTER_PARAMS, 8.28e-29, 8.29e-29),
    ], ids=["observer", "law", "filter"])
    def test_exactly_minus_one_below_the_floor(self, params, last_minus_one, first_above):
        for r, s in itertools.product((last_minus_one, first_above), (1.0, -1.0)):
            for e in ((s * r, 0.0), (0.0, s * r)):
                assert (holder_gain(e, params) == -1.0) == (r == last_minus_one), (e, r)

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
        # a finite e whose e^T W e overflows has no finite gain either
        with np.errstate(over="ignore"), pytest.raises(DomainError):
            holder_gain([1e200, 0.0], OBS)


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

    def test_negative_max_steps(self):
        with pytest.raises(DomainError, match="^max_steps must be non-negative$"):
            fts_recursion(1.0, 1.0, 0.5, max_steps=-1)


class TestLyapunovTrace:
    def test_rejects_negative_values(self):
        with pytest.raises(DomainError):
            LyapunovTrace(values=np.array([1.0, -0.1]), alpha=0.5, eta=1.0)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("at", [0, 1])
    def test_rejects_non_finite_values(self, bad, at):
        values = np.array([1.0, 0.5])
        values[at] = bad
        with pytest.raises(DomainError, match="finite and non-negative"):
            LyapunovTrace(values=values, alpha=0.5, eta=1.0)

    def test_rejects_resurrection_after_zero(self):
        with pytest.raises(DomainError):
            LyapunovTrace(values=np.array([1.0, 0.0, 0.5]), alpha=0.5, eta=1.0)

    @pytest.mark.parametrize("values", [[0.0, 1e-300], [2.0, 0.0, 0.0, 5.0]])
    def test_rejects_any_later_nonzero(self, values):
        with pytest.raises(DomainError, match="stay at 0"):
            LyapunovTrace(values=np.array(values), alpha=0.5, eta=1.0)

    def test_accepts_a_zero_tail(self):
        assert len(LyapunovTrace(values=np.array([1.0, 0.0, 0.0]), alpha=0.5, eta=1.0)) == 3

    @pytest.mark.parametrize("values, alpha, eta, message", [
        ([], 0.5, 1.0, "trace values must be a non-empty 1-d sequence"),
        ([[1.0, 0.5]], 0.5, 1.0, "trace values must be a non-empty 1-d sequence"),
        ([1.0, 0.5], 0.0, 1.0, r"alpha must lie in \]0,1\[, got 0.0"),
        ([1.0, 0.5], 1.0, 1.0, r"alpha must lie in \]0,1\[, got 1.0"),
        ([1.0, 0.5], 0.5, 0.0, "eta must be positive, got 0.0"),
        ([1.0, 0.5], 0.5, math.inf, "eta must be positive, got inf"),
    ], ids=["empty", "2-d", "alpha-0", "alpha-1", "eta-0", "eta-inf"])
    def test_rejects_bad_shape_alpha_or_eta(self, values, alpha, eta, message):
        with pytest.raises(DomainError, match=f"^{message}$"):
            LyapunovTrace(values=np.array(values), alpha=alpha, eta=eta)


class TestVerifyFtsCondition:
    def test_constant_zero_trace(self):
        trace = LyapunovTrace(values=np.zeros(5), alpha=0.5, eta=1.0)
        assert verify_fts_condition(trace, lambda V: 1.0, 1.0)

    def test_one_value_trace(self):
        # no consecutive pair to check: gamma_fn sees an empty array, then V >= epsilon
        calls = []

        def gamma(V):
            calls.append(np.shape(V))
            return 2.0

        trace = LyapunovTrace(values=np.array([3.0]), alpha=0.5, eta=1.0)
        assert verify_fts_condition(trace, gamma, 1.0)
        assert calls == [(0,), (1,)]

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

    @pytest.mark.parametrize("extra", [None, 1], ids=["shape-(1,)", "shape-(n+1,)"])
    def test_wrong_shape_gamma_is_domain_error(self, extra):
        # a result neither scalar nor of V's shape is never broadcast
        trace, _ = fts_recursion(7.0, 0.5, 0.5)
        n = len(trace) - 1

        def gamma(V):
            return np.full(1 if extra is None else len(V) + extra, 0.5)

        with pytest.raises(DomainError, match=rf"shape \({1 if extra is None else n + 1},\) "
                                              rf"for V of shape \({n},\)"):
            verify_fts_condition(trace, gamma, 0.25)


class TestVerifyHolderContinuity:
    def test_all_zero_trace(self):
        trace = LyapunovTrace(values=np.zeros(4), alpha=0.5, eta=1.0)
        assert verify_holder_continuity(trace, 1.0)

    def test_single_step_trace(self):
        trace, _ = fts_recursion(1.0, 1.0, 0.5)
        assert verify_holder_continuity(trace, 1.0)

    def test_one_value_trace(self):
        # no index pair to check, whatever epsilon
        trace = LyapunovTrace(values=np.array([3.0]), alpha=0.5, eta=1.0)
        assert verify_holder_continuity(trace, 1e-300)

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
            for bad in (math.nan, math.inf, -math.inf):
                with pytest.raises(DomainError):
                    fn(bad)
