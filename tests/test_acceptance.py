"""Acceptance tests: one pass/fail line per numbered criterion.

Each test prints a single summary line directly to the terminal.  Criteria
that the implemented equations cannot meet (README.md, section "Acceptance
status", has the analysis) assert the stated requirement verbatim and are
marked strict-xfail on an AssertionError, so a run that unexpectedly meets them,
or that fails them with any other exception, is flagged.
"""

import math
import time
from pathlib import Path

import numpy as np
import pytest

from ftsmfc import cli
from ftsmfc.fts_core import HolderGainParams, holder_gain, robustness_radius
from ftsmfc.plant_models import DivergenceError, SyntheticUlmPlant
from ftsmfc.sim_harness import (
    CSV_HEADER,
    LOG_WIDTH,
    SimConfig,
    SimLog,
    compute_metrics,
    run_closed_loop,
)
from ftsmfc.tracking_control import ControlGains, control_law_basic, control_law_fts
from ftsmfc.ulm_observer import first_order_update, second_order_update
from ftsmfc.verify import (
    fts_recursion,
    gamma_of_V,
    verify_fts_condition,
    verify_holder_continuity,
)

REPO = Path(__file__).resolve().parents[1]
OBS = HolderGainParams(exponent=9 / 7, scale=1.5)
CTRL = HolderGainParams(exponent=11 / 9, scale=0.35)
FILT = HolderGainParams(exponent=7 / 5, scale=2.0, weight=2.1)
A = np.array([[0.559, 0.196], [0.196, 0.657]])


def _emit(capsys, text: str) -> None:
    with capsys.disabled():
        print(text)


def _batched_gain(e, params):
    """holder_gain of each row of e, for a batch of independent runs.

    The weighted form e^T W e is spelt as in holder_gain; the power is
    np.power, which may differ from holder_gain in the last bits.
    """
    e0, e1 = e[:, 0], e[:, 1]
    q = params.w00 * e0 * e0 + 2.0 * params.w01 * e0 * e1 + params.w11 * e1 * e1
    x = np.power(q, params.holder_power, out=np.zeros_like(q), where=q > 0.0)
    return (x - params.scale) / (x + params.scale)


def _vector_observer_step(F_hat, F, params):
    """Row-wise first-order observer update for a batch of independent runs."""
    e = F_hat - F
    D = _batched_gain(e, params)
    return D[:, None] * e + F, D, e


class TestCriterion1:
    @pytest.mark.xfail(
        strict=True,
        raises=AssertionError,
        reason="the reference closed loop is linearly unstable for all "
        "admissible gain values and diverges; see README, Acceptance status",
    )
    def test_reference_experiment_steady_state_bounds(self, capsys):
        config = SimConfig.from_yaml(str(REPO / "configs" / "paper_experiment.yaml"))
        start = time.perf_counter()
        try:
            log = run_closed_loop(config, SimLog())
        except DivergenceError as exc:
            _emit(
                capsys,
                f"criterion 1 (reference experiment, |e_x|<0.5 m and "
                f"|e_theta|<0.05 rad after 20 s): FAIL — plant diverged at "
                f"step {exc.step_index} of {config.n_steps}",
            )
            raise AssertionError(f"reference run diverged at step {exc.step_index}")
        elapsed = time.perf_counter() - start
        metrics = compute_metrics(log, config.settle_time, config.bands)
        ok = (
            metrics["max_abs_ex"] < 0.5
            and metrics["max_abs_etheta"] < 0.05
            and elapsed < 5.0
        )
        _emit(
            capsys,
            f"criterion 1 (reference experiment): {'PASS' if ok else 'FAIL'} — "
            f"max|e_x|={metrics['max_abs_ex']:.3g}, "
            f"max|e_theta|={metrics['max_abs_etheta']:.3g}, {elapsed:.2f}s",
        )
        assert metrics["max_abs_ex"] < 0.5
        assert metrics["max_abs_etheta"] < 0.05
        assert elapsed < 5.0


class TestCriterion2:
    @pytest.mark.xfail(
        strict=True,
        raises=AssertionError,
        reason="the sigmoid gain approaches -1 at the origin, so the error "
        "tail is sub-exponential and needs far more than 500 steps to reach "
        "1e-9; see README, Acceptance status",
    )
    def test_constant_disturbance_rejection_within_500_steps(self, capsys):
        config = SimConfig.from_dict(
            {
                "dt": 1.0,
                "T": 25_000.0,
                "plant": {
                    "kind": "constant",
                    "spec": {"const": [6.0, -8.0], "G": A.tolist(), "nu": 1},
                },
                "controller": {
                    "law": "fts", "exponent": "11/9", "scale": 0.35, "G": A.tolist(),
                },
                "observer": {"order": "first", "exponent": "9/7", "scale": 1.5},
                "filter": {"enabled": False},
                "noise": {"enabled": False},
                "trajectory": {"source": "zero"},
            }
        )
        rows = np.frombuffer(run_closed_loop(config, SimLog()).rows).reshape(-1, LOG_WIDTH)
        assert np.linalg.norm([6.0, -8.0]) == pytest.approx(10.0)
        cols = CSV_HEADER.split(",")
        eF = np.linalg.norm(rows[:, cols.index("eF1"):cols.index("eF2") + 1], axis=1)
        ey = np.linalg.norm(rows[:, cols.index("ex"):cols.index("etheta") + 1], axis=1)
        both = np.flatnonzero((eF < 1e-9) & (ey < 1e-9) & (np.arange(len(eF)) >= 1))
        step = int(both[0]) if both.size else None
        detail = f"first step with both errors < 1e-9: {step}" if step else (
            f"not reached in {config.n_steps} steps "
            f"(final ||e_F||={eF[-1]:.2e}, ||e_y||={ey[-1]:.2e})"
        )
        ok = step is not None and step <= 500
        _emit(
            capsys,
            f"criterion 2 (constant rejection to 1e-9 within 500 steps): "
            f"{'PASS' if ok else 'FAIL'} — {detail}",
        )
        assert ok


class TestCriterion3:
    @pytest.mark.xfail(
        strict=True,
        raises=AssertionError,
        reason="the difference error's slow tail drives the level error; "
        "1e-9 needs ~1e6 steps, not 1000; see README, Acceptance status",
    )
    def test_ramp_rejection_within_1000_steps(self, capsys):
        (c0, c1), (d0, d1) = (0.4, -0.7), (0.01, -0.02)
        F_hat, dF_hat, F_prev = (3.0, -2.0), (0.0, 0.0), None
        budget = 120_000
        step_delta = step_F = None
        for k in range(budget):
            F_k = (c0 + k * d0, c1 + k * d1)
            F_hat, dF_hat = second_order_update(F_hat, dF_hat, F_prev, F_k, OBS)
            F_prev = F_k
            eD = math.hypot(dF_hat[0] - d0, dF_hat[1] - d1)
            eF = math.hypot(F_hat[0] - (c0 + (k + 1) * d0), F_hat[1] - (c1 + (k + 1) * d1))
            if step_delta is None and eD < 1e-9:
                step_delta = k
            if step_delta is not None and step_F is None and eF < 1e-9:
                step_F = k
                break
        detail = (
            f"||e_Delta|| < 1e-9 at step {step_delta}, "
            f"||e_F|| < 1e-9 at step {step_F if step_F is not None else f'>{budget}'}"
        )
        ok = step_F is not None and step_F <= 1000
        _emit(
            capsys,
            f"criterion 3 (ramp rejection to 1e-9 within 1000 steps): "
            f"{'PASS' if ok else 'FAIL'} — {detail}",
        )
        assert ok


class TestBatchedGain:
    @pytest.mark.parametrize(
        "params",
        [OBS, CTRL, FILT,
         HolderGainParams(exponent=1.5, scale=0.7, weight=[[2.0, 0.3], [0.3, 1.0]])],
        ids=["OBS", "CTRL", "FILT", "matrix-weight"],
    )
    def test_matches_holder_gain(self, params):
        # criteria 4 and 5 read every gain from _batched_gain, so a change to
        # holder_gain or its parameters must reach them through this test
        rng = np.random.default_rng(20240817)
        e = rng.standard_normal((500, 2)) * 10.0 ** rng.uniform(-8, 3, (500, 1))
        e[0] = 0.0
        want = [holder_gain(row, params) for row in map(tuple, e.tolist())]
        got = _batched_gain(e, params)
        np.testing.assert_allclose(got, want, rtol=0.0, atol=1e-12)
        assert got[0] == want[0] == -1.0


class TestCriterion4:
    @pytest.mark.xfail(
        strict=True,
        raises=AssertionError,
        reason="the stated neighborhood uses the expansion-side quadratic "
        "root; the steady error sits well outside it; see README, Acceptance status",
    )
    def test_random_walk_ultimate_bound_membership(self, capsys):
        rng = np.random.default_rng(20240812)
        burn_in, horizon = 2_000, 10_000
        total_violations = 0
        per_B = []
        for B, n_runs in ((0.01, 34), (0.1, 33), (1.0, 33)):
            F = rng.standard_normal((n_runs, 2))
            F_hat = F + rng.uniform(-3, 3, (n_runs, 2))
            violations = 0
            for k in range(burn_in + horizon):
                F_hat, D, e = _vector_observer_step(F_hat, F, OBS)
                step = rng.standard_normal((n_runs, 2))
                step *= B / np.linalg.norm(step, axis=1, keepdims=True)
                F = F + step
                if k >= burn_in:
                    e = F_hat - F
                    norms = np.linalg.norm(e, axis=1)
                    rho = 1.0 + np.abs(_batched_gain(e, OBS))
                    violations += int(np.count_nonzero(rho * norms > B))
            per_B.append(f"B={B}: {violations}/{n_runs * horizon}")
            total_violations += violations
        ok = total_violations == 0
        _emit(
            capsys,
            f"criterion 4 (random-walk drift: rho(e)*||e|| <= B at every "
            f"post-convergence step): {'PASS' if ok else 'FAIL'} — "
            f"violations {'; '.join(per_B)}",
        )
        assert ok

    def test_batched_observer_matches_first_order_update(self):
        rng = np.random.default_rng(20240816)
        n_runs = 24
        F = rng.standard_normal((n_runs, 2))
        batch = F + rng.uniform(-3, 3, (n_runs, 2))
        batch[0] = F[0]  # an exact-zero error, kept by a still sample
        F_hat = [tuple(row) for row in batch.tolist()]
        for _ in range(20):
            samples = [tuple(row) for row in F.tolist()]
            F_hat = [first_order_update(f, s, OBS) for f, s in zip(F_hat, samples)]
            batch, _, _ = _vector_observer_step(batch, F, OBS)
            np.testing.assert_allclose(batch, F_hat, rtol=0.0, atol=1e-12)
            step = 0.1 * rng.standard_normal((n_runs, 2))
            step[0] = 0.0
            F = F + step
        assert batch[0].tolist() == list(F_hat[0]) == F[0].tolist()


class TestCriterion5:
    @pytest.mark.xfail(
        strict=True,
        raises=AssertionError,
        reason="same expansion-side root in the tracking neighborhood; "
        "entry occurs but membership is not invariant under persistent "
        "estimation error; see README, Acceptance status",
    )
    def test_tracking_neighborhood_entry_and_invariance(self, capsys):
        rng = np.random.default_rng(20240813)
        horizon = 12_000
        entries = 0
        trials = 0
        total_violations = 0
        for B, n_trials in ((0.01, 34), (0.1, 33), (1.0, 33)):
            e = rng.uniform(-3, 3, (n_trials, 2))
            entered = np.full(n_trials, -1)
            violations = np.zeros(n_trials, dtype=int)
            for k in range(horizon):
                C = _batched_gain(e, CTRL)
                sigma = 1.0 + np.abs(C)
                inside = sigma * np.linalg.norm(e, axis=1) <= B
                newly = inside & (entered < 0)
                entered[newly] = k
                violations[(entered >= 0) & ~inside] += 1
                e_F = rng.standard_normal((n_trials, 2))
                e_F *= rng.uniform(0, B, (n_trials, 1)) / np.linalg.norm(
                    e_F, axis=1, keepdims=True
                )
                e = C[:, None] * e - e_F
            entries += int(np.count_nonzero(entered >= 0))
            trials += n_trials
            total_violations += int(violations.sum())
        ok = entries == trials and total_violations == 0
        _emit(
            capsys,
            f"criterion 5 (injected ||e_F|| <= B: sigma(e_y)*||e_y|| <= B after "
            f"finite entry): {'PASS' if ok else 'FAIL'} — finite entry in "
            f"{entries}/{trials} trials, {total_violations} post-entry violations",
        )
        assert ok


class TestCriterion6:
    def test_recursion_property_suite(self, capsys):
        rng = np.random.default_rng(20240814)
        n = 10_000
        worst_N = 0
        failures = 0
        for _ in range(n):
            V0 = 10.0 ** rng.uniform(-6, 6)
            eta = rng.uniform(1e-3, 10.0)
            alpha = rng.uniform(0.05, 0.95)
            trace, N = fts_recursion(V0, eta, alpha, max_steps=20_000_000)
            eps = eta ** (1.0 / (1.0 - alpha))
            gamma_fn = lambda V, eta=eta: np.full_like(  # noqa: E731
                np.asarray(V, dtype=float), eta
            )
            if (
                N is None
                or not verify_fts_condition(trace, gamma_fn, eps)
                or not verify_holder_continuity(trace, eps)
            ):
                failures += 1
            else:
                worst_N = max(worst_N, N)
        ok = failures == 0
        _emit(
            capsys,
            f"criterion 6 (10^4 random recursions reach exactly 0 and verify "
            f"both conditions): {'PASS' if ok else 'FAIL'} — failures "
            f"{failures}/{n}, largest N = {worst_N}",
        )
        assert ok


class TestCriterion7:
    def test_algebraic_identities(self, capsys):
        rng = np.random.default_rng(20240815)
        checks = []

        # gamma formula vs (1 - D^2) V^a, 1e6 samples, 1e-12 relative
        n = 1_000_000
        r = rng.uniform(1.01, 1.99, n)
        lam = 10.0 ** rng.uniform(-3, 3, n)
        V = 10.0 ** rng.uniform(-6, 6, n)
        a = 1.0 - 1.0 / r
        x = np.power(V, a)
        gamma = 4.0 * lam * np.power(V, 2 * a) / np.square(x + lam)
        D = (x - lam) / (x + lam)
        gdiff = float(np.max(np.abs(gamma - (1.0 - D * D) * x) / np.maximum(1.0, gamma)))
        checks.append(("gamma identity", gdiff, gdiff <= 1e-12))
        for i in range(0, n, n // 50):
            p = HolderGainParams(exponent=float(r[i]), scale=float(lam[i]))
            assert gamma_of_V(float(V[i]), p) == pytest.approx(gamma[i], rel=1e-12)

        # rho(zeta) = 1 + sqrt(1 - zeta) over [1e-6, 1] (extended-precision
        # quotient: the double-precision quotient form cancels catastrophically)
        zeta = np.concatenate([10.0 ** np.linspace(-6, 0, 500_000), [1.0]])
        stable = 1.0 + np.sqrt(1.0 - zeta)
        zl = zeta.astype(np.longdouble)
        quotient = np.where(
            zl < 1.0, zl / (1.0 - np.sqrt(1.0 - zl)), np.longdouble(1.0)
        ).astype(float)
        rdiff = float(np.max(np.abs(stable - quotient) / stable))
        checks.append(("rho identity", rdiff, rdiff <= 1e-12))
        assert robustness_radius(0.0) == 1.0

        # all three gains are exactly -1 at the origin
        exact = all(
            holder_gain((0.0, 0.0), p) == -1.0 for p in (OBS, CTRL, FILT)
        )
        checks.append(("gains at origin = -1", 0.0 if exact else 1.0, exact))

        # closed-loop identities on synthetic plants, 1e-10 per step
        gains = ControlGains(params=CTRL, G=A)
        worst_basic = worst_fts = 0.0
        for _ in range(50):
            plant = SyntheticUlmPlant(
                "sinusoid", G=A, nu=1, amplitude=rng.uniform(0.1, 2.0, 2),
                freq=rng.uniform(0.01, 0.5, 2), y_init=rng.uniform(-1, 1, (1, 2)),
            )
            F_hat = rng.uniform(-1, 1, 2)
            y_d = rng.uniform(-1, 1, 2)
            e_F = F_hat - plant.true_F(plant.k)
            y_next = plant.step(control_law_basic(y_d, F_hat, gains))
            worst_basic = max(worst_basic, float(np.max(np.abs((y_next - y_d) + e_F))))
            e_y = plant.output - y_d
            e_F = F_hat - plant.true_F(plant.k)
            y_next = plant.step(control_law_fts(y_d, F_hat, e_y, gains))
            predicted = holder_gain(e_y, CTRL) * e_y - e_F
            worst_fts = max(worst_fts, float(np.max(np.abs((y_next - y_d) - predicted))))
        checks.append(("basic-law identity", worst_basic, worst_basic <= 1e-10))
        checks.append(("feedback-law dynamics", worst_fts, worst_fts <= 1e-10))

        ok = all(c[2] for c in checks)
        detail = ", ".join(f"{name} worst={margin:.2e}" for name, margin, _ in checks)
        _emit(
            capsys,
            f"criterion 7 (algebraic identities): {'PASS' if ok else 'FAIL'} — {detail}",
        )
        for name, margin, passed in checks:
            assert passed, f"{name} worst margin {margin}"


class TestCriterion8:
    def test_determinism_byte_identical_output(self, capsys, tmp_path):
        # the committed completing reference config, simulated as users run it:
        # byte-identical CSV
        config = str(REPO / "configs" / "synthetic_constant.yaml")
        payloads = []
        for name in ("run_a.csv", "run_b.csv"):
            path = tmp_path / name
            assert cli.main(["simulate", "--config", config, "--out", str(path)]) == cli.EXIT_OK
            payloads.append(path.read_bytes())
        identical = payloads[0] == payloads[1]

        # the diverging config fails identically on every run
        paper = SimConfig.from_yaml(str(REPO / "configs" / "paper_experiment.yaml"))
        steps = []
        for _ in range(2):
            with pytest.raises(DivergenceError) as info:
                run_closed_loop(paper, SimLog())
            steps.append(info.value.step_index)
        same_failure = steps[0] == steps[1]

        ok = identical and same_failure
        _emit(
            capsys,
            f"criterion 8 (determinism): {'PASS' if ok else 'FAIL'} — "
            f"byte-identical CSV over two runs: {identical}; diverging config "
            f"fails at the same step twice: {steps}",
        )
        assert identical
        assert same_failure
