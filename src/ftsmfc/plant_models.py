"""Simulated truth models: the inverted pendulum on a cart, synthetic
control-affine test plants, the open-loop trajectory generator, and the
deterministic measurement-noise waveform.

The pendulum is a two-input (cart force, pendulum torque), two-output (cart
position, pendulum angle) mechanical system with tanh-saturated friction on
both degrees of freedom, discretized by forward differences.  The resulting
second-order discrete plant is

    y_{k+2} = F_k + G_k u_k,
    G_k = dt^2 * M(y_k)^{-1},
    F_k = 2 y_{k+1} - y_k - dt^2 * M(y_k)^{-1} D(y_k, (y_{k+1}-y_k)/dt),

so the lifted pair (y_k, y_{k+1}) is the canonical plant state and the
relative degree is 2.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional, Tuple

import numpy as np


class DivergenceError(RuntimeError):
    """A simulated trajectory left the admissible region."""

    def __init__(self, message: str, step_index: Optional[int] = None):
        super().__init__(message)
        self.step_index = step_index


DIVERGENCE_LIMIT = 1.0e6


@dataclass(frozen=True)
class PendulumParams:
    """Cart-pendulum physical parameters (defaults reproduce the reference experiment)."""

    M_cart: float = 1.5  # kg
    m_pend: float = 0.5  # kg
    l_half: float = 1.4  # m, half the pendulum length
    I_pend: float = 0.84  # kg m^2
    g: float = 9.8  # m/s^2
    c_x: float = 0.028  # N, cart friction saturation
    c_theta: float = 0.0032  # N m, pendulum friction saturation

    def __post_init__(self) -> None:
        for name in ("M_cart", "m_pend", "l_half", "I_pend", "g", "c_x", "c_theta"):
            if not getattr(self, name) > 0.0:
                raise ValueError(f"PendulumParams.{name} must be positive")


def mass_matrix(theta: float, params: PendulumParams = PendulumParams()) -> np.ndarray:
    """Configuration-dependent mass matrix; symmetric positive definite."""
    if not math.isfinite(theta):
        raise ValueError("theta must be finite")
    ml = params.m_pend * params.l_half
    c = math.cos(theta)
    return np.array(
        [
            [params.M_cart + params.m_pend, -ml * c],
            [-ml * c, params.I_pend + ml * params.l_half],
        ]
    )


def bias_vector(
    theta: float,
    xdot: float,
    thetadot: float,
    params: PendulumParams = PendulumParams(),
) -> np.ndarray:
    """Velocity/gravity bias term, including tanh-saturated friction.

    Component 1: m*l*thetadot^2*sin(theta) + c_x*tanh(xdot);
    component 2: c_theta*tanh(thetadot) - m*g*l*sin(theta).
    """
    ml = params.m_pend * params.l_half
    s = math.sin(theta)
    return np.array(
        [
            ml * thetadot * thetadot * s + params.c_x * math.tanh(xdot),
            params.c_theta * math.tanh(thetadot) - params.m_pend * params.g * params.l_half * s,
        ]
    )


@dataclass(frozen=True)
class LiftedPlantState:
    """Consecutive output pair (y_k, y_{k+1}) of the forward-difference plant."""

    y_prev: np.ndarray
    y_curr: np.ndarray

    def __post_init__(self) -> None:
        yp = np.asarray(self.y_prev, dtype=float)
        yc = np.asarray(self.y_curr, dtype=float)
        if not (np.all(np.isfinite(yp)) and np.all(np.isfinite(yc))):
            raise ValueError("lifted state must be finite")
        object.__setattr__(self, "y_prev", yp)
        object.__setattr__(self, "y_curr", yc)


def pendulum_ulm_terms(
    state: LiftedPlantState, dt: float, params: PendulumParams = PendulumParams()
) -> Tuple[np.ndarray, np.ndarray]:
    """True plant pair (F, G) with y_next = F + G u; exposed for test oracles."""
    if not dt > 0.0:
        raise ValueError("dt must be positive")
    theta = state.y_prev[1]
    qdot = (state.y_curr - state.y_prev) / dt
    M = mass_matrix(theta, params)
    Minv = np.linalg.inv(M)
    G = dt * dt * Minv
    D = bias_vector(theta, qdot[0], qdot[1], params)
    F = 2.0 * state.y_curr - state.y_prev - G @ D
    return F, G


def pendulum_step(
    state: LiftedPlantState,
    u,
    dt: float,
    params: PendulumParams = PendulumParams(),
) -> np.ndarray:
    """One forward-difference step: y_{k+2} = F_k + G_k u_k."""
    u = np.asarray(u, dtype=float)
    F, G = pendulum_ulm_terms(state, dt, params)
    return F + G @ u


def open_loop_input(
    theta: float, thetadot: float, params: PendulumParams = PendulumParams()
) -> np.ndarray:
    """Model-based (force, torque) pair used only for trajectory generation."""
    if not (math.isfinite(theta) and math.isfinite(thetadot)):
        raise ValueError("inputs must be finite")
    M, m = params.M_cart, params.m_pend
    g, l = params.g, params.l_half
    s = math.sin(theta)
    force = m * l * thetadot * thetadot * s - 2.0 * (M + m * s * s) * g * s - (M + m) * g * s
    torque = -m * g * l * s
    return np.array([force, torque])


def generate_desired_trajectory(
    init,
    T: float,
    dt: float,
    params: PendulumParams = PendulumParams(),
    n_extra: int = 0,
) -> np.ndarray:
    """Propagate the pendulum under the open-loop inputs sampled every dt.

    init is (x, theta, xdot, thetadot).  Returns floor(T/dt) + 1 + n_extra
    output samples of shape (count, 2); the initial generalized velocity is
    folded into the lifted state via y_1 = y_0 + dt*qdot_0.
    """
    init = np.asarray(init, dtype=float)
    if init.shape != (4,):
        raise ValueError("init must be (x, theta, xdot, thetadot)")
    if not (T >= 0.0 and dt > 0.0):
        raise ValueError("require T >= 0 and dt > 0")
    count = int(math.floor(T / dt)) + 1 + int(n_extra)
    y0 = init[:2]
    qdot0 = init[2:]
    samples = np.empty((count, 2))
    samples[0] = y0
    if count == 1:
        return samples
    samples[1] = y0 + dt * qdot0
    for k in range(count - 2):
        state = LiftedPlantState(samples[k], samples[k + 1])
        thetadot = (samples[k + 1][1] - samples[k][1]) / dt
        u = open_loop_input(samples[k][1], thetadot, params)
        y_next = pendulum_step(state, u, dt, params)
        if not np.all(np.isfinite(y_next)) or np.linalg.norm(y_next) > DIVERGENCE_LIMIT:
            raise DivergenceError(
                f"trajectory generation diverged at step {k + 2}", step_index=k + 2
            )
        samples[k + 2] = y_next
    return samples


@dataclass(frozen=True)
class NoiseConfig:
    """Deterministic FM-sinusoid measurement noise, per output channel.

    eta_i(t) = amplitudes_i * sin(base_freqs_i*t
                                  + fm_depth_i*sin(fm_freqs_i*t) + phases_i).
    """

    amplitudes: np.ndarray = field(default_factory=lambda: np.array([0.001, 0.001]))
    base_freqs: np.ndarray = field(default_factory=lambda: np.array([120.0, 150.0]))
    fm_depth: np.ndarray = field(default_factory=lambda: np.array([5.0, 5.0]))
    fm_freqs: np.ndarray = field(default_factory=lambda: np.array([0.5, 0.7]))
    phases: np.ndarray = field(default_factory=lambda: np.array([0.0, 0.0]))

    def __post_init__(self) -> None:
        for name in ("amplitudes", "base_freqs", "fm_depth", "fm_freqs", "phases"):
            object.__setattr__(self, name, np.asarray(getattr(self, name), dtype=float))
        if np.any(self.amplitudes < 0.0):
            raise ValueError("noise amplitudes must be non-negative")


def noise_sample(t: float, cfg: NoiseConfig) -> np.ndarray:
    """Noise vector at time t; bounded componentwise by the amplitudes."""
    if t < 0.0:
        raise ValueError("t must be non-negative")
    phase = cfg.base_freqs * t + cfg.fm_depth * np.sin(cfg.fm_freqs * t) + cfg.phases
    return cfg.amplitudes * np.sin(phase)


class PendulumPlant:
    """Stepped interface around the discretized pendulum (relative degree 2)."""

    nu = 2

    def __init__(self, init, dt: float, params: PendulumParams = PendulumParams()):
        init = np.asarray(init, dtype=float)
        if init.shape != (4,):
            raise ValueError("init must be (x, theta, xdot, thetadot)")
        y0 = init[:2]
        y1 = y0 + dt * init[2:]
        self.params = params
        self.dt = float(dt)
        self.state = LiftedPlantState(y0, y1)
        self.k = 0

    @property
    def output(self) -> np.ndarray:
        """Current output y_k."""
        return self.state.y_prev

    def step(self, u) -> np.ndarray:
        """Apply u_k; produces y_{k+2} and advances the output clock to k+1."""
        y_next = pendulum_step(self.state, u, self.dt, self.params)
        if not np.all(np.isfinite(y_next)) or np.linalg.norm(y_next) > DIVERGENCE_LIMIT:
            raise DivergenceError(f"plant diverged at step {self.k}", step_index=self.k)
        self.state = LiftedPlantState(self.state.y_curr, y_next)
        self.k += 1
        return y_next


class SyntheticUlmPlant:
    """Test plant emitting y_{k+nu} = F_k + G u_k with a scripted unknown term.

    Kinds: "constant" (F = const), "ramp" (F_k = k*slope), "sinusoid"
    (F_k,i = amplitude_i*sin(freq_i*k)), "random-walk" (steps of norm exactly
    `bound`, seeded).  The scripted F_k is exposed through true_F for oracles.
    """

    def __init__(
        self,
        kind: str,
        *,
        G=None,
        n: int = 2,
        nu: int = 1,
        const=None,
        slope=None,
        amplitude=None,
        freq=None,
        bound: Optional[float] = None,
        seed: Optional[int] = None,
        y_init=None,
    ):
        if nu < 1:
            raise ValueError("nu must be >= 1")
        self.kind = kind
        self.n = n
        self.nu = int(nu)
        self.G = np.eye(n) if G is None else np.asarray(G, dtype=float)
        self.k = 0
        # pending outputs y_k .. y_{k+nu-1}; y_{k+nu} is produced by step()
        if y_init is None:
            window = [np.zeros(n) for _ in range(self.nu)]
        else:
            y_init = np.atleast_2d(np.asarray(y_init, dtype=float))
            if y_init.shape != (self.nu, n):
                raise ValueError(f"y_init must have shape ({self.nu}, {n})")
            window = [y_init[i].copy() for i in range(self.nu)]
        self._window = window

        if kind == "constant":
            self._const = np.asarray(const, dtype=float)
        elif kind == "ramp":
            self._slope = np.asarray(slope, dtype=float)
        elif kind == "sinusoid":
            self._amp = np.asarray(amplitude, dtype=float)
            self._freq = np.asarray(freq, dtype=float)
        elif kind == "random-walk":
            if bound is None or seed is None:
                raise ValueError("random-walk requires bound and seed")
            self._bound = float(bound)
            rng = np.random.default_rng(seed)
            self._rng = rng
            self._walk = [rng.standard_normal(n)]
        else:
            raise ValueError(f"unknown synthetic plant kind: {kind!r}")

    def true_F(self, k: int) -> np.ndarray:
        """The scripted unknown term at step k."""
        if self.kind == "constant":
            return self._const.copy()
        if self.kind == "ramp":
            return float(k) * self._slope
        if self.kind == "sinusoid":
            return self._amp * np.sin(self._freq * float(k))
        while len(self._walk) <= k:
            step = self._rng.standard_normal(self.n)
            step *= self._bound / np.linalg.norm(step)
            self._walk.append(self._walk[-1] + step)
        return self._walk[k].copy()

    @property
    def output(self) -> np.ndarray:
        """Current output y_k."""
        return self._window[0]

    def step(self, u) -> np.ndarray:
        """Apply u_k; produces y_{k+nu} and advances the output clock to k+1."""
        u = np.asarray(u, dtype=float)
        y_new = self.true_F(self.k) + self.G @ u
        self._window.append(y_new)
        self._window.pop(0)
        self.k += 1
        return y_new
