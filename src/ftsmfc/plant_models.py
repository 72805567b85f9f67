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

import itertools
import math
from array import array
from typing import Iterator, Optional

from .fts_core import Pair, Record


class DivergenceError(RuntimeError):
    """A simulated trajectory left the admissible region."""

    def __init__(self, message: str, step_index: Optional[int] = None):
        super().__init__(message)
        self.step_index = step_index


DIVERGENCE_LIMIT = 1.0e6
# Rows a block of a streamed table, as handed to a sink's write(): one block of the CSV
# writer (sim_harness.CsvOutput), which is fast and keeps memory flat.
SINK_ROWS = 256


class PendulumParams(Record):
    """Cart-pendulum physical parameters (defaults reproduce the reference experiment)."""

    _fields = ("M_cart", "m_pend", "l_half", "I_pend", "g", "c_x", "c_theta")

    def __init__(
        self,
        M_cart: float = 1.5,  # kg
        m_pend: float = 0.5,  # kg
        l_half: float = 1.4,  # m, half the pendulum length
        I_pend: float = 0.84,  # kg m^2
        g: float = 9.8,  # m/s^2
        c_x: float = 0.028,  # N, cart friction saturation
        c_theta: float = 0.0032,  # N m, pendulum friction saturation
    ) -> None:
        self._set(M_cart=M_cart, m_pend=m_pend, l_half=l_half, I_pend=I_pend, g=g, c_x=c_x,
                  c_theta=c_theta)
        for name in self._fields:
            if not getattr(self, name) > 0.0:
                raise ValueError(f"PendulumParams.{name} must be positive")
        ml = m_pend * l_half  # what the physics reads, derived once; ==, hash and repr skip them
        self._set(ml=ml, m_total=M_cart + m_pend, I_total=I_pend + ml * l_half,
                  mgl=m_pend * g * l_half, m_total_g=(M_cart + m_pend) * g)


def pendulum_ulm_terms(y_prev: Pair, y_curr: Pair, dt: float, params: PendulumParams):
    """True plant pair (F, G) at the outputs (y_k, y_{k+1}): y_{k+2} = F + G u.

    G = dt^2 M^-1, M = ((M + m, -ml cos), (-ml cos, I + ml*l)) inverted in closed form, as
    rows ((a, b), (b, d)); F = 2 y_{k+1} - y_k - G D with the friction and gravity bias
    D = (ml*thetadot^2*sin + c_x*tanh(xdot), c_theta*tanh(thetadot) - mgl*sin).
    """
    (x0, theta), (x1, theta1) = y_prev, y_curr
    ml_cos, s = params.ml * math.cos(theta), math.sin(theta)
    h = dt * dt / (params.m_total * params.I_total - ml_cos * ml_cos)
    a, b, d = h * params.I_total, h * ml_cos, h * params.m_total
    thetadot = (theta1 - theta) / dt
    D0 = params.ml * thetadot * thetadot * s + params.c_x * math.tanh((x1 - x0) / dt)
    D1 = params.c_theta * math.tanh(thetadot) - params.mgl * s
    return ((2.0 * x1 - x0 - (a * D0 + b * D1), 2.0 * theta1 - theta - (b * D0 + d * D1)),
            ((a, b), (b, d)))


def pendulum_step(y_prev: Pair, y_curr: Pair, u: Pair, dt: float, params: PendulumParams) -> Pair:
    """One forward-difference step from (y_k, y_{k+1}): y_{k+2} = F_k + G_k u_k."""
    (F0, F1), ((a, b), (c, d)) = pendulum_ulm_terms(y_prev, y_curr, dt, params)
    u0, u1 = u
    return (F0 + (a * u0 + b * u1), F1 + (c * u0 + d * u1))


def open_loop_input(theta: float, thetadot: float, params: PendulumParams) -> Pair:
    """Model-based (force, torque) pair used only for trajectory generation."""
    M, m, g, s = params.M_cart, params.m_pend, params.g, math.sin(theta)
    force = params.ml * thetadot * thetadot * s - 2.0 * (M + m * s * s) * g * s
    return (force - params.m_total_g * s, -params.mgl * s)


def desired_samples(init, dt: float, params: PendulumParams) -> Iterator[Pair]:
    """Yield the desired outputs y_0, y_1, ... of the pendulum under the open-loop inputs.

    init is (x, theta, xdot, thetadot) and dt > 0, as SimConfig.from_dict checked
    them; the initial generalized velocity is folded into the lifted state via
    y_1 = y_0 + dt*qdot_0.  Each sample past y_1 costs one plant step, taken
    only when it is requested.  Sample k leaving the admissible region, or
    turning non-finite, raises DivergenceError with step_index k.
    """
    plant = PendulumPlant(init, dt, params)
    yield plant.y_prev
    yield plant.y_curr
    for k in itertools.count(2):
        thetadot = (plant.y_curr[1] - plant.y_prev[1]) / dt
        try:
            y = plant.step(open_loop_input(plant.y_prev[1], thetadot, params))
        except DivergenceError:
            raise DivergenceError(f"trajectory generation diverged at step {k}", step_index=k)
        yield y


def generate_desired_trajectory(init, n: int, dt: float, params: PendulumParams, sink):
    """Hand the first n samples of desired_samples, as the rows (dt*k, x_d, theta_d), to
    sink.write in flat array('d') blocks of SINK_ROWS rows (the last one shorter) as they
    are generated; return sink.  dt > 0.
    """
    # range first: zip stops before it steps the plant past sample n - 1
    samples = zip(range(n), desired_samples(init, dt, params))
    rows = itertools.chain.from_iterable((dt * k, x, th) for k, (x, th) in samples)
    for block in iter(lambda: array("d", itertools.islice(rows, 3 * SINK_ROWS)), array("d")):
        sink.write(block)
    return sink


class NoiseConfig(Record):
    """Deterministic FM-sinusoid measurement noise, per output channel.

    eta_i(t) = amplitudes_i * sin(base_freqs_i*t
                                  + fm_depth_i*sin(fm_freqs_i*t) + phases_i).
    """

    _fields = ("amplitudes", "base_freqs", "fm_depth", "fm_freqs", "phases")

    def __init__(
        self,
        amplitudes: Pair = (0.001, 0.001),
        base_freqs: Pair = (120.0, 150.0),
        fm_depth: Pair = (5.0, 5.0),
        fm_freqs: Pair = (0.5, 0.7),
        phases: Pair = (0.0, 0.0),
    ) -> None:
        self._set(amplitudes=amplitudes, base_freqs=base_freqs, fm_depth=fm_depth,
                  fm_freqs=fm_freqs, phases=phases)  # pairs of floats, as from_dict reads them
        if amplitudes[0] < 0.0 or amplitudes[1] < 0.0:
            raise ValueError("noise amplitudes must be non-negative")


def noise_sample(t: float, cfg: NoiseConfig) -> Pair:
    """Noise pair at time t >= 0; bounded componentwise by the amplitudes."""
    (a0, a1), (w0, w1), (d0, d1) = cfg.amplitudes, cfg.base_freqs, cfg.fm_depth
    (f0, f1), (p0, p1) = cfg.fm_freqs, cfg.phases
    return (a0 * math.sin(w0 * t + d0 * math.sin(f0 * t) + p0),
            a1 * math.sin(w1 * t + d1 * math.sin(f1 * t) + p1))


class PendulumPlant:
    """Stepped interface around the discretized pendulum (relative degree 2)."""

    nu = 2

    def __init__(self, init, dt: float, params: PendulumParams):
        x, theta, xdot, thetadot = init
        self.params = params
        self.dt = dt
        # the output pair (y_k, y_{k+1}); y_1 = y_0 + dt*qdot_0 folds in the velocity
        self.y_prev = (x, theta)
        self.y_curr = (x + dt * xdot, theta + dt * thetadot)
        self.k = 0

    @property
    def output(self) -> Pair:
        """Current output y_k."""
        return self.y_prev

    def step(self, u: Pair) -> Pair:
        """Apply u_k; produces y_{k+2} and advances the output clock to k+1."""
        y_next = pendulum_step(self.y_prev, self.y_curr, u, self.dt, self.params)
        # hypot is NaN or inf when a component is
        if not math.hypot(*y_next) <= DIVERGENCE_LIMIT:
            raise DivergenceError(f"plant diverged at step {self.k}", step_index=self.k)
        self.y_prev, self.y_curr = self.y_curr, y_next
        self.k += 1
        return y_next


# The script keys of each synthetic plant kind: its plant.spec entries besides G, nu and y_init.
SPEC_KEYS = {"constant": ("const",), "ramp": ("slope",), "sinusoid": ("amplitude", "freq")}


class SyntheticUlmPlant:
    """Two-output test plant emitting y_{k+nu} = F_k + G u_k, G 2 x 2, with a
    scripted unknown term.

    Kinds: "constant" (F = const), "ramp" (F_k = k*slope) and "sinusoid"
    (F_k,i = amplitude_i*sin(freq_i*k)), each a closed form of its script's
    pairs.  The scripted F_k is exposed through true_F for oracles.
    The arguments are the plant.spec entries as SimConfig.from_dict checked them;
    script holds exactly the kind's SPEC_KEYS, or TypeError is raised.
    """

    def __init__(self, kind: str, *, G, nu: int, y_init=None, **script):
        if script.keys() != set(SPEC_KEYS[kind]):
            raise TypeError(f"a {kind} plant's script is {', '.join(SPEC_KEYS[kind])}")
        self.kind, self.nu, self.G, self.k, self._script = kind, nu, G, 0, script
        # pending outputs y_k .. y_{k+nu-1}; y_{k+nu} is produced by step()
        self._window = [(0.0, 0.0)] * nu  # one shared tuple, however long the window
        if y_init is not None:
            self._window = list(y_init)

    def true_F(self, k: int) -> Pair:
        """The scripted unknown term at step k."""
        script = self._script
        if self.kind == "constant":
            return script["const"]
        if self.kind == "ramp":
            return (k * script["slope"][0], k * script["slope"][1])
        (a0, a1), (f0, f1) = script["amplitude"], script["freq"]  # a sinusoid
        return (a0 * math.sin(f0 * k), a1 * math.sin(f1 * k))

    @property
    def output(self) -> Pair:
        """Current output y_k."""
        return self._window[0]

    def step(self, u: Pair) -> Pair:
        """Apply u_k; produces y_{k+nu} and advances the output clock to k+1."""
        F0, F1 = self.true_F(self.k)
        (a, b), (c, d) = self.G
        u0, u1 = u
        y_new = (F0 + (a * u0 + b * u1), F1 + (c * u0 + d * u1))
        self._window.append(y_new)
        self._window.pop(0)
        self.k += 1
        return y_new
