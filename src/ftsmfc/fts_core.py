"""Scalar/vector primitives for Holder-continuous finite-time-stable feedback.

All observers, controllers and filters in this package share a single sigmoid
gain shape: for an error vector e and parameters (exponent, scale, weight),

    gain(e) = (x - scale) / (x + scale),   x = (e^T W e)^(1 - 1/exponent),

which takes values in [-1, 1) and equals -1 exactly at e = 0.  This module
provides that gain, the associated Lyapunov decrement function, the clamped
decrement recursion, verifiers for the finite-time-stability and
Holder-continuity conditions, and the robustness-radius factor used by the
ultimate-bound neighborhood predicates.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional, Sequence, Tuple, Union

import numpy as np


class DomainError(ValueError):
    """An argument lies outside the mathematical domain of an operation."""


WeightLike = Union[float, np.ndarray, None]


@dataclass(frozen=True)
class HolderGainParams:
    """Parameters of the sigmoid gain: exponent in ]1,2[, scale > 0, SPD weight.

    The weight may be None (identity), a positive scalar (scalar times
    identity) or an SPD matrix.  The derived Holder power 1 - 1/exponent lies
    in ]0, 1/2[.
    """

    exponent: float
    scale: float
    weight: WeightLike = None

    def __post_init__(self) -> None:
        if not (math.isfinite(self.exponent) and 1.0 < self.exponent < 2.0):
            raise DomainError(f"exponent must lie strictly in ]1,2[, got {self.exponent}")
        if not (math.isfinite(self.scale) and self.scale > 0.0):
            raise DomainError(f"scale must be positive, got {self.scale}")
        if self.weight is not None:
            w = self.weight
            if np.ndim(w) == 0:
                w = float(w)
                if not (math.isfinite(w) and w > 0.0):
                    raise DomainError(f"scalar weight must be positive, got {w}")
                object.__setattr__(self, "weight", w)
            else:
                W = np.asarray(w, dtype=float)
                if W.ndim != 2 or W.shape[0] != W.shape[1]:
                    raise DomainError("weight matrix must be square")
                if not np.allclose(W, W.T, rtol=1e-12, atol=1e-12):
                    raise DomainError("weight matrix must be symmetric")
                if np.linalg.eigvalsh(W).min() <= 0.0:
                    raise DomainError("weight matrix must be positive definite")
                object.__setattr__(self, "weight", W)

    @property
    def holder_power(self) -> float:
        """The exponent a = 1 - 1/exponent applied to the quadratic form."""
        return 1.0 - 1.0 / self.exponent

    def quad_form(self, e: np.ndarray) -> float:
        """Weighted squared norm e^T W e."""
        if self.weight is None:
            return float(e @ e)
        if np.ndim(self.weight) == 0:
            return float(self.weight) * float(e @ e)
        return float(e @ (self.weight @ e))


def holder_gain(e: Sequence[float], params: HolderGainParams) -> float:
    """Sigmoid feedback gain (x - scale)/(x + scale), x = (e^T W e)^holder_power.

    Returns a value in [-1, 1); equals -1 exactly iff e = 0.  The power is
    evaluated as exp(a*log(q)) with an explicit zero branch so the origin is
    exact rather than a 0/0 limit.
    """
    e = np.asarray(e, dtype=float)
    if not np.all(np.isfinite(e)):
        raise DomainError("holder_gain: input vector has non-finite components")
    q = params.quad_form(e)
    x = 0.0 if q == 0.0 else math.exp(params.holder_power * math.log(q))
    return (x - params.scale) / (x + params.scale)


def gamma_of_V(V, params: HolderGainParams):
    """Lyapunov decrement rate 4*scale*V^(2a) / (V^a + scale)^2 with a = holder_power.

    Class-K in V: zero at zero, strictly increasing.  Identical to
    (1 - holder_gain^2) * V^a when e is any vector with e^T W e = V.
    Accepts scalars or arrays.
    """
    V = np.asarray(V, dtype=float)
    if np.any(V < 0.0) or not np.all(np.isfinite(V)):
        raise DomainError("gamma_of_V: V must be finite and non-negative")
    a = params.holder_power
    x = np.power(V, a)
    out = 4.0 * params.scale * np.power(V, 2.0 * a) / np.square(x + params.scale)
    if out.ndim == 0:
        return float(out)
    return out


def gamma_zero_crossing(params: HolderGainParams) -> float:
    """The V at which gamma_of_V(V) == scale, i.e. scale^(1/holder_power)."""
    return params.scale ** (1.0 / params.holder_power)


@dataclass(frozen=True)
class LyapunovTrace:
    """A non-negative Lyapunov sequence with its decrement parameters.

    Once a value reaches 0 all subsequent values must be 0.
    """

    values: np.ndarray
    alpha: float
    eta: float

    def __post_init__(self) -> None:
        v = np.asarray(self.values, dtype=float)
        if v.ndim != 1 or v.size == 0:
            raise DomainError("trace values must be a non-empty 1-d sequence")
        if np.any(v < 0.0) or not np.all(np.isfinite(v)):
            raise DomainError("trace values must be finite and non-negative")
        zero_idx = np.flatnonzero(v == 0.0)
        if zero_idx.size and np.any(v[zero_idx[0]:] != 0.0):
            raise DomainError("trace must stay at 0 after first reaching 0")
        if not (0.0 < self.alpha < 1.0):
            raise DomainError(f"alpha must lie in ]0,1[, got {self.alpha}")
        if not (math.isfinite(self.eta) and self.eta > 0.0):
            raise DomainError(f"eta must be positive, got {self.eta}")
        object.__setattr__(self, "values", v)

    def __len__(self) -> int:
        return len(self.values)


def fts_recursion(
    V0: float,
    eta: float,
    alpha: float,
    max_steps: int = 1_000_000,
) -> Tuple[LyapunovTrace, Optional[int]]:
    """Iterate V_{j+1} = max(0, V_j - eta*V_j^alpha) until 0 or max_steps.

    Negative intermediate values are clamped to 0 (the decrement bound going
    negative forces the Lyapunov value to 0).  Returns the trace and the first
    index N with V_N = 0, or None if 0 was not reached within max_steps.
    """
    if not (math.isfinite(V0) and V0 >= 0.0):
        raise DomainError(f"V0 must be finite and non-negative, got {V0}")
    if not (math.isfinite(eta) and eta > 0.0):
        raise DomainError(f"eta must be positive, got {eta}")
    if not (0.0 < alpha < 1.0):
        raise DomainError(f"alpha must lie in ]0,1[, got {alpha}")
    if max_steps < 0:
        raise DomainError("max_steps must be non-negative")
    V, eta, alpha = float(V0), float(eta), float(alpha)
    vals = [V]
    n = 0
    while V > 0.0 and n < max_steps:
        V = max(0.0, V - eta * V ** alpha)
        vals.append(V)
        n += 1
    values = np.asarray(vals, dtype=float)
    trace = LyapunovTrace(values=values, alpha=alpha, eta=eta)
    N = len(values) - 1 if values[-1] == 0.0 else None
    return trace, N


def _eval_gamma(gamma_fn: Callable, V: np.ndarray) -> np.ndarray:
    """Evaluate gamma_fn on an array, falling back to per-element calls.

    A scalar result (a constant gamma) is returned as is and broadcasts
    against V wherever it is used.
    """
    try:
        g = np.asarray(gamma_fn(V), dtype=float)
        if g.ndim == 0 or g.shape == V.shape:
            return g
    except (TypeError, ValueError):
        pass
    return np.asarray([gamma_fn(float(v)) for v in V], dtype=float)


# Relative floating-point headroom used by the verifiers.  The recursion,
# its verifier and any external producer of a trace may round the same
# expression differently in the last ulp; equality cases in the spec'd
# conditions must still verify.
_VERIFY_RTOL = 1e-12


def verify_fts_condition(
    trace: LyapunovTrace,
    gamma_fn: Callable,
    epsilon: float,
) -> bool:
    """Check the finite-time-stability conditions on a Lyapunov trace.

    Two conditions, both with a 1e-12 relative floating-point headroom:
      1. decrement: V_{k+1} <= max(0, V_k - gamma_fn(V_k) * V_k^alpha) for
         every consecutive pair (the clamped form admits traces that hit 0);
      2. gain: gamma_fn(V) >= epsilon^(1-alpha) whenever V >= epsilon.
    """
    if epsilon <= 0.0:
        raise DomainError("epsilon must be positive")
    V = trace.values
    a = trace.alpha
    if len(V) >= 2:
        prev = V[:-1]
        g = _eval_gamma(gamma_fn, prev)
        bound = np.maximum(0.0, prev - g * np.power(prev, a))
        tol = _VERIFY_RTOL * np.maximum(1.0, prev)
        if not np.all(V[1:] <= bound + tol):
            return False
    mask = V >= epsilon
    if np.any(mask):
        g = _eval_gamma(gamma_fn, V[mask])
        eta = epsilon ** (1.0 - a)
        if not np.all(g >= eta - _VERIFY_RTOL * max(1.0, eta)):
            return False
    return True


def verify_holder_continuity(trace: LyapunovTrace, epsilon: float) -> bool:
    """Check the discrete Holder-continuity bound on a Lyapunov trace.

    For every index pair at lag d the check requires

        |V_i - V_j| <= epsilon * d^(1/(1-alpha)) + slack_rate * d

    where slack_rate = eta * max(V)^alpha is the largest admissible one-step
    decrement of the trace.  The linear term is the documented bound on the
    remainder of the Holder inequality, whose second-and-higher-order terms
    are controlled by the per-step decrement rate; a trace whose jumps exceed
    that rate fails.  Lags whose worst possible change (d times the largest
    observed one-step change) already meets the bound are skipped, so the
    check is O(n) on traces produced by fts_recursion.
    """
    if epsilon <= 0.0:
        raise DomainError("epsilon must be positive")
    V = trace.values
    n = len(V)
    if n < 2:
        return True
    a = trace.alpha
    h = 1.0 / (1.0 - a)
    vmax = float(np.max(V))
    slack_rate = trace.eta * vmax ** a
    adj = np.abs(np.diff(V))
    max_step = float(adj.max())
    d = np.arange(1, n, dtype=float)
    bound = epsilon * np.power(d, h) + slack_rate * d + _VERIFY_RTOL * max(1.0, vmax)
    risky = np.flatnonzero(d * max_step > bound)
    for idx in risky:
        lag = int(d[idx])
        worst = float(np.max(np.abs(V[lag:] - V[:-lag])))
        if worst > bound[idx]:
            return False
    return True


def robustness_radius(gain_value: float) -> float:
    """Ultimate-bound radius factor zeta/(1 - sqrt(1-zeta)) with zeta = 1 - gain^2.

    Evaluated through the algebraically equivalent stable form
    1 + sqrt(1 - zeta); the quotient form is ill-conditioned as zeta -> 0.
    Result lies in [1, 2].
    """
    if not (math.isfinite(gain_value) and -1.0 <= gain_value < 1.0):
        raise DomainError(f"gain_value must lie in [-1, 1), got {gain_value}")
    zeta = 1.0 - gain_value * gain_value
    return 1.0 + math.sqrt(1.0 - zeta)


def decrease_radius(gain_value: float) -> float:
    """Contraction-side factor zeta/(1 + sqrt(1-zeta)) = 1 - |gain|, in [0, 1].

    This is the other root of the quadratic in ||e|| that bounds the one-step
    Lyapunov change under drift of norm at most B: the Lyapunov value is
    guaranteed to decrease whenever decrease_radius(gain)*||e|| > B.  Used by
    the verification suites as the factor that actually certifies decrease.
    """
    if not (math.isfinite(gain_value) and -1.0 <= gain_value < 1.0):
        raise DomainError(f"gain_value must lie in [-1, 1), got {gain_value}")
    zeta = 1.0 - gain_value * gain_value
    return 1.0 - math.sqrt(1.0 - zeta)
