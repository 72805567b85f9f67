"""Disturbance observers for the unknown term of a control-affine local model.

The local model reads y_{k+nu} = F_k + G_k u_k, so F_k can be reconstructed
one relative-degree later from observed outputs and applied inputs.  The
first-order observer tracks F_k with the shared sigmoid gain; the second-order
observer additionally tracks the first difference of F_k, which lets it reject
ramp (affine-in-step) disturbance terms.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Optional, Tuple

import numpy as np

from .fts_core import DomainError, HolderGainParams, holder_gain, robustness_radius


def compute_F(y_k_plus_nu, G_k, u_k) -> np.ndarray:
    """Reconstruct the unknown term: F_k = y_{k+nu} - G_k u_k."""
    y = np.asarray(y_k_plus_nu, dtype=float)
    G = np.asarray(G_k, dtype=float)
    u = np.asarray(u_k, dtype=float)
    if G.ndim != 2 or y.shape != (G.shape[0],) or u.shape != (G.shape[1],):
        raise ValueError(
            f"dimension mismatch: y {y.shape}, G {G.shape}, u {u.shape}"
        )
    return y - G @ u


@dataclass(frozen=True)
class FirstOrderObserverState:
    """State of the first-order observer: estimate, last sample, gain params."""

    F_hat: np.ndarray
    params: HolderGainParams
    last_F: Optional[np.ndarray] = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "F_hat", np.asarray(self.F_hat, dtype=float))
        if self.last_F is not None:
            object.__setattr__(self, "last_F", np.asarray(self.last_F, dtype=float))

    @property
    def error(self) -> Optional[np.ndarray]:
        """Estimation error F_hat - F against the most recent sample, if any."""
        if self.last_F is None:
            return None
        return self.F_hat - self.last_F


def first_order_update(
    state: FirstOrderObserverState, F_k
) -> FirstOrderObserverState:
    """Advance the first-order observer one step on a reconstructed sample.

    New estimate: F_hat' = gain(e)*e + F_k with e = F_hat - F_k.  The error
    then evolves as e' = gain(e)*e - (F_{k+1} - F_k).
    """
    F_k = np.asarray(F_k, dtype=float)
    if not np.all(np.isfinite(F_k)):
        raise DomainError("first_order_update: sample has non-finite components")
    e = state.F_hat - F_k
    F_hat_next = holder_gain(e, state.params) * e + F_k
    return FirstOrderObserverState(F_hat=F_hat_next, params=state.params, last_F=F_k)


@dataclass(frozen=True)
class SecondOrderObserverState:
    """State of the second-order observer: estimates of F and of its first difference.

    F_history holds the last (up to two) reconstructed samples.  Until two
    samples exist the observer bootstraps with a zero difference estimate and
    behaves like the first-order observer.
    """

    F_hat: np.ndarray
    dF_hat: np.ndarray
    params_F: HolderGainParams
    params_delta: HolderGainParams
    F_history: Tuple[np.ndarray, ...] = ()

    def __post_init__(self) -> None:
        object.__setattr__(self, "F_hat", np.asarray(self.F_hat, dtype=float))
        object.__setattr__(self, "dF_hat", np.asarray(self.dF_hat, dtype=float))
        hist = tuple(np.asarray(F, dtype=float) for F in self.F_history)
        if len(hist) > 2:
            raise DomainError("F_history holds at most two samples")
        object.__setattr__(self, "F_history", hist)

    @property
    def error(self) -> Optional[np.ndarray]:
        if not self.F_history:
            return None
        return self.F_hat - self.F_history[-1]


def second_order_observer(
    F_hat0, params_F: HolderGainParams, params_delta: Optional[HolderGainParams] = None
) -> SecondOrderObserverState:
    """Fresh second-order observer state with zero difference estimate."""
    F_hat0 = np.asarray(F_hat0, dtype=float)
    return SecondOrderObserverState(
        F_hat=F_hat0,
        dF_hat=np.zeros_like(F_hat0),
        params_F=params_F,
        params_delta=params_delta if params_delta is not None else params_F,
    )


def second_order_update(
    state: SecondOrderObserverState, F_k
) -> SecondOrderObserverState:
    """Advance the second-order observer one step on a reconstructed sample.

    With e = F_hat - F_k and, once two samples exist, dF = F_k - F_prev and
    e_delta = dF_hat - dF:

        dF_hat' = gain(e_delta)*e_delta + dF
        F_hat'  = gain(e)*e + F_k + dF_hat'

    so the estimation error evolves as
    e' = gain(e)*e + gain(e_delta)*e_delta - (second difference of F).
    """
    F_k = np.asarray(F_k, dtype=float)
    if not np.all(np.isfinite(F_k)):
        raise DomainError("second_order_update: sample has non-finite components")
    e_F = state.F_hat - F_k
    if state.F_history:
        dF_prev = F_k - state.F_history[-1]
        e_delta = state.dF_hat - dF_prev
        dF_hat_next = holder_gain(e_delta, state.params_delta) * e_delta + dF_prev
    else:
        dF_hat_next = np.zeros_like(F_k)
    F_hat_next = holder_gain(e_F, state.params_F) * e_F + F_k + dF_hat_next
    history = (state.F_history + (F_k,))[-2:]
    return replace(state, F_hat=F_hat_next, dF_hat=dF_hat_next, F_history=history)


def in_neighborhood_F(e, B_F: float, params: HolderGainParams) -> bool:
    """Ultimate-bound membership: robustness_radius(gain(e)) * ||e|| <= B_F."""
    if not B_F > 0.0:
        raise DomainError("B_F must be positive")
    e = np.asarray(e, dtype=float)
    rho = robustness_radius(holder_gain(e, params))
    return bool(rho * np.linalg.norm(e) <= B_F)
