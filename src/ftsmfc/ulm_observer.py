"""Disturbance observers for the unknown term of a control-affine local model.

The local model reads y_{k+nu} = F_k + G_k u_k, so F_k can be reconstructed
one relative-degree later from observed outputs and applied inputs.  The
first-order observer tracks F_k with the shared sigmoid gain; the second-order
observer additionally tracks the first difference of F_k, which lets it reject
ramp (affine-in-step) disturbance terms.
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

from .fts_core import DomainError, HolderGainParams, holder_gain


def compute_F(y_k_plus_nu: np.ndarray, G_k: np.ndarray, u_k: np.ndarray) -> np.ndarray:
    """Reconstruct the unknown term: F_k = y_{k+nu} - G_k u_k."""
    return y_k_plus_nu - G_k @ u_k


def first_order_update(F_hat: np.ndarray, F_k, params: HolderGainParams) -> np.ndarray:
    """Advance the first-order observer one step on a reconstructed sample.

    New estimate: F_hat' = gain(e)*e + F_k with e = F_hat - F_k.  The error
    then evolves as e' = gain(e)*e - (F_{k+1} - F_k).
    """
    F_k = np.asarray(F_k, dtype=float)
    if not np.all(np.isfinite(F_k)):
        raise DomainError("first_order_update: sample has non-finite components")
    e = F_hat - F_k
    return holder_gain(e, params) * e + F_k


def second_order_update(
    F_hat: np.ndarray, dF_hat: np.ndarray, F_prev: Optional[np.ndarray], F_k,
    params: HolderGainParams,
) -> Tuple[np.ndarray, np.ndarray]:
    """Advance the second-order observer one step; returns (F_hat', dF_hat').

    F_prev is the previous reconstructed sample; it is None on the first
    sample, where dF_hat' is zero and the update is first-order.  Otherwise,
    with e = F_hat - F_k, dF = F_k - F_prev and e_delta = dF_hat - dF:

        dF_hat' = gain(e_delta)*e_delta + dF
        F_hat'  = gain(e)*e + F_k + dF_hat'

    so the estimation error evolves as
    e' = gain(e)*e + gain(e_delta)*e_delta - (second difference of F).
    """
    F_k = np.asarray(F_k, dtype=float)
    if not np.all(np.isfinite(F_k)):
        raise DomainError("second_order_update: sample has non-finite components")
    e_F = F_hat - F_k
    if F_prev is not None:
        dF_prev = F_k - F_prev
        e_delta = dF_hat - dF_prev
        dF_hat_next = holder_gain(e_delta, params) * e_delta + dF_prev
    else:
        dF_hat_next = np.zeros_like(F_k)
    F_hat_next = holder_gain(e_F, params) * e_F + F_k + dF_hat_next
    return F_hat_next, dF_hat_next
