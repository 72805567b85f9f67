"""Disturbance observers for the unknown term of a control-affine local model.

The local model reads y_{k+nu} = F_k + G_k u_k, so F_k can be reconstructed
one relative-degree later from observed outputs and applied inputs.  The
first-order observer tracks F_k with the shared sigmoid gain; the second-order
observer additionally tracks the first difference of F_k, which lets it reject
ramp (affine-in-step) disturbance terms.  A non-finite sample makes the
gain's argument non-finite, so holder_gain raises DomainError in that call.
"""

from __future__ import annotations

from typing import Optional, Tuple

from .fts_core import HolderGainParams, Pair, holder_gain


def compute_F(y_k_plus_nu: Pair, G_k, u_k: Pair) -> Pair:
    """Reconstruct the unknown term: F_k = y_{k+nu} - G_k u_k, G_k as rows ((a, b), (c, d))."""
    (a, b), (c, d) = G_k
    u0, u1 = u_k
    y0, y1 = y_k_plus_nu
    return (y0 - (a * u0 + b * u1), y1 - (c * u0 + d * u1))


def first_order_update(F_hat: Pair, F_k: Pair, params: HolderGainParams) -> Pair:
    """Advance the first-order observer one step on a reconstructed sample.

    New estimate: F_hat' = gain(e)*e + F_k with e = F_hat - F_k.  The error
    then evolves as e' = gain(e)*e - (F_{k+1} - F_k).
    """
    f0, f1 = F_k
    e = (F_hat[0] - f0, F_hat[1] - f1)
    g = holder_gain(e, params)
    return (g * e[0] + f0, g * e[1] + f1)


def second_order_update(
    F_hat: Pair, dF_hat: Pair, F_prev: Optional[Pair], F_k: Pair, params: HolderGainParams,
) -> Tuple[Pair, Pair]:
    """Advance the second-order observer one step; returns (F_hat', dF_hat').

    F_prev is the previous reconstructed sample; it is None on the first
    sample, where dF_hat' is zero and the update is first-order.  Otherwise,
    with e = F_hat - F_k, dF = F_k - F_prev and e_delta = dF_hat - dF:

        dF_hat' = gain(e_delta)*e_delta + dF
        F_hat'  = gain(e)*e + F_k + dF_hat'

    so the estimation error evolves as
    e' = gain(e)*e + gain(e_delta)*e_delta - (second difference of F).
    """
    f0, f1 = F_k
    e = (F_hat[0] - f0, F_hat[1] - f1)
    if F_prev is not None:
        d0, d1 = f0 - F_prev[0], f1 - F_prev[1]
        e_delta = (dF_hat[0] - d0, dF_hat[1] - d1)
        g = holder_gain(e_delta, params)
        dF_next = (g * e_delta[0] + d0, g * e_delta[1] + d1)
    else:
        dF_next = (0.0, 0.0)
    g = holder_gain(e, params)
    return (g * e[0] + f0 + dF_next[0], g * e[1] + f1 + dF_next[1]), dF_next
