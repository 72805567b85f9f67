"""Model-free tracking control laws over the control-affine local model.

Both laws pick the input by solving G u = rhs for the designed 2 x 2
influence matrix G.  ControlGains checks the shape and rank of G once, so the
laws solve against it without re-checking on every tick.  The basic law
cancels the estimated unknown term; the finite-time-stable law additionally
feeds back the most recent tracking error through the shared sigmoid gain.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .fts_core import DomainError, HolderGainParams, holder_gain

# Rank tolerance: smallest singular value relative to the largest.
RANK_RTOL = 1e-12


def solve_input(G: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """Solve G u = rhs for the 2 x 2 influence matrix G that ControlGains checked."""
    return np.linalg.solve(G, rhs)


@dataclass(frozen=True)
class ControlGains:
    """Tracking-law gains: sigmoid params (exponent, scale) and influence matrix."""

    params: HolderGainParams
    G: np.ndarray

    def __post_init__(self) -> None:
        G = np.asarray(self.G, dtype=float)
        if G.shape != (2, 2):
            raise DomainError(f"G must be 2 x 2, got shape {G.shape}")
        sv = np.linalg.svd(G, compute_uv=False)
        if not sv[-1] > RANK_RTOL * sv[0]:
            raise DomainError("G must have full rank")
        object.__setattr__(self, "G", G)


def control_law_basic(y_d_future, F_hat, gains: ControlGains) -> np.ndarray:
    """Input solving G u = y^d_{k+nu} - F_hat.

    With a perfect estimate the output lands exactly on the desired sample;
    in general the tracking error at k+nu equals minus the estimation error.
    """
    y_d_future = np.asarray(y_d_future, dtype=float)
    F_hat = np.asarray(F_hat, dtype=float)
    return solve_input(gains.G, y_d_future - F_hat)


def control_law_fts(y_d_future, F_hat, e_y_recent, gains: ControlGains) -> np.ndarray:
    """Input solving G u = y^d_{k+nu} - F_hat + gain(e_y)*e_y.

    e_y_recent is the newest available (possibly filtered) tracking error.
    The closed loop then satisfies
    e^y_{k+nu} + e^F_k = gain(e^y_recent) * e^y_recent.
    """
    y_d_future = np.asarray(y_d_future, dtype=float)
    F_hat = np.asarray(F_hat, dtype=float)
    e_y = np.asarray(e_y_recent, dtype=float)
    correction = holder_gain(e_y, gains.params) * e_y
    return solve_input(gains.G, y_d_future - F_hat + correction)
