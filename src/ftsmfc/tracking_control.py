"""Model-free tracking control laws over the control-affine local model.

Both laws pick the input by solving G u = rhs for the designed influence
matrix G (exact inverse when square, minimum-norm when wide).  ControlGains
checks the rank of G once, so the laws solve against it without re-checking
on every tick.  The basic law cancels the estimated unknown term; the
finite-time-stable law additionally feeds back the most recent tracking error
through the shared sigmoid gain.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .fts_core import DomainError, HolderGainParams, holder_gain, robustness_radius

# Rank tolerance: smallest singular value relative to the largest.
RANK_RTOL = 1e-12


class SingularMatrixError(RuntimeError):
    """The influence matrix is (numerically) rank deficient."""


def _full_row_rank(G: np.ndarray) -> bool:
    """Whether the smallest singular value of G exceeds RANK_RTOL times the largest."""
    sv = np.linalg.svd(G, compute_uv=False)
    return bool(sv[-1] > RANK_RTOL * sv[0])


def _solve(G: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    n, m = G.shape
    if m == n:
        return np.linalg.solve(G, rhs)
    return G.T @ np.linalg.solve(G @ G.T, rhs)


def solve_input(G, rhs) -> np.ndarray:
    """Solve G u = rhs: exact inverse for square G, minimum-norm for wide G.

    Raises SingularMatrixError when G does not have full row rank.
    """
    G = np.asarray(G, dtype=float)
    rhs = np.asarray(rhs, dtype=float)
    if G.ndim != 2:
        raise ValueError("G must be a matrix")
    n, m = G.shape
    if m < n:
        raise ValueError(f"need at least as many inputs as outputs, got G {G.shape}")
    if rhs.shape != (n,):
        raise ValueError(f"rhs shape {rhs.shape} incompatible with G {G.shape}")
    if not _full_row_rank(G):
        raise SingularMatrixError(f"influence matrix is rank deficient (rtol {RANK_RTOL:g})")
    return _solve(G, rhs)


@dataclass(frozen=True)
class ControlGains:
    """Tracking-law gains: sigmoid params (exponent, scale), influence matrix, relative degree."""

    params: HolderGainParams
    G: np.ndarray
    relative_degree: int = 1

    def __post_init__(self) -> None:
        G = np.asarray(self.G, dtype=float)
        if G.ndim != 2 or G.shape[1] < G.shape[0]:
            raise DomainError("G must be n x m with m >= n")
        if not _full_row_rank(G):
            raise DomainError("G must have full row rank")
        if not (isinstance(self.relative_degree, (int, np.integer)) and self.relative_degree >= 1):
            raise DomainError("relative_degree must be an integer >= 1")
        object.__setattr__(self, "G", G)


def control_law_basic(y_d_future, F_hat, gains: ControlGains) -> np.ndarray:
    """Input solving G u = y^d_{k+nu} - F_hat.

    With a perfect estimate the output lands exactly on the desired sample;
    in general the tracking error at k+nu equals minus the estimation error.
    """
    y_d_future = np.asarray(y_d_future, dtype=float)
    F_hat = np.asarray(F_hat, dtype=float)
    return _solve(gains.G, y_d_future - F_hat)


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
    return _solve(gains.G, y_d_future - F_hat + correction)


def in_neighborhood_y(e_y, B: float, params: HolderGainParams) -> bool:
    """Tracking-error ultimate-bound membership: radius(gain(e_y)) * ||e_y|| <= B."""
    if not B > 0.0:
        raise DomainError("B must be positive")
    e_y = np.asarray(e_y, dtype=float)
    sigma = robustness_radius(holder_gain(e_y, params))
    return bool(sigma * np.linalg.norm(e_y) <= B)
