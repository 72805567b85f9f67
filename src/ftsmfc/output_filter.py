"""Finite-time-stable smoother for noisy output measurements.

The filter keeps an output estimate y_hat and corrects each new measurement
by the sigmoid-gained previous innovation:

    y_hat_{k+1} = y^m_{k+1} + gain(e) * e,   e = y_hat_k - y^m_k.

Only measured outputs are available in closed loop, so measurements stand in
for true outputs on both sides; the innovation e then obeys the ideal
sigmoid-gain contraction and the filter tracks the measurement stream with a
decaying correction from its configured initial estimate.
"""

from __future__ import annotations

import numpy as np

from .fts_core import DomainError, HolderGainParams, holder_gain


def filter_update(
    y_hat: np.ndarray, y_meas_prev: np.ndarray, y_meas, params: HolderGainParams
) -> np.ndarray:
    """Next output estimate from the current one, its measurement and the new one.

    The caller holds the state: the estimate y_hat_k and the measurement y^m_k
    it was made against.  At k = 0 there is no innovation yet, so the caller
    keeps its initial estimate and does not call the filter.
    """
    y = np.asarray(y_meas, dtype=float)
    if not np.all(np.isfinite(y)):
        raise DomainError("filter_update: measurement has non-finite components")
    e = y_hat - y_meas_prev
    return y + holder_gain(e, params) * e
