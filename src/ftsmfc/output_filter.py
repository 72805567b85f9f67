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

import math

from .fts_core import DomainError, HolderGainParams, Pair, holder_gain


def filter_update(y_hat: Pair, y_meas_prev: Pair, y_meas: Pair, params: HolderGainParams) -> Pair:
    """Next output estimate from the current one, its measurement and the new one.

    The caller holds the state: the estimate y_hat_k and the measurement y^m_k
    it was made against.  At k = 0 there is no innovation yet, so the caller
    keeps its initial estimate and does not call the filter.
    """
    y0, y1 = y_meas
    if not (math.isfinite(y0) and math.isfinite(y1)):
        raise DomainError("filter_update: measurement has non-finite components")
    e = (y_hat[0] - y_meas_prev[0], y_hat[1] - y_meas_prev[1])
    g = holder_gain(e, params)
    return (y0 + g * e[0], y1 + g * e[1])
