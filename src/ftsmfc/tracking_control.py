"""Model-free tracking control laws over the control-affine local model.

Both laws pick the input by solving G u = rhs for the designed 2 x 2
influence matrix G.  ControlGains checks the shape and rank of G once, so the
laws solve against it without re-checking on every tick.  The basic law
cancels the estimated unknown term; the finite-time-stable law additionally
feeds back the most recent tracking error through the shared sigmoid gain.
"""

from __future__ import annotations

from .fts_core import DomainError, HolderGainParams, Pair, Record, float_rows, holder_gain

# Rank tolerance on |det G| / |G|_F^2, which for a 2 x 2 G is sigma_min / sigma_max up to
# O(RANK_RTOL^2): sigma_max * sigma_min = |det G| and sigma_max^2 + sigma_min^2 = |G|_F^2.
RANK_RTOL = 1e-12


def solve_input(G, rhs: Pair) -> Pair:
    """Solve G u = rhs by Cramer's rule; G is the 2 x 2 rows ((a, b), (c, d)) that
    ControlGains checked, so the determinant is not re-checked here."""
    (a, b), (c, d) = G
    r0, r1 = rhs
    det = a * d - b * c
    return ((d * r0 - b * r1) / det, (a * r1 - c * r0) / det)


class ControlGains(Record):
    """Tracking-law gains: sigmoid params (exponent, scale) and influence matrix.

    G is checked once for shape and rank and kept as rows of floats.
    """

    _fields = ("params", "G")

    def __init__(self, params: HolderGainParams, G) -> None:
        (a, b), (c, d) = rows = float_rows(G, "G")
        # the determinant solve_input divides by, so one that underflows or overflows fails
        if not abs(a * d - b * c) > RANK_RTOL * (a * a + b * b + c * c + d * d):
            raise DomainError("G must have full rank")
        self._set(params=params, G=rows)


def control_law_basic(y_d_future: Pair, F_hat: Pair, gains: ControlGains) -> Pair:
    """Input solving G u = y^d_{k+nu} - F_hat.

    With a perfect estimate the output lands exactly on the desired sample;
    in general the tracking error at k+nu equals minus the estimation error.
    """
    return solve_input(gains.G, (y_d_future[0] - F_hat[0], y_d_future[1] - F_hat[1]))


def control_law_fts(y_d_future: Pair, F_hat: Pair, e_y_recent: Pair,
                    gains: ControlGains) -> Pair:
    """Input solving G u = y^d_{k+nu} - F_hat + gain(e_y)*e_y.

    e_y_recent is the newest available (possibly filtered) tracking error.
    The closed loop then satisfies
    e^y_{k+nu} + e^F_k = gain(e^y_recent) * e^y_recent.
    """
    e0, e1 = e_y_recent
    g = holder_gain(e_y_recent, gains.params)
    return solve_input(gains.G, (y_d_future[0] - F_hat[0] + g * e0,
                                 y_d_future[1] - F_hat[1] + g * e1))
