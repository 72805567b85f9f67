"""Independent scalar re-implementation of what the workloads compute.

The benchmark's correctness gate compares the CSV that `ftsmfc simulate`
writes against this loop, and the trajectory `generate-trajectory` writes
against `desired_trajectory`.  It shares no code with the package: it reads the
same YAML document, runs the causal schedule documented in the package README
(measure, filter, reconstruct F, advance the observer, apply the law, step the
plant) with plain Python floats, and returns the 19 CSV columns.

Only what the benchmark's workloads use is implemented: the `constant` and
`ramp` synthetic plants with a zero desired trajectory, either observer order,
either law, and the filter and noise switches; and the pendulum's open-loop
desired trajectory.
"""

from __future__ import annotations

import math
from fractions import Fraction


def _num(value) -> float:
    return float(Fraction(value)) if isinstance(value, str) else float(value)


class _Gain:
    """(x - scale)/(x + scale) with x = (w e.e)^(1 - 1/exponent)."""

    def __init__(self, section: dict, weight=None):
        self.power = 1.0 - 1.0 / _num(section["exponent"])
        self.scale = _num(section["scale"])
        self.weight = None if weight is None else _num(weight)

    def __call__(self, e0: float, e1: float) -> float:
        q = e0 * e0 + e1 * e1
        if self.weight is not None:
            q *= self.weight
        x = 0.0 if q == 0.0 else math.exp(self.power * math.log(q))
        return (x - self.scale) / (x + self.scale)


def _solve2(G, r0: float, r1: float):
    (a, b), (c, d) = G
    det = a * d - b * c
    return (d * r0 - b * r1) / det, (a * r1 - c * r0) / det


def simulate(doc: dict):
    """Yield the rows (t, y, y_meas, y_hat, y_d, e_y, F, F_hat, e_F, u) of the closed loop."""
    dt, T = _num(doc["dt"]), _num(doc["T"])
    n_steps = int(math.floor(T / dt))
    spec = doc["plant"]["spec"]
    kind = doc["plant"]["kind"]
    nu = int(spec.get("nu", 1))
    Gp = [[_num(v) for v in row] for row in spec["G"]]
    Gc = [[_num(v) for v in row] for row in doc["controller"]["G"]]
    if kind == "constant":
        c = [_num(v) for v in spec["const"]]
        true_F = lambda k: (c[0], c[1])  # noqa: E731
    elif kind == "ramp":
        s = [_num(v) for v in spec["slope"]]
        true_F = lambda k: (k * s[0], k * s[1])  # noqa: E731
    else:
        raise ValueError(f"reference loop does not model plant kind {kind!r}")

    ctrl, obs, filt, noise = doc["controller"], doc["observer"], doc["filter"], doc["noise"]
    fts_law = ctrl["law"] == "fts"
    gain_c = _Gain(ctrl)
    gain_o = _Gain(obs)
    second = obs["order"] == "second"
    filter_on = bool(filt["enabled"])
    gain_f = _Gain(filt, filt.get("weight"))
    noise_on = bool(noise["enabled"])
    amp, base, depth, fm, phase = (
        [_num(v) for v in noise[key]]
        for key in ("amplitudes", "base_freqs", "fm_depth", "fm_freqs", "phases")
    )

    window = [(0.0, 0.0)] * nu  # plant outputs y_k .. y_{k+nu-1}
    y_hat = tuple(_num(v) for v in doc["initial_estimate"][:2])
    last_meas = None
    F_hat, dF_hat, F_prev = (0.0, 0.0), (0.0, 0.0), None
    u_hist = []
    for k in range(n_steps + 1):
        t = dt * k
        y = window[0]
        if noise_on:
            eta = tuple(
                amp[i] * math.sin(base[i] * t + depth[i] * math.sin(fm[i] * t) + phase[i])
                for i in range(2)
            )
        else:
            eta = (0.0, 0.0)
        meas = (y[0] + eta[0], y[1] + eta[1])
        if filter_on:
            if last_meas is not None:
                e = (y_hat[0] - last_meas[0], y_hat[1] - last_meas[1])
                g = gain_f(*e)
                y_hat = (meas[0] + g * e[0], meas[1] + g * e[1])
            last_meas = meas
        else:
            y_hat = meas

        F_rec = F_pre = (0.0, 0.0)
        if k >= nu:
            u0, u1 = u_hist[k - nu]
            F_rec = (
                y_hat[0] - (Gc[0][0] * u0 + Gc[0][1] * u1),
                y_hat[1] - (Gc[1][0] * u0 + Gc[1][1] * u1),
            )
            F_pre = F_hat
            e = (F_hat[0] - F_rec[0], F_hat[1] - F_rec[1])
            if second:
                if F_prev is None:
                    dF_hat = (0.0, 0.0)
                else:
                    d = (F_rec[0] - F_prev[0], F_rec[1] - F_prev[1])
                    ed = (dF_hat[0] - d[0], dF_hat[1] - d[1])
                    gd = gain_o(*ed)
                    dF_hat = (gd * ed[0] + d[0], gd * ed[1] + d[1])
                F_prev = F_rec
            g = gain_o(*e)
            F_hat = (g * e[0] + F_rec[0], g * e[1] + F_rec[1])
            if second:
                F_hat = (F_hat[0] + dF_hat[0], F_hat[1] + dF_hat[1])

        if k < n_steps:
            r = (-F_hat[0], -F_hat[1])  # the desired trajectory is zero
            if fts_law:
                g = gain_c(*y_hat)
                r = (r[0] + g * y_hat[0], r[1] + g * y_hat[1])
            u = _solve2(Gc, *r)
            Fk = true_F(k)
            window = window[1:] + [(
                Fk[0] + Gp[0][0] * u[0] + Gp[0][1] * u[1],
                Fk[1] + Gp[1][0] * u[0] + Gp[1][1] * u[1],
            )]
        else:
            u = (0.0, 0.0)
        u_hist.append(u)
        yield (
            t, *y, *meas, *y_hat, 0.0, 0.0, *y, *F_rec, *F_pre,
            F_pre[0] - F_rec[0], F_pre[1] - F_rec[1], *u,
        )


def steady_state_metrics(rows, settle_time: float, bands) -> dict:
    """max |.| and RMS after settle_time, and the time from which each tracking
    error stays inside its band (NaN if it ends outside), from CSV rows.

    Columns follow the package's fixed CSV header: e_y at 9-10, e_F at 15-16.
    """
    channels = {"ex": 9, "etheta": 10, "eF1": 15, "eF2": 16}
    banded = dict(zip(("ex", "etheta"), bands))
    peak = dict.fromkeys(channels, 0.0)
    squares = dict.fromkeys(channels, 0.0)
    inside_since = {}
    n_post = 0
    for row in rows:
        t = row[0]
        for name, band in banded.items():
            if not abs(row[channels[name]]) <= band:
                inside_since[name] = None
            elif inside_since.get(name) is None:
                inside_since[name] = t
        if t > settle_time:
            n_post += 1
            for name, col in channels.items():
                peak[name] = max(peak[name], abs(row[col]))
                squares[name] += row[col] * row[col]
    if not n_post:
        return {}
    out = {}
    for name in channels:
        out[f"max_abs_{name}"] = peak[name]
        out[f"rms_{name}"] = math.sqrt(squares[name] / n_post)
    for name in banded:
        since = inside_since[name]
        out[f"settle_{name}"] = math.nan if since is None else since
    return out


def desired_trajectory(doc: dict):
    """Yield the rows (t, x_d, theta_d) of the pendulum under the open-loop input.

    Forward differences: y_{k+2} = 2 y_{k+1} - y_k + dt^2 M(theta_k)^-1 (u_k - D_k),
    with the model-based input u_k and the friction/gravity bias D_k.
    """
    p = {key: _num(v) for key, v in doc["plant"]["params"].items()}
    M, m, l, g = p["M_cart"], p["m_pend"], p["l_half"], p["g"]
    ml = m * l
    dt, T = _num(doc["dt"]), _num(doc["T"])
    x, th, xd, thd = (_num(v) for v in doc["trajectory"]["init"])
    (x0, th0), (x1, th1) = (x, th), (x + dt * xd, th + dt * thd)
    yield 0 * dt, x0, th0
    yield 1 * dt, x1, th1
    for k in range(2, int(math.floor(T / dt)) + 1):
        xd, thd = (x1 - x0) / dt, (th1 - th0) / dt
        s, c = math.sin(th0), math.cos(th0)
        force = ml * thd * thd * s - 2.0 * (M + m * s * s) * g * s - (M + m) * g * s
        torque = -m * g * l * s
        r0 = force - (ml * thd * thd * s + p["c_x"] * math.tanh(xd))
        r1 = torque - (p["c_theta"] * math.tanh(thd) - m * g * l * s)
        a, b, d = M + m, -ml * c, p["I_pend"] + ml * l
        det = a * d - b * b
        x2 = 2.0 * x1 - x0 + dt * dt * (d * r0 - b * r1) / det
        th2 = 2.0 * th1 - th0 + dt * dt * (a * r1 - b * r0) / det
        yield k * dt, x2, th2
        (x0, th0), (x1, th1) = (x1, th1), (x2, th2)
