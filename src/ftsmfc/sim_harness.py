"""Closed-loop experiment engine: scheduling, logging and metrics, in plain floats.

Scheduling (relative degree nu): at tick k the harness measures y_k, filters
the measurement, reconstructs the newest computable unknown-dynamics sample
F_{k-nu} = y_hat_k - G u_{k-nu}, advances the disturbance observer on it,
computes u_k from the newest filtered tracking error and observer estimate,
and finally steps the plant.  No quantity ever depends on a signal that is
time-stamped later than its computation instant.

The property-verification suites live in ftsmfc.verify, which imports NumPy;
their names (verify_suite, PropertyResult, SuiteReport) resolve here on first
use, so `simulate`, `generate-trajectory` and `sweep` run without NumPy.
"""

from __future__ import annotations

import bisect
import collections
import contextlib
import functools
import itertools
import math
import operator
import os
import shutil
import signal
import struct
import tempfile
from array import array
from typing import BinaryIO, Dict, Iterator, Sequence

from .config import ConfigError, SimConfig
from .fts_core import Pair, from_verify
from .output_filter import filter_update
from .plant_models import (
    DivergenceError,
    PendulumPlant,
    SyntheticUlmPlant,
    desired_samples,
    noise_sample,
)
from .tracking_control import control_law_basic, control_law_fts
from .ulm_observer import compute_F, first_order_update, second_order_update

# The `verify` choices of the CLI; ftsmfc.verify's suite `x` is its function _suite_x.
SUITE_NAMES = ("control", "gamma", "holder", "lemma1", "observer1", "observer2", "rho",
               "robustness")
__getattr__ = from_verify(globals(), ("PropertyResult", "SuiteReport", "verify_suite", "_SUITES"))


CSV_HEADER = (
    "t,x,theta,x_meas,theta_meas,x_hat,theta_hat,x_d,theta_d,"
    "ex,etheta,F1,F2,Fhat1,Fhat2,eF1,eF2,u1,u2"
)
# What generate-trajectory writes and trajectory source 'file' reads.
TRAJECTORY_HEADER = "t,x_d,theta_d"
CSV_BLOCK_ROWS = 256  # rows a block in write_csv: fast, and memory stays flat


@contextlib.contextmanager
def output_file(path: str, mode: str) -> Iterator:
    """open(path, mode) for writing.  If the block raises or the close fails, the
    partly written file is removed: only a regular file, the one a symbolic link
    names in place of the link, and never a device such as /dev/null or a pipe."""
    fh = open(path, mode)  # a path that cannot be opened is left as it was
    try:
        with fh:
            yield fh
    except BaseException:
        if os.path.isfile(path):  # isfile follows a link
            os.remove(os.path.realpath(path) if os.path.islink(path) else path)
        raise


def write_csv(path: str, header: str, table: array, width: int) -> None:
    """Write header, then table's rows of width floats, every float as `%.17g`.

    table is one flat row-major array('d').  It is written in blocks of
    CSV_BLOCK_ROWS rows, each cut into width strided array('d') columns.  Where
    os.fork exists and there are two or more blocks, a forked child formats the
    second half of the blocks into an anonymous temporary file while this
    process formats the first half, and the child's text is appended after it;
    otherwise this process formats both halves.  Either way each process holds
    one block's text at a time.  A child that fails raises OSError here.  A
    write that fails removes the partial file, as output_file does.
    """
    n_blocks = -(-len(table) // (width * CSV_BLOCK_ROWS))
    half = n_blocks // 2
    with output_file(path, "wb") as fh:
        fh.write(f"{header}\n".encode())
        if half == 0 or not hasattr(os, "fork"):
            _write_blocks(fh, table, width, range(n_blocks))
            return
        with tempfile.TemporaryFile() as tail:
            pid = os.fork()
            if pid == 0:
                # the child never returns into the caller, so it flushes no
                # inherited buffer and runs no atexit hook
                code = 1
                try:
                    _write_blocks(tail, table, width, range(half, n_blocks))
                    tail.flush()
                    code = 0
                finally:
                    os._exit(code)
            try:
                _write_blocks(fh, table, width, range(half))
            except BaseException:
                os.kill(pid, signal.SIGKILL)
                raise
            finally:
                _, status = os.waitpid(pid, 0)
            if status != 0:
                raise OSError(f"{path}: the process formatting CSV blocks {half}.."
                              f"{n_blocks - 1} exited with {os.waitstatus_to_exitcode(status)}")
            tail.seek(0)
            shutil.copyfileobj(tail, fh)


def _write_blocks(fh: BinaryIO, table: array, width: int, indices: range) -> None:
    step = width * CSV_BLOCK_ROWS
    for start in map(step.__mul__, indices):
        columns = [table[start + j:start + step:width] for j in range(width)]
        fh.write(_block_text(columns).encode())


def _block_text(columns: Sequence[array]) -> str:
    """The rows of one block: one `%` if its columns are distinct, else each
    distinct column formatted once and its text shared."""
    n = len(columns[0])
    # keyed by bytes, not ==, so a 0.0 column and a -0.0 column keep their own text
    keys = [col.tobytes() for col in columns]
    distinct = dict(zip(keys, columns))
    if len(distinct) == len(keys):
        row = ",".join(["%.17g"] * len(keys)) + "\n"
        return row * n % tuple(itertools.chain.from_iterable(zip(*columns)))
    text = {key: ("%.17g\n" * n % tuple(col)).split() for key, col in distinct.items()}
    return "\n".join([*map(",".join, zip(*map(text.__getitem__, keys))), ""])


LOG_WIDTH = len(CSV_HEADER.split(","))  # floats a tick in SimLog.rows: one CSV_HEADER row


class SimLog:
    """Per-step record stream of a closed-loop run.

    rows is a flat array('d') of LOG_WIDTH floats a tick, each tick one row of
    CSV_HEADER: the time t = dt*k, then the pairs true output y, measured
    y_meas, filtered y_hat, desired y_d, tracking error e_y = y - y_d, newest
    reconstructed unknown term F, the estimate F_hat it was compared against,
    estimation error e_F = F_hat - F, and applied input u.  Rows before the
    first reconstructable F sample carry zeros in F, F_hat, e_F; the final row
    carries u = 0 (no input is applied at the last tick).
    """

    def __init__(self, rows: array) -> None:
        self.rows = rows

    def __len__(self) -> int:
        return len(self.rows) // LOG_WIDTH

    def to_csv(self, path: str) -> None:
        """Write the log with the fixed header and 17-significant-digit floats."""
        write_csv(path, CSV_HEADER, self.rows, LOG_WIDTH)


def _build_plant(config: SimConfig):
    if config.plant_kind == "pendulum":
        return PendulumPlant(config.initial_state, config.dt, config.plant_params)
    return SyntheticUlmPlant(config.plant_kind, **config.plant_spec)  # from_dict checked the spec


def _desired_trajectory(config: SimConfig, count: int) -> Iterator[Pair]:
    """The desired outputs y_d[0], y_d[1], ...; a file is read and checked for count rows here."""
    if config.trajectory_source == "zero":
        return itertools.repeat((0.0, 0.0))
    if config.trajectory_source == "generated":
        return desired_samples(config.trajectory_start, config.dt, config.plant_params)
    # the x_d,theta_d columns of the first count rows generate-trajectory wrote, parsed
    # row by row into one table of floats, so the file's rows are never held as strings
    table, widths_ok = array("d"), True
    try:
        with open(config.trajectory_path, "r") as fh:
            header = fh.readline().rstrip("\n")
            for line in itertools.islice(fh, count):
                row = line.split(",")
                widths_ok = widths_ok and len(row) == 3
                table.extend(map(float, row))
    except OSError as exc:
        raise ConfigError(f"cannot read trajectory file: {exc}") from exc
    except ValueError as exc:
        raise ConfigError(f"cannot parse trajectory file: {exc}") from exc
    if header != TRAJECTORY_HEADER:
        raise ConfigError(f"trajectory file header {header!r} is not {TRAJECTORY_HEADER!r}")
    if not widths_ok or len(table) != 3 * count or not all(map(math.isfinite, table)):
        raise ConfigError(f"trajectory file needs {count} rows of 3 finite numbers")
    # pair by pair, so the run holds the table of floats and not a list of pairs
    return zip(table[1::3], table[2::3])


def run_closed_loop(config: SimConfig) -> SimLog:
    """Run one deterministic closed-loop experiment and return its log.

    Every signal in the loop is a pair of floats.  Raises DivergenceError
    when the plant or a generated desired trajectory diverges, with the
    failing tick as its step_index, DomainError when a signal turns
    non-finite, and ConfigError on inconsistent configuration.
    """
    plant = _build_plant(config)
    nu = plant.nu
    n_steps = config.n_steps
    n_records = n_steps + 1
    # u_k reads y_d[k + nu] up to k = n_steps - 1; each sample is taken when first read,
    # so a run that diverges at tick k asks for no desired sample past k + nu
    desired = _desired_trajectory(config, n_steps + nu)
    y_d_ahead = collections.deque(itertools.islice(desired, nu))  # y_d[k .. k + nu - 1]

    dt, gains, zero = config.dt, config.gains, (0.0, 0.0)
    # loop state: the filtered output and the measurement it was made against,
    # the observer's estimates of F and of its first difference, the previous
    # reconstructed sample (None before one), and the last nu inputs by k % nu
    y_hat, y_meas_prev = config.initial_estimate, None
    F_hat, dF_hat, F_prev = zero, zero, None
    u_sent = [zero] * nu

    # one CSV_HEADER row a tick, F_hat as before the update; packed bytes
    # append in a third of the time array.extend takes for a tuple
    log, pack = array("d"), struct.Struct(f"{LOG_WIDTH}d").pack
    for k in range(n_records):
        t, y = dt * k, plant.output
        eta = noise_sample(t, config.noise) if config.noise is not None else zero
        y_meas = (y[0] + eta[0], y[1] + eta[1])
        if config.filter_params is None:
            y_hat = y_meas
        elif k > 0:
            # tick 0 keeps the initial estimate: there is no innovation yet
            y_hat = filter_update(y_hat, y_meas_prev, y_meas, config.filter_params)
        y_meas_prev = y_meas

        F_rec = F_seen = zero
        if k >= nu:
            F_rec, F_seen = compute_F(y_hat, gains.G, u_sent[k % nu]), F_hat
            if config.observer_order == "first":
                F_hat = first_order_update(F_hat, F_rec, config.observer_params)
            else:
                F_hat, dF_hat = second_order_update(
                    F_hat, dF_hat, F_prev, F_rec, config.observer_params
                )
                F_prev = F_rec

        y_d = y_d_ahead.popleft()
        u = zero
        if k < n_steps:
            try:
                y_d_future = next(desired)
            except DivergenceError as exc:
                # the generator counts samples; the loop reports its tick, as the plant does
                raise DivergenceError(str(exc), step_index=k) from exc
            y_d_ahead.append(y_d_future)
            if config.control_law == "fts":
                e_y_hat = (y_hat[0] - y_d[0], y_hat[1] - y_d[1])
                u = control_law_fts(y_d_future, F_hat, e_y_hat, gains)
            else:
                u = control_law_basic(y_d_future, F_hat, gains)
            plant.step(u)
            u_sent[k % nu] = u
        # the header's columns by name: pack takes them a third faster than *-unpacked pairs
        (x, th), (x_m, th_m), (x_h, th_h), (x_d, th_d) = y, y_meas, y_hat, y_d
        (F1, F2), (Fh1, Fh2), (u1, u2) = F_rec, F_seen, u
        log.frombytes(pack(t, x, th, x_m, th_m, x_h, th_h, x_d, th_d, x - x_d, th - th_d,
                           F1, F2, Fh1, Fh2, Fh1 - F1, Fh2 - F2, u1, u2))
    return SimLog(log)


def compute_metrics(log: SimLog, settle_time: float, bands: Sequence[float]) -> Dict[str, float]:
    """Steady-state metrics of a run.

    Returns max |.| and RMS of each tracking-error and estimation-error
    channel over t > settle_time, plus the first time each tracking channel
    enters its band and stays there (NaN if it never settles).  The RMS sums
    in NumPy's order, so each value equals np.sqrt(np.mean(post * post)) bit
    for bit.
    """
    n, rows = len(log), log.rows
    t = rows[0::LOG_WIDTH]
    # t = dt*k does not decrease with k, so the ticks after settle_time are a suffix
    first = bisect.bisect_right(t, settle_time)
    if first == n:
        raise ConfigError(
            f"no samples after settle_time={settle_time} (horizon {t[-1]})"
        )
    band = dict(zip(("ex", "etheta"), bands))
    out: Dict[str, float] = {}
    columns = CSV_HEADER.split(",")
    for name in ("ex", "etheta", "eF1", "eF2"):
        sig = rows[columns.index(name)::LOG_WIDTH].tolist()
        post = sig[first:]
        out[f"max_abs_{name}"] = max(map(abs, post))
        out[f"rms_{name}"] = math.sqrt(_pairwise_sum([v * v for v in post]) / len(post))
        if name in band:
            # the first tick from which the channel never leaves the band again
            outside = (k for k in range(n - 1, -1, -1) if not abs(sig[k]) <= band[name])
            last_out = next(outside, -1)
            out[f"settle_{name}"] = math.nan if last_out == n - 1 else t[last_out + 1]
    return out


def _pairwise_sum(x: Sequence[float]) -> float:
    """x summed in the order of NumPy's float64 add.reduce: up to 128 values in
    eight strided partial sums, longer runs split in two at a multiple of 8."""
    n = len(x)
    if n < 8:
        return functools.reduce(operator.add, x, 0.0)
    if n <= 128:
        m = n - n % 8
        r = [functools.reduce(operator.add, x[j:m:8]) for j in range(8)]
        head = ((r[0] + r[1]) + (r[2] + r[3])) + ((r[4] + r[5]) + (r[6] + r[7]))
        return functools.reduce(operator.add, x[m:], head)
    half = n // 2 - n // 2 % 8
    return _pairwise_sum(x[:half]) + _pairwise_sum(x[half:])


def metrics_to_text(metrics: Dict[str, float]) -> str:
    """Flat key = value rendering of a metrics record."""
    return "".join(f"{k} = {v:.17g}\n" for k, v in sorted(metrics.items()))
