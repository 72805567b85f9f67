"""Closed-loop experiment engine: scheduling, logging and metrics, in plain floats.

Scheduling (relative degree nu): at tick k the harness measures y_k, filters
the measurement, reconstructs the newest computable unknown-dynamics sample
F_{k-nu} = y_hat_k - G u_{k-nu}, advances the disturbance observer on it,
computes u_k from the newest filtered tracking error and observer estimate,
and finally steps the plant.  No quantity ever depends on a signal that is
time-stamped later than its computation instant.

The property-verification suites live in ftsmfc.verify, the one module that imports
NumPy.  Its verify_suite, PropertyResult and SuiteReport resolve here on first use
only for perfbench, whose traced labels and tests name them here.
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
import pickle
import signal
import struct
import tempfile
from array import array
from typing import Callable, Dict, Iterator, List, Sequence, Tuple

from .config import ConfigError, SimConfig
from .fts_core import Pair, from_verify
from .output_filter import filter_update
from .plant_models import (
    DivergenceError,
    SINK_ROWS,
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
__getattr__ = from_verify(globals(), ("PropertyResult", "SuiteReport", "verify_suite"))


CSV_HEADER = (
    "t,x,theta,x_meas,theta_meas,x_hat,theta_hat,x_d,theta_d,"
    "ex,etheta,F1,F2,Fhat1,Fhat2,eF1,eF2,u1,u2"
)
# What generate-trajectory writes and trajectory source 'file' reads.
TRAJECTORY_HEADER = "t,x_d,theta_d"


class Child:
    """job() run in a forked child process: result() gives back its return value,
    or raises here the exception it raised, with its type and message.

    The child first closes the descriptors in close, this process's ends of the
    caller's other pipes, then sends job()'s return value or exception pickled
    through a pipe of its own.  It leaves only through os._exit, so it flushes no
    inherited buffer and runs no atexit hook.  A child that ends without a result
    is a ChildProcessError naming its exit status or the signal that killed it.
    When this process fails meanwhile, KeyboardInterrupt included, kill() kills
    (SIGKILL) and reaps the child; it does nothing once result() has reaped it.
    The child is reaped with os.wait4, and rusage then keeps its resource usage:
    its CPU seconds and maximum RSS.
    """

    def __init__(self, job: Callable[[], object], close: Sequence[int] = ()) -> None:
        self.rusage = None
        r, w = os.pipe()
        self.pid = os.fork()
        if self.pid == 0:
            code = 1
            try:
                for fd in (r, *close):
                    os.close(fd)
                try:
                    data = pickle.dumps((True, job()))
                except Exception as exc:
                    data = pickle.dumps((False, exc))
                with open(w, "wb") as pipe:
                    pipe.write(data)
                code = 0
            finally:
                os._exit(code)
        os.close(w)
        self._results = open(r, "rb")

    def result(self):
        """Wait for the child to end and reap it: job()'s return value, or its exception."""
        data = self._results.read()
        status = self._reap()
        if status:  # 0 only once the whole result is written
            how = (f"was killed by signal {-status} ({signal.strsignal(-status)})" if status < 0
                   else f"exited with status {status}")
            raise ChildProcessError(f"the forked child {how}")
        ok, value = pickle.loads(data)
        if not ok:
            raise value
        return value

    def kill(self) -> None:
        if self.rusage is None:
            os.kill(self.pid, signal.SIGKILL)
            self._reap()

    def _reap(self) -> int:
        self._results.close()
        _, status, self.rusage = os.wait4(self.pid, 0)
        return os.waitstatus_to_exitcode(status)


def fork_helps() -> bool:
    """Whether a forked Child can run beside this process: os.fork exists and this
    process may use two CPUs or more."""
    affinity = getattr(os, "sched_getaffinity", None)
    return hasattr(os, "fork") and (len(affinity(0)) if affinity else os.cpu_count() or 1) > 1


class ReplacedFile(contextlib.AbstractContextManager):
    """A binary file, fh, written in place of the file path resolves to: a temporary
    file beside that one, which commit() renames onto it.  Leaving the `with` block
    without commit() removes the temporary file and leaves path as it was.  The new
    file takes an existing file's mode.  A path that exists and is not a regular
    file (/dev/null, a pipe) is written in place.
    """

    def __init__(self, path: str) -> None:
        self.path, self._target = path, os.path.realpath(path)
        if os.path.exists(self._target) and not os.path.isfile(self._target):
            self._tmp, self.fh = None, open(self._target, "wb")
        else:
            try:
                fd, self._tmp = tempfile.mkstemp(dir=os.path.dirname(self._target),
                                                 prefix=f".{os.path.basename(self._target)}.")
            except OSError as exc:  # named after path, not the random temporary name
                raise OSError(exc.errno, exc.strerror, path) from exc
            self.fh = open(fd, "wb")
            try:
                mode = os.stat(self._target).st_mode & 0o7777  # an existing file keeps its mode
            except FileNotFoundError:
                umask = os.umask(0)
                os.umask(umask)
                mode = 0o666 & ~umask  # what open(path, "w") gives, not 0600
            os.chmod(self._tmp, mode)

    def __exit__(self, *exc_info) -> None:
        self.fh.close()
        if self._tmp is not None:
            os.remove(self._tmp)

    def finish(self) -> None:
        """Close the file."""
        self.fh.close()

    def commit(self) -> None:
        """finish(), then put the file in place of path."""
        self.finish()
        if self._tmp is not None:
            os.replace(self._tmp, self._target)
            self._tmp = None


# The head of each payload on the pipe to the formatting child: whether the payload is
# text to write as it is (else rows of floats to format), and its length in bytes
_FRAME = struct.Struct("=?Q")


class CsvOutput(ReplacedFile):
    """A CSV file written a block of rows at a time, a ReplacedFile of path.

    Each write() takes a flat row-major array('d') of whole rows, a float for each
    field of header, every float written as `%.17g` under the header line.  Where
    fork_helps(), the first write that holds a full block of SINK_ROWS rows forks
    one child, which formats the floats it reads from a pipe while this process
    goes on.  Whenever a whole block of floats is still unread in that pipe, this
    process formats the next block itself and sends its text, which the child
    writes in its place, so the two share the work.  Otherwise, or for a shorter
    table, this process formats each block as it arrives.  A child that fails is
    an OSError with the child's message, and leaving the `with` block without
    commit() also kills and reaps the child.  len() is the rows written so far;
    child is the Child, None until one is forked.
    """

    def __init__(self, path: str, header: str) -> None:
        super().__init__(path)
        self.width, self.rows, self.child = len(header.split(",")), 0, None
        self.fh.write(f"{header}\n".encode())

    def __exit__(self, *exc_info) -> None:
        if self.child is not None:
            self.child.kill()  # unless finish() has reaped it
            with contextlib.suppress(BrokenPipeError):  # the child has gone
                self._blocks.close()
        super().__exit__(*exc_info)

    def __len__(self) -> int:
        return self.rows

    def write(self, block: array) -> None:
        self.rows += len(block) // self.width
        if self.child is None and len(block) >= self.width * SINK_ROWS and fork_helps():
            self._fork()
        if self.child is None:
            self.fh.writelines(_block_texts(block, self.width))
            return
        is_text = self._unread() >= 8 * len(block)
        data = b"".join(_block_texts(block, self.width)) if is_text else block.tobytes()
        try:
            self._blocks.write(_FRAME.pack(is_text, len(data)))
            self._blocks.write(data)
        except BrokenPipeError:
            self.finish()  # the child has gone: its own failure is the one raised
            raise

    def finish(self) -> None:
        """Wait until every row written is in the file; raise if its formatting failed."""
        if self.child is not None and self.child.rusage is None:
            with contextlib.suppress(BrokenPipeError):  # the child has gone
                self._blocks.close()  # which ends the child's input
            try:
                self.child.result()
            except Exception as exc:
                raise OSError(f"{self.path}: {exc}") from exc
        super().finish()

    def _fork(self) -> None:
        import fcntl  # POSIX modules, here where os.fork exists: Windows has neither
        import termios

        self.fh.flush()  # the header, so that neither process writes it again
        blocks_r, blocks_w = os.pipe()
        # the bytes the child has still to read: Linux answers FIONREAD on the write end
        self._unread = lambda: array("i", fcntl.ioctl(blocks_w, termios.FIONREAD, bytes(4)))[0]
        with contextlib.suppress(AttributeError, OSError):
            # Linux: room for several blocks, so that this process seldom waits
            fcntl.fcntl(blocks_w, fcntl.F_SETPIPE_SZ, 1 << 20)
        self.child = Child(functools.partial(self._format, blocks_r), (blocks_w,))
        os.close(blocks_r)
        self._blocks = open(blocks_w, "wb")

    def _format(self, blocks_r: int) -> None:
        """The child's job: write each payload it reads from blocks_r into the file."""
        with open(blocks_r, "rb") as blocks:
            while frame := blocks.read(_FRAME.size):
                is_text, size = _FRAME.unpack(frame)
                data = blocks.read(size)
                if is_text:
                    self.fh.write(data)
                else:
                    self.fh.writelines(_block_texts(array("d", data), self.width))
        self.fh.flush()


def _block_texts(table: array, width: int) -> Iterator[bytes]:
    """The text of table's rows, SINK_ROWS at a time, each block cut into width strided
    columns."""
    step = width * SINK_ROWS
    for start in range(0, len(table), step):
        yield _block_text([table[start + j:start + step:width] for j in range(width)]).encode()


def _block_text(columns: Sequence[array]) -> str:
    """The rows of one block: each distinct column formatted once, its text shared by
    the columns that repeat it."""
    # keyed by bytes, not ==, so a 0.0 column and a -0.0 column keep their own text
    keys = [col.tobytes() for col in columns]
    text = {key: ("%.17g\n" * len(col) % tuple(col)).split()
            for key, col in dict(zip(keys, columns)).items()}
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

    def __init__(self, rows: Sequence[float] = ()) -> None:
        self.rows = array("d", rows)

    def __len__(self) -> int:
        return len(self.rows) // LOG_WIDTH

    def write(self, block: array) -> None:
        """Append a block of rows: as run_closed_loop's sink, the log keeps every row the
        run computed, the rows before a failure included."""
        self.rows += block

    def to_csv(self, path: str) -> None:
        """Write the log with the fixed header and 17-significant-digit floats, through
        CsvOutput: path is replaced only once every row is written."""
        with CsvOutput(path, CSV_HEADER) as out:
            out.write(self.rows)
            out.commit()


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


def run_closed_loop(config: SimConfig, sink, *more):
    """Run one deterministic closed-loop experiment; return its last sink.

    Every row of the log (see SimLog) the run computes is handed once to each
    sink's write(), in turn, in flat array('d') blocks of SINK_ROWS rows, each as
    soon as it is full; the last, shorter block when the run ends or the loop
    raises.  Every signal in the loop is a pair of floats.  Raises DivergenceError
    when the plant or a generated desired trajectory diverges, with the failing
    tick as its step_index, DomainError when a signal turns non-finite, and
    ConfigError on inconsistent configuration.
    """
    sinks = (sink, *more)
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
    pack = struct.Struct(f"{LOG_WIDTH}d").pack
    for start in range(0, n_records, SINK_ROWS):
        block = array("d")
        try:
            for k in range(start, min(start + SINK_ROWS, n_records)):
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
                block.frombytes(pack(t, x, th, x_m, th_m, x_h, th_h, x_d, th_d, x - x_d, th - th_d,
                                     F1, F2, Fh1, Fh2, Fh1 - F1, Fh2 - F2, u1, u2))
        finally:  # the block, full, the last one or the rows before the loop raised
            if block:
                for sink in sinks:
                    sink.write(block)
    return sinks[-1]


def compute_metrics(log: SimLog, settle_time: float, bands: Sequence[float]) -> Dict[str, float]:
    """SteadyState's metrics of a whole log."""
    metrics = SteadyState(len(log), settle_time, bands)
    metrics.write(log.rows)
    return metrics.result()


class SteadyState:
    """Steady-state metrics of a run of n rows, fed its log a block at a time.

    result() gives max |.| and RMS of each tracking-error and estimation-error
    channel over t > settle_time, plus the first time each tracking channel
    enters its band and stays there (NaN if it never settles).  The RMS sums
    in NumPy's order, so each value equals np.sqrt(np.mean(post * post)) bit
    for bit.  Each write() takes whole CSV_HEADER rows, and what is kept
    between writes does not grow with n.
    """

    _CHANNELS = ("ex", "etheta", "eF1", "eF2")

    def __init__(self, n: int, settle_time: float, bands: Sequence[float]) -> None:
        self.n, self.settle_time, self.seen, self.t_last = n, settle_time, 0, None
        columns = CSV_HEADER.split(",")
        self._columns = [columns.index(name) for name in self._CHANNELS]
        self._bands = tuple(bands)  # of ex and etheta, the first two channels
        self._max = [0.0] * len(self._CHANNELS)
        self._sums = None  # a _PairwiseSum a channel, from the first row past settle_time
        # a tracking channel's settle time: the t of the row after its last row
        # outside the band, None while that row is still to come
        self._settle = [None] * len(self._bands)

    def write(self, block: array) -> None:
        t, first = block[0::LOG_WIDTH], 0
        if self._sums is None:
            # t = dt*k does not decrease with k, so the rows after settle_time are a
            # suffix, whose length is known from its first row on
            first = bisect.bisect_right(t, self.settle_time)
            if first < len(t):
                self._sums = [_PairwiseSum(self.n - self.seen - first) for _ in self._CHANNELS]
        for c, column in enumerate(self._columns):
            sig = block[column::LOG_WIDTH]
            if self._sums is not None:
                post = sig[first:]
                self._max[c] = max(self._max[c], max(map(abs, post)))
                self._sums[c].add([v * v for v in post])
            if c < len(self._bands):
                band = self._bands[c]
                if self._settle[c] is None:
                    self._settle[c] = t[0]
                if not all(map(band.__ge__, map(abs, sig))):
                    # the channel's last row outside the band
                    last = next(k for k in range(len(t) - 1, -1, -1) if not abs(sig[k]) <= band)
                    self._settle[c] = t[last + 1] if last + 1 < len(t) else None
        self.seen += len(t)
        self.t_last = t[-1]

    def result(self) -> Dict[str, float]:
        if self._sums is None:
            raise ConfigError(
                f"no samples after settle_time={self.settle_time} (horizon {self.t_last})"
            )
        out: Dict[str, float] = {}
        for c, name in enumerate(self._CHANNELS):
            out[f"max_abs_{name}"] = self._max[c]
            total = self._sums[c]
            out[f"rms_{name}"] = math.sqrt(total.sum() / total.n)
            if c < len(self._bands):
                out[f"settle_{name}"] = math.nan if self._settle[c] is None else self._settle[c]
        return out


class _PairwiseSum:
    """The sum of n values given in order, in the order of NumPy's float64
    add.reduce, held as one leaf of at most 128 values and a stack of partial sums.

    NumPy sums up to 128 values in eight strided partial sums, and splits a
    longer run in two at a multiple of 8.  That tree depends on n alone, so its
    leaves are summed as they fill and joined as each subtree completes.
    """

    def __init__(self, n: int) -> None:
        self.n = n
        self._leaves = _leaves(n)
        self._size, self._joins = next(self._leaves)
        self._leaf, self._stack = [], []

    def add(self, values: List[float]) -> None:
        leaf, stack = self._leaf, self._stack
        leaf += values
        while len(leaf) >= self._size:
            stack.append(_leaf_sum(leaf[:self._size]))
            del leaf[:self._size]
            for _ in range(self._joins):
                right = stack.pop()
                stack[-1] += right
            self._size, self._joins = next(self._leaves, (math.inf, 0))

    def sum(self) -> float:
        return self._stack[0]


def _leaves(n: int, joins: int = 0) -> Iterator[Tuple[int, int]]:
    """The leaves of NumPy's summation tree over n values, in order: each leaf's
    length, and how many subtrees it completes as their right-hand part."""
    if n <= 128:
        yield n, joins
        return
    half = n // 2 - n // 2 % 8
    yield from _leaves(half)
    yield from _leaves(n - half, joins + 1)


def _leaf_sum(x: Sequence[float]) -> float:
    """x summed as NumPy sums a leaf of at most 128 values: in eight strided
    partial sums, or from 0.0 in order when x is shorter than 8."""
    n = len(x)
    if n < 8:
        return functools.reduce(operator.add, x, 0.0)
    m = n - n % 8
    r = [functools.reduce(operator.add, x[j:m:8]) for j in range(8)]
    head = ((r[0] + r[1]) + (r[2] + r[3])) + ((r[4] + r[5]) + (r[6] + r[7]))
    return functools.reduce(operator.add, x[m:], head)


def metrics_to_text(metrics: Dict[str, float]) -> str:
    """Flat key = value rendering of a metrics record."""
    return "".join(f"{k} = {v:.17g}\n" for k, v in sorted(metrics.items()))
