"""Delay integrator for the fluid model: method of steps with classic RK4.

The step is locked to an integer fraction of the delay, h = tau/k with
k >= 4.  Stage lookups one delay in the past then land either exactly on a
stored sample or exactly halfway between two stored samples, so the history
interpolation never extrapolates and whole-sample queries are exact.  Stored
derivative values make the mid-sample cubic Hermite interpolant fourth-order
accurate, matching the integrator order.  The initial function on [-tau, 0]
is the start state held constant, so a lookup before t = 0 is the delayed
rate of the start, computed once.

The RK4 state is the deviation x = (w_max - w_ref, s - s_ref) from a
reference point, the run's fixed point when the caller has one.  About the
fixed point an increment of x keeps its relative precision however small it
gets, where an increment added to w_max itself is lost once it falls below
half an ulp of w_max.  ``integrate`` builds the right-hand side once per run
with :func:`tcpfluid.core.rhs_about`, so what depends only on the reference
point (the CUBIC K_ref among it) is computed once, and every evaluation goes
through that one closure; each sample's window and derivative are stored
with it, so a sample is evaluated once.  The run's one ``Trajectory``,
allocated before the first step, holds only these integrated columns; its
CSV forms the absolute w_max and s and the loss probability p from them.

Every CSV goes through one ``CSVParts`` per file, which writes each number
by ``repr`` and a str cell of an object column (the event log's event type)
as it is, one chunk of rows at a time; a float column whose values come in
long runs within a chunk (a trajectory resting on its fixed point, say)
formats each run's value once.  The file is a sequence of parts in row
order.  While ``integrate`` runs, its ``on_block`` hook ``CSVParts.take``
hands each backlog of at least ``_MIN_PART_ROWS`` completed rows (whole
chunks) to a forked child while fewer than CPUs - 1 of them run; the child
reads the rows from the fork's copy-on-write snapshot of the trajectory.
``CSVParts.write`` then cuts the rows left into one range per CPU, formats
the first in the parent and forks a child for each other, waits for every
child and appends every part in order, so the bytes are the same for any
CPU count.  Parts are anonymous temporary files in the nearest existing
directory of the output file, so nothing appears under the output
directory before the run succeeds, and a file whose writing fails is
removed.

No event handling is attempted at the loss-probability kink; crossings of
the bandwidth-delay product degrade the observed order locally.
"""

from __future__ import annotations

import math
import os
import tempfile
import threading
from dataclasses import dataclass, replace
from functools import partial

import numpy as np

from .core import (FlowState, SystemParams, WindowFunction, check_start, loss_probability,
                   loss_rate, rhs_about)
from .fixedpoint import FixedPoint


class IntegrationError(RuntimeError):
    """State left the valid region; carries time and state at the halt."""

    def __init__(self, message: str, time: float, state: FlowState):
        super().__init__(f"{message} at t={time}: w_max={state.w_max}, s={state.s}")
        self.time = time
        self.state = state


def hermite_midpoint(y, dy, j: int, h: float) -> float:
    """Cubic Hermite value halfway between samples j and j + 1 of the column
    ``y`` on a grid of step h, from the derivative column ``dy``.

    Exact when the sampled function is a cubic polynomial.
    """
    return 0.5 * (y[j] + y[j + 1]) + 0.125 * h * (dy[j] - dy[j + 1])


@dataclass
class Trajectory:
    """Uniformly sampled solution: what the integrator computes, once.

    t is the grid of step ``step``; x1, x2 are the integrator's state, the
    deviation from ``ref``, dx1, dx2 its derivatives and w its window at
    each sample, for the system ``params``.  The absolute state is w_max =
    ref.w_max + x1 and s = ref.s + x2, and the loss probability is
    loss_probability(w, params); ``write_csv`` forms them for its columns.
    """

    t: np.ndarray
    x1: np.ndarray
    x2: np.ndarray
    dx1: np.ndarray
    dx2: np.ndarray
    w: np.ndarray
    ref: FlowState
    step: float
    params: SystemParams

    def rows(self, lo: int, hi: int) -> Trajectory:
        """Samples [lo, hi) as a trajectory of their own: views of the
        columns, with the same reference point, step and system."""
        return replace(self, t=self.t[lo:hi], x1=self.x1[lo:hi], x2=self.x2[lo:hi],
                       dx1=self.dx1[lo:hi], dx2=self.dx2[lo:hi], w=self.w[lo:hi])

    def columns(self, lo: int, hi: int):
        """The CSV columns t, w_max, s, w, p of samples [lo, hi)."""
        w = self.w[lo:hi]
        return (self.t[lo:hi], self.ref.w_max + self.x1[lo:hi], self.ref.s + self.x2[lo:hi], w,
                loss_probability(w, self.params))

    def write_csv(self, path, head: CSVParts | None = None) -> None:
        """Round-trip decimal CSV with header t,w_max,s,w,p; rows [0,
        head.rows) are the parts of ``head`` (see :func:`write_rows`)."""
        write_rows(path, "t,w_max,s,w,p", len(self.t), self.columns, head)


# Rows formatted per write.  A chunk of five columns holds about 250 bytes
# per row while it is joined; on a 2-core host 1024 rows wrote 256k rows as
# fast as 4096 did, with a quarter of that memory.
_WRITE_CHUNK = 1024
# Fewest rows a forked writer is given.  Measured on a 2-core host from a
# 60 MB process writing five all-distinct float columns: a fork with its
# temporary file, wait and copy costs about 10 ms and 8 ms of CPU, so two
# parts of 4096 rows just break even, and two of 16384 rows take 0.6 of one
# part's wall time for 1.03 of its CPU.
_MIN_PART_ROWS = 16384


def _chunk_cells(chunk: np.ndarray):
    """The cells of one column chunk, in row order: an object chunk's str
    cells as they are, and the ``repr`` of every number.

    A float64 chunk with fewer runs of equal bit patterns than half its rows
    formats each run's value once and repeats the string.  Patterns, not
    values, are compared, so 0.0 and -0.0, and NaNs of different payloads,
    stay apart, as their reprs are read back.
    """
    if chunk.dtype == object:
        return chunk.tolist()
    if chunk.dtype == np.float64:
        bits = chunk.view(np.int64)
        starts = np.flatnonzero(bits[1:] != bits[:-1]) + 1
        if 2 * (len(starts) + 1) < len(chunk):
            starts = np.concatenate(([0], starts))
            text = np.array(list(map(repr, chunk[starts].tolist())), dtype=object)
            return np.repeat(text, np.diff(starts, append=len(chunk))).tolist()
    return map(repr, chunk.tolist())


def _write_rows(fh, columns, lo: int, hi: int) -> None:
    """Rows [lo, hi) of the table ``columns`` (see :func:`write_rows`),
    formed and written one write chunk at a time, every number by ``repr``
    and every str of an object column as it is.

    ``.tolist()`` hands repr Python floats and ints, so a float round-trips
    its exact binary value and an integer column prints as integers.
    """
    for a in range(lo, hi, _WRITE_CHUNK):
        cells = [_chunk_cells(col) for col in columns(a, min(a + _WRITE_CHUNK, hi))]
        fh.write("\n".join(map(",".join, zip(*cells))))
        fh.write("\n")  # not appended to the chunk, which would copy it


def _cpus() -> int:
    """CPUs a file's writers may use: those this process may run on; one
    where the platform cannot fork, or where the process runs other threads,
    one of which may hold a lock a forked child needs."""
    if not all(hasattr(os, name) for name in ("fork", "sched_getaffinity", "sendfile")):
        return 1
    if threading.active_count() > 1:
        return 1
    return len(os.sched_getaffinity(0))


def _part_count(rows: int) -> int:
    """Processes to format ``rows`` rows: one per CPU (see :func:`_cpus`),
    at most one per ``_MIN_PART_ROWS`` rows."""
    return max(1, min(_cpus(), rows // _MIN_PART_ROWS))


def _existing_dir(path) -> str:
    """The directory of ``path``, or its nearest ancestor that exists."""
    folder = os.path.dirname(os.path.abspath(path))
    while not os.path.isdir(folder):
        folder = os.path.dirname(folder)
    return folder


def _write_text(tmp, write) -> None:
    """Call ``write(out)`` with a text file ``out`` over the file ``tmp``."""
    with open(tmp.fileno(), "w", newline="", closefd=False) as out:
        write(out)


def _run_child(tmp, write) -> None:
    """In a forked child: ``write`` a text file over ``tmp``, then exit.
    The parent's buffers are never flushed, since ``os._exit`` skips every
    finaliser; any failure shows as a nonzero exit status."""
    status = 1
    try:
        _write_text(tmp, write)
        status = 0
    finally:
        os._exit(status)


class CSVParts:
    """The writer of the CSV file ``path``, and the one place a writer is
    forked, waited for and its output placed.

    The file is a sequence of parts in row order: the ranges ``take`` hands
    to forked children while the integrator runs (when built with
    ``columns_of``, a function from a :class:`Trajectory` to its CSV table),
    then those ``write`` cuts from the rows left.  A child formats its range
    into an anonymous temporary file in the nearest existing directory of
    ``path`` (the room the file needs anyway; the directory of ``path`` need
    not exist yet).  Leaving a ``with`` block waits for every child and
    closes every temporary file, whatever happened.
    """

    def __init__(self, path, columns_of=None):
        self.path = path
        self.rows = 0
        self._columns_of = columns_of
        self._dir = _existing_dir(path)
        self._tmps = []
        self._pids = []
        self._codes = {}  # pid -> exit code, once reaped

    def __enter__(self) -> CSVParts:
        return self

    def __exit__(self, *exc_info) -> None:
        try:
            self._wait()
        finally:
            for tmp in self._tmps:
                tmp.close()

    def _new_part(self):
        tmp = tempfile.TemporaryFile(dir=self._dir)
        self._tmps.append(tmp)
        return tmp

    def _fork(self, write) -> None:
        """Start a child that calls ``write(out)`` on a text file over the
        next part, then exits."""
        tmp = self._new_part()
        try:
            pid = os.fork()
        except OSError as exc:
            raise OSError(f"could not write {self.path}: {exc}") from exc
        if pid == 0:
            _run_child(tmp, write)
        self._pids.append(pid)

    def _running(self) -> int:
        """Children still formatting; those that have finished are reaped."""
        for pid in self._pids:
            if pid not in self._codes:
                done, status = os.waitpid(pid, os.WNOHANG)
                if done:
                    self._codes[pid] = os.waitstatus_to_exitcode(status)
        return len(self._pids) - len(self._codes)

    def take(self, rows: int, traj: Trajectory) -> None:
        """The ``on_block`` hook: samples [0, ``rows``) of ``traj`` are
        final.  Every whole write chunk among them not yet taken goes to one
        new child, if they hold at least ``_MIN_PART_ROWS`` rows and fewer
        than CPUs - 1 (see :func:`_cpus`) children are running.  The child
        forms their columns from ``traj`` as the fork found it."""
        lo, hi = self.rows, rows - rows % _WRITE_CHUNK
        if hi - lo >= _MIN_PART_ROWS and self._running() < _cpus() - 1:
            self._fork(lambda out: _write_rows(out, self._columns_of(traj), lo, hi))
            self.rows = hi

    def write(self, header: str, rows: int, columns) -> None:
        """Write the file: ``header``, then ``rows`` rows of the table
        ``columns`` (see :func:`write_rows`), of which ``take`` has handed
        out [0, ``self.rows``).

        The rest are cut into contiguous ranges of whole write chunks, one
        per CPU (see :func:`_part_count`).  A child is forked for each range
        but the first, which this process formats: straight into the file
        when no part comes before it, else into a part of its own.  Then
        every part is appended in order, so the bytes are the same for any
        number of parts.  Raises ``OSError`` naming ``path`` when a child
        failed or could not be forked; on any failure the file is removed.
        """
        with open(self.path, "w", newline="") as fh:
            try:
                fh.write(header + "\n")
                fh.flush()  # no child inherits unwritten bytes
                done = self.rows
                parts = _part_count(rows - done)
                chunks = -(-(rows - done) // _WRITE_CHUNK)
                bounds = [done + chunks * i // parts * _WRITE_CHUNK for i in range(parts)] + [rows]
                own = partial(_write_rows, columns=columns, lo=done, hi=bounds[1])
                tmp = self._new_part() if done else None  # placed before the parts forked next
                for lo, hi in zip(bounds[1:], bounds[2:]):
                    self._fork(partial(_write_rows, columns=columns, lo=lo, hi=hi))
                if tmp is None:
                    own(fh)
                else:
                    _write_text(tmp, own)
                self._append_to(fh)
            except BaseException:
                os.remove(self.path)
                raise

    def _append_to(self, fh) -> None:
        """Wait for every child, then append every part to ``fh`` in order."""
        self._wait()
        failed = sum(code != 0 for code in self._codes.values())
        if failed:
            raise OSError(f"could not write {self.path}: {failed} of {len(self._codes)} "
                          f"writers failed")
        fh.flush()
        for tmp in self._tmps:
            offset = 0
            while sent := os.sendfile(fh.fileno(), tmp.fileno(), offset, 1 << 30):
                offset += sent

    def _wait(self) -> None:
        for pid in self._pids:
            if pid not in self._codes:
                self._codes[pid] = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])


def write_rows(path, header: str, rows: int, columns, head: CSVParts | None = None) -> None:
    """``header`` and ``rows`` rows as the CSV file ``path``, through
    ``head`` when given, the file's :class:`CSVParts` whose ``take`` has
    formatted its first rows while the integrator ran.

    ``columns(lo, hi)`` gives the numpy columns of rows [lo, hi); they are
    formed one write chunk at a time, so only a chunk of them is held.
    """
    with head or CSVParts(path) as parts:
        parts.write(header, rows, columns)


def write_csv(path, header: str, columns) -> None:
    """``header`` and the rows of the equal-length numpy ``columns`` as the
    CSV file ``path`` (see :func:`write_rows`)."""
    write_rows(path, header, len(columns[0]), lambda lo, hi: [col[lo:hi] for col in columns])


def steps_per_delay(tau: float, step: float) -> int:
    """The integer k with ``step`` = tau/k to one part in 1e9, k >= 4.

    Any other step, including a non-positive or non-finite one, raises
    ``ValueError``.
    """
    ratio = tau / step if step > 0.0 else math.nan
    k = round(ratio) if ratio < 2.0**53 else 0  # NaN and inf fail the test
    if k < 4 or abs(k * step - tau) > 1e-9 * tau:
        raise ValueError(f"step {step} must divide the delay {tau} into k >= 4 parts")
    return k


def step_grid(tau: float, step: float, t_end: float) -> tuple[int, float, int]:
    """(k, h, n): the grid step h = tau/k for ``step`` (see
    :func:`steps_per_delay`) and the n steps of h that :func:`integrate`
    takes to reach ``t_end``, whose last sample n h may fall a hair short
    of it."""
    k = steps_per_delay(tau, step)
    h = tau / k
    return k, h, math.ceil(t_end / h - 1e-12)


def integrate(
    params: SystemParams,
    window_fn: WindowFunction,
    start: FlowState,
    t_end: float,
    step_h: float,
    *,
    fp: FixedPoint | None = None,
    on_block=lambda rows, traj: None,
) -> Trajectory:
    """Integrate the fluid model over [0, t_end] from the state ``start``.

    The solution is held at ``start`` on [-tau, 0], so every stage that
    looks back before t = 0 sees the delayed rate of the start state.
    ``step_h`` must equal tau/k for an integer k >= 4 (to one part in 1e9);
    the exact grid step tau/k is used internally.  The state is integrated
    as its deviation from ``fp`` when given, else from ``start``.  Output is
    bit-identical across runs for identical inputs.  Raises ``ValueError``
    for a start outside the domain (see :func:`tcpfluid.core.check_start`)
    and :class:`IntegrationError` when w_max or the instantaneous window
    leaves the positive domain, the start's w_max rounded about ``fp`` too.

    The trajectory returned is allocated before the first step, and
    ``on_block(rows, traj)`` gets that same object after every block of
    ``_WRITE_CHUNK`` steps and after the last: samples [0, ``rows``) are
    final, the rest not yet computed.
    """
    check_start(*start)
    if not 0.0 < t_end < math.inf:
        raise ValueError(f"t_end must be positive and finite, got {t_end}")
    k, h, n = step_grid(params.tau, step_h, t_end)
    ref = FlowState(*start) if fp is None else FlowState(fp.w_hat, fp.s_hat)
    w_ref, s_ref = ref
    rhs = rhs_about(ref, params, window_fn)
    deficit = window_fn.deficit_about(ref, params)

    def delayed_rate(x1: float, x2: float, i: int) -> float:
        w = w_ref + x1 - deficit(x1, x2)
        if not w > 0.0:
            raise IntegrationError("delayed window left positive domain", i * h,
                                   FlowState(w_ref + x1, s_ref + x2))
        return loss_rate(w, params)

    # The run's one trajectory, allocated for all n + 1 samples: the state,
    # its derivative and its own window (its loss rate is the delayed rate k
    # steps later), used through memoryviews.  t is scaled in place: a freed
    # temporary of its size moved later allocations and raised peak RSS 1.6 MB.
    t = np.arange(n + 1, dtype=np.float64)
    t *= h
    traj = Trajectory(t, *(np.empty(n + 1) for _ in range(5)), ref=ref, step=h, params=params)
    x1s, x2s, d1s, d2s, ws = map(memoryview, (traj.x1, traj.x2, traj.dx1, traj.dx2, traj.w))

    def store(i: int, x1: float, x2: float, rate: float) -> None:
        # Store sample i with its derivative (at delayed rate ``rate``) and
        # its own window, from one deficit evaluation.
        d1, d2, gap = rhs(x1, x2, rate)
        w_max = w_ref + x1
        w = w_max - gap
        if not (w_max > 0.0 and w > 0.0):
            raise IntegrationError("w_max or window left positive domain", i * h,
                                   FlowState(w_max, s_ref + x2))
        x1s[i], x2s[i], d1s[i], d2s[i], ws[i] = x1, x2, d1, d2, w

    x1, x2 = start.w_max - w_ref, start.s - s_ref
    if not w_ref + x1 > 0.0:  # the start is below half an ulp of w_ref
        raise IntegrationError(f"start w_max={start.w_max!r} is lost to rounding against the "
                               f"reference w_max={w_ref!r}", 0.0,
                               FlowState(w_ref + x1, s_ref + x2))
    r_start = delayed_rate(x1, x2, 0)  # every delayed rate before t = 0
    store(0, x1, x2, r_start)
    half = 0.5 * h
    sixth = h / 6.0

    # Blocks of steps between hook calls, so that no step checks for one.
    for first in range(0, n, _WRITE_CHUNK):
        last = min(first + _WRITE_CHUNK, n)
        for i in range(first, last):
            j = i - k  # the sample one delay back
            r_mid = r_start if j < 0 else delayed_rate(
                hermite_midpoint(x1s, d1s, j, h), hermite_midpoint(x2s, d2s, j, h), i)
            r_end = loss_rate(ws[j + 1], params) if j >= -1 else r_start
            k1a, k1b = d1s[i], d2s[i]
            k2a, k2b, _ = rhs(x1 + half * k1a, x2 + half * k1b, r_mid)
            k3a, k3b, _ = rhs(x1 + half * k2a, x2 + half * k2b, r_mid)
            k4a, k4b, _ = rhs(x1 + h * k3a, x2 + h * k3b, r_end)
            x1 += sixth * (k1a + 2.0 * (k2a + k3a) + k4a)
            x2 += sixth * (k1b + 2.0 * (k2b + k3b) + k4b)
            store(i + 1, x1, x2, r_end)
        on_block(last + 1, traj)
    return traj
