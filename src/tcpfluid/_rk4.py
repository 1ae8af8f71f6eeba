"""Build, cache and bind the package's compiled library: ``_repr.c``, the
formatter of :func:`tcpfluid.artifacts.write_rows` for tables of float64,
int64 and short bytes columns; and ``_sim.c``, the step loop of
:func:`tcpfluid.dde.integrate` and the event loop of
:func:`tcpfluid.nhpl.run_simulation` and the render of its trace, for the
Reno, CUBIC and frozen windows, which it transcribes once for all three:
four entry points in all.  Each transcribes Python code that stays its
specification and its fallback.

``dde``, ``artifacts`` and ``nhpl`` import this module on the first run or
write that needs the library, never on import, and share its one loader,
:func:`library`.  The C is a plain shared library (no ``Python.h``), built
with the compiler Python was built with and called through ctypes.
"""

from __future__ import annotations

import ctypes
import functools
import os
import shlex
import sysconfig
import zlib
from collections import namedtuple
from contextlib import suppress

import numpy as np

from .artifacts import CELL_BYTES, formattable
from .core import FlowState
from .dde import _DELAYED_EXIT, _STORED_EXIT, IntegrationError, Trajectory
from .nhpl import SimState, pick_losing_flow, sample_count
from .protocols import CubicWindow, FrozenWindow, RenoWindow

# The sources of the one library, in this package's directory.
_SOURCES = ("_repr.c", "_sim.c")
# No fast-math and no fused multiply-add, so that the compiled loop rounds
# as the Python loop does.
_FLAGS = ("-O2", "-ffp-contract=off", "-fPIC", "-shared")
# The messages of rk4_steps' domain-exit return codes.
_EXITS = {1: _DELAYED_EXIT, 2: _STORED_EXIT}


class _Params(ctypes.Structure):
    """``struct rk4_params`` of ``_sim.c``."""

    _fields_ = [("k", ctypes.c_long),
                *((field, ctypes.c_double) for field in ("h", "w_ref", "s_ref", "r_start"))]


class _Sim(ctypes.Structure):
    """``struct sim`` of ``_sim.c``."""

    _fields_ = [("window", ctypes.c_long), ("flows", ctypes.c_long),
                *((field, ctypes.c_double) for field in
                  ("tau", "bdp", "b", "c", "lookahead", "t_end")),
                ("most", ctypes.c_long), ("next_double", ctypes.c_void_p), ("rng", ctypes.c_void_p),
                *((field, ctypes.c_void_p) for field in
                  ("w_loss", "llis", "weights", "pending_t", "pending_f")),
                ("pending", ctypes.c_long), ("t_loss_last", ctypes.c_double),
                *((field, ctypes.c_long) for field in ("losses", "candidates", "rows", "used")),
                *((field, ctypes.c_void_p) for field in
                  ("kind", "time", "flow", "before", "after")),
                ("loss_time", ctypes.c_double), ("found", ctypes.c_long), ("u", ctypes.c_double)]


# The one map from a window function to compiled code, by exact type (a
# subclass may override what the C transcribes): _sim.c's codes, which every
# entry point takes.  The bindings decline every other window function.
_WINDOWS = {RenoWindow: 0, CubicWindow: 1, FrozenWindow: 2}
# _sim.c's returns other than the run's end; its event kinds are nhpl.KINDS'.
_BLOCK_FULL, _OVER_BUDGET, _NO_FLOW_CAN_LOSE = 1, 2, 3
# Rows of the event block _sim.c writes into, unless one step may need more.
# On criterion 7's run 1024 rows peaked 0.2 MB lower than 4096 and were no
# slower.
_EVENT_ROWS = 1024

# The compiled library's four entry points (see :func:`load`).
Library = namedtuple("Library", "steps format_rows simulate render")


def load(cache: str) -> Library | None:
    """Load ``_SOURCES`` built as one shared library in the directory
    ``cache``, building it first (see :func:`_build`) when no library there
    has its name, a CRC of the compile command and a CRC of the command and
    the sources, so that an edited source gets a library of its own; None,
    with nothing printed, when it cannot be built or loaded or lacks one of
    its four symbols, ``rk4_steps``, ``format_rows``, ``sim_run`` and
    ``sim_render``; a library built without one stays in ``cache``.

    Each entry point does what the Python code it transcribes does and
    raises what that raises; ``steps`` and ``simulate`` decline, touching
    nothing, a window function their C does not transcribe (see
    ``_WINDOWS``).  ``steps(traj, window_fn, k, r_start)`` takes every step
    of ``integrate``'s loop on a trajectory with sample 0 stored, given its
    window function, k and the start's delayed rate, and returns True, or
    False where it declines.  ``format_rows(columns, out)`` writes the rows
    of the ``columns`` that :func:`tcpfluid.artifacts.formattable` takes as
    CSV text into the uint8 array ``out``, which holds ``CELL_BYTES`` per
    cell, and returns the number of bytes written: every float as ``repr``
    and every integer as ``str`` writes it, and every bytes cell, such as
    the event log's kind names, as its text up to its first NUL.
    ``simulate(state, t_end, most)`` steps a ``SimState`` whose rng is an
    ``RngStream`` as ``run_simulation``'s loop does, drawing from that
    stream's own PCG64, until a step finds no loss or one past ``t_end``, or
    the losses by ``t_end`` pass ``most``, and returns (losses by ``t_end``,
    the last step's loss time or None), or None where it declines.  The C
    keeps the state's queue as an array sorted by (time, flow), so it pops
    what ``heapq`` pops, in the same order, though not from a heap's layout;
    the queue goes in sorted and comes back sorted, which is a heap too.
    The C writes events into a block of ``_EVENT_ROWS`` rows, or twice the
    rows one step may write, returning to Python between two steps whenever
    the next one might not fit; each block's five columns are appended to
    the state's ``EventLog`` byte for byte.
    ``render(state, t_end, sample_dt)`` is ``nhpl._render_trace`` on the
    ``SimState`` of a run ``simulate`` stepped: the C reads the event
    log's columns where they lie, copying none of them.
    """
    folder = os.path.dirname(__file__)
    sources = [os.path.join(folder, name) for name in _SOURCES]
    try:
        compiler = [*shlex.split(sysconfig.get_config_var("CC") or ""), *_FLAGS]
        crc = command = zlib.crc32(" ".join(compiler).encode())
        for source in sources:
            with open(source, "rb") as fh:
                crc = zlib.crc32(fh.read(), crc)
        library = os.path.join(cache, f"_rk4-{command:08x}-{crc:08x}.so")
        if not os.path.exists(library):
            if not _build([*compiler, *sources, "-lm", "-o"], library):
                return None
            _remove_others(library)
        lib = ctypes.CDLL(library)
        rk4_steps, c_format_rows = lib.rk4_steps, lib.format_rows
        sim_run, sim_render = lib.sim_run, lib.sim_render
    # ValueError: a CC that shlex cannot split; AttributeError: a missing symbol.
    except (OSError, ValueError, AttributeError):
        return None
    rk4_steps.restype = ctypes.c_int
    rk4_steps.argtypes = [ctypes.POINTER(_Sim), ctypes.POINTER(_Params), *[ctypes.c_void_p] * 5,
                          ctypes.c_long, ctypes.POINTER(ctypes.c_long),
                          ctypes.POINTER(ctypes.c_double)]
    c_format_rows.restype = ctypes.c_long
    c_format_rows.argtypes = [ctypes.c_long, ctypes.c_long, ctypes.c_void_p, ctypes.c_char_p,
                              ctypes.c_void_p, ctypes.c_void_p]
    sim_run.restype = ctypes.c_int
    sim_run.argtypes = [ctypes.POINTER(_Sim)]
    sim_render.restype = None
    sim_render.argtypes = [ctypes.POINTER(_Sim), ctypes.c_long, ctypes.c_double,
                           ctypes.c_void_p, ctypes.c_void_p]

    def steps(traj: Trajectory, window_fn, k: int, r_start: float) -> bool:
        if (window := _WINDOWS.get(type(window_fn))) is None:
            return False
        p, h, rows = traj.params, traj.step, len(traj.x1)
        columns = (traj.x1, traj.x2, traj.dx1, traj.dx2, traj.w)
        if not all(col.dtype == np.float64 and col.flags.c_contiguous and len(col) == rows
                   for col in columns):
            raise ValueError("the kernel takes contiguous float64 columns of one length")
        at, state = ctypes.c_long(), (ctypes.c_double * 2)()
        # The C writes samples [1, rows) of the columns from sample 0.
        code = rk4_steps(_Sim(window, p.flows, p.tau, p.bdp, p.b, p.c),
                         _Params(k, h, *traj.ref, r_start),
                         *(col.ctypes.data for col in columns), rows - 1, at, state)
        if code:
            raise IntegrationError(_EXITS[code], at.value * h, FlowState(*state))
        return True

    def format_rows(columns, out: np.ndarray) -> int:
        rows = len(columns[0])
        if not (formattable(columns) and out.dtype == np.uint8 and out.flags.c_contiguous
                and len(out) >= rows * len(columns) * CELL_BYTES):
            raise ValueError("the formatter takes contiguous float64, int64 and bytes columns "
                             "of one length, the bytes narrower than CELL_BYTES, and a uint8 "
                             "buffer of CELL_BYTES per cell")
        # Each column's dtype kind, 'f', 'i' or 'S', and its itemsize.
        kinds = "".join(col.dtype.kind for col in columns).encode()
        widths = (ctypes.c_long * len(columns))(*(col.itemsize for col in columns))
        pointers = (ctypes.c_void_p * len(columns))(*(col.ctypes.data for col in columns))
        return c_format_rows(rows, len(columns), pointers, kinds, widths, out.ctypes.data)

    def simulate(state: SimState, t_end: float, most: int) -> tuple[int, float | None] | None:
        if (window := _WINDOWS.get(type(state.window_fn))) is None:
            return None
        p, flows = state.params, len(state.w_loss)
        bits = state.rng._gen.bit_generator.ctypes  # RngStream's PCG64
        w_loss, llis, weights = np.array(state.w_loss), np.array(state.llis), np.empty(flows)
        # The C keeps the queue sorted and hands it back sorted: a heap too.
        pending = sorted(state.pending)
        queue = [np.array([t for t, _ in pending]), np.array([f for _, f in pending], np.int64)]
        sim = _Sim(window, flows, p.tau, p.bdp, p.b, p.c, state.lookahead, t_end, most,
                   ctypes.cast(bits.next_double, ctypes.c_void_p).value, bits.state_address,
                   w_loss.ctypes.data, llis.ctypes.data, weights.ctypes.data,
                   pending=len(state.pending), t_loss_last=state.t_loss_last,
                   candidates=state.candidates)
        block, code = [], _BLOCK_FULL
        while code == _BLOCK_FULL:
            if not block or sim.rows < 2 * (sim.pending + 1):
                # One step writes an event per pending indication, and its
                # loss: it lowers the free rows less the queue's length by
                # two.  With twice the rows a step may need, a call takes a
                # step for every two entries the queue held, and moving the
                # queue back to its arrays' start (sim_run) costs O(1) a step.
                sim.rows = max(_EVENT_ROWS, 2 * (sim.pending + 1))
                block = [np.empty(sim.rows, col.typecode) for col in state.events.columns]
                sim.kind, sim.time, sim.flow, sim.before, sim.after = (
                    col.ctypes.data for col in block)
            if len(queue[0]) < sim.pending + sim.rows:
                queue = [np.resize(col, 2 * (sim.pending + sim.rows)) for col in queue]
                sim.pending_t, sim.pending_f = (col.ctypes.data for col in queue)
            code = sim_run(sim)
            for col, rows in zip(state.events.columns, block):
                col.frombytes(rows[:sim.used].view(np.uint8))
            sim.used = 0
        pending = sim.pending
        state.w_loss, state.llis = w_loss.tolist(), llis.tolist()
        state.pending = list(zip(queue[0][:pending].tolist(), queue[1][:pending].tolist()))
        state.t_loss_last, state.candidates = sim.t_loss_last, sim.candidates
        if code == _NO_FLOW_CAN_LOSE:
            pick_losing_flow(weights.tolist(), sim.u)  # raises its ValueError
            raise AssertionError("_sim.c refused a loss that pick_losing_flow takes")
        return sim.losses, sim.loss_time if code == _OVER_BUDGET or sim.found else None

    def render(state: SimState, t_end: float, sample_dt: float) -> np.ndarray:
        p, flows, samples = state.params, len(state.first), sample_count(t_end, sample_dt)
        # The C moves each flow's epoch on from its first, in these copies.
        llis, w_loss = (np.array(col, dtype=np.float64) for col in zip(*state.first))
        cursor, rows = np.empty(flows, np.int64), np.empty((samples, flows + 1))
        kind, time, flow, before, _ = (col.buffer_info()[0] for col in state.events.columns)
        sim = _Sim(_WINDOWS[type(state.window_fn)], flows, p.tau, p.bdp, p.b, p.c,
                   w_loss=w_loss.ctypes.data, llis=llis.ctypes.data, used=len(state.events),
                   kind=kind, time=time, flow=flow, before=before)
        sim_render(sim, samples, sample_dt, cursor.ctypes.data, rows.ctypes.data)
        return rows

    return Library(steps, format_rows, simulate, render)


@functools.cache
def library() -> Library | None:
    """The library (see :func:`load`), built into this package's
    ``__pycache__`` on first use; None where it cannot be."""
    return load(os.path.join(os.path.dirname(__file__), "__pycache__"))


def _remove_others(library: str) -> None:
    """Remove every library beside ``library`` built by its compile command,
    ``_rk4-<command CRC>-*.so``, but ``library``: each edit of a source
    builds a library of its own, and the earlier ones are never loaded
    again.  A build with another command, such as other ``_FLAGS``, stays
    for the processes that build with it.  A file another process has
    loaded stays mapped in it."""
    cache, name = os.path.split(library)
    command = name.rsplit("-", 1)[0] + "-"
    with suppress(OSError):
        for other in os.listdir(cache):
            if other.startswith(command) and other.endswith(".so") and other != name:
                with suppress(OSError):
                    os.remove(os.path.join(cache, other))


def _build(command: list[str], library: str) -> bool:
    """Run the compile ``command``, which ends in ``-o``, into a temporary
    file beside ``library``, then rename that to ``library``: two processes
    that build at once leave one whole library.  False, with nothing
    printed and the temporary file removed, where that fails."""
    import subprocess  # here, not on a cache hit: it adds 0.4 MB of RSS
    import tempfile

    cache = os.path.dirname(library)
    try:
        os.makedirs(cache, exist_ok=True)
        fd, temp = tempfile.mkstemp(prefix=os.path.basename(library), suffix=".tmp", dir=cache)
    except OSError:
        return False
    os.close(fd)
    try:
        subprocess.run([*command, temp], stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL,
                       stderr=subprocess.DEVNULL, check=True, timeout=120)
        os.replace(temp, library)
        return True
    except (OSError, subprocess.SubprocessError):
        return False
    finally:
        with suppress(FileNotFoundError):
            os.unlink(temp)
