"""Event-driven loss simulator with a non-homogeneous Poisson loss process.

Losses are generated at the congestion point with rate lambda(t) =
sum_f W_f(t) p_f(t) / tau and become visible to the sources only after a
delay of tau (a "loss indication").  Between indications each flow grows
deterministically along its window function, so a flow's trajectory is fully
described by the start time of its current epoch and the window size it had
right before the loss that started it (the W_loss array).

The inter-loss sampler inverts the cumulative rate integral against an
Exp(1) target (inverse transform method), a quartic in closed form within
an epoch (see :func:`compute_T`).  A candidate is only valid while no
pending indication fires before it; otherwise the earliest indication is
applied and the candidate regenerated from its time with a fresh uniform,
which is exact: the discarded draw certifies that no loss occurred before
the indication, and the process is memoryless.  The step that finds a loss
records it in the state's event log and makes it the next candidate's
anchor, so stepping a ``SimState`` with ``generate_poi_loss`` alone is the
whole event loop.

The congestion point sees the flows in aggregate, so the capacity-clamp loss
model applies to the total: p = max(1 - N C tau / sum_f W_f, 0), and flow f
suffers losses at rate W_f p / tau.  The total rate then collapses to
(sum_f W_f - N C tau)+ / tau, which is zero exactly until the aggregate
window reaches the bandwidth-delay product.  A candidate is one excess
cubic sum_f W_f - N C tau from its anchor (the last loss or indication):
its bdp crossing skips that dead interval, and the integral starts there.
With a single flow this reduces to the per-flow model p = max(1 - C tau / W,
0) of the fluid equations, and for N identical flows each carries 1/N of the
total rate, so both limits agree with the mean-field model.

Two loops step a run, with one result.  For the Reno, CUBIC and frozen
windows (``tcpfluid._rk4._WINDOWS`` says which window functions have
compiled code), ``run_simulation`` runs the event loop as compiled C, in
``_sim.c``, which writes each window function once for it and for the
fluid step loop (see :mod:`tcpfluid._rk4`): it transcribes
``generate_poi_loss`` and what it calls and the loss count against
``WORK_BUDGET``, operation for operation, pops the queue in heapq's
(time, flow) order, and draws its uniforms from the run's own numpy PCG64
through numpy's C interface, so every event, every state bit, every draw
and every ``ValueError`` is the Python loop's.  Its queue is an array kept
sorted, not a heap: losses, and so their indications, come in time order,
so each push lands at the tail.  The Python loop stays the specification,
and runs every other window function and every run on a host where the C
cannot be built.  Both append to the state's ``EventLog``, typed columns
with no Python object per event: the Python loop row by row, the C a block
at a time.

A run's trace is a matrix of every flow's window at each sample time, and
their mean, rendered from the starting epochs and the log's indications by
the same rule: ``_sim.c`` renders it for the runs it steps, in one pass
over the log's columns with one window value per sample, and
``_render_trace``, one window call per epoch, stays its specification and
renders every other run.  A run's ``SimResult`` keeps the log up to t_end
and the trace, and writes both through :mod:`tcpfluid.artifacts`, the
package's one CSV writer, forming their columns one write chunk at a time.
"""

from __future__ import annotations

import heapq
import math
import operator
from array import array
from bisect import bisect_right
from dataclasses import InitVar, dataclass, field
from itertools import starmap
from typing import NamedTuple, Sequence

import numpy as np

from .artifacts import write_rows
from .core import FlowState, SystemParams, WindowFunction, check_start
from .fixedpoint import solve_increasing

# Cap on one run's fluid steps, its simulator trace rows and its losses
# times flows, which ``run_simulation`` counts as it goes.
WORK_BUDGET = 10**7


class RngStream:
    """Deterministic uniform(0,1) stream: numpy PCG64 under a recorded seed.

    ``uniform()`` never returns 0.0 (redrawn) so -log(u) is always finite;
    1.0 is outside the generator's range by construction.
    """

    def __init__(self, seed: int):
        self.seed = self.checked_seed(seed)
        self._gen = np.random.Generator(np.random.PCG64(self.seed))

    @staticmethod
    def checked_seed(seed: int) -> int:
        """The seed as an int if it is an integer that fits in 64 unsigned
        bits; needs no numpy.random."""
        try:
            value = operator.index(seed)
        except TypeError:
            value = -1  # not an integer: rejected with the out-of-range ones
        if not 0 <= value < 2 ** 64:
            raise ValueError(f"seed must be a 64-bit unsigned integer, got {seed!r}")
        return value

    def uniform(self) -> float:
        u = self._gen.random()
        while u <= 0.0:
            u = self._gen.random()
        return float(u)


class Event(NamedTuple):  # one row of an EventLog
    event_type: str  # "loss" (congestion point) or "indication" (source)
    time: float
    flow: int
    window_before: float
    window_after: float


# The event types, by the code an EventLog keeps.
KINDS = ("loss", "indication")
LOSS, INDICATION = range(len(KINDS))


class EventLog:
    """A run's events in time order as five typed columns, one per ``Event``
    field, the type as its code in ``KINDS``: no Python object per event.
    Iterated, its rows are ``Event``s."""

    def __init__(self) -> None:
        self.columns = (array("B"), array("d"), array("q"), array("d"), array("d"))

    def append(self, *row) -> None:
        for col, value in zip(self.columns, row):
            col.append(value)

    def __len__(self) -> int:
        return len(self.columns[1])

    def __iter__(self):
        kinds, *numbers = self.columns
        return starmap(Event, zip(map(KINDS.__getitem__, kinds), *numbers))

    def count(self, event_type: str) -> int:
        return self.columns[0].count(KINDS.index(event_type))

    def table(self, lo: int, hi: int) -> list[np.ndarray]:
        """Rows [lo, hi) as numpy columns, the event types by name as ASCII
        bytes, which the compiled CSV formatter writes: numpy's checked
        index turns each code into its name, so no code reaches the C."""
        kinds, *numbers = (np.asarray(col)[lo:hi] for col in self.columns)
        return [np.array(KINDS, dtype="S")[kinds], *numbers]


@dataclass
class SimState:
    """The simulator's current epoch per flow, its queue and its event log.

    Made from init[f] = (w_loss, s0), which puts flow f at epoch age s0 at
    t=0; ``ValueError`` unless the window function exposes coefficients,
    init holds one start per flow, each passes ``check_start`` and the
    lookahead is positive.  Flow f's current epoch started at llis[f] (its
    last indication) from the pre-loss window w_loss[f], and first[f] is its
    (start, w_loss) at t=0.  pending holds (time, flow) indications as a
    ``heapq`` heap, popped in (time, flow) order (the compiled loop hands it
    back sorted, which is a heap too); every entry was scheduled exactly
    tau after the loss event that produced it.  t_loss_last is the most
    recent loss event at the congestion point, 0 until the first.  first
    and the indications in the ``EventLog`` events are the only record of
    earlier epochs: each starts one at its time from its window_before.
    candidates counts the candidate loss times ``generate_poi_loss`` has
    computed.
    """

    params: SystemParams
    window_fn: WindowFunction
    init: InitVar[Sequence[tuple[float, float]]]
    rng: object  # anything with uniform() -> float in (0,1)
    lookahead: float
    pending: list[tuple[float, int]] = field(default_factory=list, init=False)
    t_loss_last: float = field(default=0.0, init=False)
    candidates: int = field(default=0, init=False)
    events: EventLog = field(default_factory=EventLog, init=False)
    w_loss: list[float] = field(init=False)
    llis: list[float] = field(init=False)
    first: list[tuple[float, float]] = field(init=False)

    def __post_init__(self, init: Sequence[tuple[float, float]]) -> None:
        if not hasattr(self.window_fn, "coefficients"):
            raise ValueError(f"{type(self.window_fn).__name__} does not expose window coefficients")
        if len(init) != self.params.flows:
            raise ValueError(f"init has {len(init)} flows, params.flows = {self.params.flows}")
        if not self.lookahead > 0.0:
            raise ValueError(f"lookahead must be positive, got {self.lookahead}")
        for w0, s0 in init:
            check_start(w0, s0)
        self.w_loss = [float(w0) for w0, _ in init]
        self.llis = [-float(s0) for _, s0 in init]
        self.first = list(zip(self.llis, self.w_loss))

    def flow_window(self, f: int, t: float) -> float:
        """Window of flow f at absolute time t under its current epoch."""
        age = t - self.llis[f]
        return self.window_fn.window(FlowState(self.w_loss[f], age), self.params)


def _horner(p: Sequence[float], x: float) -> float:
    """p[0] + p[1] x + p[2] x^2 + ..."""
    acc = 0.0
    for coeff in reversed(p):
        acc = coeff + x * acc
    return acc


def excess_poly(state: SimState, t0: float) -> tuple[float, float, float, float]:
    """Coefficients of sum_f W_f(t0 + x) - N C tau as a cubic in the offset x."""
    fn, params = state.window_fn, state.params
    a0 = a1 = a2 = a3 = 0.0
    for w_loss, lli in zip(state.w_loss, state.llis):
        c0, c1, c2, c3 = fn.coefficients(FlowState(w_loss, t0 - lli), params)
        a0 += c0
        a1 += c1
        a2 += c2
        a3 += c3
    return a0 - len(state.w_loss) * params.bdp, a1, a2, a3


def t_bdp(excess: tuple[float, float, float, float], horizon: float) -> float | None:
    """First offset x in [0, horizon] where the nondecreasing cubic excess
    reaches 0: the aggregate window's bdp crossing, found by bracketed Newton.

    0.0 when the excess is already nonnegative; None when it is still
    negative at the horizon.
    """
    if excess[0] >= 0.0:
        return 0.0
    if _horner(excess, horizon) < 0.0:
        return None
    guess = -excess[0] / excess[1] if excess[1] > 0.0 else 0.5 * horizon
    return solve_increasing((*excess, 0.0), 0.0, horizon, min(guess, horizon))


def _integral_from_crossing(excess, horizon: float):
    """(x0, q1, q2, q3, q4): the first offset x0 in [0, horizon] where the
    cubic excess reaches 0 (see :func:`t_bdp`), and the coefficients of the
    integral of the excess from x0, a quartic in the offset from x0 with no
    constant term; None when the excess stays negative.  Flat, since every
    candidate loss unpacks it."""
    start = t_bdp(excess, horizon)
    if start is None:
        return None
    e0, e1, e2, e3 = excess
    if start > 0.0:
        # Taylor shift of E to its root: the new constant term is ~0.
        x = start
        e0 = max(_horner(excess, x), 0.0)
        e1 = e1 + x * (2.0 * e2 + 3.0 * e3 * x)
        e2 = e2 + 3.0 * e3 * x
    return start, e0, 0.5 * e1, e2 / 3.0, 0.25 * e3


def compute_T(state: SimState, t0: float) -> float | None:
    """Absolute time of the next candidate loss after t0, or None within the
    lookahead.

    Every window is a cubic in the offset x from t0, so the excess E(x) =
    sum_f W_f - N C tau is a cubic, nondecreasing in x, whose coefficients
    are summed over the flows once.  Without a bdp crossing in the lookahead
    the rate stays zero and nothing is drawn.  Otherwise E is shifted to its
    crossing, one uniform u is drawn from state.rng, and the candidate is
    the x where the integral of E/tau from the crossing reaches -ln(u): the
    quartic integral is inverted by bracketed Newton.  The integral is
    convex, so Newton approaches the root from above.  None means the
    integral over the lookahead falls short of -ln(u).
    """
    crossing = _integral_from_crossing(excess_poly(state, t0), state.lookahead)
    if crossing is None:
        return None
    start, q1, q2, q3, q4 = crossing
    horizon = state.lookahead - start
    u = state.rng.uniform()
    if not 0.0 < u < 1.0:
        raise ValueError(f"u must lie strictly inside (0, 1), got {u}")
    # tau * integral of E from the start minus tau * (-ln u), as a quartic.
    target = -math.log(u) * state.params.tau
    quartic = (-target, q1, q2, q3, q4)
    if _horner(quartic, horizon) < 0.0:
        return None
    # Each positive term alone would reach the target no later than the true
    # root if the others were nonnegative; the earliest of them is the guess.
    guess = horizon
    for k, coeff in enumerate(quartic[1:], start=1):
        if coeff > 0.0:
            guess = min(guess, (target / coeff) ** (1.0 / k))
    return t0 + start + solve_increasing(quartic, 0.0, horizon, guess)


def losses_before_indication(params: SystemParams, window_fn: WindowFunction,
                             init: Sequence[tuple[float, float]], t_end: float) -> float:
    """Expected losses of a run from ``init`` (see :class:`SimState`) up to
    t_end before any indication can land, drawing no random number.

    The first loss comes no earlier than the start epochs' bdp crossing and
    its indication a delay later, so until then every flow holds its start
    epoch: the count is the integral of their excess over [t_cross,
    min(t_end, t_cross + tau)], over tau, the quartic ``compute_T`` inverts.
    """
    state = SimState(params, window_fn, init, None, t_end)
    crossing = _integral_from_crossing(excess_poly(state, 0.0), t_end)
    if crossing is None:
        return 0.0
    start, q1, q2, q3, q4 = crossing
    return _horner((0.0, q1, q2, q3, q4), min(t_end - start, params.tau)) / params.tau


def pick_losing_flow(windows_at_loss: Sequence[float], u: float) -> int:
    """Categorical draw: flow f with probability W_f / sum(W)."""
    if not 0.0 < u < 1.0:
        raise ValueError(f"u must lie strictly inside (0, 1), got {u}")
    total = 0.0
    for f, w in enumerate(windows_at_loss):
        if w < 0.0:
            raise ValueError(f"flow {f}: negative window {w}")
        total += w
    if not total > 0.0:
        raise ValueError("all windows are zero; no flow can lose")
    threshold = u * total
    running = 0.0
    last = 0
    for f, w in enumerate(windows_at_loss):
        if w > 0.0:
            running += w
            last = f
            if running > threshold:
                return f
    return last


def _apply_next_indication(state: SimState) -> float:
    """Apply the earliest pending indication and return its time.

    The affected flow's window right before the indication becomes its new
    w_loss, and its epoch clock restarts at the indication time.
    """
    t_ind, f = heapq.heappop(state.pending)
    w_before = state.flow_window(f, t_ind)
    w_after = state.window_fn.window(FlowState(w_before, 0.0), state.params)
    state.w_loss[f] = w_before
    state.llis[f] = t_ind
    state.events.append(INDICATION, t_ind, f, w_before, w_after)
    return t_ind


def generate_poi_loss(state: SimState) -> float | None:
    """Find the next loss event, record it and return its time, applying
    pending indications as needed; None when no loss comes in the lookahead.

    A candidate is one excess cubic measured from its anchor, the most recent
    loss event.  It is regenerated whenever it lands at or after the next
    pending indication: the indication is applied first (one queue entry
    consumed per iteration, so the loop terminates) and the anchor moves to
    the indication time.  A candidate beyond the lookahead counts as "no loss
    in horizon" and, once the queue is empty, ends the run.  The loss goes to
    the flow drawn with probability proportional to its window at the loss
    time: its indication is scheduled at loss time + tau, the event log gets
    the loss with that window, and the loss becomes the anchor t_loss_last.
    On return every remaining pending indication lies strictly after the
    loss time.
    """
    state.candidates += 1
    loss_time = compute_T(state, state.t_loss_last)
    while state.pending and (loss_time is None or loss_time >= state.pending[0][0]):
        state.candidates += 1
        loss_time = compute_T(state, _apply_next_indication(state))
    if loss_time is None:
        return None
    weights = [state.flow_window(f, loss_time) for f in range(len(state.w_loss))]
    flow = pick_losing_flow(weights, state.rng.uniform())
    heapq.heappush(state.pending, (loss_time + state.params.tau, flow))
    state.events.append(LOSS, loss_time, flow, weights[flow], weights[flow])
    state.t_loss_last = loss_time
    return loss_time


@dataclass
class SimResult:
    """A run's events up to t_end; its trace, windows[i] being every flow's
    window at t_i = i * sample_dt, then their mean; and the candidate loss
    times it computed, past t_end too."""

    t_end: float
    events: EventLog
    windows: np.ndarray  # (samples, flows + 1)
    sample_dt: float
    candidates: int

    def write_events_csv(self, path) -> None:
        """The event log as a CSV with one column per ``Event`` field, the
        event types by name (see :meth:`EventLog.table`); the compiled
        formatter writes every column, and ``repr`` where it cannot be
        built."""
        write_rows(path, ",".join(Event._fields), len(self.events), self.events.table)

    def trace_columns(self, lo: int, hi: int) -> list[np.ndarray]:
        """The columns t, flow, w of trace rows [lo, hi): per sample, one
        row per flow, then the mean's, whose flow is -1."""
        width = self.windows.shape[1]
        sample, col = np.divmod(np.arange(lo, hi), width)
        return [sample * self.sample_dt, np.where(col < width - 1, col, -1),
                self.windows.ravel()[lo:hi]]

    @property
    def trace_t(self) -> np.ndarray:
        """The t of every trace row, formed on access."""
        return self.trace_columns(0, self.windows.size)[0]

    def write_trace_csv(self, path) -> None:
        write_rows(path, "t,flow,w", self.windows.size, self.trace_columns)


def sample_count(t_end: float, sample_dt: float) -> int:
    """Trace samples t_i = i * sample_dt up to t_end; the 1e-9 keeps a sample
    that rounding puts a hair past t_end."""
    return math.floor(t_end / sample_dt + 1e-9) + 1


def _render_trace(state: SimState, t_end: float, sample_dt: float) -> np.ndarray:
    """Every flow's window at t_i = i * sample_dt, and their mean, as the
    rows of a (samples, flows + 1) matrix, one window call per epoch.

    Flow f's epochs are state.first[f] = (start, w_loss) followed by its
    indications (time, window_before) in the event log.  Sample i belongs to
    the last epoch that starts at or before t_i, so an epoch holds the
    samples from the first at or after its start up to the next epoch's
    first; the window is evaluated once on the ages of those samples.  Each
    flow is rendered into a contiguous row of a (flows + 1, samples) array,
    which is transposed once at the end.  The mean is summed flow by flow,
    in flow order, as a per-sample loop over the flows would.  This is the
    specification of ``_sim.c``'s render (see :func:`tcpfluid._rk4.load`),
    which ``run_simulation`` takes where it takes the compiled loop.
    """
    flows = len(state.first)
    n = sample_count(t_end, sample_dt)
    t = np.arange(n) * sample_dt
    kinds, times, flow_of, before, _ = (np.asarray(col) for col in state.events.columns)
    indication = kinds == INDICATION
    times, flow_of, before = times[indication], flow_of[indication], before[indication]
    columns = np.empty((flows + 1, n))
    total = columns[flows]
    total[:] = 0.0
    for f, (start, w_loss) in enumerate(state.first):
        mine = flow_of == f
        starts = np.concatenate(([start], times[mine]))
        bounds = np.append(np.searchsorted(t, starts), n)
        held = np.flatnonzero(bounds[:-1] < bounds[1:])  # the epochs that hold samples
        w_losses = np.concatenate(([w_loss], before[mine]))[held]
        column = columns[f]
        for lo, hi, start, w_loss in zip(bounds[held].tolist(), bounds[held + 1].tolist(),
                                         starts[held].tolist(), w_losses.tolist()):
            ages = t[lo:hi] - start
            column[lo:hi] = state.window_fn.window(FlowState(w_loss, ages), state.params)
        total += column
    total /= flows
    return columns.T.copy()


def run_simulation(params: SystemParams, window_fn: WindowFunction,
                   init: Sequence[tuple[float, float]], seed: int, t_end: float, *,
                   sample_dt: float | None = None) -> SimResult:
    """Run the loss process to t_end and sample every flow's window.

    init[f] = (w_loss, s0): flow f starts at epoch age s0 of an epoch whose
    reset size was w_loss.  The trace is sampled every sample_dt (default
    tau) with one row per flow plus an aggregate row (flow -1) holding the
    per-flow mean.  Identical params, init, and seed give identical results.
    The state is stepped with ``generate_poi_loss``, which records each
    loss, until it finds none or one past t_end; the result keeps the events
    up to t_end.  ``ValueError`` stops a run once its losses x flows pass
    ``WORK_BUDGET``: a window that grows for a whole delay before its first
    loss reaches it can keep the loss rate far above its equilibrium value.
    """
    if not 0.0 < t_end < math.inf:
        raise ValueError(f"t_end must be positive and finite, got {t_end}")
    if sample_dt is None:
        sample_dt = params.tau
    if not sample_dt > 0.0:
        raise ValueError(f"sample_dt must be positive, got {sample_dt}")
    # The search horizon reaches past t_end from any anchor before it.
    lookahead = max(1e4 * params.tau, 2.0 * t_end)
    state = SimState(params, window_fn, init, RngStream(seed), lookahead)
    losses, most = 0, WORK_BUDGET // params.flows
    # The compiled loop and render, for the window functions they transcribe.
    stepped = None if (lib := _kernel()) is None else lib.simulate(state, t_end, most)
    if stepped is not None:
        losses, loss_time = stepped
    else:
        while (loss_time := generate_poi_loss(state)) is not None and loss_time <= t_end:
            losses += 1
            if losses > most:
                break
    if losses > most:
        raise ValueError(f"{losses} losses by t = {loss_time!r} s of {t_end!r} s: x "
                         f"{params.flows} flows is over {WORK_BUDGET}")
    windows = (_render_trace if stepped is None else lib.render)(state, t_end, sample_dt)
    # The log is in time order, so the events by t_end are a prefix of it.
    kept = bisect_right(state.events.columns[1], t_end)
    for col in state.events.columns:
        del col[kept:]
    return SimResult(t_end, state.events, windows, sample_dt, state.candidates)


def _kernel():
    """The compiled library, whose event loop and render
    ``run_simulation`` takes (see :func:`tcpfluid._rk4.load`); None where it
    cannot be built."""
    from . import _rk4  # on first use: importing nhpl leaves the loader unread

    return _rk4.library()
