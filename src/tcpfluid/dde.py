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
when it is appended, so a sample is evaluated once.

``write_columns`` writes every value by ``repr``.  Within each chunk of
rows, a float column that repeats most of its values (a trajectory resting
on its fixed point, say) formats each distinct bit pattern once and indexes
the strings; the bytes are the same either way.

No event handling is attempted at the loss-probability kink; crossings of
the bandwidth-delay product degrade the observed order locally.
"""

from __future__ import annotations

import math
from array import array
from dataclasses import dataclass

import numpy as np

from .core import (
    FlowState,
    SystemParams,
    WindowFunction,
    check_start,
    loss_probability,
    loss_rate,
    rhs_about,
)
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
    """Uniformly sampled solution with the derived window and loss
    probability columns.

    x1, x2 are the integrator's state, the deviation from ``ref``, and dx1,
    dx2 its derivatives at each sample; w_max = ref.w_max + x1 and
    s = ref.s + x2.
    """

    t: np.ndarray
    w_max: np.ndarray
    s: np.ndarray
    w: np.ndarray
    p: np.ndarray
    x1: np.ndarray
    x2: np.ndarray
    dx1: np.ndarray
    dx2: np.ndarray
    ref: FlowState
    step: float

    def write_csv(self, path) -> None:
        """Round-trip decimal CSV with header t,w_max,s,w,p."""
        with open(path, "w", newline="") as fh:
            fh.write("t,w_max,s,w,p\n")
            write_columns(fh, (self.t, self.w_max, self.s, self.w, self.p))


_WRITE_CHUNK = 4096  # rows formatted per write


def _chunk_cells(chunk: np.ndarray):
    """The ``repr`` of every value of one column chunk, in row order.

    A float64 chunk with fewer distinct bit patterns than half its rows
    formats each pattern once and indexes the strings.  Patterns, not
    values, are compared, so 0.0 and -0.0, and NaNs of different payloads,
    stay apart, as their reprs are read back.
    """
    if chunk.dtype == np.float64:
        bits, index = np.unique(chunk.view(np.int64), return_inverse=True)
        if 2 * len(bits) < len(chunk):
            text = np.array(list(map(repr, bits.view(np.float64).tolist())), dtype=object)
            return text[index].tolist()
    return map(repr, chunk.tolist())


def write_columns(fh, columns) -> None:
    """CSV rows of equal-length numpy columns, every value by ``repr``.

    ``.tolist()`` hands repr Python floats and ints, so a float round-trips
    its exact binary value and an integer column prints as integers.
    """
    for lo in range(0, len(columns[0]), _WRITE_CHUNK):
        cells = [_chunk_cells(col[lo : lo + _WRITE_CHUNK]) for col in columns]
        fh.write("\n".join(map(",".join, zip(*cells))))
        fh.write("\n")  # not appended to the chunk, which would copy it


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


def integrate(
    params: SystemParams,
    window_fn: WindowFunction,
    start: FlowState,
    t_end: float,
    step_h: float,
    *,
    fp: FixedPoint | None = None,
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
    """
    check_start(*start)
    if not 0.0 < t_end < math.inf:
        raise ValueError(f"t_end must be positive and finite, got {t_end}")
    k = steps_per_delay(params.tau, step_h)
    h = params.tau / k
    n = math.ceil(t_end / h - 1e-12)
    ref = FlowState(*start) if fp is None else FlowState(fp.w_hat, fp.s_hat)
    w_ref, s_ref = ref
    rhs = rhs_about(ref, params, window_fn)
    deficit = window_fn.deficit_about(ref, params)

    def delayed_rate(x1: float, x2: float, t: float) -> float:
        w = w_ref + x1 - deficit(x1, x2)
        if not w > 0.0:
            raise IntegrationError("delayed window left positive domain", t,
                                   FlowState(w_ref + x1, s_ref + x2))
        return loss_rate(w, params)

    # Flat float64 columns, one entry per sample: the state, its
    # derivative, and its own window, whose loss rate is the delayed rate
    # of the sample k steps later.  numpy views them without a copy.
    x1s, x2s, d1s, d2s, ws = (array("d") for _ in range(5))

    def append(x1: float, x2: float, rate: float, t: float) -> None:
        # Store a sample with its derivative (at delayed rate ``rate``) and
        # its own window, from one deficit evaluation.
        d1, d2, gap = rhs(x1, x2, rate)
        w_max = w_ref + x1
        w = w_max - gap
        if not (w_max > 0.0 and w > 0.0):
            raise IntegrationError("w_max or window left positive domain", t,
                                   FlowState(w_max, s_ref + x2))
        x1s.append(x1)
        x2s.append(x2)
        d1s.append(d1)
        d2s.append(d2)
        ws.append(w)

    x1, x2 = start.w_max - w_ref, start.s - s_ref
    if not w_ref + x1 > 0.0:  # the start is below half an ulp of w_ref
        raise IntegrationError(f"start w_max={start.w_max!r} is lost to rounding against the "
                               f"reference w_max={w_ref!r}", 0.0,
                               FlowState(w_ref + x1, s_ref + x2))
    r_start = delayed_rate(x1, x2, 0.0)  # every delayed rate before t = 0
    append(x1, x2, r_start, 0.0)
    half = 0.5 * h
    sixth = h / 6.0
    for i in range(n):
        t = i * h
        j = i - k  # the sample one delay back
        r_mid = r_start if j < 0 else delayed_rate(
            hermite_midpoint(x1s, d1s, j, h), hermite_midpoint(x2s, d2s, j, h), t)
        r_end = loss_rate(ws[j + 1], params) if j >= -1 else r_start
        k1a, k1b = d1s[i], d2s[i]
        k2a, k2b, _ = rhs(x1 + half * k1a, x2 + half * k1b, r_mid)
        k3a, k3b, _ = rhs(x1 + half * k2a, x2 + half * k2b, r_mid)
        k4a, k4b, _ = rhs(x1 + h * k3a, x2 + h * k3b, r_end)
        x1 += sixth * (k1a + 2.0 * (k2a + k3a) + k4a)
        x2 += sixth * (k1b + 2.0 * (k2b + k3b) + k4b)
        append(x1, x2, r_end, (i + 1) * h)

    x1_col, x2_col, w = np.frombuffer(x1s), np.frombuffer(x2s), np.frombuffer(ws)
    return Trajectory(
        t=np.arange(n + 1, dtype=np.float64) * h, step=h,
        w_max=w_ref + x1_col, s=s_ref + x2_col, w=w, p=loss_probability(w, params),
        x1=x1_col, x2=x2_col, dx1=np.frombuffer(d1s), dx2=np.frombuffer(d2s), ref=ref,
    )
