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
CSV, written through :mod:`tcpfluid.artifacts`, forms the absolute w_max
and s and the loss probability p from them.

No event handling is attempted at the loss-probability kink; crossings of
the bandwidth-delay product degrade the observed order locally.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .artifacts import _WRITE_CHUNK, CSVParts, write_rows
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

    def columns(self, lo: int, hi: int):
        """The CSV columns t, w_max, s, w, p of samples [lo, hi)."""
        w = self.w[lo:hi]
        return (self.t[lo:hi], self.ref.w_max + self.x1[lo:hi], self.ref.s + self.x2[lo:hi], w,
                loss_probability(w, self.params))

    def write_csv(self, path, head: CSVParts | None = None) -> None:
        """Round-trip decimal CSV with header t,w_max,s,w,p; rows [0,
        head.rows) are the parts of ``head`` (see :func:`write_rows`)."""
        write_rows(path, "t,w_max,s,w,p", len(self.t), self.columns, head)


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
