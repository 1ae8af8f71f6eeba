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
half an ulp of w_max.  ``integrate`` builds the right-hand side
(:func:`tcpfluid.core.rhs_about`) and the delayed window's deficit
(``deficit_about``) once per run, so what depends only on the reference
point (the CUBIC K_ref among it) is computed once for each of the two
closures, never per step; each sample's window and derivative are stored
with it, so a sample is evaluated once.  The run's one ``Trajectory``,
allocated before the first step, holds only these integrated columns; its
CSV, written through :mod:`tcpfluid.artifacts`, forms the times from the
step and the absolute w_max, s and loss probability p from the columns.

No event handling is attempted at the loss-probability kink; crossings of
the bandwidth-delay product degrade the observed order locally.

Two loops take the steps, with one result.  For the Reno, CUBIC and frozen
windows (``tcpfluid._rk4._WINDOWS`` says which window functions have
compiled code), ``integrate`` runs its step loop as compiled C, in
``_sim.c``, called through ctypes once per run for all its steps: it
transcribes the Python loop, its history lookups and the windows' deficits
(CUBIC's closure, and the default closure over the window for the others),
operation for operation, calls libm's ``log1p``, ``expm1`` and ``pow`` as
``math`` and float power do, and is built with no fast-math and no fused
multiply-add, so every stored bit and every ``IntegrationError`` is the
Python loop's.  Every other window function runs the Python loop, which
stays the specification, as does every run on a host where the C cannot be
built: there the same numbers come more slowly, with nothing printed.  The
first run or CSV write that needs the library builds it (:mod:`tcpfluid._rk4`),
with the compiler Python was built with, into this package's
``__pycache__``, under a name taken from the sources and the compile
command; later processes load it from there.  Nothing of this happens on
import.  The same library holds the compiled CSV formatter, ``_repr.c``,
which writes the trajectory's CSV with the bytes ``repr`` gives, ``repr``
being its specification and its fallback (see :mod:`tcpfluid.artifacts`),
and the simulator's event loop, beside the step loop in ``_sim.c`` (see
:mod:`tcpfluid.nhpl`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .artifacts import write_rows
from .core import (FlowState, SystemParams, WindowFunction, check_start, loss_probability,
                   loss_rate, rhs_about)
from .fixedpoint import FixedPoint

# What IntegrationError says when a stage's delayed window, or a stored
# sample's w_max or window, leaves the positive domain.
_DELAYED_EXIT = "delayed window left positive domain"
_STORED_EXIT = "w_max or window left positive domain"


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

    x1, x2 are the integrator's state, the deviation from ``ref``, dx1, dx2
    its derivatives and w its window at each sample i, at time i * ``step``
    (see :meth:`times`), for the system ``params``.  The absolute state is
    w_max = ref.w_max + x1 and s = ref.s + x2, and the loss probability is
    loss_probability(w, params); ``write_csv`` forms them for its columns.
    """

    x1: np.ndarray
    x2: np.ndarray
    dx1: np.ndarray
    dx2: np.ndarray
    w: np.ndarray
    ref: FlowState
    step: float
    params: SystemParams

    @property
    def t(self) -> np.ndarray:
        """The time of every sample."""
        return self.times(0, len(self.x1))

    def times(self, lo: int, hi: int) -> np.ndarray:
        """The times float(i) * step of samples i in [lo, hi)."""
        return np.arange(lo, hi) * self.step

    def columns(self, lo: int, hi: int):
        """The CSV columns t, w_max, s, w, p of samples [lo, hi)."""
        w = self.w[lo:hi]
        return (self.times(lo, hi), self.ref.w_max + self.x1[lo:hi], self.ref.s + self.x2[lo:hi],
                w, loss_probability(w, self.params))

    def write_csv(self, path) -> None:
        """Round-trip decimal CSV with header t,w_max,s,w,p (see
        :func:`write_rows`)."""
        write_rows(path, "t,w_max,s,w,p", len(self.x1), self.columns)


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
    k, h, n = step_grid(params.tau, step_h, t_end)
    ref = FlowState(*start) if fp is None else FlowState(fp.w_hat, fp.s_hat)
    w_ref, s_ref = ref
    rhs = rhs_about(ref, params, window_fn)
    deficit = window_fn.deficit_about(ref, params)

    def delayed_rate(x1: float, x2: float, i: int) -> float:
        w = w_ref + x1 - deficit(x1, x2)
        if not w > 0.0:
            raise IntegrationError(_DELAYED_EXIT, i * h, FlowState(w_ref + x1, s_ref + x2))
        return loss_rate(w, params)

    # The run's one trajectory, allocated for all n + 1 samples: the state,
    # its derivative and its own window (its loss rate is the delayed rate k
    # steps later), used through memoryviews.
    traj = Trajectory(*(np.empty(n + 1) for _ in range(5)), ref=ref, step=h, params=params)
    x1s, x2s, d1s, d2s, ws = map(memoryview, (traj.x1, traj.x2, traj.dx1, traj.dx2, traj.w))

    def store(i: int, x1: float, x2: float, rate: float) -> None:
        # Store sample i with its derivative (at delayed rate ``rate``) and
        # its own window, from one deficit evaluation.
        d1, d2, gap = rhs(x1, x2, rate)
        w_max = w_ref + x1
        w = w_max - gap
        if not (w_max > 0.0 and w > 0.0):
            raise IntegrationError(_STORED_EXIT, i * h, FlowState(w_max, s_ref + x2))
        x1s[i], x2s[i], d1s[i], d2s[i], ws[i] = x1, x2, d1, d2, w

    x1, x2 = start.w_max - w_ref, start.s - s_ref
    if not w_ref + x1 > 0.0:  # the start is below half an ulp of w_ref
        raise IntegrationError(f"start w_max={start.w_max!r} is lost to rounding against the "
                               f"reference w_max={w_ref!r}", 0.0,
                               FlowState(w_ref + x1, s_ref + x2))
    r_start = delayed_rate(x1, x2, 0)  # every delayed rate before t = 0
    store(0, x1, x2, r_start)
    # The compiled loop, for the window functions it transcribes.
    if (kernel := _kernel()) is not None and kernel(traj, window_fn, k, r_start):
        return traj
    half = 0.5 * h
    sixth = h / 6.0
    for i in range(n):
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
    return traj


def _kernel():
    """The compiled step loop (see :func:`tcpfluid._rk4.load`); None where
    the library cannot be built."""
    from . import _rk4  # on first use: importing dde leaves the loader unread

    lib = _rk4.library()
    return None if lib is None else lib.steps
