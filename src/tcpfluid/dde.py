"""Delay integrator for the fluid model: method of steps with classic RK4.

The step is locked to an integer fraction of the delay, h = tau/k with
k >= 4.  Stage lookups one delay in the past then land either exactly on a
stored sample or exactly halfway between two stored samples, so the history
interpolation never extrapolates and whole-sample queries are exact.  Stored
derivative values make the mid-sample cubic Hermite interpolant fourth-order
accurate, matching the integrator order.

No event handling is attempted at the loss-probability kink; crossings of
the bandwidth-delay product degrade the observed order locally, which the
order check makes visible.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .core import FlowState, SystemParams, WindowFunction, fluid_rhs, loss_probability


class IntegrationError(RuntimeError):
    """State left the valid region; carries time and state at the halt."""

    def __init__(self, message: str, time: float, state: FlowState):
        super().__init__(f"{message} at t={time}: w_max={state.w_max}, s={state.s}")
        self.time = time
        self.state = state


@dataclass(frozen=True)
class InitialHistory:
    """Prescribed solution on [-tau, 0], evaluated exactly (no interpolation)."""

    fn: Callable[[float], FlowState]

    @staticmethod
    def constant(w_max: float, s: float) -> "InitialHistory":
        if not w_max > 0.0:
            raise ValueError(f"initial w_max must be positive, got {w_max}")
        if s < 0.0:
            raise ValueError(f"initial s must be nonnegative, got {s}")
        state = FlowState(w_max, s)
        return InitialHistory(fn=lambda theta: state)

    def __call__(self, theta: float) -> FlowState:
        return self.fn(theta)


class HistoryBuffer:
    """Solution samples on the step grid with derivative data for Hermite
    interpolation.

    Covers [-tau, t_now]: negative times defer to the initial history, the
    rest interpolates stored (state, derivative) pairs.
    """

    def __init__(self, h: float, phi: InitialHistory):
        self.h = h
        self.phi = phi
        self.states: list[FlowState] = []
        self.derivs: list[tuple[float, float]] = []

    def append(self, state: FlowState, deriv: tuple[float, float]) -> None:
        self.states.append(state)
        self.derivs.append(deriv)

    def at_sample(self, idx: int) -> FlowState:
        """State at grid time idx*h; exact for stored samples."""
        if idx < 0:
            return self.phi(idx * self.h)
        return self.states[idx]

    def at_midpoint(self, idx: int) -> FlowState:
        """State at grid time (idx + 1/2)*h via cubic Hermite."""
        if idx < 0:
            return self.phi((idx + 0.5) * self.h)
        y0, y1 = self.states[idx], self.states[idx + 1]
        d0, d1 = self.derivs[idx], self.derivs[idx + 1]
        g = self.h / 8.0
        return FlowState(
            0.5 * (y0.w_max + y1.w_max) + g * (d0[0] - d1[0]),
            0.5 * (y0.s + y1.s) + g * (d0[1] - d1[1]),
        )


@dataclass
class Trajectory:
    """Uniformly sampled solution with the derived window and loss
    probability columns."""

    t: np.ndarray
    w_max: np.ndarray
    s: np.ndarray
    w: np.ndarray
    p: np.ndarray
    params: SystemParams
    algorithm: str
    step: float

    def state_at(self, i: int) -> FlowState:
        return FlowState(float(self.w_max[i]), float(self.s[i]))

    def write_csv(self, path, stride: int = 1) -> None:
        """Round-trip decimal CSV with header t,w_max,s,w,p."""
        with open(path, "w", newline="") as fh:
            fh.write("t,w_max,s,w,p\n")
            columns = (self.t, self.w_max, self.s, self.w, self.p)
            write_columns(fh, [col[::stride] for col in columns])


_WRITE_CHUNK = 4096  # rows formatted per write


def write_columns(fh, columns) -> None:
    """CSV rows of equal-length numpy columns, every value by ``repr``.

    ``.tolist()`` hands repr Python floats and ints, so a float round-trips
    its exact binary value and an integer column prints as integers.
    """
    for lo in range(0, len(columns[0]), _WRITE_CHUNK):
        cells = [map(repr, col[lo : lo + _WRITE_CHUNK].tolist()) for col in columns]
        fh.write("\n".join(map(",".join, zip(*cells))) + "\n")


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
    init: InitialHistory,
    t_end: float,
    step_h: float,
) -> Trajectory:
    """Integrate the fluid model over [0, t_end] from the given history.

    ``step_h`` must equal tau/k for an integer k >= 4 (to one part in 1e9);
    the exact grid step tau/k is used internally.  Output is bit-identical
    across runs for identical inputs.  Raises :class:`IntegrationError` when
    w_max or the instantaneous window leaves the positive domain.
    """
    if not t_end > 0.0:
        raise ValueError(f"t_end must be positive, got {t_end}")
    k = steps_per_delay(params.tau, step_h)
    h = params.tau / k
    n = math.ceil(t_end / h - 1e-12)

    def delayed_terms(delayed: FlowState, t: float) -> tuple[float, float]:
        # Window and loss probability one delay back, shared by two stages.
        w_d = window_fn.window(delayed, params)
        if not w_d > 0.0:
            raise IntegrationError("delayed window left positive domain", t, delayed)
        return w_d, loss_probability(w_d, params)

    hist = HistoryBuffer(h, init)
    y = init(0.0)
    hist.append(y, fluid_rhs(y, *delayed_terms(hist.at_sample(-k), 0.0), params, window_fn))

    half = 0.5 * h
    sixth = h / 6.0
    for i in range(n):
        t = i * h
        w_mid, p_mid = delayed_terms(hist.at_midpoint(i - k), t)
        w_end, p_end = delayed_terms(hist.at_sample(i - k + 1), t)
        k1 = hist.derivs[i]
        y1 = FlowState(y.w_max + half * k1[0], y.s + half * k1[1])
        k2 = fluid_rhs(y1, w_mid, p_mid, params, window_fn)
        y2 = FlowState(y.w_max + half * k2[0], y.s + half * k2[1])
        k3 = fluid_rhs(y2, w_mid, p_mid, params, window_fn)
        y3 = FlowState(y.w_max + h * k3[0], y.s + h * k3[1])
        k4 = fluid_rhs(y3, w_end, p_end, params, window_fn)
        y = FlowState(
            y.w_max + sixth * (k1[0] + 2.0 * (k2[0] + k3[0]) + k4[0]),
            y.s + sixth * (k1[1] + 2.0 * (k2[1] + k3[1]) + k4[1]),
        )
        if not y.w_max > 0.0:
            raise IntegrationError("w_max left positive domain", (i + 1) * h, y)
        hist.append(y, fluid_rhs(y, w_end, p_end, params, window_fn))

    times = np.arange(n + 1, dtype=np.float64) * h
    w_max = np.fromiter((st.w_max for st in hist.states), dtype=np.float64, count=n + 1)
    s = np.fromiter((st.s for st in hist.states), dtype=np.float64, count=n + 1)
    w = np.empty(n + 1)
    p = np.empty(n + 1)
    for i, st in enumerate(hist.states):
        wi = window_fn.window(st, params)
        if not wi > 0.0:
            raise IntegrationError("window left positive domain", float(times[i]), st)
        w[i] = wi
        p[i] = loss_probability(wi, params)
    return Trajectory(
        t=times, w_max=w_max, s=s, w=w, p=p,
        params=params, algorithm=window_fn.name, step=h,
    )


def convergence_order_check(
    params: SystemParams,
    window_fn: WindowFunction,
    init: InitialHistory,
    t_end: float,
    base_k: int = 8,
) -> float:
    """Observed Richardson order from runs at steps tau/k, tau/2k, tau/4k.

    ``t_end`` is snapped to the coarse grid so all three runs share the
    final time exactly.  Smooth problems report about 4; a trajectory that
    crosses the loss-probability kink reports less.
    """
    h0 = params.tau / base_k
    n0 = max(1, round(t_end / h0))
    t_final = n0 * h0
    ends = []
    for k in (base_k, 2 * base_k, 4 * base_k):
        traj = integrate(params, window_fn, init, t_final, params.tau / k)
        ends.append(traj.state_at(len(traj.t) - 1))
    e1 = math.hypot(ends[0].w_max - ends[1].w_max, ends[0].s - ends[1].s)
    e2 = math.hypot(ends[1].w_max - ends[2].w_max, ends[1].s - ends[2].s)
    if e2 == 0.0:
        return math.inf if e1 == 0.0 else 0.0
    return math.log2(e1 / e2)
