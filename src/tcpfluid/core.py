"""Core types and the two-variable fluid model shared by every other module.

The model tracks, per flow, the congestion window immediately before the most
recent loss (``w_max``, packets) and the time elapsed since that loss (``s``,
seconds).  The instantaneous window W is always recomputed from this pair by a
window function; it is never integrated as an independent state variable.

``rhs_about(ref, params, window_fn)`` builds the model's only right-hand
side once per reference point: it returns ``rhs(x1, x2, rate)``, which takes
the state as a deviation from ``ref``, so the integrator and the stability
diagnostics can work about the fixed point, where small deviations keep
their relative precision.  What depends only on the reference point and
the parameters is worked out once, when the closure is built, not on each
evaluation.
"""

from __future__ import annotations

import math
from abc import ABC, abstractmethod
from dataclasses import dataclass
from functools import cached_property
from typing import Callable, NamedTuple

import numpy as np


def cbrt(x: float) -> float:
    """Real cube root of any real x (math.cbrt arrived in 3.11).

    Must stay total: integrator stage states can momentarily carry negative
    w_max, and ** would hand back a complex root for those.
    """
    return math.copysign(abs(x) ** (1.0 / 3.0), x)


class FlowState(NamedTuple):
    """Epoch state of one flow: (pre-loss window, seconds since loss)."""

    w_max: float
    s: float


def check_start(w_max: float, s: float) -> None:
    """Raise ``ValueError`` unless 0 < w_max < inf and 0 <= s < inf."""
    if not 0.0 < w_max < math.inf:
        raise ValueError(f"initial w_max must be positive and finite, got {w_max}")
    if not 0.0 <= s < math.inf:
        raise ValueError(f"initial s must be nonnegative and finite, got {s}")


@dataclass(frozen=True)
class SystemParams:
    """Link and controller parameters.

    capacity  per-flow bottleneck capacity, packets/second
    tau       fixed round-trip delay, seconds
    b         multiplicative decrease factor, in (0, 1)
    c         cubic growth scale, packets/second^3
    flows     number of competing flows
    """

    capacity: float
    tau: float
    b: float
    c: float
    flows: int = 1

    def __post_init__(self):
        if not 0.0 < self.capacity < math.inf:
            raise ValueError(f"capacity must be positive and finite, got {self.capacity}")
        if not self.tau > 0.0:
            raise ValueError(f"tau must be positive, got {self.tau}")
        if not 0.0 < self.b < 1.0:
            raise ValueError(f"b must lie in (0, 1), got {self.b}")
        if not self.c > 0.0:
            raise ValueError(f"c must be positive, got {self.c}")
        if self.flows < 1:
            raise ValueError(f"flows must be >= 1, got {self.flows}")
        if not self.bdp < math.inf:
            raise ValueError(f"bandwidth-delay product {self.capacity} * {self.tau} overflows")

    @cached_property
    def bdp(self) -> float:
        """Per-flow bandwidth-delay product, packets; computed once, as
        ``loss_rate`` reads it on every evaluation."""
        return self.capacity * self.tau


class WindowFunction(ABC):
    """Maps epoch state to the instantaneous congestion window.

    Implementations must be monotone nondecreasing in ``s`` so that epoch
    projections and bandwidth-delay crossing searches stay well posed.

    Each track of the package has its own contract with a window function.
    The fluid integrator evaluates the model through ``deficit_about(ref,
    params)``, built once per reference point, which returns a callable
    ``(x1, x2) -> w_max - W`` at the state (ref.w_max + x1, ref.s + x2); the
    default closes over ``window``, and an override can compute what depends
    only on the reference once and evaluate the gap without cancellation.
    The event-driven simulator needs the window to be
    a polynomial of degree at most 3 in ``s`` within an epoch, exposed by
    ``coefficients(state, params)``, the tuple (a0, a1, a2, a3) with
    W(s + x) = a0 + a1 x + a2 x^2 + a3 x^3 for the offset x within the epoch,
    where a0 must equal ``window(state, params)`` exactly: the aggregate loss
    rate is then a cubic in time and its integral a quartic, both summed over
    flows and inverted exactly.  The simulator's trace calls ``window`` once
    per epoch with a scalar ``w_max`` and a numpy array of ages ``s``; the
    result must be that array's windows elementwise, bit for bit what scalar
    calls give, or one scalar for all.  A window function that defines only
    ``window`` still integrates.
    """

    name: str = "abstract"

    @abstractmethod
    def window(self, state: FlowState, params: SystemParams) -> float:
        """Instantaneous window, packets."""

    def deficit_about(self, ref: FlowState,
                      params: SystemParams) -> Callable[[float, float], float]:
        """The gap w_max - W, packets, as a function of the deviation
        (x1, x2) from ``ref``: the state (ref.w_max + x1, ref.s + x2)."""
        w_ref, s_ref = ref
        window = self.window

        def deficit(x1: float, x2: float) -> float:
            w_max = w_ref + x1
            return w_max - window(FlowState(w_max, s_ref + x2), params)

        return deficit


def loss_probability(window, params: SystemParams):
    """Packet loss probability for a flow holding ``window`` packets.

    Heavy-traffic approximation of an M/M/1 bottleneck: zero while the window
    sits below the bandwidth-delay product, then 1 - bdp/W.  ``window`` may
    be a float or a numpy array of windows.
    """
    if not np.all(np.greater(window, 0.0)):
        raise ValueError(f"window must be positive, got {window}")
    return np.maximum(1.0 - params.bdp / window, 0.0)


def loss_rate(window: float, params: SystemParams) -> float:
    """Loss rate max(W - bdp, 0)/tau of a flow holding ``window`` packets.

    Equal to W * loss_probability(W) / tau, but the difference form keeps
    the rate accurate when the window barely clears the bandwidth-delay
    product.
    """
    excess = window - params.bdp
    return excess / params.tau if excess > 0.0 else 0.0


def rhs_about(
    ref: FlowState,
    params: SystemParams,
    window_fn: WindowFunction,
) -> Callable[[float, float, float], tuple[float, float, float]]:
    """The delayed fluid model's right-hand side about the reference ``ref``.

    Returns ``rhs(x1, x2, rate) -> (dx1/dt, dx2/dt, deficit)`` for the state
    given as its deviation x = (w_max - ref.w_max, s - ref.s).  ``rate`` is
    the ``loss_rate`` one delay in the past, nonnegative and never NaN; the
    caller owns the history bookkeeping.  The deficit w_max - W comes back as
    the third value, so a caller that also needs the window
    W = ref.w_max + x1 - deficit evaluates the window function once.
    """
    deficit_of = window_fn.deficit_about(ref, params)
    s_ref = ref.s

    def rhs(x1: float, x2: float, rate: float) -> tuple[float, float, float]:
        deficit = deficit_of(x1, x2)
        return -deficit * rate, 1.0 - (x2 + s_ref) * rate, deficit

    return rhs
