"""Core types and the two-variable fluid model shared by every other module.

The model tracks, per flow, the congestion window immediately before the most
recent loss (``w_max``, packets) and the time elapsed since that loss (``s``,
seconds).  The instantaneous window W is always recomputed from this pair by a
window function; it is never integrated as an independent state variable.
"""

from __future__ import annotations

import math
from abc import ABC, abstractmethod
from dataclasses import dataclass
from typing import NamedTuple


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

    @property
    def bdp(self) -> float:
        """Per-flow bandwidth-delay product, packets."""
        return self.capacity * self.tau


class WindowFunction(ABC):
    """Maps epoch state to the instantaneous congestion window.

    Implementations must be monotone nondecreasing in ``s`` so that epoch
    projections and bandwidth-delay crossing searches stay well posed.

    The event-driven simulator additionally needs the window to be a
    polynomial of degree at most 3 in ``s`` within an epoch, exposed by
    ``coefficients``: the aggregate loss rate is then a cubic in time and
    its integral a quartic, both summed over flows and inverted exactly.
    The fluid integrator only calls ``window``, so a window function that
    does not override ``coefficients`` still integrates.
    """

    name: str = "abstract"

    @abstractmethod
    def window(self, state: FlowState, params: SystemParams) -> float:
        """Instantaneous window, packets."""

    def coefficients(
        self, state: FlowState, params: SystemParams
    ) -> tuple[float, float, float, float]:
        """(a0, a1, a2, a3) with W(s + x) = a0 + a1 x + a2 x^2 + a3 x^3.

        x is the time offset from ``state`` within the same epoch, and a0
        must equal ``window(state, params)`` exactly.
        """
        raise NotImplementedError(
            f"{type(self).__name__} does not expose window coefficients"
        )

    def reset(self, window_at_loss: float) -> FlowState:
        """State right after a loss indication: the epoch clock restarts.

        The multiplicative decrease itself is encoded in the window function,
        not here; evaluating the returned state at s=0 yields the post-loss
        window.
        """
        if not window_at_loss > 0.0:
            raise ValueError(
                f"window at loss must be positive, got {window_at_loss}"
            )
        return FlowState(w_max=window_at_loss, s=0.0)


def loss_probability(window: float, params: SystemParams) -> float:
    """Packet loss probability for a flow holding ``window`` packets.

    Heavy-traffic approximation of an M/M/1 bottleneck: zero while the window
    sits below the bandwidth-delay product, then 1 - bdp/W.
    """
    if not window > 0.0:
        raise ValueError(f"window must be positive, got {window}")
    p = 1.0 - params.bdp / window
    return p if p > 0.0 else 0.0


def fluid_rhs(
    current: FlowState,
    delayed_window: float,
    delayed_p: float,
    params: SystemParams,
    window_fn: WindowFunction,
) -> tuple[float, float]:
    """Time derivatives (dw_max/dt, ds/dt) of the delayed fluid model.

    ``delayed_window`` and ``delayed_p`` are the window and loss probability
    one delay in the past; the caller owns the history bookkeeping.
    """
    if not delayed_window > 0.0:
        raise ValueError(f"delayed window must be positive, got {delayed_window}")
    if not 0.0 <= delayed_p <= 1.0:
        raise ValueError(f"delayed p must lie in [0, 1], got {delayed_p}")
    w = window_fn.window(current, params)
    rate = delayed_window * delayed_p / params.tau
    dw_max = -(current.w_max - w) * rate
    ds = 1.0 - current.s * rate
    return dw_max, ds
