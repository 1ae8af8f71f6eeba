"""Concrete window functions and the fixed-point-centred form of the model.

``cubic_shifted_rhs`` rewrites the CUBIC fluid model in coordinates centred
on a fixed point, x1 = w_max - w_hat and x2 = s - s_hat.  It is an
independent evaluation path, not a call into :func:`tcpfluid.core.fluid_rhs`;
the stability diagnostics evaluate the same formulas over whole trajectories.
"""

from __future__ import annotations

import math
from typing import NamedTuple

from .core import FlowState, SystemParams, WindowFunction, cbrt
from .fixedpoint import FixedPoint


class RenoWindow(WindowFunction):
    """Additive-increase window: half the pre-loss window plus one packet
    per round trip."""

    name = "reno"

    def window(self, state: FlowState, params: SystemParams) -> float:
        return 0.5 * state.w_max + state.s / params.tau

    def coefficients(self, state: FlowState, params: SystemParams):
        return (0.5 * state.w_max + state.s / params.tau, 1.0 / params.tau, 0.0, 0.0)


class CubicWindow(WindowFunction):
    """Cubic window centred on the pre-loss plateau.

    W(s) = c*(s - K)^3 + w_max with K = cbrt(w_max*b/c); at s=0 this gives
    the multiplicative decrease (1-b)*w_max and it saddles through w_max at
    s=K before probing upward.
    """

    name = "cubic"

    def window(self, state: FlowState, params: SystemParams) -> float:
        k = cbrt(state.w_max * params.b / params.c)
        d = state.s - k
        return params.c * d * d * d + state.w_max

    def coefficients(self, state: FlowState, params: SystemParams):
        # c (d + x)^3 + w_max expanded about d = s - K.
        c = params.c
        d = state.s - cbrt(state.w_max * params.b / c)
        return (c * d * d * d + state.w_max, 3.0 * c * d * d, 3.0 * c * d, c)


class FrozenWindow(WindowFunction):
    """Constant window equal to w_max; pins the loss rate for statistical
    tests of the event generator."""

    name = "frozen"

    def window(self, state: FlowState, params: SystemParams) -> float:
        return state.w_max

    def coefficients(self, state: FlowState, params: SystemParams):
        return (state.w_max, 0.0, 0.0, 0.0)


RENO = RenoWindow()
CUBIC = CubicWindow()
FROZEN = FrozenWindow()

_BY_NAME = {fn.name: fn for fn in (RENO, CUBIC, FROZEN)}


def window_function(name: str) -> WindowFunction:
    try:
        return _BY_NAME[name]
    except KeyError:
        raise ValueError(f"unknown window function {name!r}") from None


class ShiftedState(NamedTuple):
    """Deviation from a fixed point: (w_max - w_hat, s - s_hat)."""

    x1: float
    x2: float


def to_shifted(state: FlowState, fp: FixedPoint) -> ShiftedState:
    return ShiftedState(state.w_max - fp.w_hat, state.s - fp.s_hat)


def shifted_window(x: ShiftedState, fp: FixedPoint, params: SystemParams) -> float:
    """Instantaneous CUBIC window of the shifted state.

    Same function as ``CubicWindow.window`` under the change of variables;
    the deviation of the cube-root term from s_hat is evaluated with
    expm1/log1p so that windows stay accurate to machine precision when x
    is many orders of magnitude smaller than the fixed point.
    """
    w_max = x.x1 + fp.w_hat
    if not w_max > 0.0:
        raise ValueError(f"shifted state leaves w_max positive domain: x1={x.x1}")
    phi = x.x2 - fp.s_hat * math.expm1(math.log1p(x.x1 / fp.w_hat) / 3.0)
    return params.c * phi * phi * phi + w_max


def cubic_shifted_rhs(
    x: ShiftedState,
    x_delayed: ShiftedState,
    fp: FixedPoint,
    params: SystemParams,
) -> tuple[float, float]:
    """Derivatives (dx1/dt, dx2/dt) of the fixed-point-centred CUBIC model.

    The delayed loss rate is evaluated as max(W_delayed - bdp, 0)/tau, the
    product of the delayed window with its loss probability; the difference
    form keeps the rate accurate when the window barely clears the
    bandwidth-delay product.
    """
    w_max = x.x1 + fp.w_hat
    if not w_max > 0.0:
        raise ValueError(f"shifted state leaves w_max positive domain: x1={x.x1}")
    phi = x.x2 - fp.s_hat * math.expm1(math.log1p(x.x1 / fp.w_hat) / 3.0)
    w_delayed = shifted_window(x_delayed, fp, params)
    if not w_delayed > 0.0:
        raise ValueError(f"delayed shifted window must be positive, got {w_delayed}")
    excess = w_delayed - params.bdp
    rate = excess / params.tau if excess > 0.0 else 0.0
    dx1 = params.c * phi * phi * phi * rate
    dx2 = 1.0 - (x.x2 + fp.s_hat) * rate
    return dx1, dx2
