"""Concrete window functions: Reno, CUBIC and a frozen window.

The fluid model runs in deviations x1 = w_max - w_ref and x2 = s - s_ref
from a reference point (see :func:`tcpfluid.core.rhs_about`).
``CubicWindow.deficit_about`` is the one place the CUBIC window is written
in those coordinates; about a fixed point it keeps full relative precision
however small x gets.  Its closure works out the reference's cube root once,
so an evaluation costs one ``log1p`` and one ``expm1``.  Reno and frozen use
the default closure over ``window``.
"""

from __future__ import annotations

import math

from .core import FlowState, SystemParams, WindowFunction, cbrt


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

    def deficit_about(self, ref: FlowState, params: SystemParams):
        # w_max - W = -c*phi^3 with phi = s - K.  Against the reference,
        # phi = x2 + (s_ref - K_ref) - (K - K_ref), where the cube-root
        # growth K/K_ref - 1 = cbrt(1 + x1/w_ref) - 1 is taken through
        # expm1/log1p, so nothing cancels when x is small.  s_ref - K_ref is
        # exactly 0.0 at a CUBIC fixed point.  K_ref, s_ref - K_ref and -c
        # depend only on the reference, so they are computed here, once.
        w_ref = ref.w_max
        k_ref = cbrt(w_ref * params.b / params.c)
        phi_ref = ref.s - k_ref
        neg_c = -params.c
        expm1, log1p = math.expm1, math.log1p

        def deficit(x1: float, x2: float) -> float:
            r = x1 / w_ref
            growth = expm1(log1p(r) / 3.0) if r > -1.0 else cbrt(1.0 + r) - 1.0
            phi = x2 + phi_ref - k_ref * growth
            return neg_c * phi * phi * phi

        return deficit

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

