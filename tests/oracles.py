"""Closed forms and diagnostics that tests compare the package against.

Each one is an independent route to a quantity the package computes another
way: the Reno and CUBIC response functions against the fixed-point solvers,
a sign-change scan against the window-equation solver's uniqueness claim,
and the inverse of the fixed-point shift against the shifted coordinates.
"""

import math

from tcpfluid import FlowState, ShiftedState, SystemParams, solve_window_equation
from tcpfluid.fixedpoint import FixedPoint


def bracket_sign_changes(
    params: SystemParams, resolution: int = 1024
) -> tuple[int, tuple[float, float]]:
    """Diagnostic: count sign changes of the window equation over the bracket.

    Scans a grid spanning the search bracket for the given parameters.
    A healthy configuration reports exactly one change; more would mean the
    root right of the bandwidth-delay product is not unique at this
    resolution.
    """
    rhs = params.tau**3 * params.c / params.b
    root, _, _ = solve_window_equation(params.bdp, rhs)
    lo = params.bdp
    hi = max(root * (1.0 + 1e-3), params.bdp * (1.0 + 1e-3))

    def g(w: float) -> float:
        d = w - params.bdp
        return w * d * d * d - rhs

    changes = 0
    prev = g(lo)
    for i in range(1, resolution + 1):
        cur = g(lo + (hi - lo) * i / resolution)
        if (prev < 0.0) != (cur < 0.0):
            changes += 1
        prev = cur
    return changes, (lo, hi)


def reno_fixed_point(p_hat: float) -> float:
    """Equilibrium Reno window for loss probability p: w = sqrt(2/p)."""
    if not 0.0 < p_hat <= 1.0:
        raise ValueError(f"p must lie in (0, 1], got {p_hat}")
    return math.sqrt(2.0 / p_hat)


def cubic_w_of_p(p_hat: float, params: SystemParams) -> float:
    """Equilibrium CUBIC window for loss probability p.

    Closed form w = (tau^3 * c / (p^3 * b)) ** (1/4), the response-function
    counterpart of the implicit window equation.
    """
    if not 0.0 < p_hat <= 1.0:
        raise ValueError(f"p must lie in (0, 1], got {p_hat}")
    return (params.tau**3 * params.c / (p_hat**3 * params.b)) ** 0.25


def from_shifted(x: ShiftedState, fp: FixedPoint) -> FlowState:
    return FlowState(x.x1 + fp.w_hat, x.x2 + fp.s_hat)
