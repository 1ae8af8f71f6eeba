"""Closed forms and diagnostics that tests compare the package against.

Each one is an independent route to a quantity the package computes another
way: the Reno and CUBIC response functions against the fixed-point solvers,
a sign-change scan against the window-equation solver's uniqueness claim,
the inverse of the fixed-point shift against the shifted coordinates, and
per-sample scalar loops against the array-valued stability diagnostics.
"""

import math

import numpy as np

from tcpfluid import (
    FlowState,
    ShiftedState,
    SystemParams,
    cubic_shifted_rhs,
    lyapunov_V,
    solve_window_equation,
    to_shifted,
)
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


def scalar_shifted_samples(traj, fp: FixedPoint) -> list[ShiftedState]:
    """One ShiftedState per trajectory sample, through ``to_shifted``."""
    return [to_shifted(FlowState(float(w), float(s)), fp) for w, s in zip(traj.w_max, traj.s)]


def scalar_norms_and_v(xs: list[ShiftedState], lp) -> tuple[np.ndarray, np.ndarray]:
    """|x| by math.hypot and V by the scalar Lyapunov formula, per sample."""
    return (np.array([math.hypot(x.x1, x.x2) for x in xs]),
            np.array([lyapunov_V(x, lp) for x in xs]))


def scalar_vdot(xs: list[ShiftedState], step: float, fp: FixedPoint, params: SystemParams,
                lp, init=None) -> np.ndarray:
    """dV/dt per sample from one ``cubic_shifted_rhs`` call each.

    The delayed sample one delay back comes from ``init`` inside the first
    delay when given, and otherwise from the first sample.
    """
    k = round(params.tau / step)
    out = np.empty(len(xs))
    for i, x in enumerate(xs):
        if i >= k:
            xd = xs[i - k]
        elif init is not None:
            xd = to_shifted(init(i * step - params.tau), fp)
        else:
            xd = xs[0]
        dx1, dx2 = cubic_shifted_rhs(x, xd, fp, params)
        out[i] = lp.d1 * x.x1 * dx1 + lp.d4 * x.x2**3 * dx2
    return out


def scalar_razumikhin_mask(v: np.ndarray, k: int, p: float) -> np.ndarray:
    """max(V over the trailing k + 1 samples, before the start V[0]) <= p V,
    one slice maximum per sample."""
    ok = np.empty(len(v), dtype=bool)
    for i in range(len(v)):
        past = v[max(0, i - k) : i + 1].max()
        ok[i] = past <= p * v[i]
    return ok


def per_row_csv(header: str, columns, stride: int = 1) -> str:
    """A trace CSV written one row at a time: integer columns by ``int``,
    every other value by ``repr(float(v))``."""
    lines = [header]
    for i in range(0, len(columns[0]), stride):
        lines.append(",".join(str(int(col[i])) if col.dtype.kind == "i" else repr(float(col[i]))
                              for col in columns))
    return "\n".join(lines) + "\n"
