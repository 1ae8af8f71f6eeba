"""Fixed points of the fluid model for Reno and CUBIC window functions.

For CUBIC, eliminating the epoch clock from the equilibrium conditions leaves
one scalar equation in the equilibrium window w:

    w * (w - bdp)^3 = tau^3 * c / b,   w > bdp

which has exactly one root right of the bandwidth-delay product because the
left side grows strictly there.  The solver brackets that root and polishes it
with safeguarded Newton steps.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .core import SystemParams, cbrt


class SolverError(RuntimeError):
    """Root search failed; carries the last bracket examined."""

    def __init__(self, message: str, bracket: tuple[float, float]):
        super().__init__(f"{message} (last bracket: [{bracket[0]}, {bracket[1]}])")
        self.bracket = bracket


@dataclass(frozen=True)
class FixedPoint:
    """Equilibrium of the fluid model: window, epoch age, loss probability."""

    w_hat: float
    s_hat: float
    p_hat: float


def solve_window_equation(
    bdp: float, rhs: float, rel_tol: float = 1e-12, max_iter: int = 200
) -> tuple[float, float, float]:
    """Root of g(w) = w*(w - bdp)^3 - rhs with w > bdp (bdp may be zero).

    Returns (root, bracket_lo, bracket_hi).  Bisection supplies global
    convergence; Newton steps are taken whenever they stay inside the
    current bracket.  g is increasing and convex right of bdp, so a Newton
    step shorter than the tolerance certifies the root.
    """
    if not rhs > 0.0:
        raise ValueError(f"window equation right side must be positive, got {rhs}")

    def g(w: float) -> float:
        d = w - bdp
        return w * d * d * d - rhs

    def dg(w: float) -> float:
        d = w - bdp
        return d * d * d + 3.0 * w * d * d

    # Bracket: g(bdp) = -rhs < 0, grow the offset geometrically until g > 0.
    offset = max(bdp, 1.0) * 1e-6
    lo = bdp
    hi = bdp + offset
    grow = 0
    while g(hi) < 0.0:
        lo = hi
        offset *= 2.0
        hi = bdp + offset
        grow += 1
        if grow > 60 or not math.isfinite(hi):
            raise SolverError("failed to bracket the equilibrium window", (lo, hi))

    def polish(w: float) -> float:
        # Two guarded Newton steps; quadratic convergence turns an already
        # tolerance-level iterate into a machine-precision root, which the
        # downstream equilibrium identities need because the equilibrium
        # loss probability amplifies any window error.
        for _ in range(2):
            slope = dg(w)
            if not slope > 0.0:
                break
            w_next = w - g(w) / slope
            if not (math.isfinite(w_next) and w_next > bdp):
                break
            w = w_next
        return w

    w = 0.5 * (lo + hi)
    for _ in range(max_iter):
        gw = g(w)
        if gw > 0.0:
            hi = w
        elif gw < 0.0:
            lo = w
        else:
            return w, lo, hi
        if hi - lo <= rel_tol * hi:
            return polish(0.5 * (lo + hi)), lo, hi
        slope = dg(w)
        w_next = w - gw / slope if slope > 0.0 else math.nan
        if not lo < w_next < hi:
            w_next = 0.5 * (lo + hi)
        if abs(w_next - w) <= 0.5 * rel_tol * w_next:
            return polish(w_next), lo, hi
        w = w_next
    raise SolverError("window equation did not converge", (lo, hi))


def cubic_fixed_point(params: SystemParams) -> FixedPoint:
    """Equilibrium of the CUBIC fluid model.

    At the fixed point the pre-loss window equals the instantaneous window,
    the epoch age is s = cbrt(w*b/c), and p = 1 - bdp/w is positive.
    """
    try:
        rhs = params.tau**3 * params.c / params.b
    except OverflowError:
        rhs = math.inf
    if not 0.0 < rhs < math.inf:
        raise SolverError(f"window equation right side tau^3*c/b is {rhs}", (params.bdp,) * 2)
    w, _, _ = solve_window_equation(params.bdp, rhs)
    s = cbrt(w * params.b / params.c)
    p = 1.0 - params.bdp / w
    if not p > 0.0:
        raise SolverError("equilibrium loss probability is not positive", (w, w))
    if s == math.inf:
        raise SolverError(f"equilibrium epoch age cbrt(w*b/c) overflows at w={w}", (w, w))
    return FixedPoint(w_hat=w, s_hat=s, p_hat=p)


def reno_steady_state(params: SystemParams) -> FixedPoint:
    """Reno equilibrium under the capacity-clamp loss model.

    Stationarity of w_max forces w = w_max, hence s = tau w / 2, and the
    unit-throughput condition s w p / tau = 1 reduces to w (w - C tau) = 2.
    The positive quadratic root is cancellation-free, and p = 2 / w^2 is the
    exact complement of C tau / w on the solution curve.
    """
    bdp = params.bdp
    w = 0.5 * (bdp + math.sqrt(bdp * bdp + 8.0))
    return FixedPoint(w_hat=w, s_hat=0.5 * params.tau * w, p_hat=2.0 / (w * w))
