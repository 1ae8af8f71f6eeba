"""Fixed points of the fluid model, and the package's one polynomial root solver.

For CUBIC, eliminating the epoch clock from the equilibrium conditions leaves
one scalar equation in the equilibrium window w:

    w * (w - bdp)^3 = tau^3 * c / b,   w > bdp

which has exactly one root right of the bandwidth-delay product because the
left side grows strictly there.  In the offset d = w - bdp it is the quartic
d^4 + bdp d^3 - tau^3 c / b = 0, increasing and convex for d >= 0, and
``solve_increasing`` finds its root by bracketed Newton iteration, the same
solver the simulator inverts its loss-rate integrals with.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .core import SystemParams, cbrt


class SolverError(RuntimeError):
    """The equilibrium does not exist in floating point."""


@dataclass(frozen=True)
class FixedPoint:
    """Equilibrium of the fluid model: window, epoch age, loss probability.

    SolverError unless w_hat and s_hat are positive and finite and p_hat is
    positive: every solver's result is checked here.
    """

    w_hat: float
    s_hat: float
    p_hat: float

    def __post_init__(self) -> None:
        if not (0.0 < self.w_hat < math.inf and 0.0 < self.s_hat < math.inf and self.p_hat > 0.0):
            raise SolverError(f"equilibrium out of range: {self}")


# Backstop on solver iterations; Newton from the callers' guesses converges
# in at most 6 on the 20-flow CUBIC comparison run and on the CUBIC fixed
# point over 60,000 log-uniform draws of (C, tau, b, c) up to c = 1e49, and
# in 1 on a frozen window.
_MAX_ITER = 100
_EPS = 2.0**-52


def solve_increasing(
    p: tuple[float, float, float, float, float], lo: float, hi: float, x: float
) -> float:
    """Root of p0 + p1 x + ... + p4 x^4, nondecreasing on [lo, hi], from x.

    The caller guarantees p(lo) < 0 <= p(hi).  Newton steps that leave the
    bracket are replaced by bisection, and the iteration stops once a Newton
    step is below one ulp of the iterate.
    """
    p0, p1, p2, p3, p4 = p
    d1, d2, d3 = 2.0 * p2, 3.0 * p3, 4.0 * p4
    for _ in range(_MAX_ITER):
        g = p0 + x * (p1 + x * (p2 + x * (p3 + x * p4)))
        dg = p1 + x * (d1 + x * (d2 + x * d3))
        if g >= 0.0:
            hi = x
        else:
            lo = x
        if dg > 0.0:
            step = g / dg
            nxt = x - step
            if abs(step) <= _EPS * abs(x):
                return nxt
        else:
            nxt = hi
        if not lo < nxt < hi:
            nxt = 0.5 * (lo + hi)
            if not lo < nxt < hi:
                return hi
        x = nxt
    return hi


def cubic_fixed_point(params: SystemParams) -> FixedPoint:
    """Equilibrium of the CUBIC fluid model.

    At the fixed point the pre-loss window equals the instantaneous window,
    the epoch age is s = cbrt(w*b/c), and p = 1 - bdp/w.  SolverError if
    tau^3*c/b leaves the float range; FixedPoint checks w, s and p.
    """
    try:
        rhs = params.tau**3 * params.c / params.b
    except OverflowError:
        rhs = math.inf
    if not 0.0 < rhs < math.inf:
        raise SolverError(f"window equation right side tau^3*c/b is {rhs}")
    # Either term of d^4 + bdp d^3 alone reaching rhs bounds the root d from
    # above; a bdp that underflowed to zero leaves only the first.
    bdp = params.bdp
    d_hi = rhs**0.25 if bdp == 0.0 else min(rhs**0.25, (rhs / bdp) ** (1.0 / 3.0))
    w = bdp + solve_increasing((-rhs, 0.0, 0.0, bdp, 1.0), 0.0, d_hi, d_hi)
    return FixedPoint(w_hat=w, s_hat=cbrt(w * params.b / params.c), p_hat=1.0 - bdp / w)


def reno_steady_state(params: SystemParams) -> FixedPoint:
    """Reno equilibrium under the capacity-clamp loss model.

    Stationarity of w_max forces w = w_max, hence s = tau w / 2, and the
    unit-throughput condition s w p / tau = 1 reduces to w (w - C tau) = 2.
    The positive quadratic root is cancellation-free, and p = 2 / w^2 is the
    exact complement of C tau / w on the solution curve.  FixedPoint rejects
    w = inf (bdp^2 overflows) and an s = tau w / 2 outside the float range.
    """
    bdp = params.bdp
    w = 0.5 * (bdp + math.sqrt(bdp * bdp + 8.0))
    return FixedPoint(w_hat=w, s_hat=0.5 * params.tau * w, p_hat=2.0 / (w * w))
