"""Closed forms, diagnostics and reference routes that tests compare the
package against.

Each one is an independent route to a quantity the package computes another
way: the Reno and CUBIC response functions against the fixed-point solvers,
a sign-change scan against the window-equation solver's uniqueness claim,
exact rational arithmetic against the CUBIC fixed point,
the inverse of the fixed-point shift against the shifted coordinates,
per-sample scalar loops against the array-valued stability diagnostics and
the simulator's trace, the absolute-coordinate RK4 loop against the
integrator, the per-call CUBIC deficit against the one prepared per
reference point, the Taylor truncations of the model against its
right-hand side, and exact rational arithmetic against the sampler's
candidate loss.  ``per_row_csv`` writes a CSV one row at a time,
``python_format_rows`` stands in for the compiled formatter with it,
``assert_same_text`` compares a written CSV with it, ``awkward_columns``
gives it and the package's writer columns that take every path of that
writer, and ``write_csv`` hands whole columns to that writer.
"""

import math
import struct
from bisect import bisect_right
from fractions import Fraction

import numpy as np

from tcpfluid import (
    CUBIC,
    FlowState,
    SystemParams,
    cubic_fixed_point,
    integrate,
    loss_rate,
    lyapunov_V,
)
from tcpfluid.artifacts import formattable, write_rows
from tcpfluid.core import cbrt, rhs_about
from tcpfluid.dde import steps_per_delay
from tcpfluid.fixedpoint import FixedPoint
from tcpfluid.nhpl import excess_poly
from tcpfluid.stability import ExpansionCoeffs


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
    root = cubic_fixed_point(params).w_hat
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


def root_within_ulps(w: float, params: SystemParams, ulps: int) -> bool:
    """Whether the root of w (w - bdp)^3 = tau^3 c / b right of bdp lies within
    ``ulps`` ulps of w, in exact rational arithmetic.

    g(w) = w (w - C tau)^3 - tau^3 c / b is negative on (0, C tau] and
    increases right of it, so the root lies in [w - span, w + span] exactly
    when g(w - span) < 0 <= g(w + span), as long as w - span > 0.
    """
    bdp = Fraction(params.capacity) * Fraction(params.tau)
    rhs = Fraction(params.tau) ** 3 * Fraction(params.c) / Fraction(params.b)

    def g(x: float) -> Fraction:
        return Fraction(x) * (Fraction(x) - bdp) ** 3 - rhs

    span = ulps * math.ulp(w)
    return w - span > 0.0 and g(w - span) < 0 <= g(w + span)


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


def from_shifted(x: tuple[float, float], fp: FixedPoint) -> FlowState:
    return FlowState(x[0] + fp.w_hat, x[1] + fp.s_hat)


def scalar_samples(traj) -> list[tuple[float, float]]:
    """One (x1, x2) pair of Python floats per trajectory sample: its
    deviation from the reference point it was integrated about."""
    return list(zip(traj.x1.tolist(), traj.x2.tolist()))


def scalar_norms_and_v(xs: list[tuple[float, float]], cert) -> tuple[np.ndarray, np.ndarray]:
    """|x| by math.hypot and V by the scalar Lyapunov formula, per sample."""
    return (np.array([math.hypot(*x) for x in xs]),
            np.array([lyapunov_V(*x, cert) for x in xs]))


def cubic_deficit(x1: float, x2: float, ref: FlowState, params: SystemParams) -> float:
    """CUBIC w_max - W at the deviation (x1, x2) from ``ref``, every constant
    recomputed per call.

    This is the deficit as it stood before ``CubicWindow.deficit_about``
    worked out K_ref once per reference point; the two must agree bit for bit.
    """
    k_ref = cbrt(ref.w_max * params.b / params.c)
    r = x1 / ref.w_max
    growth = math.expm1(math.log1p(r) / 3.0) if r > -1.0 else cbrt(1.0 + r) - 1.0
    phi = x2 + (ref.s - k_ref) - k_ref * growth
    return -params.c * phi * phi * phi


def shifted_cubic_window(x: tuple[float, float], fp: FixedPoint, params: SystemParams) -> float:
    """CUBIC window at the deviation x from the fixed point."""
    ref = FlowState(fp.w_hat, fp.s_hat)
    return fp.w_hat + x[0] - CUBIC.deficit_about(ref, params)(*x)


def scalar_vdot(xs: list[tuple[float, float]], step: float, fp: FixedPoint, params: SystemParams,
                cert, start: FlowState) -> np.ndarray:
    """dV/dt per sample from one ``rhs_about`` evaluation each, about ``fp``.

    The delayed window one delay back comes from the sample k steps earlier,
    and inside the first delay from the state ``start``, held on [-tau, 0].
    """
    k = round(params.tau / step)
    rhs = rhs_about(FlowState(fp.w_hat, fp.s_hat), params, CUBIC)
    out = np.empty(len(xs))
    for i, x in enumerate(xs):
        xd = xs[i - k] if i >= k else (start.w_max - fp.w_hat, start.s - fp.s_hat)
        rate = loss_rate(shifted_cubic_window(xd, fp, params), params)
        x1, x2 = x
        dx1, dx2, _ = rhs(x1, x2, rate)
        out[i] = cert.d1 * x1 * dx1 + cert.d4 * x2**3 * dx2
    return out


def scalar_razumikhin_mask(v: np.ndarray, k: int, p: float) -> np.ndarray:
    """max(V over the trailing k + 1 samples, before the start V[0]) <= p V,
    one slice maximum per sample."""
    ok = np.empty(len(v), dtype=bool)
    for i in range(len(v)):
        past = v[max(0, i - k) : i + 1].max()
        ok[i] = past <= p * v[i]
    return ok


def per_row_csv(header: str, columns) -> str:
    """A trace CSV written one row at a time: integer columns by ``int``,
    bytes columns as their ASCII text, every other value by
    ``repr(float(v))``."""
    cell = {"i": lambda v: str(int(v)), "S": lambda v: v.decode("ascii")}
    lines = [header]
    for i in range(len(columns[0])):
        lines.append(",".join(cell.get(col.dtype.kind, lambda v: repr(float(v)))(col[i])
                              for col in columns))
    return "\n".join(lines) + "\n"


def python_format_rows(columns, out: np.ndarray) -> int:
    """A stand-in for the compiled ``format_rows`` that runs on every host:
    the rows of ``columns`` by :func:`per_row_csv` into ``out``, and the
    binding's ``ValueError`` for columns it refuses (see
    ``artifacts.formattable``)."""
    if not formattable(columns):
        raise ValueError("the formatter takes contiguous float64, int64 and bytes columns")
    text = per_row_csv("", columns)[1:].encode()
    out[:len(text)] = np.frombuffer(text, np.uint8)
    return len(text)


def assert_same_text(got: str, want: str) -> None:
    """``got == want``, failing with the two line counts and the first line
    that differs, not with pytest's diff of the whole texts, which takes
    minutes for a CSV of thousands of lines."""
    if got == want:
        return
    a, b = got.splitlines(keepends=True), want.splitlines(keepends=True)
    i = next((i for i, (x, y) in enumerate(zip(a, b)) if x != y), min(len(a), len(b)))
    raise AssertionError(f"{len(a)} lines, expected {len(b)}; "
                         f"line {i + 1}: {a[i:i + 1]} != {b[i:i + 1]}")


def write_csv(path, header: str, columns) -> None:
    """``header`` and the rows of the equal-length numpy ``columns`` as the
    CSV file ``path``, through ``artifacts.write_rows``."""
    write_rows(path, header, len(columns[0]), lambda lo, hi: [col[lo:hi] for col in columns])


def awkward_columns(n: int):
    """Eight columns of n rows that exercise every path of the writer."""
    nans = np.array([0x7FF8000000000000, 0x7FF8000000000001, -0x0008000000000000],
                    dtype=np.int64).view(np.float64)  # two payloads, and a negative NaN
    return (
        np.resize(np.array([b"loss", b"indication"]), n),       # the event log's kinds
        np.full(n, 1.0 / 3.0),                                  # constant
        np.repeat(np.arange(n // 1000 + 1) * 0.1, 1000)[:n],    # runs across chunk seams
        np.resize([0.0, -0.0, 0.0, 1.0], n),                    # signed zeros side by side
        np.resize([5e-324, -5e-324, 2.2250738585072014e-308 / 3.0], n),  # subnormals
        np.resize(nans, n),
        np.arange(n) / 7.0 + math.pi,                           # all distinct
        np.resize(np.array([-1, 0, 1, 2]), n),                  # the integer flow column
    )


def scalar_render_trace(epochs, window_fn, params: SystemParams, t_end: float, sample_dt: float):
    """The simulator's trace rendered one sample and one flow at a time.

    ``epochs[f]`` lists flow f's epochs (start, w_loss) in time order.  This
    is the simulator's renderer as it stood before it evaluated each epoch's
    samples in one window call: one ``bisect_right`` and one scalar window
    call per flow and sample.
    """
    flows = len(epochs)
    n = int(math.floor(t_end / sample_dt + 1e-9)) + 1
    starts = [[e[0] for e in epochs[f]] for f in range(flows)]
    ts, fs, ws = [], [], []
    for i in range(n):
        t = i * sample_dt
        total = 0.0
        for f in range(flows):
            j = bisect_right(starts[f], t) - 1
            start, w_loss = epochs[f][j]
            w = window_fn.window(FlowState(w_loss, t - start), params)
            ts.append(t)
            fs.append(f)
            ws.append(w)
            total += w
        ts.append(t)
        fs.append(-1)
        ws.append(total / flows)
    return np.asarray(ts), np.asarray(fs, dtype=int), np.asarray(ws)


def absolute_integrate(params: SystemParams, window_fn, start: FlowState, t_end: float,
                       step_h: float):
    """The fluid model integrated in absolute coordinates (w_max, s) from
    ``start``, held on [-tau, 0].

    This is the package's integrator as it stood before the state became a
    deviation from a reference point, kept as the reference that the
    integrator's results are bounded against: the same grid, RK4 stages and
    Hermite midpoints, but the state is (w_max, s) itself, the RHS forms
    w_max - W from ``window``, and the delayed rate is W p / tau.  Returns the
    columns (w_max, s, w, p).
    """
    k = steps_per_delay(params.tau, step_h)
    h = params.tau / k
    n = math.ceil(t_end / h - 1e-12)

    def window(w_max, s):
        return window_fn.window(FlowState(w_max, s), params)

    def p_of(w):
        p = 1.0 - params.bdp / w
        return p if p > 0.0 else 0.0

    def rate(w_max, s):
        w = window(w_max, s)
        return w * p_of(w) / params.tau

    def rhs(w_max, s, r):
        return -(w_max - window(w_max, s)) * r, 1.0 - s * r

    wm, ss, dws, dss = [], [], [], []

    def sample(i):
        return tuple(start) if i < 0 else (wm[i], ss[i])

    def midpoint(i):
        if i < 0:
            return tuple(start)
        g = h / 8.0
        return (0.5 * (wm[i] + wm[i + 1]) + g * (dws[i] - dws[i + 1]),
                0.5 * (ss[i] + ss[i + 1]) + g * (dss[i] - dss[i + 1]))

    y = tuple(start)
    d = rhs(*y, rate(*sample(-k)))
    wm.append(y[0]), ss.append(y[1]), dws.append(d[0]), dss.append(d[1])
    half, sixth = 0.5 * h, h / 6.0
    for i in range(n):
        r_mid = rate(*midpoint(i - k))
        r_end = rate(*sample(i - k + 1))
        k1 = dws[i], dss[i]
        k2 = rhs(y[0] + half * k1[0], y[1] + half * k1[1], r_mid)
        k3 = rhs(y[0] + half * k2[0], y[1] + half * k2[1], r_mid)
        k4 = rhs(y[0] + h * k3[0], y[1] + h * k3[1], r_end)
        y = (y[0] + sixth * (k1[0] + 2.0 * (k2[0] + k3[0]) + k4[0]),
             y[1] + sixth * (k1[1] + 2.0 * (k2[1] + k3[1]) + k4[1]))
        d = rhs(*y, r_end)
        wm.append(y[0]), ss.append(y[1]), dws.append(d[0]), dss.append(d[1])
    w = [window(a, b) for a, b in zip(wm, ss)]
    return np.array(wm), np.array(ss), np.array(w), np.array([p_of(v) for v in w])


def convergence_order_check(params: SystemParams, window_fn, start: FlowState, t_end: float,
                            base_k: int = 8) -> float:
    """Observed Richardson order from runs at steps tau/k, tau/2k, tau/4k.

    ``t_end`` is snapped to the coarse grid so all three runs share the
    final time exactly.  Smooth problems report about 4; a trajectory that
    crosses the loss-probability kink reports less.
    """
    h0 = params.tau / base_k
    t_final = max(1, round(t_end / h0)) * h0
    ends = []
    for k in (base_k, 2 * base_k, 4 * base_k):
        traj = integrate(params, window_fn, start, t_final, params.tau / k)
        ends.append((float(traj.ref.w_max + traj.x1[-1]), float(traj.ref.s + traj.x2[-1])))
    e1 = math.hypot(ends[0][0] - ends[1][0], ends[0][1] - ends[1][1])
    e2 = math.hypot(ends[1][0] - ends[2][0], ends[1][1] - ends[2][1])
    if e2 == 0.0:
        return math.inf if e1 == 0.0 else 0.0
    return math.log2(e1 / e2)


def cubic_truncation_x1dot(x: tuple[float, float], coeffs: ExpansionCoeffs) -> float:
    """Third-order truncation of dx1/dt about the fixed point."""
    x1, x2 = x
    return (
        -coeffs.alpha * x1**3
        + coeffs.beta * x1**2 * x2
        - coeffs.gamma * x1 * x2**2
        + coeffs.delta * x2**3
    )


def linearized_x2dot(
    x: tuple[float, float], x1_delayed: float, fp: FixedPoint, params: SystemParams
) -> float:
    """Linear part of dx2/dt: -(1/s_hat) x2 - (s_hat/tau) x1_delayed."""
    return -x[1] / fp.s_hat - (fp.s_hat / params.tau) * x1_delayed


def loglog_slope(x, y) -> float:
    """Least-squares slope of log(y) against log(x)."""
    lx = np.log(np.asarray(x, dtype=float))
    ly = np.log(np.asarray(y, dtype=float))
    return float(np.polyfit(lx, ly, 1)[0])


def event_columns(log) -> list[tuple[str, bytes]]:
    """The five columns of an ``EventLog`` as (type code, bytes), so that
    two logs compare bit for bit, -0.0 and NaN payloads included."""
    return [(col.typecode, col.tobytes()) for col in log.columns]


def inter_loss_times(events, *, from_time: float = 0.0) -> np.ndarray:
    """Gaps between consecutive loss events, the first measured from from_time."""
    times = [ev.time for ev in events if ev.event_type == "loss"]
    if not times:
        return np.empty(0)
    return np.diff(np.asarray([from_time] + times))


def _horner(p, x):
    acc = 0
    for coeff in reversed(p):
        acc = coeff + x * acc
    return acc


def _least_float_reaching(f, lo: float, hi: float) -> float:
    """The least float x in [lo, hi], 0 <= lo <= hi, with f(x) >= 0 for a
    nondecreasing f, by bisection over the floats' bit patterns, which
    order nonnegative floats as their values; hi when there is none."""
    def bits(x: float) -> int:
        return struct.unpack("<q", struct.pack("<d", x))[0]

    def value(n: int) -> float:
        return struct.unpack("<d", struct.pack("<q", n))[0]

    a, b = bits(lo), bits(hi)
    while a < b:
        m = (a + b) // 2
        if f(value(m)) >= 0:
            b = m
        else:
            a = m + 1
    return value(a)


def exact_candidate(state, anchor: float, u: float) -> float | None:
    """The candidate loss time ``compute_T`` finds from ``anchor`` with the
    draw u, in exact rational arithmetic on the excess cubic it sums there,
    ``excess_poly(state, anchor)``: the float at or just past it, or None
    where the lookahead holds none.

    The cubic's float coefficients are taken as exact, so what is checked
    is the sampler's own work on them: the shift to the bdp crossing and the
    inversion of the quartic integral.  E never decreases, so the crossing
    is the least float where E >= 0, and the candidate the least float past
    it where the integral of E from the crossing reaches the target -ln(u)
    tau, taken as the float ``compute_T`` forms.  The crossing's float lies
    within one ulp past its exact root, where E is within one ulp's growth
    of 0, so the integral it starts loses nothing a float holds.
    """
    y0 = Fraction(anchor)
    excess = [Fraction(e) for e in excess_poly(state, anchor)]
    integral = [0, *(e / (k + 1) for k, e in enumerate(excess))]
    lookahead = Fraction(state.lookahead)
    if _horner(excess, lookahead) < 0:
        return None
    end = float(y0 + lookahead)
    crossing = anchor if excess[0] >= 0 else _least_float_reaching(
        lambda t: _horner(excess, Fraction(t) - y0), anchor, end)
    base = (_horner(integral, Fraction(crossing) - y0)
            + Fraction(-math.log(u) * state.params.tau))
    if _horner(integral, lookahead) < base:
        return None
    return _least_float_reaching(lambda t: _horner(integral, Fraction(t) - y0) - base,
                                 crossing, end)
