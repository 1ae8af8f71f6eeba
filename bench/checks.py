"""Output checks computed by the benchmark itself, not taken from tcpfluid.

Each check reads the artifacts a workload wrote (or the returned numbers)
and tests them against an independent computation or a property the method
must have.  A workload's check returns one outcome per operation it ran:
the failed checks, and the known program fault that failed the operation
(None when the operation did not fail).
"""

from __future__ import annotations

import csv
import math
import os
from fractions import Fraction

import numpy as np

ROOT_ULPS = 4  # the fixed point must be within this many ulps of the exact root
MEAN_AGREEMENT = 0.05  # simulator mean vs fluid mean and w_hat (criterion 8)
STATIONARY_TOL = 1e-9  # fluid mean vs w_hat when started on the fixed point
KS_LEVEL = 0.01
KS_MIN_GAPS = 10000
KS_RETEST_OFFSET = 2**32  # independent PCG64 stream for the one retest


def op(failures: list[str], fault: str | None = None) -> dict:
    return {"failures": failures, "fault": fault}


def fixed_point_root(w_hat: float, capacity: float, tau: float, b: float, c: float) -> list[str]:
    """w (w - bdp)^3 = tau^3 c / b, evaluated in exact rational arithmetic.

    g(w) = w (w - bdp)^3 - tau^3 c / b increases right of bdp, so w_hat is a
    root to within ROOT_ULPS ulps exactly when g changes sign over
    [w_hat - ROOT_ULPS ulp, w_hat + ROOT_ULPS ulp].
    """
    bdp = Fraction(capacity) * Fraction(tau)
    rhs = Fraction(tau) ** 3 * Fraction(c) / Fraction(b)

    def g(w: float) -> Fraction:
        d = Fraction(w) - bdp
        return Fraction(w) * d**3 - rhs

    span = ROOT_ULPS * math.ulp(w_hat)
    lo, hi = w_hat - span, w_hat + span
    if not (Fraction(lo) > bdp and g(lo) < 0 < g(hi)):
        rel = float(g(w_hat) / rhs)
        return [f"fixed point {w_hat!r} is not within {ROOT_ULPS} ulps of the root "
                f"(relative residual {rel:.3e})"]
    return []


def read_events(path: str) -> list[tuple[str, float, int, float, float]]:
    with open(path, newline="") as fh:
        rows = csv.reader(fh)
        if next(rows) != ["event_type", "time", "flow", "window_before", "window_after"]:
            raise ValueError(f"{path}: unexpected header")
        return [(k, float(t), int(f), float(wb), float(wa)) for k, t, f, wb, wa in rows]


def indications_follow_losses(events, tau: float, t_end: float) -> list[str]:
    """Every indication lands exactly tau after a loss of the same flow, and
    every loss whose indication falls inside the horizon has one."""
    expected = sorted((t + tau, f) for k, t, f, _, _ in events if k == "loss" and t + tau <= t_end)
    got = [(t, f) for k, t, f, _, _ in events if k == "indication"]
    if got != expected:
        return [f"{len(got)} indications do not match the {len(expected)} losses shifted by tau"]
    return []


def _load(path: str) -> np.ndarray:
    return np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)


def _post_transient(t: np.ndarray, w: np.ndarray, t_end: float, fraction: float) -> float:
    return float(w[t >= (1.0 - fraction) * t_end].mean())


def check_compare(tcp, outputs, out_dir: str, seed: int) -> list[dict]:
    config, result = outputs["config"], outputs["result"]
    params = config.system_params()
    w_hat = result.metrics["w_hat"]
    t_end, frac, flows = config.horizon(), config.post_transient, params.flows
    fails = fixed_point_root(w_hat, params.capacity, params.tau, params.b, params.c)

    fluid = _load(os.path.join(out_dir, "fluid_trace.csv"))  # t,w_max,s,w,p
    fluid_mean = _post_transient(fluid[:, 0], fluid[:, 3], t_end, frac)
    if abs(fluid_mean / w_hat - 1.0) > STATIONARY_TOL:
        fails.append(f"fluid mean {fluid_mean!r} left the stationary fixed point {w_hat!r}")

    trace = _load(os.path.join(out_dir, "nhpl_trace.csv"))  # t,flow,w
    if len(trace) % (flows + 1):
        return [op(fails + [f"simulator trace has {len(trace)} rows, not a multiple of {flows + 1}"])]
    blocks = trace.reshape(-1, flows + 1, 3)
    if not (np.all(blocks[:, :, 0] == blocks[:, :1, 0])
            and np.array_equal(blocks[0, :, 1], list(range(flows)) + [-1])
            and np.all(blocks[:, :, 1] == blocks[:1, :, 1])):
        fails.append("simulator trace rows are not grouped as flows 0..N-1 then -1 per sample")
    flow_mean = blocks[:, :flows, 2].mean(axis=1)
    agg = blocks[:, flows, 2]
    worst = float(np.max(np.abs(agg / flow_mean - 1.0)))
    if worst > 1e-12:
        fails.append(f"aggregate trace rows differ from the flow mean by {worst:.3e}")
    sim_mean = _post_transient(blocks[:, 0, 0], agg, t_end, frac)
    for name, ref in (("fluid mean", fluid_mean), ("w_hat", w_hat)):
        if abs(sim_mean / ref - 1.0) > MEAN_AGREEMENT:
            fails.append(f"simulator mean {sim_mean:.4f} is not within 5% of the {name} {ref:.4f}")

    events = read_events(os.path.join(out_dir, "nhpl_events.csv"))
    fails += indications_follow_losses(events, params.tau, t_end)
    worst = max((abs(wa / ((1.0 - params.b) * wb) - 1.0)
                 for k, _, _, wb, wa in events if k == "indication"), default=0.0)
    if worst > 1e-12:
        fails.append(f"CUBIC decrease misses (1-b) * window_before by {worst:.3e}")
    return [op(fails)]


def _ks_pvalue(gaps: np.ndarray, rate: float) -> float:
    from scipy import stats

    return float(stats.kstest(gaps, "expon", args=(0.0, 1.0 / rate)).pvalue)


def check_frozen(tcp, outputs, out_dir: str, seed: int) -> list[dict]:
    """Frozen window 15 over bdp 10 with tau 0.1: losses are Poisson at 50/s.

    A correct sampler fails a 1%-level KS test on one seed in a hundred, so a
    rejection is retested once on an independent stream and the check fails
    only if both reject (false alarm 1e-4 per operation).  A biased sampler
    fails both.
    """
    params, fp, sim = outputs["params"], outputs["fp"], outputs["sim"]
    fails = fixed_point_root(fp.w_hat, params.capacity, params.tau, params.b, params.c)
    events = read_events(os.path.join(out_dir, "nhpl_events.csv"))
    fails += indications_follow_losses(events, params.tau, sim.t_end)
    if any(wa != wb for k, _, _, wb, wa in events):
        fails.append("a frozen window changed at an event")
    rate = (15.0 - params.bdp) / params.tau
    losses = [t for k, t, _, _, _ in events if k == "loss"]
    gaps = np.diff([0.0] + losses)
    if len(gaps) < KS_MIN_GAPS:
        return [op(fails + [f"only {len(gaps)} inter-loss gaps, need {KS_MIN_GAPS}"])]
    if _ks_pvalue(gaps, rate) < KS_LEVEL:
        retest = tcp.nhpl.run_simulation(
            params, tcp.protocols.FROZEN, [(15.0, 0.0)], seed + KS_RETEST_OFFSET, sim.t_end
        )
        losses = [ev.time for ev in retest.events if ev.event_type == "loss"]
        p = _ks_pvalue(np.diff([0.0] + losses), rate)
        if p < KS_LEVEL:
            fails.append(f"inter-loss gaps reject Exp({rate:g}/s) on two streams (p={p:.2e})")
    return [op(fails)]


def _qtilde_from_report(path: str) -> tuple[list[list[float]], float]:
    rows, lam = [], math.nan
    with open(path) as fh:
        for line in fh:
            key, _, value = line.partition(": ")
            if key == "qtilde_row":
                rows.append([float(v) for v in value.split(",")])
            elif key == "lambda_min":
                lam = float(value)
    return rows, lam


def check_convergence(tcp, outputs, out_dir: str, seed: int) -> list[dict]:
    """Two operations: the stability report, then the in-basin trajectory.

    V rising between samples although the exact dV/dt is negative at both
    ends is the known integrator fault (w_max stops moving once its per-step
    increment falls below half an ulp); it marks the trajectory operation
    failed.  A rise with dV/dt >= 0 anywhere is a check failure.
    """
    config, stab, result = outputs["config"], outputs["stability"], outputs["result"]
    params = config.system_params()
    stab_fails = fixed_point_root(stab.metrics["w_hat"], params.capacity, params.tau, params.b, params.c)

    # Sylvester's criterion in exact arithmetic on the reported matrix, then
    # its smallest eigenvalue from LAPACK against the reported lambda_min.
    rows, lam = _qtilde_from_report(os.path.join(out_dir, "stability", "stability_report.txt"))
    if len(rows) != 3 or any(len(row) != 3 for row in rows):
        return [op(stab_fails + ["stability report holds no 3x3 Qtilde"])]
    m = [[Fraction(v) for v in row] for row in rows]
    minors = [
        m[0][0],
        m[0][0] * m[1][1] - m[0][1] * m[1][0],
        sum(m[0][j] * (m[1][(j + 1) % 3] * m[2][(j + 2) % 3] - m[1][(j + 2) % 3] * m[2][(j + 1) % 3])
            for j in range(3)),
    ]
    if not all(x > 0 for x in minors):
        stab_fails.append("reported Qtilde is not positive definite")
    from scipy import linalg

    eig = linalg.eigvalsh(np.array(rows))
    if not (lam > 0.0 and abs(eig[0] - lam) <= 1e-9 * eig[-1]):
        stab_fails.append(f"lambda_min {lam!r} is not positive or disagrees with eigvalsh {eig[0]!r}")

    conv_fails = fixed_point_root(result.metrics["w_hat"], params.capacity, params.tau, params.b, params.c)
    diag = _load(os.path.join(out_dir, "convergence", "convergence.csv"))  # t,norm_x,V,Vdot,bound
    norm, v, vdot, bound = diag[:, 1], diag[:, 2], diag[:, 3], diag[:, 4]
    if not norm[0] < stab.metrics["basin_delta"]:
        conv_fails.append(f"start norm {norm[0]!r} is outside the basin {stab.metrics['basin_delta']!r}")
    over = int(np.count_nonzero(norm**4 > bound))
    if over:
        conv_fails.append(f"norm_x^4 exceeds the certified bound at {over} of {len(norm)} samples")
    rising = np.diff(v) > 1e-12 * float(v.max())
    fault = None
    if rising.any():
        message = f"V increases at {int(rising.sum())} of {len(v)} samples"
        if np.all(vdot[:-1][rising] < 0.0) and np.all(vdot[1:][rising] < 0.0):
            fault = message + " where the exact dV/dt is negative"
        else:
            conv_fails.append(message)
    return [op(stab_fails), op(conv_fails, fault)]


CHECKS = {
    "compare-cubic20": check_compare,
    "nhpl-frozen1": check_frozen,
    "convergence-canonical": check_convergence,
}
