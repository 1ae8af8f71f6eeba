"""Acceptance gate: one test per criterion, one printed PASS/FAIL line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines.  Every
tolerance is pinned in the assertion itself; the printed detail carries the
measured numbers so a failing line is directly actionable.
"""

import math
import time
from pathlib import Path

import numpy as np
from scipy import stats

from tcpfluid import (
    CUBIC,
    FROZEN,
    RENO,
    FlowState,
    RngStream,
    SystemParams,
    basin_delta,
    build_config,
    certificate,
    cubic_fixed_point,
    integrate,
    loss_rate,
    reno_steady_state,
    run_experiment,
    run_simulation,
    stability_trace,
)
from tcpfluid.core import rhs_about
from tcpfluid.nhpl import pick_losing_flow
from tcpfluid.stability import expansion_coeffs
from oracles import (
    cubic_truncation_x1dot,
    inter_loss_times,
    linearized_x2dot,
    loglog_slope,
    shifted_cubic_window,
)
from scalar_reno import integrate_scalar_reno


def check(num, ok, detail):
    line = f"criterion {num}: {'PASS' if ok else 'FAIL'} ({detail})"
    print(line)
    assert ok, line


def test_criterion_1_reno_pair_matches_scalar_model():
    # The pair model and the collapsed scalar window equation integrate the
    # same Reno dynamics; their window columns must agree to rounding error.
    start = time.perf_counter()
    params = SystemParams(capacity=12500.0, tau=0.01, b=0.2, c=0.4)
    ss = reno_steady_state(params)
    init = FlowState(1.05 * ss.w_hat, ss.s_hat)
    k = 128
    traj = integrate(params, RENO, init, 50.0 * params.tau, params.tau / k)
    w0 = RENO.window(init, params)
    oracle = integrate_scalar_reno(params, w0, 50.0 * params.tau, k)
    worst = max(
        abs(a - b) / abs(b) for a, b in zip(traj.w, oracle)
    )
    elapsed = time.perf_counter() - start
    check(
        1,
        len(oracle) == len(traj.w) and worst < 1e-5 and elapsed < 1.0,
        f"max rel window discrepancy {worst:.3e}, {elapsed:.2f} s",
    )


def test_criterion_2_cubic_fixed_point_sweep():
    start = time.perf_counter()
    taus = np.logspace(-1.5, 0.0, 10)
    bdps = np.logspace(0.5, 2.5, 10)
    shapes = [(0.2, 0.4), (0.4, 0.7), (0.7, 1.0), (0.3, 0.2), (0.5, 4.0)]
    worst_res = worst_cons = worst_rhs = 0.0
    i = 0
    for tau in taus:
        for bdp in bdps:
            b, c = shapes[i % len(shapes)]
            i += 1
            params = SystemParams(capacity=bdp / tau, tau=tau, b=b, c=c)
            fp = cubic_fixed_point(params)
            target = tau**3 * c / b
            res = abs(fp.w_hat * (fp.w_hat - params.bdp) ** 3 - target) / target
            cons = abs(fp.s_hat * fp.w_hat * fp.p_hat / tau - 1.0)
            state = FlowState(fp.w_hat, fp.s_hat)
            w = CUBIC.window(state, params)
            dw, ds, _ = rhs_about(state, params, CUBIC)(0.0, 0.0, loss_rate(w, params))
            worst_res = max(worst_res, res)
            worst_cons = max(worst_cons, cons)
            worst_rhs = max(worst_rhs, math.hypot(dw, ds))
    elapsed = time.perf_counter() - start
    check(
        2,
        worst_res < 1e-10 and worst_cons < 1e-9 and worst_rhs < 1e-9
        and elapsed < 1.0,
        f"100 points: residual {worst_res:.3e}, consistency {worst_cons:.3e}, "
        f"rhs norm {worst_rhs:.3e}, {elapsed:.2f} s",
    )


def test_criterion_3_taylor_structure_slopes():
    start = time.perf_counter()
    params = SystemParams(capacity=10.0, tau=1.0, b=0.2, c=0.4)
    fp = cubic_fixed_point(params)
    co = expansion_coeffs(fp, params)
    rhs = rhs_about(FlowState(fp.w_hat, fp.s_hat), params, CUBIC)
    rng = np.random.default_rng(12345)
    radii = np.logspace(-4, -2, 9)
    err1, err2 = [], []
    for r in radii:
        worst1 = worst2 = 0.0
        for _ in range(200):
            th = rng.uniform(0.0, 2.0 * math.pi)
            x = (r * math.cos(th), r * math.sin(th))
            rate = loss_rate(shifted_cubic_window(x, fp, params), params)
            d1, d2, _ = rhs(*x, rate)
            worst1 = max(worst1, abs(d1 - cubic_truncation_x1dot(x, co)))
            worst2 = max(worst2, abs(d2 - linearized_x2dot(x, x[0], fp, params)))
        err1.append(worst1)
        err2.append(worst2)
    s1 = loglog_slope(radii, err1)
    s2 = loglog_slope(radii, err2)
    elapsed = time.perf_counter() - start
    check(
        3,
        s1 >= 3.9 and s2 >= 1.9 and elapsed < 5.0,
        f"x1 remainder slope {s1:.3f}, x2 remainder slope {s2:.3f}, "
        f"{elapsed:.2f} s",
    )


def test_criterion_4_qtilde_positive_definite():
    rng = np.random.default_rng(4242)
    lambda_min_ok = minor_ok = True
    worst_rel = 0.0
    for _ in range(1000):
        tau = 10.0 ** rng.uniform(-1.5, 0.0)
        bdp = 10.0 ** rng.uniform(0.5, 2.5)
        b = rng.uniform(0.1, 0.9)
        c = rng.uniform(0.1, 4.0)
        params = SystemParams(capacity=bdp / tau, tau=tau, b=b, c=c)
        fp = cubic_fixed_point(params)
        cert = certificate(fp, params)
        co = cert.coeffs
        lambda_min_ok &= cert.lambda_min > 0.0
        minor = co.alpha * co.gamma - co.beta**2 / 4.0
        exact = (1.0 / 27.0 - 1.0 / 36.0) * b**4 / (c**2 * fp.s_hat**10)
        minor_ok &= minor > 0.0
        worst_rel = max(worst_rel, abs(minor / exact - 1.0))
    check(
        4,
        lambda_min_ok and minor_ok and worst_rel < 1e-12,
        f"1000 draws: lambda_min > 0 {lambda_min_ok}, minor > 0 {minor_ok}, "
        f"worst factor mismatch {worst_rel:.3e}",
    )


def test_criterion_5_in_basin_trajectory_obeys_certificate():
    start = time.perf_counter()
    params = SystemParams(capacity=12500.0, tau=0.01, b=0.2, c=0.4)
    fp = cubic_fixed_point(params)
    cert = certificate(fp, params)
    delta = basin_delta(0.01 * fp.w_hat, cert)
    init = FlowState(fp.w_hat, fp.s_hat + 0.8 * delta)
    traj = integrate(params, CUBIC, init, 100.0 * params.tau, params.tau / 64, fp=fp)
    diag = stability_trace(traj, cert)
    _, norm_x, v, _, bound = diag.columns(0, len(diag.t))
    in_basin = norm_x[0] < delta
    bounded = bool(np.all(norm_x**4 <= bound))
    slack = 1e-12 * float(v.max())
    nonincreasing = bool(np.all(np.diff(v) <= slack))
    elapsed = time.perf_counter() - start
    check(
        5,
        in_basin and bounded and nonincreasing,
        f"start norm {norm_x[0]:.4e} < delta {delta:.4e}, "
        f"bound worst ratio {float((norm_x**4 / bound).max()):.3f}, "
        f"V(end)/V(0) {float(v[-1] / v[0]):.3f}, {elapsed:.2f} s",
    )


def test_criterion_6_long_delay_divergence_witness():
    # Documented non-convergent config: long-delay system (C=125000 pkt/s,
    # tau=0.1 s) started far from the equilibrium (12500.005, 18.420).
    start = time.perf_counter()
    params = SystemParams(capacity=125000.0, tau=0.1, b=0.2, c=0.4)
    fp = cubic_fixed_point(params)
    init = FlowState(12371.9952, 13.6794)
    horizon = 200.0 * params.tau
    traj = integrate(params, CUBIC, init, horizon, params.tau / 256, fp=fp)
    norms = np.hypot(traj.x1, traj.x2)
    mid = int(np.searchsorted(traj.t, 0.5 * horizon))
    grew = norms[-1] >= norms[mid]
    elapsed = time.perf_counter() - start
    check(
        6,
        grew,
        f"|x| at T/2 {norms[mid]:.3f}, at T {norms[-1]:.3f} "
        f"(ratio {norms[-1] / norms[mid]:.1f}), {elapsed:.2f} s",
    )


def test_criterion_7_nhpl_statistics():
    start = time.perf_counter()
    params = SystemParams(capacity=100.0, tau=0.1, b=0.2, c=0.4)
    sim = run_simulation(params, FROZEN, [(15.0, 0.0)], 2025, 220.0)
    gaps = inter_loss_times(sim.events)
    n = len(gaps)
    ks = stats.kstest(gaps, "expon", args=(0.0, 1.0 / 50.0))
    ks_critical = 1.63 / math.sqrt(n)  # 1% level, large-sample

    rng = RngStream(42)
    draws = 100000
    counts = [0, 0, 0]
    for _ in range(draws):
        counts[pick_losing_flow((1.0, 2.0, 3.0), rng.uniform())] += 1
    expected = [draws / 6.0, draws / 3.0, draws / 2.0]
    chi2 = sum((o - e) ** 2 / e for o, e in zip(counts, expected))
    elapsed = time.perf_counter() - start
    check(
        7,
        n >= 10000 and ks.statistic < ks_critical and chi2 < 9.21
        and elapsed < 10.0,
        f"{n} gaps, KS stat {ks.statistic:.4f} < {ks_critical:.4f}, "
        f"chi2 {chi2:.2f} < 9.21, {elapsed:.2f} s",
    )


def test_criterion_8_fluid_vs_nhpl_agreement(tmp_path):
    start = time.perf_counter()
    config = build_config(
        {
            "mode": "both",
            "algorithm": "cubic",
            "capacity_pkts": 125000.0,
            "delay_tau": 0.001,
            "b": 0.2,
            "c": 0.4,
            "flows": 20,
            "init": "fixed-point",
            "t_end": 30.0,
            "seed": 7,
            "post_transient": 0.5,
        }
    )
    result = run_experiment(config, tmp_path / "out")
    nhpl = result.metrics["nhpl_mean_w"]
    fluid = result.metrics["fluid_mean_w"]
    w_hat = result.metrics["w_hat"]
    vs_fluid = abs(nhpl / fluid - 1.0)
    vs_hat = abs(nhpl / w_hat - 1.0)
    elapsed = time.perf_counter() - start
    check(
        8,
        vs_fluid < 0.05 and vs_hat < 0.05 and elapsed < 60.0,
        f"20 flows: nhpl mean {nhpl:.3f} vs fluid {fluid:.3f} "
        f"({100 * vs_fluid:.2f}%), vs w_hat {w_hat:.3f} ({100 * vs_hat:.2f}%), "
        f"{elapsed:.1f} s",
    )


def test_criterion_9_byte_identical_reruns(tmp_path):
    config = build_config(
        {
            "mode": "both",
            "capacity_pkts": 100.0,
            "delay_tau": 0.1,
            "flows": 2,
            "t_end": 10.0,
            "seed": 11,
        }
    )
    a = run_experiment(config, tmp_path / "a")
    b = run_experiment(config, tmp_path / "b")
    names = sorted(a.artifacts)
    same = all(
        Path(a.artifacts[name]).read_bytes() == Path(b.artifacts[name]).read_bytes()
        for name in names
    )
    check(9, same and names == sorted(b.artifacts), f"identical artifacts: {names}")
