import dataclasses
import math
import time
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from oracles import (
    assert_same_text,
    cubic_truncation_x1dot,
    linearized_x2dot,
    loglog_slope,
    per_row_csv,
    scalar_norms_and_v,
    scalar_razumikhin_mask,
    scalar_samples,
    scalar_vdot,
    shifted_cubic_window,
)
from tcpfluid import (
    CUBIC,
    CertificateError,
    FixedPoint,
    FlowState,
    SystemParams,
    Trajectory,
    basin_delta,
    certificate,
    convergence_bound,
    integrate,
    loss_rate,
    lyapunov_V,
    stability_trace,
)
from tcpfluid.core import rhs_about
from tcpfluid.stability import (_TRACE_BLOCK, BOUND_RTOL, RAZUMIKHIN_P, expansion_coeffs,
                                razumikhin_mask, vdot_along)

# Frozen from the canonical system (C=12500 pkt/s, tau=10 ms): the largest
# initial radius the certificate guarantees for a 1% window excursion, and
# the equilibrium itself for tests that cannot take fixtures.
CANONICAL_BASIN_DELTA = 0.012451106409589692
_CANONICAL_FP = (125.00251982516785, 3.9685292962287955, 2.0158194981800825e-05)


def test_expansion_coeffs_by_substitution():
    # b = c = 1/2 and s_hat = 1 reduce the coefficients to pure fractions.
    params = SystemParams(capacity=10.0, tau=1.0, b=0.5, c=0.5)
    fp = FixedPoint(w_hat=2.0, s_hat=1.0, p_hat=0.5)
    co = expansion_coeffs(fp, params)
    assert co.alpha == pytest.approx(1.0 / 54.0, rel=1e-15)
    assert co.beta == pytest.approx(1.0 / 6.0, rel=1e-15)
    assert co.gamma == pytest.approx(0.5, rel=1e-15)
    assert co.delta == pytest.approx(0.5, rel=1e-15)


@given(
    st.floats(min_value=0.05, max_value=0.95),
    st.floats(min_value=0.05, max_value=5.0),
    st.floats(min_value=0.05, max_value=50.0),
)
def test_definiteness_minor_identity(b, c, s_hat):
    # alpha*gamma - beta^2/4 = (1/27 - 1/36) * b^4 / (c^2 s^10), always > 0.
    params = SystemParams(capacity=10.0, tau=1.0, b=b, c=c)
    fp = FixedPoint(w_hat=1.0, s_hat=s_hat, p_hat=0.5)
    co = expansion_coeffs(fp, params)
    minor = co.alpha * co.gamma - 0.25 * co.beta**2
    exact = (1.0 / 27.0 - 1.0 / 36.0) * b**4 / (c**2 * s_hat**10)
    assert minor > 0.0
    assert minor == pytest.approx(exact, rel=1e-12)


def test_taylor_remainders_have_expected_orders(unit_params, unit_fp):
    co = expansion_coeffs(unit_fp, unit_params)
    rhs = rhs_about(FlowState(unit_fp.w_hat, unit_fp.s_hat), unit_params, CUBIC)
    rng = np.random.default_rng(12345)
    radii = np.logspace(-4, -2, 9)
    err1, err2 = [], []
    for r in radii:
        worst1 = worst2 = 0.0
        for _ in range(100):
            th = rng.uniform(0.0, 2.0 * math.pi)
            x = (r * math.cos(th), r * math.sin(th))
            rate = loss_rate(shifted_cubic_window(x, unit_fp, unit_params), unit_params)
            d1, d2, _ = rhs(*x, rate)
            worst1 = max(worst1, abs(d1 - cubic_truncation_x1dot(x, co)))
            worst2 = max(worst2, abs(d2 - linearized_x2dot(x, x[0], unit_fp, unit_params)))
        err1.append(worst1)
        err2.append(worst2)
    assert loglog_slope(radii, err1) >= 3.9
    assert loglog_slope(radii, err2) >= 1.9


def test_certificate_weights_and_margins(canonical_params, canonical_fp):
    cert = certificate(canonical_fp, canonical_params)
    assert cert.fp == canonical_fp
    assert cert.coeffs == expansion_coeffs(canonical_fp, canonical_params)
    assert cert.d1 == canonical_fp.s_hat / canonical_params.c
    assert cert.d4 == canonical_params.tau / canonical_fp.s_hat
    assert cert.eps0 == max(0.5 * cert.d1, 0.25 * cert.d4)
    assert cert.eps1 == 0.5 * min(cert.d1 / 6.0, 0.25 * cert.d4)
    assert RAZUMIKHIN_P == 1.01
    assert cert.k_margin == 0.5 * cert.lambda_min


def test_qtilde_matches_eigenvalue_oracle(canonical_params, canonical_fp,
                                          unit_params, unit_fp):
    for params, fp in ((canonical_params, canonical_fp), (unit_params, unit_fp)):
        cert = certificate(fp, params)
        assert np.allclose(cert.matrix, cert.matrix.T)
        eigs = np.linalg.eigvalsh(cert.matrix)
        assert cert.lambda_min > 0.0
        assert cert.lambda_min == pytest.approx(float(eigs[0]), rel=1e-9)
        assert cert.matrix[2, 2] == cert.d4 / fp.s_hat


def test_certificate_rejects_entries_out_of_float_range():
    # At s_hat = 1e40 alpha*gamma and beta^2/4 both underflow to 0, so the
    # minors fail, and det underflows below 0, so the eigenvalues fail too.
    params = SystemParams(capacity=10.0, tau=1.0, b=0.2, c=0.4)
    with pytest.raises(CertificateError, match="not positive definite"):
        certificate(FixedPoint(w_hat=20.0, s_hat=1e40, p_hat=0.5), params)
    # At s_hat = 1e45 s_hat**7 overflows in the coefficients.
    with pytest.raises(CertificateError, match="expansion coefficients"):
        certificate(FixedPoint(w_hat=20.0, s_hat=1e45, p_hat=0.5), params)


def test_quartic_form_identity(canonical_params, canonical_fp):
    # The cross terms of dV/dt cancel exactly (d1*delta = d4*s_hat/tau = 1),
    # leaving the quartic form -z' Qtilde z in z = (x1^2, sqrt2 x1 x2, x2^2).
    cert = certificate(canonical_fp, canonical_params)
    co = cert.coeffs
    rng = np.random.default_rng(99)
    for _ in range(300):
        x1, x2 = x = (rng.uniform(-1.0, 1.0), rng.uniform(-1.0, 1.0))
        term1 = cert.d1 * x1 * cubic_truncation_x1dot(x, co)
        term2 = cert.d4 * x2**3 * linearized_x2dot(
            x, x1, canonical_fp, canonical_params
        )
        z = np.array([x1**2, math.sqrt(2.0) * x1 * x2, x2**2])
        quadratic_form = float(z @ cert.matrix @ z)
        scale = abs(term1) + abs(term2) + abs(quadratic_form) + 1e-300
        assert abs((term1 + term2) + quadratic_form) <= 1e-12 * scale


@given(st.floats(min_value=-1.0, max_value=1.0), st.floats(min_value=-1.0, max_value=1.0))
def test_lyapunov_sandwich_on_unit_ball(x1, x2):
    params = SystemParams(capacity=12500.0, tau=0.01, b=0.2, c=0.4)
    fp = FixedPoint(*_CANONICAL_FP)
    cert = certificate(fp, params)
    norm2 = x1 * x1 + x2 * x2
    if norm2 > 1.0:
        return
    v = lyapunov_V(x1, x2, cert)
    # Below 1e-308 norm2 keeps up to ulp(0) of absolute rounding error: with
    # x1 = 1.08e-162, x1*x1 rounds to 0 while V rounds to 5e-324.
    assert v <= cert.eps0 * (norm2 + math.ulp(0.0)) * (1.0 + 1e-12)
    assert v >= cert.eps1 * norm2 * norm2 * (1.0 - 1e-12)


def in_basin_trace(params, fp, reference=True):
    cert = certificate(fp, params)
    start = FlowState(fp.w_hat, fp.s_hat + 0.8 * basin_delta(0.01 * fp.w_hat, cert))
    traj = integrate(params, CUBIC, start, 100 * params.tau, params.tau / 64,
                     fp=fp if reference else None)
    return cert, start, traj


def test_vdot_bound_under_razumikhin_gate(canonical_params, canonical_fp):
    cert, start, traj = in_basin_trace(canonical_params, canonical_fp)
    x1, x2 = traj.x1, traj.x2
    vdot = vdot_along(x1, x2, traj.dx1, traj.dx2, cert)
    assert np.all(np.abs(vdot - scalar_vdot(scalar_samples(traj), traj.step, canonical_fp,
                                            canonical_params, cert, start))
                  <= 1e-12 * np.abs(vdot))
    k = round(canonical_params.tau / traj.step)
    mask = razumikhin_mask(lyapunov_V(x1, x2, cert), k)
    assert mask[0]
    assert mask.any()
    norm4 = (x1**2 + x2**2) ** 2
    decay = cert.lambda_min - cert.k_margin
    assert np.all(vdot[mask] <= -decay * norm4[mask] + 1e-30)


def test_stability_trace_bound_and_monotonicity(canonical_params, canonical_fp):
    cert, start, traj = in_basin_trace(canonical_params, canonical_fp)
    tr = stability_trace(traj, cert)
    _, norm_x, v, _, bound = tr.columns(0, len(tr.t))
    assert np.all(norm_x**4 <= bound)
    assert tr.bounded.all()
    dv = np.diff(v)
    assert np.all(dv <= 1e-12 * np.maximum(v[0], v[:-1]))
    assert v[-1] < v[0]


def test_array_diagnostics_match_scalar_oracles(canonical_params, canonical_fp):
    # numpy's hypot (libm's) may differ from math.hypot in the last ulp, so
    # |x| agrees to 4 ulp.  V takes the same IEEE products on Python floats
    # as on arrays, so it is the same bits, and so are the bound (from V[0])
    # and the Razumikhin maxima.  dV/dt agrees to 1e-12 relative: the oracle
    # cubes by pow.  The stored derivatives must match a fresh rhs_about
    # call per sample whose delayed window comes from the sample one delay
    # back or, inside the first delay, from the start state.
    params, fp = canonical_params, canonical_fp
    cert, start, traj = in_basin_trace(params, fp)
    tr = stability_trace(traj, cert)
    t, tr_norm, tr_v, tr_vdot, tr_bound = tr.columns(0, len(tr.t))
    xs = scalar_samples(traj)
    norm, v = scalar_norms_and_v(xs, cert)
    vdot = scalar_vdot(xs, traj.step, fp, params, cert, start)
    k = round(params.tau / traj.step)
    assert np.array_equal(t, traj.t)
    assert np.all(np.abs(tr_norm - norm) <= 4 * np.spacing(norm))
    assert np.array_equal(tr_v, v)
    assert np.all(np.abs(tr_vdot - vdot) <= 1e-12 * np.abs(vdot))
    assert np.array_equal(tr_bound, convergence_bound(traj.t, float(v[0]), cert))
    assert np.array_equal(tr.bounded, tr_norm**4 <= tr_bound * (1.0 + BOUND_RTOL))
    assert np.array_equal(tr.razumikhin_ok, scalar_razumikhin_mask(v, k, RAZUMIKHIN_P))
    assert not tr.razumikhin_ok.all()  # the mask is not trivially true


U = Fraction(1, 2**53)  # the unit roundoff of a double


def gamma(n):
    """Higham's gamma_n = n u / (1 - n u): the relative error of n roundings."""
    return n * U / (1 - n * U)


def assert_within_stated_bound(x1, x2, dx1, dx2, cert):
    """V and dV/dt of the samples, arrays and Python floats, against exact
    rational arithmetic on the same floats: V, a sum of nonnegative terms of
    at most three roundings each, within gamma_4 of its exact value; dV/dt,
    terms of two and four roundings and one sum, within gamma_5 of the sum
    of its terms' magnitudes.  Both routes give the same bits."""
    v, vdot = lyapunov_V(x1, x2, cert), vdot_along(x1, x2, dx1, dx2, cert)
    d1, d4 = Fraction(cert.d1), Fraction(cert.d4)
    for i, sample in enumerate(zip(x1.tolist(), x2.tolist(), dx1.tolist(), dx2.tolist())):
        assert lyapunov_V(*sample[:2], cert) == v[i]
        assert vdot_along(*sample, cert) == vdot[i]
        e1, e2, f1, f2 = map(Fraction, sample)
        exact_v = d1 * e1 * e1 / 2 + d4 * e2**4 / 4
        term1, term2 = d1 * e1 * f1, d4 * e2**3 * f2
        assert abs(Fraction(float(v[i])) - exact_v) <= gamma(4) * exact_v
        assert abs(Fraction(float(vdot[i])) - (term1 + term2)) <= gamma(5) * (abs(term1)
                                                                             + abs(term2))


# Magnitudes from 1e-30 to 1e30, and 0: every product of V and dV/dt with
# the systems' weights stays in the normal range, where the bound holds.
_NORMAL_RANGE = st.one_of(st.just(0.0), st.floats(min_value=1e-30, max_value=1e30),
                          st.floats(min_value=-1e30, max_value=-1e-30))


@given(st.sampled_from([(SystemParams(12500.0, 0.01, 0.2, 0.4), FixedPoint(*_CANONICAL_FP)),
                        (SystemParams(10.0, 1.0, 0.5, 0.5), FixedPoint(2.0, 1.0, 0.5))]),
       st.lists(st.tuples(_NORMAL_RANGE, _NORMAL_RANGE, _NORMAL_RANGE, _NORMAL_RANGE),
                min_size=1, max_size=9))
def test_diagnostics_are_within_the_stated_bound_of_exact_arithmetic(system, samples):
    cert = certificate(system[1], system[0])
    assert_within_stated_bound(*np.array(samples).T, cert)


def test_canonical_diagnostics_are_within_the_stated_bound_of_exact_arithmetic(canonical_params,
                                                                              canonical_fp):
    cert, _, traj = in_basin_trace(canonical_params, canonical_fp)
    assert_within_stated_bound(traj.x1, traj.x2, traj.dx1, traj.dx2, cert)


def test_diagnostics_reject_a_trajectory_not_integrated_about_the_fixed_point(canonical_params,
                                                                             canonical_fp):
    # Deviations from the start, or from a point a hair off the fixed point,
    # moved to it would keep only the absolute precision of the offset, so
    # every diagnostic refuses them rather than shift them.
    cert, start, traj = in_basin_trace(canonical_params, canonical_fp, reference=False)
    assert traj.ref == start
    near = FixedPoint(canonical_fp.w_hat * (1.0 + 1e-15), canonical_fp.s_hat, canonical_fp.p_hat)
    other = integrate(canonical_params, CUBIC, start, 10 * canonical_params.tau,
                      canonical_params.tau / 64, fp=near)
    for bad in (traj, other):
        with pytest.raises(ValueError, match="certificate's fixed point"):
            stability_trace(bad, cert)


@pytest.mark.parametrize("k", [1, 2, 3, 4, 5, 63, 64, 65, 499, 500, 1000])
def test_razumikhin_mask_matches_slice_max_oracle(k):
    # A V that rises and falls, so both the history maximum and the front
    # padding decide samples; k + 1 a power of two or not, on both sides of
    # one (the two spans the window is covered by meet or overlap), and
    # k = 499, 500, 1000 reach or exceed the 500 samples.
    v = np.random.default_rng(k).uniform(0.5, 1.5, 500)
    mask = razumikhin_mask(v, k)
    assert np.array_equal(mask, scalar_razumikhin_mask(v, k, 1.01))
    assert mask.any() and not mask.all()


def test_razumikhin_mask_is_fast_for_a_long_window():
    # k = n = 2e5: a window as long as the run, where every window reaches
    # back to the start, so the running maximum is the oracle.  A per-window
    # maximum costs O(n k) and took several seconds here.
    n = k = 200_000
    v = np.random.default_rng(0).uniform(0.5, 1.5, n)
    start = time.perf_counter()
    mask = razumikhin_mask(v, k)
    elapsed = time.perf_counter() - start
    assert np.array_equal(mask, np.maximum.accumulate(v) <= 1.01 * v)
    assert elapsed < 1.0


def sampled_trajectory(params, fp, k, x1, x2):
    """The samples (x1, x2) about ``fp`` at step tau/k as a trajectory,
    without integrating one; the verdicts do not read the derivatives."""
    n = len(x1)
    step = params.tau / k
    return Trajectory(x1, x2, np.zeros(n), np.zeros(n), np.full(n, fp.w_hat),
                      FlowState(fp.w_hat, fp.s_hat), step, params)


def swinging_trajectory(params, fp, k, n, seed=0):
    """log10 |x| swings between -4 and 0 about every 200 samples, at random
    angles after the first sample's 0, so V rises and falls and |x|^4
    crosses the decay bound: over a few thousand samples both verdicts take
    both values."""
    rng = np.random.default_rng(seed)
    phase = np.cumsum(rng.uniform(0.0, 2.0 * math.pi / 100.0, n))
    radius = 10.0 ** (-2.0 - 2.0 * np.cos(phase - phase[0]))
    angle = rng.uniform(0.0, 2.0 * math.pi, n)
    angle[0] = 0.0
    return sampled_trajectory(params, fp, k, radius * np.cos(angle), radius * np.sin(angle))


def trace_block(k):
    return max(_TRACE_BLOCK, k + 1)


TRACE_KS = [4, 64, 4095, 4096, 10000]


@pytest.mark.parametrize("k", TRACE_KS)
@pytest.mark.parametrize("n_of", [lambda k: 2 * trace_block(k) - 1, lambda k: 2 * trace_block(k),
                                  lambda k: 2 * trace_block(k) + 1, lambda k: k - 1],
                         ids=["block-1", "block", "block+1", "under-one-delay"])
def test_stability_trace_verdicts_match_whole_columns(canonical_params, canonical_fp, k, n_of):
    # The verdicts are formed block by block, the Razumikhin windows of a
    # block reaching back into the delay before it; they must be the whole
    # columns' verdicts at every block edge, with one block shorter than a
    # delay and the run itself shorter than a delay.
    n = n_of(k)
    traj = swinging_trajectory(canonical_params, canonical_fp, k, n, seed=k + n)
    cert = certificate(canonical_fp, canonical_params)
    tr = stability_trace(traj, cert)
    _, norm_x, v, _, bound = tr.columns(0, n)
    assert np.array_equal(tr.bounded, norm_x**4 <= bound * (1.0 + BOUND_RTOL))
    assert np.array_equal(tr.razumikhin_ok, razumikhin_mask(v, k))
    if n > k:
        assert tr.razumikhin_ok[k:].any() and not tr.razumikhin_ok.all()
        assert tr.bounded.any() and not tr.bounded.all()


@pytest.mark.parametrize("k", TRACE_KS)
def test_stability_trace_razumikhin_window_is_one_delay_at_block_edges(canonical_params,
                                                                      canonical_fp, k):
    # V falls by a factor rho per sample, with rho^(k-1) < RAZUMIKHIN_P <
    # rho^k: the history test fails exactly where the window holds the
    # sample one full delay back, k samples on, in every block.  A window
    # one sample short at a block edge passes there.
    n = 2 * trace_block(k) + 1
    rho = RAZUMIKHIN_P ** (1.0 / (k - 0.5))
    x1 = 1e-2 * rho ** (-0.5 * np.arange(n))  # x2 = 0, so V = (d1/2) x1^2
    traj = sampled_trajectory(canonical_params, canonical_fp, k, x1, np.zeros(n))
    tr = stability_trace(traj, certificate(canonical_fp, canonical_params))
    assert np.array_equal(tr.razumikhin_ok, np.arange(n) < k)


def test_stability_trace_working_memory_is_a_block_plus_a_delay(canonical_params, canonical_fp):
    # The canonical run's length and step: beyond the two verdicts it
    # returns, the pass holds one block's columns and temporaries and one
    # delay of V, a few hundred kB here.  Holding V whole, or the Razumikhin
    # mask's maxima at full length, costs about 8 MB.
    n, k = 256_001, 64
    traj = swinging_trajectory(canonical_params, canonical_fp, k, n)
    cert = certificate(canonical_fp, canonical_params)
    tracemalloc.start()
    try:
        tr = stability_trace(traj, cert)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak - tr.bounded.nbytes - tr.razumikhin_ok.nbytes <= 1 << 20


def test_diagnostic_trace_holds_records_not_functions(canonical_params, canonical_fp):
    # The trace keeps the trajectory and the certificate, and forms its
    # table from them; the trajectory keeps no time column.
    cert, _, traj = in_basin_trace(canonical_params, canonical_fp)
    tr = stability_trace(traj, cert)
    assert not any(callable(getattr(tr, f.name)) for f in dataclasses.fields(tr))
    assert tr.traj is traj and tr.cert is cert
    assert "t" not in {f.name for f in dataclasses.fields(Trajectory)}


def test_diagnostic_trace_csv(tmp_path, canonical_params, canonical_fp):
    cert, start, traj = in_basin_trace(canonical_params, canonical_fp)
    tr = stability_trace(traj, cert)
    path = tmp_path / "diag.csv"
    tr.write_csv(path)
    lines = path.read_text(encoding="utf-8").splitlines()
    assert lines[0] == "t,norm_x,V,Vdot,bound"
    assert len(lines) == len(tr.t) + 1
    row = [float(v) for v in lines[1].split(",")]
    assert row == [float(col[0]) for col in tr.columns(0, 1)]
    assert_same_text(path.read_text(encoding="utf-8"),
                     per_row_csv("t,norm_x,V,Vdot,bound", tr.columns(0, len(tr.t))))


def test_diagnostic_trace_csv_by_repr(tmp_path, python_format, canonical_params, canonical_fp):
    test_diagnostic_trace_csv(tmp_path, canonical_params, canonical_fp)


def test_convergence_bound_shape(canonical_params, canonical_fp):
    cert = certificate(canonical_fp, canonical_params)
    v0 = 1.0
    at_start = convergence_bound(0.0, v0, cert)
    assert at_start == pytest.approx(v0 / cert.eps1, rel=1e-12)
    t = np.linspace(0.0, 1e6, 101)
    b = convergence_bound(t, v0, cert)
    assert np.all(np.diff(b) < 0.0)
    assert convergence_bound(1e22, v0, cert) < 1e-12 * v0 / cert.eps1
    with pytest.raises(ValueError, match="before t = 0"):
        convergence_bound(-1.0, v0, cert)
    with pytest.raises(ValueError):
        convergence_bound(0.0, 0.0, cert)


def test_basin_delta_frozen_and_monotone(canonical_params, canonical_fp):
    cert = certificate(canonical_fp, canonical_params)
    eps = 0.01 * canonical_fp.w_hat
    assert basin_delta(eps, cert) == pytest.approx(CANONICAL_BASIN_DELTA, rel=1e-12)
    assert basin_delta(eps, cert) == eps * eps * math.sqrt(cert.eps1 / cert.eps0)
    assert basin_delta(2.0 * eps, cert) > basin_delta(eps, cert)
    with pytest.raises(ValueError):
        basin_delta(0.0, cert)


def test_loglog_slope_recovers_power_law():
    x = np.logspace(-3, 0, 20)
    assert loglog_slope(x, 3.0 * x**2) == pytest.approx(2.0, rel=1e-12)
