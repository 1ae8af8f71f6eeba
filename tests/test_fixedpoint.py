import math

import pytest
from hypothesis import given, settings, strategies as st

from tcpfluid import (
    CUBIC,
    FlowState,
    SolverError,
    SystemParams,
    cubic_fixed_point,
    loss_rate,
    reno_steady_state,
)
from tcpfluid.cli import main
from tcpfluid.core import rhs_about
from oracles import bracket_sign_changes, cubic_w_of_p, reno_fixed_point, root_within_ulps

# Frozen outputs, cross-checked against the plain-bisection oracle below
# when first recorded.  Any solver regression shows up as a digit change.
CANONICAL = (125.00251982516785, 3.9685292962287955, 2.0158194981800825e-05)
UNIT = (10.574023806064446, 1.7420880274218602, 0.05428622221705515)
GBIT = (125.00025198404066, 3.9685052965835816, 2.015868261540099e-06)
LONG_DELAY = (12500.005428834447, 18.420160159867823, 4.343065671541524e-07)


def bisect_oracle(params, iters=200):
    """Plain bisection on the equilibrium window equation, no refinements."""
    rhs = params.tau**3 * params.c / params.b

    def g(w):
        return w * (w - params.bdp) ** 3 - rhs

    lo, hi = params.bdp, params.bdp + 1.0
    while g(hi) < 0.0:
        hi *= 2.0
    for _ in range(iters):
        mid = 0.5 * (lo + hi)
        if mid <= lo or mid >= hi:
            break
        if g(mid) >= 0.0:
            hi = mid
        else:
            lo = mid
    return hi


@pytest.mark.parametrize(
    "capacity,tau,frozen",
    [
        (12500.0, 0.01, CANONICAL),
        (10.0, 1.0, UNIT),
        (125000.0, 0.001, GBIT),
        (125000.0, 0.1, LONG_DELAY),
    ],
)
def test_cubic_fixed_point_frozen_values(capacity, tau, frozen):
    params = SystemParams(capacity=capacity, tau=tau, b=0.2, c=0.4)
    fp = cubic_fixed_point(params)
    assert fp.w_hat == frozen[0]
    assert fp.s_hat == frozen[1]
    assert fp.p_hat == pytest.approx(frozen[2], rel=1e-9)


def test_cubic_fixed_point_against_bisection_oracle(canonical_params, canonical_fp):
    assert canonical_fp.w_hat == pytest.approx(
        bisect_oracle(canonical_params), rel=1e-10
    )


def test_cubic_fixed_point_identities(canonical_params, canonical_fp):
    fp = canonical_fp
    params = canonical_params
    rhs = params.tau**3 * params.c / params.b
    assert fp.w_hat > params.bdp
    residual = abs(fp.w_hat * (fp.w_hat - params.bdp) ** 3 - rhs) / rhs
    assert residual < 1e-10
    # Throughput consistency: one packet served per unit time at equilibrium.
    assert abs(fp.s_hat * fp.w_hat * fp.p_hat / params.tau - 1.0) < 1e-12
    # The equilibrium age is the inflection age of the equilibrium window.
    assert fp.s_hat == pytest.approx(
        (fp.w_hat * params.b / params.c) ** (1.0 / 3.0), rel=1e-12
    )


@settings(max_examples=300, deadline=None)
@given(
    st.floats(min_value=-6.0, max_value=12.0),
    st.floats(min_value=-6.0, max_value=3.0),
    st.floats(min_value=-6.0, max_value=math.log10(0.999)),
    st.floats(min_value=-9.0, max_value=49.0),
)
def test_fixed_point_within_4_ulps_of_exact_root(log_c_pkts, log_tau, log_b, log_c):
    params = SystemParams(capacity=10**log_c_pkts, tau=10**log_tau, b=10**log_b, c=10**log_c)
    try:
        fp = cubic_fixed_point(params)
    except SolverError:
        # Only a root that rounds onto the bandwidth-delay product, where
        # p_hat = 1 - bdp / w_hat is not positive, may fail in this range.
        assert root_within_ulps(params.bdp, params, 4)
        return
    assert root_within_ulps(fp.w_hat, params, 4)


def test_cli_solves_a_root_far_right_of_the_bdp(tmp_path):
    # w_hat is 2.7e12 against a bandwidth-delay product of 1.
    rc = main(["fixed-point", "--capacity-pkts", "1", "--delay-tau", "1", "--c", "1e49",
               "--out", str(tmp_path / "out")])
    assert rc == 0
    summary = (tmp_path / "out" / "summary.txt").read_text(encoding="utf-8")
    w_hat = float(summary.split("w_hat: ", 1)[1].split("\n", 1)[0])
    assert root_within_ulps(w_hat, SystemParams(capacity=1.0, tau=1.0, b=0.2, c=1e49), 4)


def test_fixed_point_with_zero_bdp():
    # The bandwidth-delay product underflows to 0.0, leaving w^4 = tau^3 c / b.
    params = SystemParams(capacity=5e-324, tau=0.5, b=0.2, c=0.4)
    assert params.bdp == 0.0
    fp = cubic_fixed_point(params)
    assert root_within_ulps(fp.w_hat, params, 4)
    assert fp.p_hat == 1.0


def test_cubic_w_of_p_scaling(canonical_params):
    # The response function is a -3/4 power law in p.
    w1 = cubic_w_of_p(1e-4, canonical_params)
    w2 = cubic_w_of_p(5e-5, canonical_params)
    assert w2 / w1 == pytest.approx(2.0**0.75, rel=1e-12)
    with pytest.raises(ValueError):
        cubic_w_of_p(0.0, canonical_params)


def test_cubic_w_of_p_inverts_fixed_point(canonical_fp, canonical_params):
    assert cubic_w_of_p(canonical_fp.p_hat, canonical_params) == pytest.approx(
        canonical_fp.w_hat, rel=1e-9
    )


def test_reno_fixed_point_examples():
    assert reno_fixed_point(0.5) == 2.0
    assert reno_fixed_point(2.0 / 9.0) == pytest.approx(3.0, rel=1e-12)
    with pytest.raises(ValueError):
        reno_fixed_point(0.0)
    with pytest.raises(ValueError):
        reno_fixed_point(1.5)


def test_reno_steady_state_identities(canonical_params):
    fp = reno_steady_state(canonical_params)
    assert fp.w_hat * (fp.w_hat - canonical_params.bdp) == pytest.approx(
        2.0, rel=1e-12
    )
    assert fp.s_hat == 0.5 * canonical_params.tau * fp.w_hat
    assert fp.p_hat == pytest.approx(1.0 - canonical_params.bdp / fp.w_hat, rel=1e-9)
    assert abs(fp.s_hat * fp.w_hat * fp.p_hat / canonical_params.tau - 1.0) < 1e-12
    assert fp.w_hat == pytest.approx(reno_fixed_point(fp.p_hat), rel=1e-12)


def test_bracket_sign_changes_reports_unique_root(canonical_params):
    changes, (lo, hi) = bracket_sign_changes(canonical_params)
    assert changes == 1
    assert lo < hi


@settings(max_examples=60, deadline=None)
@given(
    st.floats(min_value=math.log(10 ** -1.5), max_value=0.0),
    st.floats(min_value=math.log(10 ** 0.5), max_value=math.log(10 ** 2.5)),
    st.floats(min_value=0.1, max_value=0.9),
    st.floats(min_value=0.1, max_value=4.0),
)
def test_fixed_point_well_conditioned_domain(log_tau, log_bdp, b, c):
    # Conditioning bound: the consistency residual amplifies window rounding
    # by w / (w - bdp), which this domain keeps under ~1e6.
    tau = math.exp(log_tau)
    bdp = math.exp(log_bdp)
    params = SystemParams(capacity=bdp / tau, tau=tau, b=b, c=c)
    fp = cubic_fixed_point(params)
    rhs = tau**3 * c / b
    assert fp.w_hat > bdp
    assert abs(fp.w_hat * (fp.w_hat - bdp) ** 3 - rhs) / rhs < 1e-10
    assert abs(fp.s_hat * fp.w_hat * fp.p_hat / tau - 1.0) < 1e-9
    rate = loss_rate(fp.w_hat, params)
    dx1, dx2, _ = rhs_about(FlowState(fp.w_hat, fp.s_hat), params, CUBIC)(0.0, 0.0, rate)
    assert math.hypot(dx1, dx2) < 1e-9
