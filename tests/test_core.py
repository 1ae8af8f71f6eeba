import math

import pytest
from hypothesis import given, strategies as st

from tcpfluid import (
    CUBIC,
    RENO,
    FlowState,
    SystemParams,
    cbrt,
    cubic_fixed_point,
    fluid_rhs,
    loss_probability,
)


def test_cbrt_matches_real_cube_root():
    assert cbrt(27.0) == 3.0
    assert cbrt(-8.0) == -2.0
    assert cbrt(0.0) == 0.0
    assert math.isclose(cbrt(2.0) ** 3, 2.0, rel_tol=1e-15)


@given(st.floats(min_value=1e-6, max_value=1e12))
def test_cbrt_is_odd(x):
    assert cbrt(-x) == -cbrt(x)


def test_system_params_validation():
    with pytest.raises(ValueError):
        SystemParams(capacity=0.0, tau=1.0, b=0.2, c=0.4)
    with pytest.raises(ValueError):
        SystemParams(capacity=10.0, tau=-1.0, b=0.2, c=0.4)
    with pytest.raises(ValueError):
        SystemParams(capacity=10.0, tau=1.0, b=1.0, c=0.4)
    with pytest.raises(ValueError):
        SystemParams(capacity=10.0, tau=1.0, b=0.0, c=0.4)
    with pytest.raises(ValueError):
        SystemParams(capacity=10.0, tau=1.0, b=0.2, c=0.0)
    with pytest.raises(ValueError):
        SystemParams(capacity=10.0, tau=1.0, b=0.2, c=0.4, flows=0)
    with pytest.raises(ValueError, match="finite"):
        SystemParams(capacity=math.inf, tau=1.0, b=0.2, c=0.4)
    with pytest.raises(ValueError, match="overflows"):
        SystemParams(capacity=1e300, tau=1e10, b=0.2, c=0.4)


def test_bdp_is_capacity_times_delay(canonical_params):
    assert canonical_params.bdp == 125.0


def test_loss_probability_examples(unit_params):
    bdp = unit_params.bdp
    assert loss_probability(bdp, unit_params) == 0.0
    assert loss_probability(2.0 * bdp, unit_params) == 0.5
    assert loss_probability(0.5 * bdp, unit_params) == 0.0
    assert loss_probability(1e12, unit_params) == pytest.approx(1.0, rel=1e-10)
    with pytest.raises(ValueError):
        loss_probability(0.0, unit_params)
    with pytest.raises(ValueError):
        loss_probability(-3.0, unit_params)


@given(st.floats(min_value=1e-3, max_value=1e9))
def test_window_times_p_equals_clipped_excess(w):
    # W * p and max(W - C tau, 0) agree up to rounding of the single division.
    params = SystemParams(capacity=10.0, tau=1.0, b=0.2, c=0.4)
    lhs = w * loss_probability(w, params)
    rhs = max(w - params.bdp, 0.0)
    assert math.isclose(lhs, rhs, rel_tol=1e-12, abs_tol=1e-12 * w)


def test_reset_restarts_epoch_clock():
    assert RENO.reset(16.0) == FlowState(16.0, 0.0)
    assert CUBIC.reset(100.0) == FlowState(100.0, 0.0)
    with pytest.raises(ValueError):
        RENO.reset(0.0)


def test_fluid_rhs_hand_computed(unit_params):
    # Reno window of (20, 5) is 15; delayed rate 15 * 0.5 / 1 = 7.5.
    dw_max, ds = fluid_rhs(FlowState(20.0, 5.0), 15.0, 0.5, unit_params, RENO)
    assert dw_max == -(20.0 - 15.0) * 7.5
    assert ds == 1.0 - 5.0 * 7.5


def test_fluid_rhs_zero_rate_freezes_w_max(unit_params):
    dw_max, ds = fluid_rhs(FlowState(20.0, 5.0), 8.0, 0.0, unit_params, RENO)
    assert dw_max == 0.0
    assert ds == 1.0


def test_fluid_rhs_validates_delayed_terms(unit_params):
    with pytest.raises(ValueError):
        fluid_rhs(FlowState(20.0, 5.0), 0.0, 0.5, unit_params, RENO)
    with pytest.raises(ValueError):
        fluid_rhs(FlowState(20.0, 5.0), 15.0, 1.5, unit_params, RENO)
    with pytest.raises(ValueError):
        fluid_rhs(FlowState(20.0, 5.0), 15.0, -0.1, unit_params, RENO)


def test_fluid_rhs_vanishes_at_cubic_fixed_point(canonical_params, canonical_fp):
    fp = canonical_fp
    state = FlowState(fp.w_hat, fp.s_hat)
    dw_max, ds = fluid_rhs(state, fp.w_hat, fp.p_hat, canonical_params, CUBIC)
    assert abs(dw_max) < 1e-9 * fp.w_hat
    assert abs(ds) < 1e-9
