import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from tcpfluid import (
    CUBIC,
    RENO,
    FlowState,
    SystemParams,
    cubic_fixed_point,
    loss_probability,
    loss_rate,
)
from tcpfluid.core import cbrt, rhs_about


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


def test_fluid_rhs_hand_computed(unit_params):
    # Reno window of (20, 5) is 15, a deficit of 5; delayed rate 7.5.  The
    # state is the deviation (2, -1) from the reference (18, 6).
    dx1, dx2, deficit = rhs_about(FlowState(18.0, 6.0), unit_params, RENO)(2.0, -1.0, 7.5)
    assert deficit == 5.0
    assert dx1 == -(20.0 - 15.0) * 7.5
    assert dx2 == 1.0 - 5.0 * 7.5


def test_fluid_rhs_zero_rate_freezes_w_max(unit_params):
    dx1, dx2, _ = rhs_about(FlowState(20.0, 5.0), unit_params, RENO)(0.0, 0.0, 0.0)
    assert dx1 == 0.0
    assert dx2 == 1.0


@given(st.floats(allow_nan=True, allow_infinity=True))
def test_loss_rate_is_never_negative_or_nan(w):
    # The prepared RHS takes the delayed rate unchecked: every rate the
    # integrator hands it comes from loss_rate, which must keep it >= 0.
    params = SystemParams(capacity=10.0, tau=1.0, b=0.2, c=0.4)
    assert loss_rate(w, params) >= 0.0


def test_fluid_rhs_vanishes_at_cubic_fixed_point(canonical_params, canonical_fp):
    # About the fixed point the CUBIC deficit is exactly zero, so dx1 is too.
    fp = canonical_fp
    rate = loss_rate(fp.w_hat, canonical_params)
    ref = FlowState(fp.w_hat, fp.s_hat)
    dx1, dx2, deficit = rhs_about(ref, canonical_params, CUBIC)(0.0, 0.0, rate)
    assert deficit == 0.0 and dx1 == 0.0
    assert abs(dx2) < 1e-9


def test_loss_rate_is_the_clipped_excess(unit_params):
    bdp = unit_params.bdp
    assert loss_rate(bdp, unit_params) == 0.0
    assert loss_rate(0.5 * bdp, unit_params) == 0.0
    assert loss_rate(3.0 * bdp, unit_params) == 2.0 * bdp / unit_params.tau


def test_loss_probability_takes_arrays(unit_params):
    w = np.array([0.5, 1.0, 2.0, 4.0]) * unit_params.bdp
    assert np.array_equal(loss_probability(w, unit_params),
                          [loss_probability(float(v), unit_params) for v in w])
    with pytest.raises(ValueError):
        loss_probability(np.array([1.0, 0.0]), unit_params)
