import math

import numpy as np
import pytest
from hypothesis import example, given, strategies as st

from tcpfluid import (
    CUBIC,
    RENO,
    FlowState,
    SystemParams,
    loss_rate,
    window_function,
)
from tcpfluid.protocols import FROZEN
from tcpfluid.core import cbrt, rhs_about
from oracles import cubic_deficit, from_shifted, shifted_cubic_window


def test_reno_window_examples():
    p = SystemParams(capacity=10.0, tau=1.0, b=0.2, c=0.4)
    assert RENO.window(FlowState(2.0, 0.0), p) == 1.0
    assert RENO.window(FlowState(2.0, 1.0), p) == 2.0
    p_half = SystemParams(capacity=10.0, tau=0.5, b=0.2, c=0.4)
    assert RENO.window(FlowState(10.0, 2.0), p_half) == 9.0


def test_cubic_window_examples(unit_params):
    # Fresh epoch starts at the reduced window (1 - b) * w_max.
    assert CUBIC.window(FlowState(100.0, 0.0), unit_params) == pytest.approx(
        80.0, rel=1e-12
    )
    # At the inflection age the window recovers exactly its pre-loss size.
    k_age = cbrt(100.0 * unit_params.b / unit_params.c)
    assert CUBIC.window(FlowState(100.0, k_age), unit_params) == pytest.approx(
        100.0, rel=1e-12
    )


def test_frozen_window_ignores_age(unit_params):
    assert FROZEN.window(FlowState(15.0, 0.0), unit_params) == 15.0
    assert FROZEN.window(FlowState(15.0, 9.9), unit_params) == 15.0


@given(
    st.floats(min_value=1e-3, max_value=1e6),
    st.floats(min_value=0.05, max_value=0.95),
    st.floats(min_value=0.05, max_value=5.0),
)
def test_cubic_window_recovers_w_max_at_inflection(w_max, b, c):
    params = SystemParams(capacity=10.0, tau=1.0, b=b, c=c)
    age = cbrt(w_max * b / c)
    assert math.isclose(
        CUBIC.window(FlowState(w_max, age), params), w_max, rel_tol=1e-12
    )


@given(
    st.sampled_from([RENO, CUBIC, FROZEN]),
    st.floats(min_value=1e-2, max_value=1e4),
    st.floats(min_value=0.0, max_value=20.0),
    st.floats(min_value=0.0, max_value=20.0),
)
def test_coefficients_expand_the_window(fn, w_max, s, x):
    # The cubic in the offset x reproduces the window at s + x, and its
    # constant term is the window at s itself, bit for bit.
    params = SystemParams(capacity=10.0, tau=0.5, b=0.2, c=0.4)
    a0, a1, a2, a3 = fn.coefficients(FlowState(w_max, s), params)
    assert a0 == fn.window(FlowState(w_max, s), params)
    direct = fn.window(FlowState(w_max, s + x), params)
    expanded = a0 + x * (a1 + x * (a2 + x * a3))
    # CUBIC expansions cancel near the plateau: compare on the scale of
    # the largest term.
    scale = max(abs(a0), abs(a1 * x), abs(a2 * x * x), abs(a3 * x**3))
    assert abs(expanded - direct) <= 1e-12 * scale


def test_loss_reset_examples(unit_params):
    # Right after a loss indication the epoch clock restarts at s = 0.
    state = FlowState(100.0, 0.0)
    assert CUBIC.window(state, unit_params) == pytest.approx(80.0, rel=1e-12)
    assert RENO.window(state, unit_params) == 50.0
    assert FROZEN.window(state, unit_params) == 100.0


def test_window_function_lookup():
    assert window_function("reno") is RENO
    assert window_function("cubic") is CUBIC
    assert window_function("frozen") is FROZEN
    with pytest.raises(ValueError):
        window_function("bbr")


def test_shifted_round_trip(canonical_fp):
    x = (0.25, -0.125)
    state = from_shifted(x, canonical_fp)
    assert (state.w_max - canonical_fp.w_hat, state.s - canonical_fp.s_hat) == x


def test_shifted_window_matches_direct(unit_params, unit_fp, canonical_params, canonical_fp):
    rng = np.random.default_rng(7)
    for params, fp in ((unit_params, unit_fp), (canonical_params, canonical_fp)):
        for _ in range(500):
            x = (rng.uniform(-0.05, 0.05), rng.uniform(-0.05, 0.05))
            direct = CUBIC.window(from_shifted(x, fp), params)
            assert math.isclose(
                shifted_cubic_window(x, fp, params), direct, rel_tol=1e-12
            )


def test_shifted_rhs_is_zero_at_origin(canonical_params, canonical_fp):
    fp = canonical_fp
    ref = FlowState(fp.w_hat, fp.s_hat)
    dx1, dx2, _ = rhs_about(ref, canonical_params, CUBIC)(
        0.0, 0.0, loss_rate(fp.w_hat, canonical_params))
    assert dx1 == 0.0
    assert abs(dx2) < 1e-9


def test_cubic_deficit_is_total(canonical_fp, canonical_params):
    # Integrator stages can carry w_max <= 0 for a moment, where log1p is
    # undefined; the deficit falls back to the plain cube root there.
    ref = FlowState(canonical_fp.w_hat, canonical_fp.s_hat)
    for x1 in (-canonical_fp.w_hat, -2.0 * canonical_fp.w_hat):
        direct = CUBIC.window(FlowState(canonical_fp.w_hat + x1, canonical_fp.s_hat),
                              canonical_params)
        got = canonical_fp.w_hat + x1 - CUBIC.deficit_about(ref, canonical_params)(x1, 0.0)
        assert math.isclose(got, direct, rel_tol=1e-12, abs_tol=1e-9)


@given(
    w_ref=st.floats(min_value=1e-3, max_value=1e6),
    s_ref=st.floats(min_value=0.0, max_value=100.0),
    r=st.floats(min_value=-3.0, max_value=3.0),
    x2=st.floats(min_value=-10.0, max_value=10.0),
    b=st.floats(min_value=0.01, max_value=0.99),
    c=st.floats(min_value=0.01, max_value=10.0),
)
@example(w_ref=20.0, s_ref=5.0, r=-1.0, x2=0.0, b=0.2, c=0.4)  # the r <= -1 branch
@example(w_ref=20.0, s_ref=5.0, r=-2.5, x2=0.3, b=0.2, c=0.4)
def test_deficit_about_matches_per_call_formula(w_ref, s_ref, r, x2, b, c):
    # The prepared closures are the per-call deficits, bit for bit: CUBIC's
    # against the formula that recomputed K_ref on every call, Reno's and
    # frozen's (the default closure) against w_max - window.
    params = SystemParams(capacity=10.0, tau=1.0, b=b, c=c)
    ref = FlowState(w_ref, s_ref)
    x1 = r * w_ref
    got = CUBIC.deficit_about(ref, params)(x1, x2)
    assert got.hex() == cubic_deficit(x1, x2, ref, params).hex()
    for fn in (RENO, FROZEN):
        w_max = w_ref + x1
        want = w_max - fn.window(FlowState(w_max, s_ref + x2), params)
        assert fn.deficit_about(ref, params)(x1, x2).hex() == want.hex()


def test_shifted_rhs_equals_fluid_rhs(unit_params, unit_fp):
    # The RHS is one function of the state, whatever point it is measured
    # from: about the fixed point it matches the plain model, -(w_max - W)
    # * rate and 1 - s * rate with W from ``window``.  O(1) scales keep both
    # routes conditioned, so agreement is demanded at near-machine level.
    params, fp = unit_params, unit_fp
    ref = FlowState(fp.w_hat, fp.s_hat)
    rng = np.random.default_rng(20240817)
    for fn in (RENO, CUBIC, FROZEN):
        for _ in range(700):
            x = (rng.uniform(-0.05, 0.05), rng.uniform(-0.05, 0.05))
            rate = rng.uniform(0.0, 2.0)
            dx1, dx2, deficit = rhs_about(ref, params, fn)(*x, rate)
            state = from_shifted(x, fp)
            plain = state.w_max - fn.window(state, params)
            assert math.isclose(deficit, plain, rel_tol=1e-12, abs_tol=1e-12)
            assert math.isclose(dx1, -plain * rate, rel_tol=1e-12, abs_tol=1e-12)
            assert math.isclose(dx2, 1.0 - state.s * rate, rel_tol=1e-12, abs_tol=1e-12)
