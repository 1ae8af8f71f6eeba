import dataclasses
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from scipy import integrate as sp_integrate
from scipy import optimize, stats

import tcpfluid.nhpl as nhpl
from tcpfluid import (
    CUBIC,
    RENO,
    Event,
    RngStream,
    SystemParams,
    WindowFunction,
    _rk4,
    artifacts,
    cubic_fixed_point,
    run_simulation,
)
from tcpfluid.nhpl import (SimState, compute_T, excess_poly, generate_poi_loss,
                           pick_losing_flow, t_bdp)
from tcpfluid.protocols import FROZEN
from oracles import (assert_same_text, event_columns, exact_candidate, inter_loss_times,
                     scalar_render_trace)


class FakeRng:
    """Scripted uniform stream for walking the event loop draw by draw."""

    def __init__(self, values):
        self.values = list(values)
        self.consumed = 0

    def uniform(self):
        assert self.values, "scripted rng exhausted"
        self.consumed += 1
        return self.values.pop(0)


def candidate(state, t0, u):
    # compute_T from the anchor t0 with u as the one draw it may take.
    state.rng = FakeRng([u])
    return compute_T(state, t0)


def crossing(state, t):
    # Absolute time of the aggregate window's bdp crossing from t, inf if none.
    x = t_bdp(excess_poly(state, t), state.lookahead)
    return math.inf if x is None else t + x


def aggregate_window(state, t):
    # Window-function oracle for the sampler's summed coefficients.
    return sum(state.flow_window(f, t) for f in range(len(state.w_loss)))


def frozen_state(w0=15.0, capacity=100.0, tau=0.1, rng=None, lookahead=50.0):
    # Constant window w0 against bdp = capacity * tau: a homogeneous Poisson
    # process with rate (w0 - bdp) / tau whenever w0 clears the bdp.
    params = SystemParams(capacity=capacity, tau=tau, b=0.2, c=0.4)
    state = SimState(
        params, FROZEN, [(w0, 0.0)], rng or RngStream(0), lookahead
    )
    return params, state


def test_rng_stream_validates_and_repeats():
    with pytest.raises(ValueError):
        RngStream(-1)
    with pytest.raises(ValueError):
        RngStream(2**64)
    # Non-integers are rejected, not truncated to a neighbouring seed.
    for seed in (2.9, "2", None):
        with pytest.raises(ValueError, match="seed"):
            RngStream(seed)
    assert RngStream(np.uint64(2**64 - 1)).seed == 2**64 - 1
    a = RngStream(7)
    b = RngStream(7)
    draws = [a.uniform() for _ in range(100)]
    assert draws == [b.uniform() for _ in range(100)]
    assert all(0.0 < u < 1.0 for u in draws)


def test_inverse_transform_constant_rate_is_exact():
    # Window 10.2 against bdp 10 at tau 0.1 is rate 2; u = e^-1 puts the
    # root at exactly T = 1/2.
    _, state = frozen_state(w0=10.2)
    t = candidate(state, 0.0, math.exp(-1.0))
    assert t == pytest.approx(0.5, rel=1e-9)


def test_inverse_transform_mean_matches_exponential():
    # Frozen window 15 against bdp 10 at tau 0.1: every candidate is an
    # Exp(50) draw measured from t = 0.
    _, state = frozen_state()
    rng = RngStream(123)
    n = 20000
    total = 0.0
    for _ in range(n):
        total += candidate(state, 0.0, rng.uniform())
    mean = total / n
    se = (1.0 / 50.0) / math.sqrt(n)
    assert abs(mean - 1.0 / 50.0) < 3.0 * se


def test_inverse_transform_zero_rate_returns_none():
    # A window sitting exactly on the bdp has rate 0 over the whole lookahead.
    _, state = frozen_state(w0=10.0, lookahead=100.0)
    assert candidate(state, 0.0, 0.5) is None


def test_inverse_transform_validates_u():
    _, state = frozen_state()
    with pytest.raises(ValueError):
        candidate(state, 0.0, 0.0)
    with pytest.raises(ValueError):
        candidate(state, 0.0, 1.0)


def test_compute_t_constant_rate_reduction():
    _, state = frozen_state()
    # Rate is (15 - 10) / 0.1 = 50; the candidate lands at -ln(u) / 50.
    t = candidate(state, 0.0, math.exp(-5.0))
    assert t == pytest.approx(0.1, rel=1e-9)


def test_compute_t_n_identical_flows_triple_the_rate():
    params = SystemParams(capacity=100.0, tau=0.1, b=0.2, c=0.4, flows=3)
    state = SimState(
        params, FROZEN, [(15.0, 0.0)] * 3, RngStream(0), 50.0
    )
    u = math.exp(-3.0)
    _, single = frozen_state()
    t1 = candidate(single, 0.0, u)
    t3 = candidate(state, 0.0, u)
    assert t3 == pytest.approx(t1 / 3.0, rel=1e-9)


def test_compute_t_reno_epoch_matches_quadrature_oracle():
    # One Reno flow mid-epoch; scipy quadrature plus a root finder give an
    # independent answer for the same inverse-transform problem.
    params = SystemParams(capacity=100.0, tau=0.1, b=0.2, c=0.4)
    state = SimState(params, RENO, [(16.0, 0.25)], RngStream(0), 50.0)
    u = 0.37
    t = candidate(state, 0.0, u)

    def rate(offset):
        w = 0.5 * 16.0 + (0.25 + offset) / params.tau
        return max(w - params.bdp, 0.0) / params.tau

    def integral_minus_target(T):
        val, _ = sp_integrate.quad(rate, 0.0, T, epsabs=1e-13, epsrel=1e-13)
        return val + math.log(u)

    T_oracle = optimize.brentq(integral_minus_target, 1e-9, 10.0, xtol=1e-13)
    # Start of integration is the epoch age 0.25 of an epoch begun at -0.25.
    assert t == pytest.approx(T_oracle, rel=1e-8)


def test_compute_t_none_when_rate_stays_zero():
    _, state = frozen_state(w0=5.0, lookahead=10.0)
    assert candidate(state, 0.0, 0.5) is None


def test_t_bdp_returns_now_when_already_crossed():
    _, state = frozen_state(w0=15.0)
    assert crossing(state, 3.0) == 3.0


def test_t_bdp_linear_crossing_is_exact():
    # Reno from (2, 0): W(t) = 1 + t / tau crosses bdp = 3 at exactly 2 tau.
    params = SystemParams(capacity=30.0, tau=0.1, b=0.2, c=0.4)
    state = SimState(params, RENO, [(2.0, 0.0)], RngStream(0), 50.0)
    assert crossing(state, 0.0) == pytest.approx(2.0 * params.tau, rel=1e-9)


def test_t_bdp_never_crossing_is_inf():
    _, state = frozen_state(w0=5.0, lookahead=10.0)
    assert crossing(state, 0.0) == math.inf


def test_t_bdp_staggered_flows_agrees_with_scan():
    params = SystemParams(capacity=100.0, tau=0.1, b=0.2, c=0.4, flows=3)
    state = SimState(
        params,
        CUBIC,
        [(6.0, 0.0), (8.0, 0.1), (7.0, 0.3)],
        RngStream(1),
        100.0,
    )
    threshold = 3 * params.bdp
    assert aggregate_window(state, 0.0) < threshold
    reach = crossing(state, 0.0)
    step = params.tau / 1000.0
    n = 0
    while aggregate_window(state, n * step) < threshold:
        n += 1
    assert (n - 1) * step <= reach <= n * step


def _integrated_rate(state, t_end):
    # Independent oracle: scipy quadrature of max(sum W - N bdp, 0) / tau
    # from 0 to t_end through the window functions themselves.  The
    # integrand is zero before the aggregate reaches the bdp, so the
    # quadrature starts at that crossing (brentq) and sees no kink.
    params = state.params
    threshold = len(state.w_loss) * params.bdp

    def excess(t):
        return aggregate_window(state, t) - threshold

    lower = 0.0
    if excess(0.0) < 0.0:
        if excess(t_end) <= 0.0:
            return 0.0
        lower = optimize.brentq(excess, 0.0, t_end, xtol=1e-15, rtol=1e-15)
    value, _ = sp_integrate.quad(
        lambda t: max(excess(t), 0.0) / params.tau, lower, t_end,
        epsabs=0.0, epsrel=1e-13, limit=200,
    )
    return value


@settings(max_examples=150, deadline=None)
@given(
    fn=st.sampled_from([FROZEN, RENO, CUBIC]),
    init=st.lists(
        st.tuples(st.floats(1.0, 30.0), st.floats(0.0, 3.0)), min_size=1, max_size=5
    ),
    # Above 1 - 1e-6 the target is so small that one ulp of the crossing
    # time already moves the integral by more than the tolerance.
    u=st.floats(min_value=1e-300, max_value=1.0 - 1e-6),
)
def test_compute_t_inverts_the_integrated_rate(fn, init, u):
    params = SystemParams(capacity=100.0, tau=0.1, b=0.2, c=0.4, flows=len(init))
    state = SimState(params, fn, init, RngStream(0), 50.0)
    # Integration starts at t = 0, where flow f has epoch age s0_f.
    t = candidate(state, 0.0, u)
    if t is None:
        assert _integrated_rate(state, state.lookahead) < -math.log(u)
    else:
        assert 0.0 < t <= state.lookahead
        assert _integrated_rate(state, t) == pytest.approx(-math.log(u), rel=1e-9)


def test_compute_t_starts_at_the_bdp_crossing():
    # Reno from (2, 0): W = 1 + t / tau crosses bdp = 3 at t = 0.2, then the
    # integral (t - 0.2)^2 / (2 tau^2) reaches -ln(u) = 2 at t = 0.4.
    params = SystemParams(capacity=30.0, tau=0.1, b=0.2, c=0.4)
    state = SimState(params, RENO, [(2.0, 0.0)], RngStream(0), 0.5)
    assert candidate(state, 0.0, math.exp(-2.0)) == pytest.approx(0.4, rel=1e-12)


def test_compute_t_none_when_lookahead_ends_first():
    # Same Reno flow, but the integral over the lookahead is only
    # (0.3 - 0.2)^2 / (2 tau^2) = 0.5 < 2.
    params = SystemParams(capacity=30.0, tau=0.1, b=0.2, c=0.4)
    state = SimState(params, RENO, [(2.0, 0.0)], RngStream(0), 0.3)
    assert candidate(state, 0.0, math.exp(-2.0)) is None


def test_t_bdp_cubic_flows_match_brentq():
    params = SystemParams(capacity=100.0, tau=0.1, b=0.2, c=0.4, flows=3)
    state = SimState(
        params, CUBIC, [(6.0, 0.0), (8.0, 0.1), (7.0, 0.3)], RngStream(1), 100.0
    )
    threshold = 3 * params.bdp
    oracle = optimize.brentq(
        lambda t: aggregate_window(state, t) - threshold, 0.0, 100.0,
        xtol=1e-15, rtol=1e-15,
    )
    assert crossing(state, 0.0) == pytest.approx(oracle, rel=1e-12)


@settings(max_examples=200, deadline=None)
@given(
    fn=st.sampled_from([FROZEN, RENO, CUBIC]),
    init=st.lists(
        st.tuples(st.floats(1.0, 30.0), st.floats(0.0, 3.0)), min_size=1, max_size=5
    ),
    anchor=st.floats(0.0, 5.0),
    u=st.floats(1e-12, 1.0 - 1e-6),
)
# A route that summed the coefficients again at the crossing was 56 ulps
# from compute_T here; the exact candidate is 9 ulps from it.
@example(fn=CUBIC, init=[(7.0, 0.0), (3.75, 0.0), (8.75, 0.0), (11.0, 0.0), (19.75, 0.0)],
         anchor=0.0, u=0.5)
def test_compute_t_matches_exact_candidate(fn, init, anchor, u):
    # One excess cubic from the anchor, shifted to its crossing and its
    # integral inverted in floats, against the same cubic's candidate in
    # exact arithmetic.  Over 20,000 hypothesis draws of these inputs the
    # worst gap was 3 ulps, and the None outcomes always agreed.
    params = SystemParams(capacity=100.0, tau=0.1, b=0.2, c=0.4, flows=len(init))
    state = SimState(params, fn, init, RngStream(0), 50.0)
    reference = exact_candidate(state, anchor, u)
    t = candidate(state, anchor, u)
    assert (t is None) == (reference is None)
    if t is not None:
        scale = max(abs(t), anchor, max(abs(lli) for lli in state.llis))
        assert abs(t - reference) <= 16 * math.ulp(scale)


def test_compute_t_draws_nothing_without_a_crossing():
    # Frozen window 5 under bdp 10 never crosses; the Reno flow from (2, 0)
    # crosses at 0.2, after its lookahead of 0.1 ends.
    _, frozen = frozen_state(w0=5.0, rng=FakeRng([]))
    params = SystemParams(capacity=30.0, tau=0.1, b=0.2, c=0.4)
    reno = SimState(params, RENO, [(2.0, 0.0)], FakeRng([]), 0.1)
    for state in (frozen, reno):
        assert compute_T(state, 0.0) is None
        assert state.rng.consumed == 0


@pytest.mark.parametrize(
    "init, t_end, expected",
    [
        # Windows 20.5 and 15 over a bdp of 2 x 10: the excess E0 + 2 t / tau
        # starts at 15.5, and no indication lands before tau.
        ([(40.0, 0.05), (30.0, 0.0)], 0.04, (15.5 * 0.04 + 0.04**2 / 0.1) / 0.1),
        ([(40.0, 0.05), (30.0, 0.0)], 5.0, (15.5 * 0.1 + 0.1**2 / 0.1) / 0.1),
        # Windows 5 and 5 cross the bdp at t = 0.5, and the count runs a
        # delay from there, or to t_end.
        ([(10.0, 0.0), (10.0, 0.0)], 5.0, 0.1**2 / 0.1 / 0.1),
        ([(10.0, 0.0), (10.0, 0.0)], 0.55, 0.05**2 / 0.1 / 0.1),
        ([(10.0, 0.0), (10.0, 0.0)], 0.4, 0.0),
    ],
)
def test_losses_before_indication_match_reno_closed_form(init, t_end, expected):
    # Reno's excess is linear, E(t) = E0 + N t / tau, so the count is
    # (E0 T + N T^2 / (2 tau)) / tau over the T after the bdp crossing.
    params = SystemParams(capacity=100.0, tau=0.1, b=0.2, c=0.4, flows=2)
    count = nhpl.losses_before_indication(params, RENO, init, t_end)
    assert count == pytest.approx(expected, rel=1e-12, abs=1e-12)


def test_one_coefficient_sum_per_candidate(monkeypatch, python_sim):
    calls = {"excess_poly": 0, "compute_T": 0}

    def counted(name):
        fn = getattr(nhpl, name)

        def wrapper(*args):
            calls[name] += 1
            return fn(*args)

        return wrapper

    for name in calls:
        monkeypatch.setattr(nhpl, name, counted(name))
    params = SystemParams(capacity=100.0, tau=0.05, b=0.2, c=0.4, flows=3)
    sim = run_simulation(params, CUBIC, [(20.0, 1.0), (14.0, 0.5), (9.0, 0.0)], 11, 20.0)
    assert calls["compute_T"] > 100
    assert calls["excess_poly"] == calls["compute_T"] == sim.candidates


def test_sim_state_rejects_window_without_coefficients():
    class WindowOnly(WindowFunction):
        def window(self, state, params):
            return state.w_max

    params = SystemParams(capacity=100.0, tau=0.1, b=0.2, c=0.4)
    with pytest.raises(ValueError, match="coefficients"):
        SimState(params, WindowOnly(), [(15.0, 0.0)], RngStream(0), 50.0)


def test_pick_losing_flow_examples():
    assert pick_losing_flow((3.0, 1.0), 0.9) == 1
    assert pick_losing_flow((3.0, 1.0), 0.5) == 0
    assert pick_losing_flow((7.0,), 0.99) == 0
    # Zero-window flows can never be picked.
    assert pick_losing_flow((0.0, 5.0), 1e-9) == 1
    with pytest.raises(ValueError):
        pick_losing_flow((0.0, 0.0), 0.5)
    with pytest.raises(ValueError):
        pick_losing_flow((1.0, -1.0), 0.5)
    with pytest.raises(ValueError):
        pick_losing_flow((1.0, 2.0), 0.0)


def test_pick_losing_flow_frequencies():
    rng = RngStream(42)
    n = 100000
    counts = [0, 0, 0]
    for _ in range(n):
        counts[pick_losing_flow((1.0, 2.0, 3.0), rng.uniform())] += 1
    expected = [n / 6.0, n / 3.0, n / 2.0]
    chi2 = sum((o - e) ** 2 / e for o, e in zip(counts, expected))
    # 1% critical value of chi-square with 2 degrees of freedom.
    assert chi2 < 9.21


def test_generator_single_candidate_with_empty_queue():
    _, state = frozen_state(rng=FakeRng([math.exp(-5.0), 0.5]))
    loss_time = generate_poi_loss(state)
    assert loss_time == pytest.approx(0.1, rel=1e-9)
    assert state.rng.consumed == 2
    assert state.pending == [(loss_time + 0.1, 0)]
    assert list(state.events) == [Event("loss", loss_time, 0, 15.0, 15.0)]
    assert state.t_loss_last == loss_time


def test_generator_keeps_candidate_before_pending_indication():
    _, state = frozen_state(rng=FakeRng([math.exp(-5.0), 0.5]))
    t1 = generate_poi_loss(state)
    state.rng.values = [math.exp(-1.0), 0.9]
    t2 = generate_poi_loss(state)
    # -ln(u)/50 = 0.02 after the last loss, still ahead of the indication.
    assert t2 == pytest.approx(t1 + 0.02, rel=1e-9)
    assert state.rng.consumed == 4
    assert list(state.events) == [Event("loss", t1, 0, 15.0, 15.0),
                                  Event("loss", t2, 0, 15.0, 15.0)]
    assert state.t_loss_last == t2
    assert len(state.pending) == 2


def test_generator_applies_indications_and_regenerates():
    _, state = frozen_state(rng=FakeRng([math.exp(-5.0), 0.5]))
    generate_poi_loss(state)
    state.rng.values = [math.exp(-1.0), 0.9]
    generate_poi_loss(state)
    # First candidate 0.12 + 0.2 lands past both pending indications (0.2,
    # 0.22): each is applied and consumes one fresh draw, then the queue is
    # empty and the third candidate 0.22 + 0.08 = 0.3 survives.
    state.rng.values = [math.exp(-10.0), math.exp(-10.0), math.exp(-4.0), 0.3]
    t3 = generate_poi_loss(state)
    assert state.rng.consumed == 8
    assert t3 == pytest.approx(0.3, rel=1e-9)
    kinds = [(ev.event_type, ev.time, ev.flow) for ev in state.events]
    assert kinds == [
        ("loss", pytest.approx(0.1, rel=1e-9), 0),
        ("loss", pytest.approx(0.12, rel=1e-9), 0),
        ("indication", pytest.approx(0.2, rel=1e-9), 0),
        ("indication", pytest.approx(0.22, rel=1e-9), 0),
        ("loss", t3, 0),
    ]
    # Frozen window: the reset keeps the pre-loss size, only the clock moves.
    assert state.w_loss == [15.0]
    assert state.llis == [pytest.approx(0.22, rel=1e-9)]
    assert len(state.pending) == 1


def test_reno_indication_halves_the_window():
    params = SystemParams(capacity=100.0, tau=0.1, b=0.2, c=0.4)
    state = SimState(params, RENO, [(16.0, 0.25)], FakeRng([0.37, 0.5]), 50.0)
    t1 = generate_poi_loss(state)
    # Next candidate far enough out that the pending indication fires first;
    # regeneration and the flow pick then consume two more draws.
    state.rng.values = [1e-9, 0.5, 0.5]
    generate_poi_loss(state)
    (ind,) = [ev for ev in state.events if ev.event_type == "indication"]
    assert ind.time == t1 + params.tau
    w_before = 0.5 * 16.0 + (ind.time + 0.25) / params.tau
    assert ind.window_before == pytest.approx(w_before, rel=1e-12)
    assert ind.window_after == pytest.approx(0.5 * w_before, rel=1e-12)
    assert state.w_loss == [pytest.approx(w_before, rel=1e-12)]
    assert state.llis == [ind.time]


@pytest.mark.parametrize("fn", [RENO, CUBIC, FROZEN], ids=lambda fn: fn.name)
def test_stepping_the_state_gives_the_run_event_log(fn):
    # generate_poi_loss alone keeps the state: stepped until it finds no
    # loss or one past t_end, its log is run_simulation's up to t_end.
    params = SystemParams(capacity=100.0, tau=0.05, b=0.2, c=0.4, flows=3)
    init, seed, t_end = [(20.0, 1.0), (14.0, 0.5), (9.0, 0.0)], 11, 20.0
    state = SimState(params, fn, init, RngStream(seed), max(1e4 * params.tau, 2.0 * t_end))
    assert state.first == [(-1.0, 20.0), (-0.5, 14.0), (-0.0, 9.0)]
    loss_time = 0.0
    while loss_time is not None and loss_time <= t_end:
        loss_time = generate_poi_loss(state)
    # The loss past t_end is in the state's log too, as the last event.
    assert loss_time > t_end and list(state.events)[-1].time == loss_time
    sim = run_simulation(params, fn, init, seed, t_end)
    assert sim.events.count("loss") > 10
    assert [ev for ev in state.events if ev.time <= t_end] == list(sim.events)


def test_run_simulation_sub_bdp_never_loses():
    params = SystemParams(capacity=100.0, tau=0.1, b=0.2, c=0.4)
    sim = run_simulation(params, FROZEN, [(5.0, 0.0)], 3, 20.0)
    assert len(sim.events) == 0
    assert np.all(sim.windows == 5.0)
    assert (len(sim.windows) - 1) * sim.sample_dt == pytest.approx(20.0)


def test_run_simulation_event_log_is_ordered_and_delayed():
    params = SystemParams(capacity=100.0, tau=0.05, b=0.2, c=0.4, flows=2)
    sim = run_simulation(params, CUBIC, [(20.0, 1.0), (14.0, 0.5)], 11, 60.0)
    times = [ev.time for ev in sim.events]
    assert times == sorted(times)
    losses = [ev for ev in sim.events if ev.event_type == "loss"]
    indications = [ev for ev in sim.events if ev.event_type == "indication"]
    assert losses and indications
    loss_times = [(ev.flow, ev.time) for ev in losses]
    # Every indication is the echo of a loss exactly one delay earlier.
    for ev in indications:
        gaps = [abs(ev.time - params.tau - t) for f, t in loss_times if f == ev.flow]
        assert gaps and min(gaps) < 1e-9
    for ev in losses:
        assert ev.window_before == ev.window_after
    assert all(ev.time <= 60.0 for ev in sim.events)


def staggered_cubic_fixed_point(params):
    """Every flow on the CUBIC fixed point's w_hat, at ages staggered about
    its s_hat."""
    fp = cubic_fixed_point(params)
    return [(fp.w_hat, fp.s_hat * (0.9 + 0.01 * f)) for f in range(params.flows)]


CUBIC_20 = SystemParams(100.0, 0.1, 0.2, 0.4, flows=20)


@pytest.mark.parametrize("loop", ["library", "python"])
@pytest.mark.parametrize("params, fn, init, seed, t_end", [
    (SystemParams(100.0, 0.1, 0.2, 0.4), FROZEN, [(15.0, 0.0)], 2025, 220.0),
    (CUBIC_20, CUBIC, staggered_cubic_fixed_point(CUBIC_20), 7, 100.0),
], ids=["criterion-7", "cubic-20-flows"])
def test_losses_come_in_time_order_and_so_do_their_indications(monkeypatch, loop, params, fn,
                                                               init, seed, t_end):
    # The compiled loop's queue is an array sorted by insertion from its
    # tail, which takes one comparison a push because of this: each loss is
    # found no earlier than its anchor, so loss times never decrease, and
    # the indications, each a loss's (time + tau, flow), are applied in
    # (time, flow) order, every one due by t_end.  With no library both
    # loops are the Python loop.
    if loop == "python":
        monkeypatch.setattr(nhpl, "_kernel", lambda: None)
    sim = run_simulation(params, fn, init, seed, t_end)
    losses = [(ev.time, ev.flow) for ev in sim.events if ev.event_type == "loss"]
    indications = [(ev.time, ev.flow) for ev in sim.events if ev.event_type == "indication"]
    assert len(losses) > 1000
    assert all(a[0] <= b[0] for a, b in zip(losses, losses[1:]))
    due = sorted((t + params.tau, f) for t, f in losses if t + params.tau <= t_end)
    assert indications == due


def test_run_simulation_is_deterministic():
    params = SystemParams(capacity=100.0, tau=0.1, b=0.2, c=0.4)
    a = run_simulation(params, CUBIC, [(15.0, 1.0)], 99, 40.0)
    b = run_simulation(params, CUBIC, [(15.0, 1.0)], 99, 40.0)
    assert event_columns(a.events) == event_columns(b.events)
    assert a.windows.tobytes() == b.windows.tobytes()


def test_run_simulation_trace_layout():
    params = SystemParams(capacity=100.0, tau=0.1, b=0.2, c=0.4, flows=2)
    sim = run_simulation(params, RENO, [(16.0, 0.25), (12.0, 0.0)], 5, 1.0,
                         sample_dt=0.5)
    # Rows come in blocks of flows + 1 per sample time, aggregate last.
    t, flow, w = sim.trace_columns(0, 6)
    assert list(flow) == [0, 1, -1, 0, 1, -1]
    assert list(t) == [0.0, 0.0, 0.0, 0.5, 0.5, 0.5]
    w0 = 0.5 * 16.0 + 0.25 / params.tau
    w1 = 0.5 * 12.0
    assert w[0] == pytest.approx(w0, rel=1e-12)
    assert w[1] == pytest.approx(w1, rel=1e-12)
    assert w[2] == pytest.approx(0.5 * (w0 + w1), rel=1e-12)


# Nine flows: numpy sums eight or more terms pairwise, so an aggregate that
# is not added up flow by flow, in flow order, changes bits.
RENDER_INIT = [(16.0, 0.25), (12.0, 0.0), (9.0, 0.7), (14.0, 0.1), (11.0, 0.4),
               (13.0, 0.0), (10.5, 0.9), (15.0, 0.5), (8.0, 0.2)]


def simulate_recording_epochs(monkeypatch, fn, init, t_end, sample_dt):
    """run_simulation on seed 3, and each flow's epochs (start, w_loss) as
    the sampler's own state holds them after every indication it applies,
    past t_end too; nothing is read from the event log.  The Python loop
    must run (``python_sim``), since the compiled one applies indications
    in C."""
    epochs = [[(-s0, w0)] for w0, s0 in init]
    apply = nhpl._apply_next_indication

    def recording(state):
        _, f = state.pending[0]
        t_ind = apply(state)
        epochs[f].append((state.llis[f], state.w_loss[f]))
        return t_ind

    monkeypatch.setattr(nhpl, "_apply_next_indication", recording)
    params = SystemParams(capacity=100.0, tau=0.1, b=0.2, c=0.4, flows=len(init))
    sim = run_simulation(params, fn, init, 3, t_end, sample_dt=sample_dt)
    return params, sim, epochs


def renders():
    """The Python render, and the compiled one where the library builds:
    each stands in for ``nhpl._render_trace`` in turn, which the Python
    loop's runs (``python_sim``) take."""
    lib = _rk4.library()
    return [nhpl._render_trace, *([] if lib is None else [lib.render])]


def assert_render_matches_oracle(sim, epochs, fn, params, sample_dt):
    t, flow, w = scalar_render_trace(epochs, fn, params, sim.t_end, sample_dt)
    sim_t, sim_flow, sim_w = sim.trace_columns(0, sim.windows.size)
    assert np.array_equal(sim_t, t)
    assert np.array_equal(sim_flow, flow) and sim_flow.dtype == flow.dtype
    assert np.array_equal(sim_w, w)


def epochs_without_samples(epochs, t):
    bounds = [np.searchsorted(t, [start for start, _ in flow] + [math.inf]) for flow in epochs]
    return sum(int(np.sum(b[:-1] == b[1:])) for b in bounds)


@pytest.mark.parametrize("sample_dt", [0.01, 0.7])
@pytest.mark.parametrize("fn", [RENO, CUBIC, FROZEN], ids=lambda fn: fn.name)
def test_render_matches_per_sample_oracle(monkeypatch, python_sim, fn, sample_dt):
    for render in renders():
        monkeypatch.setattr(nhpl, "_render_trace", render)
        params, sim, epochs = simulate_recording_epochs(monkeypatch, fn, RENDER_INIT, 10.0,
                                                        sample_dt)
        if sample_dt == 0.7:
            # Coarse sampling: 91 of Reno's 198 epochs, 16 of CUBIC's 72 and
            # 1651 of FROZEN's 1786 hold no sample.
            assert epochs_without_samples(epochs, np.unique(sim.trace_t)) >= 16
        assert_render_matches_oracle(sim, epochs, fn, params, sample_dt)


@pytest.mark.parametrize("fn", [RENO, CUBIC, FROZEN], ids=lambda fn: fn.name)
def test_render_applies_indications_past_t_end(monkeypatch, python_sim, fn):
    # The last sample floor(t_end / dt + 1e-9) * dt may lie just past t_end.
    # Put it on an indication time T with t_end one ulp before T, so the
    # last sample's epoch starts after t_end, outside the returned events.
    _, _, epochs = simulate_recording_epochs(monkeypatch, fn, RENDER_INIT, 10.0, 0.05)
    t_ind = min(start for flow in epochs for start, _ in flow[1:] if start > 2.0)
    sample_dt = t_ind / 5
    if 5 * sample_dt < t_ind:
        sample_dt = math.nextafter(sample_dt, math.inf)
    t_end = math.nextafter(t_ind, 0.0)
    for render in renders():
        monkeypatch.setattr(nhpl, "_render_trace", render)
        params, sim, epochs = simulate_recording_epochs(monkeypatch, fn, RENDER_INIT, t_end,
                                                        sample_dt)
        assert len(sim.trace_t) == 6 * 10 and sim.trace_t[-1] >= t_ind > t_end
        assert all(ev.time <= t_end for ev in sim.events)
        assert any(start == t_ind for flow in epochs for start, _ in flow)
        assert_render_matches_oracle(sim, epochs, fn, params, sample_dt)


def test_frozen_rate_gaps_are_exponential():
    params, _ = frozen_state()
    sim = run_simulation(params, FROZEN, [(15.0, 0.0)], 2025, 40.0)
    gaps = inter_loss_times(sim.events)
    assert len(gaps) > 1500
    ks = stats.kstest(gaps, "expon", args=(0.0, 1.0 / 50.0))
    assert ks.pvalue > 0.01


def test_sim_state_validation():
    params = SystemParams(capacity=100.0, tau=0.1, b=0.2, c=0.4, flows=2)
    with pytest.raises(ValueError, match="init has 1 flows"):
        SimState(params, FROZEN, [(15.0, 0.0)], RngStream(0), 50.0)
    with pytest.raises(ValueError, match="initial w_max"):
        SimState(params, FROZEN, [(15.0, 0.0), (0.0, 0.0)], RngStream(0), 50.0)
    with pytest.raises(ValueError, match="initial s"):
        SimState(params, FROZEN, [(15.0, -1.0), (1.0, 0.0)], RngStream(0), 50.0)
    with pytest.raises(ValueError, match="initial s"):
        SimState(params, FROZEN, [(15.0, math.nan), (1.0, 0.0)], RngStream(0), 50.0)
    with pytest.raises(ValueError, match="initial w_max"):
        SimState(params, FROZEN, [(15.0, 0.0), (math.inf, 0.0)], RngStream(0), 50.0)
    with pytest.raises(ValueError, match="lookahead"):
        SimState(params, FROZEN, [(15.0, 0.0), (1.0, 0.0)], RngStream(0), 0.0)


def test_run_simulation_rejects_non_finite_start():
    # Both starts once reached a loss loop that never ended: a NaN age makes
    # every loss time NaN, which never passes t_end, and an infinite window
    # puts every candidate loss at about 1.6e-28 s.
    params = SystemParams(capacity=100.0, tau=0.1, b=0.2, c=0.4)
    with pytest.raises(ValueError, match="initial s"):
        run_simulation(params, FROZEN, [(15.0, math.nan)], 1, 10.0)
    with pytest.raises(ValueError, match="initial w_max"):
        run_simulation(params, RENO, [(math.inf, 0.0)], 1, 10.0)


def test_run_simulation_rejects_infinite_horizon():
    # An infinite t_end once ran the loss loop forever: no loss time passes it.
    params = SystemParams(capacity=100.0, tau=0.1, b=0.2, c=0.4)
    with pytest.raises(ValueError, match="t_end"):
        run_simulation(params, FROZEN, [(15.0, 0.0)], 1, math.inf)


def test_run_simulation_rejects_non_positive_sample_dt():
    params = SystemParams(capacity=100.0, tau=0.1, b=0.2, c=0.4)
    for sample_dt in (0.0, -1.0, math.nan):
        with pytest.raises(ValueError, match="sample_dt"):
            run_simulation(params, FROZEN, [(15.0, 0.0)], 1, 10.0, sample_dt=sample_dt)


def test_run_simulation_requires_seed():
    params = SystemParams(capacity=100.0, tau=0.1, b=0.2, c=0.4)
    with pytest.raises(ValueError):
        run_simulation(params, FROZEN, [(15.0, 0.0)], None, 1.0)


def test_event_csv_round_trips(tmp_path):
    params = SystemParams(capacity=100.0, tau=0.1, b=0.2, c=0.4)
    sim = run_simulation(params, CUBIC, [(15.0, 1.0)], 99, 20.0)
    events_path = tmp_path / "events.csv"
    trace_path = tmp_path / "trace.csv"
    sim.write_events_csv(events_path)
    sim.write_trace_csv(trace_path)
    lines = events_path.read_text(encoding="utf-8").splitlines()
    assert lines[0] == "event_type,time,flow,window_before,window_after"
    assert len(lines) == len(sim.events) + 1
    kind, time, flow, before, after = lines[1].split(",")
    ev = next(iter(sim.events))
    assert (kind, int(flow)) == (ev.event_type, ev.flow)
    assert (float(time), float(before), float(after)) == (
        ev.time, ev.window_before, ev.window_after
    )
    tlines = trace_path.read_text(encoding="utf-8").splitlines()
    assert tlines[0] == "t,flow,w"
    assert len(tlines) == len(sim.trace_t) + 1
    # Below the bandwidth-delay product nothing is lost: the log is its header.
    quiet = run_simulation(params, FROZEN, [(5.0, 0.0)], 99, 20.0)
    quiet.write_events_csv(events_path)
    assert len(quiet.events) == 0
    assert events_path.read_text(encoding="utf-8") == lines[0] + "\n"


def test_event_log_is_written_a_chunk_at_a_time(tmp_path):
    # A copy of the whole log would take its own bytes, 33 per event in its
    # five columns; the writer forms one write chunk of rows at a time.
    sim = run_simulation(SystemParams(capacity=100.0, tau=0.1, b=0.2, c=0.4), FROZEN,
                         [(15.0, 0.0)], 1, 220.0)
    assert len(sim.events) > 16 * 1024
    path = tmp_path / "events.csv"
    tracemalloc.start()
    try:
        sim.write_events_csv(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < sum(len(col) * col.itemsize for col in sim.events.columns) / 2
    rows = [f"{ev.event_type},{ev.time!r},{ev.flow},{ev.window_before!r},{ev.window_after!r}\n"
            for ev in sim.events]
    assert_same_text(path.read_text(encoding="utf-8"),
                     "".join(["event_type,time,flow,window_before,window_after\n", *rows]))


def test_event_log_is_written_a_chunk_at_a_time_by_repr(tmp_path, python_format):
    test_event_log_is_written_a_chunk_at_a_time(tmp_path)


def test_events_csv_is_the_same_by_the_library_and_by_repr(tmp_path, monkeypatch):
    # Logs of 0 rows, and of one row short of a write chunk, one chunk and
    # one row past it, starting with a loss and with an indication, then
    # criterion 7's whole log: written with the compiled formatter where
    # it can be built, and by repr as the python_format fixture has it.
    params = SystemParams(capacity=100.0, tau=0.1, b=0.2, c=0.4)
    sim = run_simulation(params, FROZEN, [(15.0, 0.0)], 2025, 220.0)
    first_indication = sim.events.columns[0].index(nhpl.INDICATION)
    logs = [sim]
    for lo in (0, first_indication):
        for rows in (0, 1, 1023, 1024, 1025):
            log = nhpl.EventLog()
            for col, whole in zip(log.columns, sim.events.columns):
                col.extend(whole[lo:lo + rows])
            logs.append(dataclasses.replace(sim, events=log))
    assert {next(iter(log.events)).event_type for log in logs[1:] if log.events} == set(nhpl.KINDS)
    for i, log in enumerate(logs):
        log.write_events_csv(tmp_path / f"{i}.csv")
    monkeypatch.setattr(artifacts, "_formatter", lambda: None)  # python_format's patch
    for i, log in enumerate(logs):
        log.write_events_csv(tmp_path / f"{i}.repr.csv")
        assert_same_text((tmp_path / f"{i}.csv").read_text(encoding="utf-8"),
                         (tmp_path / f"{i}.repr.csv").read_text(encoding="utf-8"))


def test_a_run_holds_its_events_in_columns():
    # The log holds 33 bytes per event in its five columns, two events per
    # loss, and the trace 16 bytes per sample; a log of Event tuples held
    # 250-400.  Measured after a warm-up run: about 72 bytes per loss held
    # and 150 at the peak, by both loops, on criterion 7's system for 300 s
    # (15k losses).
    params = SystemParams(capacity=100.0, tau=0.1, b=0.2, c=0.4)
    run_simulation(params, FROZEN, [(15.0, 0.0)], 1, 1.0)  # imports and loads
    tracemalloc.start()
    try:
        sim = run_simulation(params, FROZEN, [(15.0, 0.0)], 1, 300.0)
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    losses = sim.events.count("loss")
    assert losses > 14000 and len(sim.events) > 2 * losses - 100
    assert held < 80 * losses
    assert peak < 170 * losses


def test_a_run_holds_its_events_in_columns_in_the_python_loop(python_sim):
    test_a_run_holds_its_events_in_columns()
