"""The compiled step loop of ``dde.integrate`` against the Python loop,
and the compiled event loop and render of ``nhpl.run_simulation`` against
theirs.

Reno and CUBIC runs take the loop in ``_rk4.c`` where it can be built; it
must store every bit and raise every error the Python loop does.  Every
other window function, and every host without the library, runs the Python
loop.  The same holds for the simulator's Reno, CUBIC and frozen runs and
``_sim.c``.
"""

import errno
import math
import os
import subprocess
import sys
import sysconfig
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from tcpfluid import (CUBIC, RENO, FlowState, IntegrationError, RngStream, SystemParams,
                      cubic_fixed_point, integrate, reno_steady_state, run_simulation)
from tcpfluid import _rk4, dde, nhpl
from tcpfluid.fixedpoint import SolverError
from tcpfluid.nhpl import SimState
from tcpfluid.protocols import FROZEN, CubicWindow, FrozenWindow, RenoWindow
from oracles import assert_same_text, event_columns

CACHE = os.path.join(os.path.dirname(dde.__file__), "__pycache__")


def outcome(*args, **kwargs):
    """What ``integrate`` gives, as bits: its five integrated columns, or
    its error's text with its time and state."""
    try:
        traj = integrate(*args, **kwargs)
    except IntegrationError as err:
        return str(err), np.array([err.time, *err.state]).view(np.int64).tolist()
    return [col.view(np.int64).tobytes() for col in (traj.x1, traj.x2, traj.dx1, traj.dx2, traj.w)]


def both_loops(*args, **kwargs):
    """(compiled, Python): ``outcome`` of the two loops on one run."""
    if dde._kernel() is None:
        pytest.skip("no C compiler to build the kernel with; CI requires it")
    compiled = outcome(*args, **kwargs)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(dde, "_kernel", lambda: None)
        return compiled, outcome(*args, **kwargs)


@pytest.fixture
def rhs_calls(monkeypatch):
    """The number of RHS evaluations the Python side of ``integrate`` makes:
    one for sample 0 on the compiled path, 1 + 4 per step on the Python
    path."""
    calls = []
    rhs_about = dde.rhs_about

    def counting(*args):
        rhs = rhs_about(*args)
        return lambda *x: calls.append(1) or rhs(*x)

    monkeypatch.setattr(dde, "rhs_about", counting)
    return calls


def fixed_point(params, window_fn):
    solve = cubic_fixed_point if window_fn is CUBIC else reno_steady_state
    return solve(params)


OFFSETS = [0.0, 1e-9, -1e-9, 1e-3, -1e-3, 0.3, -0.3]


@settings(max_examples=120, deadline=None)
@given(capacity=st.floats(0.0, 6.0).map(lambda e: 10.0**e),
       tau=st.floats(-3.0, 0.0).map(lambda e: 10.0**e),
       b=st.floats(0.05, 0.95), c=st.floats(-2.0, 2.0).map(lambda e: 10.0**e),
       window_fn=st.sampled_from([RENO, CUBIC]), k=st.sampled_from([4, 16, 64]),
       about_fp=st.booleans(), dw=st.sampled_from([*OFFSETS, 10.0]),
       ds=st.sampled_from([*OFFSETS, 1e4]), steps=st.integers(1, 2 * 1024 + 70))
def test_kernel_matches_the_python_loop(capacity, tau, b, c, window_fn, k, about_fp, dw, ds,
                                        steps):
    # Starts on the fixed point and at offsets of both signs in w_max and
    # s, far ones among them (which leave the domain), over up to 2118
    # steps.
    params = SystemParams(capacity, tau, b, c)
    try:
        fp = fixed_point(params, window_fn)
    except SolverError:
        fp, start = None, FlowState(2.0 * params.bdp + 1.0, tau)
    else:
        start = FlowState(fp.w_hat * (1.0 + dw), fp.s_hat * (1.0 + ds))
    h = tau / k
    compiled, python = both_loops(params, window_fn, start, steps * h, h,
                                  fp=fp if about_fp else None)
    assert compiled == python


@pytest.mark.parametrize("params, window_fn, start, t_end, k", [
    # convergence-canonical's system, from CI's convergence start
    (SystemParams(12500.0, 0.01, 0.2, 0.4), CUBIC, (0.0, 1e-3), 8.0, 64),
    # criterion 8's 20-flow system
    (SystemParams(125000.0, 0.001, 0.2, 0.4, flows=20), CUBIC, (0.0, 1e-3), 3.0, 16),
    # the Reno limit cycle from w_hat + 1
    (SystemParams(100.0, 0.1, 0.2, 0.4), RENO, (1.0, 0.0), 40.0, 16),
    # criterion 6's long-delay start, given as an absolute state
    (SystemParams(125000.0, 0.1, 0.2, 0.4), CUBIC, FlowState(12371.9952, 13.6794), 20.0, 16),
    # an absurd epoch age: the first stored window leaves the domain
    (SystemParams(12500.0, 0.01, 0.2, 0.4), CUBIC, FlowState(1.0, 1e6), 0.1, 16),
    # c = 1e300 leaves the domain with w_max = nan, as `fluid --c 1e300` does
    (SystemParams(12500.0, 0.01, 0.2, 1e300), CUBIC, (0.0, 1e-3), 1.0, 16),
    # Reno from an absurd epoch age, at the coarsest step
    (SystemParams(100.0, 0.1, 0.2, 0.4), RENO, FlowState(10.0, 1e4), 1.0, 4),
], ids=["canonical", "criterion-8", "reno-limit-cycle", "criterion-6", "absurd-age",
        "c-1e300", "reno-absurd-age"])
def test_kernel_matches_the_python_loop_on_named_runs(params, window_fn, start, t_end, k):
    fp = fixed_point(params, window_fn)
    if not isinstance(start, FlowState):  # an offset from the fixed point
        start = FlowState(fp.w_hat + start[0], fp.s_hat + start[1])
    for about in (fp, None):
        compiled, python = both_loops(params, window_fn, start, t_end, params.tau / k, fp=about)
        assert compiled == python


def test_domain_exits_name_nan_states_alike():
    # The c = 1e300 run's error carries nan, from both loops alike.
    params = SystemParams(12500.0, 0.01, 0.2, 1e300)
    fp = cubic_fixed_point(params)
    compiled, python = both_loops(params, CUBIC, FlowState(fp.w_hat, fp.s_hat + 1e-3), 1.0,
                                  params.tau / 16, fp=fp)
    assert compiled == python
    assert compiled[0].startswith("w_max or window left positive domain at t=")
    assert compiled[0].endswith("w_max=nan, s=nan")


@pytest.mark.parametrize("window_fn", [RENO, CUBIC])
def test_reno_and_cubic_run_the_kernel(rhs_calls, canonical_params, window_fn):
    if dde._kernel() is None:
        pytest.skip("no C compiler to build the kernel with; CI requires it")
    params = canonical_params
    fp = fixed_point(params, window_fn)
    traj = integrate(params, window_fn, FlowState(fp.w_hat, fp.s_hat), 0.5, params.tau / 16)
    assert len(traj.t) == 801 and len(rhs_calls) == 1


def test_kernel_refuses_columns_and_steps_it_cannot_write(canonical_params, canonical_fp):
    kernel = dde._kernel()
    if kernel is None:
        pytest.skip("no C compiler to build the kernel with; CI requires it")
    params, fp = canonical_params, canonical_fp
    # A column shorter than t would take steps past its end.
    traj = integrate(params, CUBIC, FlowState(fp.w_hat, fp.s_hat), 0.1, params.tau / 16, fp=fp)
    for column in (traj.w[::-1], traj.w.astype(np.float32), traj.w[1:]):
        traj.w = column
        with pytest.raises(ValueError, match="contiguous float64 columns of one length"):
            kernel(traj, CUBIC, 16, 0.0)


class OwnDeficit(CubicWindow):
    """CUBIC with a deficit of its own: twice CUBIC's."""

    def deficit_about(self, ref, params):
        deficit = super().deficit_about(ref, params)
        return lambda x1, x2: 2.0 * deficit(x1, x2)


class OwnWindow(RenoWindow):
    """Reno with a window of its own, one packet larger."""

    def window(self, state, params):
        return super().window(state, params) + 1.0


@pytest.mark.parametrize("window_fn", [OwnDeficit(), OwnWindow(), FROZEN],
                         ids=["cubic-subclass", "reno-subclass", "frozen"])
def test_other_window_functions_run_the_python_loop(rhs_calls, canonical_params, window_fn):
    # A subclass of a compiled window, which may override what the kernel
    # transcribes, and the frozen window evaluate their own deficit in the
    # Python loop: the subclasses' runs are not their parents'.
    params = canonical_params
    parent = CUBIC if isinstance(window_fn, CubicWindow) else RENO
    fp = fixed_point(params, parent)
    start = FlowState(fp.w_hat, fp.s_hat + 1e-3)
    traj = integrate(params, window_fn, start, 0.5, params.tau / 16)
    assert len(rhs_calls) == 1 + 4 * 800
    if window_fn is not FROZEN:
        assert not np.array_equal(traj.w, integrate(params, parent, start, 0.5, params.tau / 16).w)


class Uncallable:
    """A loaded library whose every entry point fails the test when called."""

    def __getattr__(self, name):
        def entry(*args):
            raise AssertionError(f"{name} was called")

        return entry


def test_the_bindings_decline_what_they_do_not_transcribe(tmp_path, monkeypatch,
                                                          canonical_params, canonical_fp):
    # The step loop takes Reno and CUBIC only, the event loop the three
    # windows only, each by exact type.  Bound over a library that may not
    # be called, so on every host, a declined call reaches no C, writes no
    # sample and moves no state: the caller's Python loop starts from where
    # the call found it.
    params, fp = canonical_params, canonical_fp
    traj = integrate(params, CUBIC, FlowState(fp.w_hat, fp.s_hat), 0.1, params.tau / 16, fp=fp)
    monkeypatch.setattr(_rk4, "_build", lambda command, library: True)
    monkeypatch.setattr(_rk4.ctypes, "CDLL", lambda path: Uncallable())
    lib = _rk4.load(str(tmp_path))
    columns = (traj.x1, traj.x2, traj.dx1, traj.dx2, traj.w)
    for column in columns:
        column[1:] = np.nan
    before = [col.tobytes() for col in columns]
    for window_fn in (FROZEN, OwnWindow()):
        assert lib.steps(traj, window_fn, 16, 0.0) is False
        assert [col.tobytes() for col in columns] == before
    params = SystemParams(100.0, 0.1, 0.2, 0.4, 2)
    state = SimState(params, OwnFrozen(), [(15.0, 0.0), (12.0, 0.05)], RngStream(5), 100.0)
    state.pending.append((0.5, 1))

    def snapshot():
        return (state.w_loss[:], state.llis[:], state.pending[:], state.t_loss_last,
                state.candidates, event_columns(state.events), state.rng._gen.bit_generator.state)

    before = snapshot()
    assert lib.simulate(state, 20.0, 10**6) is None
    assert snapshot() == before
    with pytest.raises(AssertionError, match="rk4_steps was called"):
        lib.steps(traj, CUBIC, 16, 0.0)


def steps_of(lib):
    """The step loop of the library ``lib``, None for no library."""
    return None if lib is None else lib.steps


def run_through(loader, monkeypatch, capfd, params, fp):
    """Integrate a CUBIC and a Reno run through the kernel ``loader``
    gives; assert the Python loop's bits and nothing printed."""
    monkeypatch.setattr(dde, "_kernel", loader)
    start = FlowState(fp.w_hat, fp.s_hat + 1e-3)
    got = [outcome(params, fn, start, 0.5, params.tau / 16, fp=fp) for fn in (CUBIC, RENO)]
    monkeypatch.setattr(dde, "_kernel", lambda: None)
    assert got == [outcome(params, fn, start, 0.5, params.tau / 16, fp=fp) for fn in (CUBIC, RENO)]
    assert capfd.readouterr() == ("", "")


def test_a_missing_compiler_runs_the_python_loop_quietly(monkeypatch, capfd, canonical_params,
                                                         canonical_fp):
    # The compile command is part of the library's name, so a library
    # built by another compiler is not taken for this one's.
    os.makedirs(CACHE, exist_ok=True)
    before = sorted(os.listdir(CACHE))
    config = sysconfig.get_config_var
    monkeypatch.setattr(sysconfig, "get_config_var",
                        lambda name: "tcpfluid-no-such-cc -O0" if name == "CC" else config(name))
    assert _rk4.load(CACHE) is None
    run_through(lambda: steps_of(_rk4.load(CACHE)), monkeypatch, capfd, canonical_params,
                canonical_fp)
    assert sorted(os.listdir(CACHE)) == before


def test_an_unwritable_cache_runs_the_python_loop_quietly(tmp_path, monkeypatch, capfd,
                                                          canonical_params, canonical_fp):
    cache = tmp_path / "cache"
    cache.mkdir()
    cache.chmod(0o555)
    if os.geteuid() == 0:
        # Mode bits do not bind root: refuse what they refuse others.
        open_ = os.open

        def refusing(path, flags, *args, **kwargs):
            if os.path.dirname(path) == str(cache) and flags & os.O_CREAT:
                raise PermissionError(errno.EACCES, os.strerror(errno.EACCES), path)
            return open_(path, flags, *args, **kwargs)

        monkeypatch.setattr(os, "open", refusing)
    try:
        assert _rk4.load(str(cache)) is None
        run_through(lambda: steps_of(_rk4.load(str(cache))), monkeypatch, capfd,
                    canonical_params, canonical_fp)
        assert os.listdir(cache) == []
    finally:
        cache.chmod(0o755)


def test_a_cached_library_loads_without_a_compile(monkeypatch):
    if dde._kernel() is None:
        pytest.skip("no C compiler to build the kernel with; CI requires it")

    def no_compile(*args, **kwargs):
        raise AssertionError("compiled a library already in the cache")

    monkeypatch.setattr(subprocess, "run", no_compile)
    assert _rk4.load(CACHE) is not None


def library_files(cache):
    return sorted(name for name in os.listdir(cache) if name.endswith(".so"))


def test_a_build_removes_the_other_libraries_in_its_cache(tmp_path, monkeypatch):
    # Each edit of a source builds a library of its own name; a build
    # removes the earlier ones, and only those, while a process that has
    # one loaded still runs it.  A cache hit removes nothing.
    if dde._kernel() is None:
        pytest.skip("no C compiler to build the kernel with; CI requires it")
    old = _rk4.load(str(tmp_path))
    (first,) = library_files(tmp_path)
    for name in ("_rk4-00000000.so", "other.so", "_rk4-00000000.so.tmp"):
        (tmp_path / name).write_bytes(b"")
    monkeypatch.setattr(_rk4, "_FLAGS", (*_rk4._FLAGS, "-DTCPFLUID_ANOTHER_BUILD"))
    new = _rk4.load(str(tmp_path))
    (second,) = set(library_files(tmp_path)) - {"other.so"}
    assert second != first and second.startswith("_rk4-")
    assert "_rk4-00000000.so.tmp" in os.listdir(tmp_path)
    params = SystemParams(100.0, 0.1, 0.2, 0.4, 2)
    windows = []
    for lib in (old, new):
        state = SimState(params, RENO, [(16.0, 0.25), (12.0, 0.0)], RngStream(5), 100.0)
        lib.simulate(state, 20.0, 10**6)
        windows.append(lib.render(state, 20.0, 0.1).tobytes())
    assert windows[0] == windows[1]
    (tmp_path / "_rk4-00000000.so").write_bytes(b"")
    assert _rk4.load(str(tmp_path)) is not None
    assert "_rk4-00000000.so" in os.listdir(tmp_path)


def test_a_library_without_the_event_loop_is_not_loaded(tmp_path, monkeypatch):
    # Built from the step loop and formatter alone, the library lacks
    # sim_run: load refuses it whole, so no caller meets a missing entry.
    if dde._kernel() is None:
        pytest.skip("no C compiler to build the kernel with; CI requires it")
    monkeypatch.setattr(_rk4, "_SOURCES", ("_rk4.c", "_repr.c"))
    assert _rk4.load(str(tmp_path)) is None
    assert [name for name in os.listdir(tmp_path) if name.endswith(".so")] != []


def test_import_builds_nothing():
    # Importing the package does not reach the library, loading it does not
    # import hashlib, which loads OpenSSL (numpy.random, which the simulator
    # imports, does), and a simulator run loads it through the one cached
    # loader.
    code = ("import sys; from tcpfluid import SystemParams, CUBIC, run_simulation; "
            "print('hashlib' in sys.modules, 'tcpfluid._rk4' in sys.modules); "
            "from tcpfluid import _rk4; _rk4.load(sys.argv[1]); print('hashlib' in sys.modules); "
            "run_simulation(SystemParams(100.0, 0.1, 0.2, 0.4), CUBIC, [(12.0, 0.0)], 1, 5.0); "
            "print(_rk4.library.cache_info().misses)")
    src = os.path.dirname(os.path.dirname(dde.__file__))
    proc = subprocess.run([sys.executable, "-c", code, CACHE], capture_output=True,
                          encoding="utf-8", env={**os.environ, "PYTHONPATH": src}, timeout=60)
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, "False False\nFalse\n1\n", "")


# The compiled event loop of ``nhpl.run_simulation`` against the Python loop.

def simulated(*args, **kwargs):
    """What ``run_simulation`` gives, as bits: its event log's five columns,
    its window matrix and candidate count with the final ``SimState`` it
    stepped (its queue sorted, and its stream's state, which shows every
    draw), or its error's text.  The state's log is the result's."""
    states = []
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(nhpl, "SimState", lambda *a: states.append(SimState(*a)) or states[-1])
        try:
            sim = run_simulation(*args, **kwargs)
        except ValueError as err:
            return str(err)
    (state,) = states
    assert state.events is sim.events
    return {"events": event_columns(sim.events), "candidates": sim.candidates,
            "windows": (sim.windows.dtype, sim.windows.shape, sim.windows.tobytes()),
            "state": repr([state.w_loss, state.llis, state.first, state.t_loss_last,
                           state.candidates, sorted(state.pending)]),
            "rng": state.rng._gen.bit_generator.state}


def both_sims(*args, **kwargs):
    """(compiled, Python): ``simulated`` by the two loops on one run."""
    if nhpl._kernel() is None:
        pytest.skip("no C compiler to build the kernel with; CI requires it")
    compiled = simulated(*args, **kwargs)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(nhpl, "_kernel", lambda: None)
        return compiled, simulated(*args, **kwargs)


def starts(params, window_fn, kind):
    """Every flow's (w_max, s) at t = 0: all on the fixed point, staggered
    about it, or all at half the bdp from a loss."""
    fp = (reno_steady_state if window_fn is RENO else cubic_fixed_point)(params)
    if kind == "fixed-point":
        return [(fp.w_hat, fp.s_hat)] * params.flows
    if kind == "staggered":
        return [(fp.w_hat * (0.7 + 0.08 * f), fp.s_hat * (f % 3) / 3.0)
                for f in range(params.flows)]
    return [(0.5 * params.bdp, 0.0)] * params.flows


@settings(max_examples=100, deadline=None)
@given(window_fn=st.sampled_from([RENO, CUBIC, FROZEN]), flows=st.integers(1, 9),
       start=st.sampled_from(["fixed-point", "staggered", "sub-bdp"]),
       bdp=st.floats(0.0, 2.0).map(lambda e: 10.0**e),
       tau=st.floats(-3.0, 0.0).map(lambda e: 10.0**e),
       seed=st.integers(0, 2**64 - 1), delays=st.integers(1, 400))
def test_event_loop_matches_the_python_loop(window_fn, flows, start, bdp, tau, seed, delays):
    params = SystemParams(bdp / tau, tau, 0.2, 0.4, flows)
    init = starts(params, window_fn, start)
    compiled, python = both_sims(params, window_fn, init, seed, delays * tau)
    assert compiled == python


@pytest.mark.parametrize("rows", [1, 2, 3])
@pytest.mark.parametrize("params, window_fn, init, t_end", [
    (SystemParams(100.0, 0.1, 0.2, 0.4), FROZEN, [(15.0, 0.0)], 20.0),
    (SystemParams(100.0, 0.05, 0.2, 0.4, 3), CUBIC, [(20.0, 1.0), (14.0, 0.5), (9.0, 0.0)], 20.0),
    (SystemParams(100.0, 0.1, 0.2, 0.4, 3), RENO, [(16.0, 0.25), (12.0, 0.0), (9.0, 0.7)], 20.0),
], ids=["frozen", "cubic", "reno"])
def test_event_loop_re_enters_at_every_block_seam(monkeypatch, rows, params, window_fn, init,
                                                   t_end):
    # A block of one to three rows returns to Python after almost every
    # step, and grows when one step may write more rows than it has.
    monkeypatch.setattr(_rk4, "_EVENT_ROWS", rows)
    compiled, python = both_sims(params, window_fn, init, 5, t_end)
    assert compiled == python


def test_event_loop_matches_the_python_loop_on_a_queue_deeper_than_a_block():
    # A frozen window 3000 packets over the bdp loses about 3000 times a
    # delay: the queue holds more indications than the block's default
    # rows while the C pops them from its head.  With no library both runs
    # are the Python loop's.
    params = SystemParams(100.0, 0.1, 0.2, 0.4)
    compiled = simulated(params, FROZEN, [(3010.0, 0.0)], 4, 0.25)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(nhpl, "_kernel", lambda: None)
        assert simulated(params, FROZEN, [(3010.0, 0.0)], 4, 0.25) == compiled
    kinds = compiled["events"][0][1]
    assert kinds.index(nhpl.INDICATION) > _rk4._EVENT_ROWS  # the losses before the first pop


def test_event_loop_stops_over_the_budget_as_the_python_loop_does(monkeypatch):
    # Criterion 7's run has 10,812 losses by 220 s; a budget of 1000 stops
    # it at its 1001st, and one of exactly its losses lets it finish.
    params = SystemParams(100.0, 0.1, 0.2, 0.4)
    monkeypatch.setattr(nhpl, "WORK_BUDGET", 1000)
    compiled, python = both_sims(params, FROZEN, [(15.0, 0.0)], 2025, 220.0)
    assert compiled == python
    assert compiled.startswith("1001 losses by t = ") and compiled.endswith(" s of 220.0 s: x 1 "
                                                                             "flows is over 1000")
    monkeypatch.setattr(nhpl, "WORK_BUDGET", 10812)
    compiled, python = both_sims(params, FROZEN, [(15.0, 0.0)], 2025, 220.0)
    assert compiled == python and isinstance(compiled, dict)


def test_event_loop_raises_what_pick_losing_flow_raises():
    # A window made negative after the checks: the first loss picks among
    # windows 40 and -1, which pick_losing_flow refuses.
    if nhpl._kernel() is None:
        pytest.skip("no C compiler to build the kernel with; CI requires it")
    params = SystemParams(100.0, 0.1, 0.2, 0.4, 2)
    errors = []
    for lib in (nhpl._kernel(), None):
        state = SimState(params, FROZEN, [(40.0, 0.0), (1.0, 0.0)], RngStream(3), 100.0)
        state.w_loss[1] = -1.0
        with pytest.raises(ValueError) as err:
            if lib is not None:
                lib.simulate(state, 50.0, 10**6)
            else:
                nhpl.generate_poi_loss(state)
        errors.append((str(err.value), state.candidates, state.rng._gen.bit_generator.state))
    assert errors[0] == errors[1]
    assert errors[0][0] == "flow 1: negative window -1.0"


def test_event_loop_pops_tied_indications_in_flow_order():
    # heapq pops (time, flow) tuples, so of two indications due at one time
    # the lower flow's comes first.  A queue given an indication of flow 2
    # at the first loss's time + tau ties that loss's own indication, which
    # both loops then apply first.  A dry run on a state of its own finds
    # that loss: the queue changes no draw before its first indication.
    # With no library both runs are the Python loop's.
    params = SystemParams(100.0, 0.1, 0.2, 0.4, 3)

    def fresh():
        return SimState(params, CUBIC, [(20.0, 1.0), (14.0, 0.5), (9.0, 0.0)], RngStream(5),
                        100.0)

    dry = fresh()
    first = nhpl.generate_poi_loss(dry)
    (loss,) = dry.events
    assert loss.time == first and loss.flow < 2
    tie = (first + params.tau, 2)
    runs = []
    for kernel in (nhpl._kernel(), None):
        state = fresh()
        state.pending.append(tie)
        if kernel is not None:
            outcome = kernel.simulate(state, 20.0, 10**6)
        else:
            losses = 0
            while (t := nhpl.generate_poi_loss(state)) is not None and t <= 20.0:
                losses += 1
            outcome = losses, t
        runs.append((outcome, event_columns(state.events), sorted(state.pending),
                     state.rng._gen.bit_generator.state))
        indications = [(ev.time, ev.flow) for ev in state.events
                       if ev.event_type == "indication"]
        assert indications[:2] == [(tie[0], loss.flow), tie]
    assert runs[0] == runs[1]


@pytest.mark.parametrize("rows", [_rk4._EVENT_ROWS, 7])
def test_criterion_7_csvs_are_the_python_loops(tmp_path, rows, monkeypatch):
    if nhpl._kernel() is None:
        pytest.skip("no C compiler to build the kernel with; CI requires it")
    monkeypatch.setattr(_rk4, "_EVENT_ROWS", rows)
    params = SystemParams(100.0, 0.1, 0.2, 0.4)
    texts, logs = [], []
    for kernel in (nhpl._kernel, lambda: None):
        monkeypatch.setattr(nhpl, "_kernel", kernel)
        sim = run_simulation(params, FROZEN, [(15.0, 0.0)], 2025, 220.0)
        sim.write_events_csv(tmp_path / "events.csv")
        sim.write_trace_csv(tmp_path / "trace.csv")
        texts.append([(tmp_path / name).read_text(encoding="utf-8")
                      for name in ("events.csv", "trace.csv")])
        logs.append(event_columns(sim.events))
    assert sim.events.count("loss") == 10812
    assert logs[0] == logs[1]
    for compiled, python in zip(*texts):
        assert_same_text(compiled, python)


class OwnFrozen(FrozenWindow):
    """The frozen window under a class of its own."""


def test_other_window_functions_run_the_python_event_loop(monkeypatch):
    # A subclass of a transcribed window, which may override what the C
    # transcribes, steps generate_poi_loss in Python; the frozen window
    # itself never does where the library loads.
    if nhpl._kernel() is None:
        pytest.skip("no C compiler to build the kernel with; CI requires it")
    steps = []
    generate = nhpl.generate_poi_loss
    monkeypatch.setattr(nhpl, "generate_poi_loss", lambda state: steps.append(1) or generate(state))
    params = SystemParams(100.0, 0.1, 0.2, 0.4)
    own = run_simulation(params, OwnFrozen(), [(15.0, 0.0)], 5, 20.0)
    assert len(steps) == own.events.count("loss") + 1
    del steps[:]
    frozen = run_simulation(params, FROZEN, [(15.0, 0.0)], 5, 20.0)
    assert steps == [] and event_columns(frozen.events) == event_columns(own.events)
    assert frozen.candidates == own.candidates


# The compiled render of ``nhpl.run_simulation`` against ``_render_trace``.

def render_library():
    lib = nhpl._kernel()
    if lib is None:
        pytest.skip("no C compiler to build the kernel with; CI requires it")
    return lib


@st.composite
def logged_states(draw):
    """(state, t_end, sample_dt): a ``SimState`` of 1 to 20 flows and a log
    of losses and indications in time order, drawn as they fall: on sample
    times, between them, and past t_end, where the last sample may lie a
    hair past t_end (see ``nhpl.sample_count``) on an indication.  Few
    events leave epochs of many samples; events closer than a sample
    interval leave epochs of none."""
    window_fn = draw(st.sampled_from([RENO, CUBIC, FROZEN]))
    flows = draw(st.integers(1, 20))
    sample_dt = draw(st.sampled_from([0.01, 0.1, 0.7, 3.0]))
    last = draw(st.integers(1, 400)) * sample_dt
    # The last sample on t_end, or a hair past it.
    t_end = draw(st.sampled_from([last, math.nextafter(last, 0.0)]))
    init = draw(st.lists(st.tuples(st.floats(1.0, 200.0), st.floats(0.0, 5.0)),
                         min_size=flows, max_size=flows))
    state = SimState(SystemParams(100.0, 0.1, 0.2, 0.4, flows), window_fn, init, None, 1.0)
    n = nhpl.sample_count(t_end, sample_dt)
    on_sample = st.integers(0, n).map(lambda i: i * sample_dt)
    between = st.floats(0.0, t_end + 2.0 * sample_dt)
    events = draw(st.lists(st.tuples(st.sampled_from([nhpl.LOSS, nhpl.INDICATION]),
                                     st.one_of(on_sample, between), st.integers(0, flows - 1),
                                     st.floats(1.0, 200.0)), max_size=80))
    if draw(st.booleans()):  # an indication on the last sample
        events.append((nhpl.INDICATION, (n - 1) * sample_dt, draw(st.integers(0, flows - 1)),
                       draw(st.floats(1.0, 200.0))))
    for kind, t, f, w in sorted(events, key=lambda ev: ev[1]):
        state.events.append(kind, t, f, w, w)
    return state, t_end, sample_dt


@settings(max_examples=300, deadline=None)
@given(case=logged_states())
def test_compiled_render_matches_the_python_render(case):
    state, t_end, sample_dt = case
    compiled = render_library().render(state, t_end, sample_dt)
    python = nhpl._render_trace(state, t_end, sample_dt)
    assert (compiled.dtype, compiled.shape) == (python.dtype, python.shape)
    assert compiled.flags.c_contiguous and compiled.tobytes() == python.tobytes()


def test_compiled_render_holds_little_beyond_its_matrix():
    # A frozen run of 1000 s has 50,031 losses and 10,001 samples.  The
    # Python render peaks near 80 bytes per loss, copying the log's columns
    # and masks over them; the compiled one reads them in place, so its
    # peak is its matrix, 3.2 bytes per loss here, and a few small arrays.
    lib = render_library()
    params = SystemParams(100.0, 0.1, 0.2, 0.4)
    state = SimState(params, FROZEN, [(15.0, 0.0)], RngStream(1), 2000.0)
    lib.simulate(state, 1000.0, 10**7)
    losses = state.events.count("loss")
    lib.render(state, 1000.0, 0.1)  # imports and binds
    tracemalloc.start()
    try:
        windows = lib.render(state, 1000.0, 0.1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert losses > 45000 and windows.shape == (10001, 2)
    assert peak < windows.nbytes + 4096
    assert peak < 4 * losses
