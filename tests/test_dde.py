import functools
import math
import os
import tracemalloc

import numpy as np
import pytest

from tcpfluid import (
    CUBIC,
    RENO,
    FlowState,
    IntegrationError,
    SystemParams,
    WindowFunction,
    basin_delta,
    certificate,
    integrate,
    loss_probability,
    lyapunov_V,
    reno_steady_state,
    run_simulation,
    stability_trace,
)
from tcpfluid import artifacts, experiment, protocols
from tcpfluid.cli import main
from tcpfluid.dde import hermite_midpoint
from tcpfluid.protocols import FROZEN
from oracles import (absolute_integrate, assert_same_text, awkward_columns, convergence_order_check,
                     per_row_csv, write_csv)
from scalar_reno import integrate_scalar_reno


def test_integrate_rejects_start_outside_domain(canonical_params):
    for w_max, s in [(0.0, 0.5), (2.0, -0.1), (2.0, math.nan), (math.inf, 0.5)]:
        with pytest.raises(ValueError, match="initial"):
            integrate(canonical_params, CUBIC, FlowState(w_max, s), 1.0,
                      canonical_params.tau / 8)


def test_hermite_midpoint_is_exact_on_cubics():
    # Cubic Hermite reproduces cubic polynomials exactly, so samples of
    # w_max = t^3 and s = t^2 with their true derivatives interpolate with
    # zero error at midpoints.
    h = 0.5
    t = [i * h for i in range(6)]
    w, dw = [ti**3 for ti in t], [3.0 * ti**2 for ti in t]
    s, ds = [ti**2 for ti in t], [2.0 * ti for ti in t]
    for j in range(5):
        t_mid = (j + 0.5) * h
        assert hermite_midpoint(w, dw, j, h) == pytest.approx(t_mid**3, abs=1e-12)
        assert hermite_midpoint(s, ds, j, h) == pytest.approx(t_mid**2, abs=1e-12)


def test_integrate_validates_step(canonical_params):
    start = FlowState(100.0, 1.0)
    with pytest.raises(ValueError):
        integrate(canonical_params, CUBIC, start, 1.0, canonical_params.tau / 3)
    with pytest.raises(ValueError):
        integrate(canonical_params, CUBIC, start, 1.0, canonical_params.tau * 0.11)
    with pytest.raises(ValueError):
        integrate(canonical_params, CUBIC, start, -1.0, canonical_params.tau / 8)
    with pytest.raises(ValueError, match="t_end"):
        integrate(canonical_params, CUBIC, start, math.inf, canonical_params.tau / 8)


def test_fixed_point_is_stationary(canonical_params, canonical_fp):
    start = FlowState(canonical_fp.w_hat, canonical_fp.s_hat)
    traj = integrate(
        canonical_params, CUBIC, start, 100 * canonical_params.tau,
        canonical_params.tau / 16,
    )
    drift = np.max(np.abs(traj.w - canonical_fp.w_hat)) / canonical_fp.w_hat
    assert drift < 1e-6


def test_sub_bdp_frozen_flow_is_exact(canonical_params):
    # Below the bandwidth-delay product the loss rate is exactly zero, so
    # w_max must hold bit for bit and the epoch clock advances linearly.
    start = FlowState(5.0, 0.0)
    traj = integrate(canonical_params, FROZEN, start, 50 * canonical_params.tau,
                     canonical_params.tau / 8)
    w_max, s, _, p = absolute_columns(traj)
    assert np.all(w_max == 5.0)
    assert np.all(p == 0.0)
    assert np.max(np.abs(s - traj.t)) < 1e-12


def test_reno_pair_matches_scalar_oracle():
    params = SystemParams(capacity=100.0, tau=0.1, b=0.2, c=0.4)
    fp = reno_steady_state(params)
    w_max0, s0 = 1.1 * fp.w_hat, fp.s_hat
    k = 16
    traj = integrate(params, RENO, FlowState(w_max0, s0),
                     50 * params.tau, params.tau / k)
    oracle = integrate_scalar_reno(params, 0.5 * w_max0 + s0 / params.tau,
                                  50 * params.tau, k)
    assert len(oracle) == len(traj.w)
    worst = max(abs(a - b) / b for a, b in zip(traj.w, oracle))
    assert worst < 1e-6


def test_observed_order_is_four_on_smooth_path(unit_params, unit_fp):
    # Window stays above the loss-probability kink for this initial offset.
    start = FlowState(1.05 * unit_fp.w_hat, unit_fp.s_hat)
    order = convergence_order_check(unit_params, CUBIC, start, 4.0, base_k=8)
    assert 3.5 <= order <= 4.6


def test_observed_order_is_four_on_smooth_path_in_the_python_loop(python_loop, unit_params,
                                                                   unit_fp):
    test_observed_order_is_four_on_smooth_path(unit_params, unit_fp)


def test_observed_order_is_inf_on_exact_solution(unit_params):
    # Sub-bdp frozen flow: w_max is constant and s grows at exactly rate 1,
    # which RK4 reproduces without error on the dyadic steps tau / k.
    start = FlowState(5.0, 0.0)
    order = convergence_order_check(unit_params, FROZEN, start, 4.0, base_k=8)
    assert math.isinf(order)


def test_long_in_basin_run_keeps_v_nonincreasing(canonical_params, canonical_fp):
    # Criterion-5 system over 2000 delays.  From about 1000 delays on, the
    # per-step increment of w_max falls below half an ulp of w_hat: added
    # to w_max itself it is lost, w_max freezes, and V rises (at 14693
    # samples) although its exact dV/dt is negative.  Deviations from the
    # fixed point keep the increments.
    params, fp = canonical_params, canonical_fp
    cert = certificate(fp, params)
    start = FlowState(fp.w_hat, fp.s_hat + 0.8 * basin_delta(0.01 * fp.w_hat, cert))
    traj = integrate(params, CUBIC, start, 2000 * params.tau, params.tau / 64, fp=fp)
    v = lyapunov_V(traj.x1, traj.x2, cert)
    assert np.all(np.diff(v) <= 1e-12 * v.max())
    assert v[-1] < 0.02 * v[0]


def absolute_columns(traj):
    """(w_max, s, w, p) of every sample, formed as the trajectory CSV forms
    them."""
    return (traj.ref.w_max + traj.x1, traj.ref.s + traj.x2, traj.w,
            loss_probability(traj.w, traj.params))


def _column_gaps(traj, reference):
    return [np.abs(a - b) for a, b in zip(absolute_columns(traj), reference)]


def test_cubic_fixed_point_run_matches_absolute_reference(canonical_params, canonical_fp):
    # From the fixed point w_max and the window hold exactly in both
    # coordinates; s, which grows through a rounded 1 - s*rate, differs by
    # 3.2e-14 at most (8.2e-15 relative).
    params, fp = canonical_params, canonical_fp
    start = FlowState(fp.w_hat, fp.s_hat)
    traj = integrate(params, CUBIC, start, 20 * params.tau, params.tau / 16, fp=fp)
    reference = absolute_integrate(params, CUBIC, start, 20 * params.tau, params.tau / 16)
    d_w_max, d_s, d_w, d_p = _column_gaps(traj, reference)
    assert not d_w_max.any() and not d_w.any() and not d_p.any()
    assert np.all(d_s <= 1e-13 * reference[1])


def test_reno_offset_run_matches_absolute_reference():
    # Measured: w_max, s and w within 2.5e-14 relative, p within 8.4e-15
    # absolute (p crosses zero, so its relative gap is not bounded).
    params = SystemParams(capacity=100.0, tau=0.1, b=0.2, c=0.4)
    fp = reno_steady_state(params)
    start = FlowState(1.1 * fp.w_hat, fp.s_hat)
    traj = integrate(params, RENO, start, 50 * params.tau, params.tau / 16, fp=fp)
    reference = absolute_integrate(params, RENO, start, 50 * params.tau, params.tau / 16)
    d_w_max, d_s, d_w, d_p = _column_gaps(traj, reference)
    for gap, col in zip((d_w_max, d_s, d_w), reference):
        assert np.all(gap <= 1e-13 * np.abs(col))
    assert np.all(d_p <= 1e-13)


def test_trajectory_columns_are_the_deviation_state(canonical_params, canonical_fp):
    params, fp = canonical_params, canonical_fp
    start = FlowState(1.01 * fp.w_hat, fp.s_hat)
    for ref_fp in (fp, None):
        traj = integrate(params, CUBIC, start, 5 * params.tau, params.tau / 8, fp=ref_fp)
        assert traj.ref == (start if ref_fp is None else (fp.w_hat, fp.s_hat))
        assert traj.params == params
        columns = (traj.x1, traj.x2, traj.dx1, traj.dx2, traj.w)
        assert all(len(col) == len(traj.t) for col in columns)


def test_integration_is_deterministic(canonical_params, canonical_fp):
    start = FlowState(1.01 * canonical_fp.w_hat, canonical_fp.s_hat)
    a = integrate(canonical_params, CUBIC, start, 20 * canonical_params.tau,
                  canonical_params.tau / 8)
    b = integrate(canonical_params, CUBIC, start, 20 * canonical_params.tau,
                  canonical_params.tau / 8)
    for col_a, col_b in zip(absolute_columns(a), absolute_columns(b)):
        assert np.array_equal(col_a, col_b)


def test_domain_exit_raises_integration_error(canonical_params):
    # An absurd initial epoch age forces the first step far past the stiff
    # transient; the integrator must report failure, not return garbage.
    start = FlowState(1.0, 1e6)
    with pytest.raises(IntegrationError) as err:
        integrate(canonical_params, CUBIC, start, 0.1, canonical_params.tau / 16)
    assert err.value.time > 0.0
    assert isinstance(err.value.state, FlowState)


def test_hostile_window_function_raises(canonical_params):
    class Collapsing(WindowFunction):
        name = "collapsing"

        def window(self, state, params):
            return state.w_max - 1e6 * state.s

    # From s = 0 a stored sample's window turns negative; from s = 1 the
    # start's own window already is, and every stage before t = tau reads
    # its delayed rate.
    for s, message in [(0.0, "w_max or window left"), (1.0, "delayed window left")]:
        with pytest.raises(IntegrationError, match=message):
            integrate(canonical_params, Collapsing(), FlowState(10.0, s), 1.0,
                      canonical_params.tau / 8)


def test_trajectory_csv_round_trips(tmp_path, canonical_params, canonical_fp):
    start = FlowState(1.01 * canonical_fp.w_hat, canonical_fp.s_hat)
    traj = integrate(canonical_params, CUBIC, start, 5 * canonical_params.tau,
                     canonical_params.tau / 8)
    path = tmp_path / "trace.csv"
    traj.write_csv(path)
    lines = path.read_text(encoding="utf-8").splitlines()
    assert lines[0] == "t,w_max,s,w,p"
    assert len(lines) == len(traj.t) + 1
    columns = (traj.t, *absolute_columns(traj))
    for i in (1, len(lines) // 2, len(lines) - 1):
        row = tuple(float(v) for v in lines[i].split(","))
        assert row == tuple(col[i - 1] for col in columns)


def test_trace_writers_match_per_row_repr(tmp_path, canonical_params, canonical_fp):
    # Every trace has more rows than one write chunk, so chunk seams are
    # covered; the simulator trace holds the integer flow column.
    params, fp = canonical_params, canonical_fp
    start = FlowState(fp.w_hat, fp.s_hat + 1e-3)
    traj = integrate(params, CUBIC, start, 100 * params.tau, params.tau / 64, fp=fp)
    diag = stability_trace(traj, certificate(fp, params))
    sim = run_simulation(SystemParams(capacity=100.0, tau=0.1, b=0.2, c=0.4, flows=2), CUBIC,
                         [(12.0, 0.0), (9.0, 1.0)], 5, 50.0, sample_dt=0.01)
    trace = sim.trace_columns(0, sim.windows.size)
    assert len(trace[0]) > 4096 and -1 in trace[1]
    path = tmp_path / "trace.csv"
    traj.write_csv(path)
    columns = (traj.t, *absolute_columns(traj))
    assert_same_text(path.read_text(encoding="utf-8"), per_row_csv("t,w_max,s,w,p", columns))
    diag.write_csv(path)
    columns = diag.columns(0, len(diag.t))
    assert_same_text(path.read_text(encoding="utf-8"),
                     per_row_csv("t,norm_x,V,Vdot,bound", columns))
    sim.write_trace_csv(path)
    assert_same_text(path.read_text(encoding="utf-8"), per_row_csv("t,flow,w", trace))
    sim.write_events_csv(path)
    rows = [f"{ev.event_type},{ev.time!r},{ev.flow},{ev.window_before!r},{ev.window_after!r}\n"
            for ev in sim.events]
    assert_same_text(path.read_text(encoding="utf-8"),
                     "".join(["event_type,time,flow,window_before,window_after\n", *rows]))
    # Columns that repeat most of their values, with the kinds as bytes and
    # without them: the compiled formatter writes them where it can be
    # built, and repr, by its formatted-once path, chunk by chunk, where it
    # cannot.
    columns = awkward_columns(3 * 4096 + 100)
    for header, table in [("kind,a,b,c,d,e,f,flow", columns), ("a,b,c,d,e,f,flow", columns[1:])]:
        write_csv(path, header, table)
        text = path.read_text(encoding="utf-8")
        assert_same_text(text, per_row_csv(header, table))
        assert "-0.0," in text and "5e-324" in text


def test_trace_writers_match_per_row_repr_by_repr(tmp_path, python_format, canonical_params,
                                                  canonical_fp):
    test_trace_writers_match_per_row_repr(tmp_path, canonical_params, canonical_fp)


@functools.lru_cache
def seam_oracles(params, fp, start, rows):
    """The trajectory and diagnostics CSVs of a run of ``rows`` samples,
    written row by row from the whole columns, as lists of lines."""
    cert = certificate(fp, params)
    h = params.tau / 64
    traj = integrate(params, CUBIC, start, (rows - 1.5) * h, h, fp=fp)  # rows samples
    return [per_row_csv(header, columns).splitlines(keepends=True) for header, columns in [
        ("t,w_max,s,w,p", (traj.t, *absolute_columns(traj))),
        ("t,norm_x,V,Vdot,bound", stability_trace(traj, cert).columns(0, rows))]]


@pytest.mark.parametrize("chunks", [1, 2, 3])
def test_trajectory_csvs_match_per_row_repr_across_part_seams(tmp_path, chunks, canonical_params,
                                                              canonical_fp):
    # Rows one short of that many write chunks, exactly that many, and one
    # row past.  Each chunk's diagnostics are formed for its own range, the
    # oracle over the whole trajectory, so the chunk seams must not move a
    # bit.
    params, fp = canonical_params, canonical_fp
    cert = certificate(fp, params)
    start = FlowState(fp.w_hat, fp.s_hat + 1e-3)
    m = artifacts._WRITE_CHUNK
    sizes = (chunks * m - 1, chunks * m, chunks * m + 1)
    oracles = seam_oracles(params, fp, start, max(sizes))
    h = params.tau / 64
    path = tmp_path / "trace.csv"
    for n in sizes:
        traj = integrate(params, CUBIC, start, (n - 1.5) * h, h, fp=fp)
        assert len(traj.t) == n
        for write, oracle in zip((traj.write_csv, stability_trace(traj, cert).write_csv), oracles):
            write(path)
            assert_same_text(path.read_text(encoding="utf-8"), "".join(oracle[: n + 1]))


@pytest.mark.parametrize("chunks", [1, 2, 3])
def test_trajectory_csvs_match_per_row_repr_across_part_seams_by_repr(
        tmp_path, python_format, chunks, canonical_params, canonical_fp):
    test_trajectory_csvs_match_per_row_repr_across_part_seams(
        tmp_path, chunks, canonical_params, canonical_fp)


class FailingCubic(WindowFunction):
    """CUBIC until its deficit has been evaluated ``calls`` times, then an
    infinite deficit, which takes the window out of its domain."""

    name = "failing"

    def __init__(self, calls: int):
        self.calls = calls

    def window(self, state, params):
        return CUBIC.window(state, params)

    def deficit_about(self, ref, params):
        deficit = CUBIC.deficit_about(ref, params)
        left = [self.calls]

        def failing(x1, x2):
            left[0] -= 1
            return deficit(x1, x2) if left[0] > 0 else math.inf

        return failing


CONVERGENCE_ARGS = ["convergence", "--capacity-pkts", "12500", "--delay-tau", "0.01",
                    "--init", "offset", "--init-offset-s", "1e-3", "--step", str(0.01 / 64)]


def test_failed_integration_leaves_no_writer_file_or_directory(tmp_path, monkeypatch, capfd):
    # The window fails mid-run (a step evaluates the deficit five times).
    # The run ends before any file is written, so no output is made.
    monkeypatch.setattr(experiment, "window_function",
                        lambda name: FailingCubic(5 * 1000))
    out = tmp_path / "out"
    rc = main([*CONVERGENCE_ARGS, "--t-end", "10.0", "--out", str(out)])
    assert rc == 3
    err = capfd.readouterr().err
    assert err.startswith("numeric failure: w_max or window left") and len(err.splitlines()) == 1
    assert os.listdir(tmp_path) == []


@pytest.mark.parametrize("args, artifact", [
    (["nhpl", "--capacity-pkts", "100", "--delay-tau", "0.1", "--flows", "3", "--t-end", "40",
      "--sample-dt", "0.001"], "nhpl_trace.csv"),
    ([*CONVERGENCE_ARGS, "--t-end", "6.0"], "convergence.csv"),
])
def test_cli_names_the_file_a_full_disk_refused(tmp_path, capfd, full_disk, args, artifact):
    # The writes into the 160,005-row simulator trace or the 38,401-row
    # convergence table fail, as on a full disk.  The file is named, and no
    # output directory is left, although the simulator run wrote its event
    # log before the trace.
    full_disk(artifact)
    out = tmp_path / "out"
    assert main([*args, "--out", str(out)]) == 2
    err = capfd.readouterr().err
    assert err.startswith(f"error: could not write {out / artifact}: ")
    assert len(err.splitlines()) == 1
    assert not out.exists()


@pytest.mark.parametrize("run, earlier", [("", False), ("run/deeper", False), ("", True)],
                         ids=["", "run/deeper", "over-an-earlier-run"])
def test_failed_write_removes_only_what_the_run_made(tmp_path, capfd, full_disk, run, earlier):
    # The simulator run writes its event log, then fails to write its trace
    # for want of disk space: the log and every directory made for --out
    # go; the existing directory and the files it held before the run stay,
    # an earlier run's event log, trace and summary among them when there
    # was one.
    existing = tmp_path / "out"
    existing.mkdir()
    (existing / "notes.txt").write_text("kept\n", encoding="utf-8")
    out = existing / run
    args = ["nhpl", "--capacity-pkts", "100", "--delay-tau", "0.1", "--flows", "3",
            "--t-end", "40", "--sample-dt", "0.001", "--out", str(out)]
    if earlier:
        assert main(args) == 0
    before = {path.name: path.read_bytes() for path in existing.iterdir()}
    full_disk("nhpl_trace.csv")
    assert main([*args, "--seed", "2"]) == 2
    assert capfd.readouterr().err.startswith(f"error: could not write {out / 'nhpl_trace.csv'}")
    assert os.listdir(tmp_path) == ["out"]
    assert {path.name: path.read_bytes() for path in existing.iterdir()} == before
    assert (existing / "notes.txt").read_text(encoding="utf-8") == "kept\n"


def test_integrate_prepares_the_rhs_once(monkeypatch, python_loop, canonical_params,
                                        canonical_fp):
    # K_ref is a cube root of the reference alone: a CUBIC run about the
    # fixed point takes it when the RHS is built, never per step of the
    # Python loop.
    params, fp = canonical_params, canonical_fp
    calls = []
    cbrt = protocols.cbrt
    monkeypatch.setattr(protocols, "cbrt", lambda x: calls.append(x) or cbrt(x))
    h = params.tau / 8
    counts = []
    for steps in (200, 400):
        calls.clear()
        traj = integrate(params, CUBIC, FlowState(fp.w_hat, fp.s_hat + 1e-4), steps * h, h,
                         fp=fp)
        assert len(traj.t) == steps + 1
        counts.append(len(calls))
    assert counts[0] == counts[1] <= 2


@pytest.mark.parametrize("loop", ["compiled", "python"])
def test_integrate_holds_only_the_five_integrated_columns(request, loop, canonical_params,
                                                          canonical_fp):
    # The state, its derivative and the window, one float column each; a
    # sample's time is formed from the step when it is read.  A stored time
    # column made the peak six columns.
    if loop == "python":
        request.getfixturevalue("python_loop")
    params, fp = canonical_params, canonical_fp
    h, n = params.tau / 64, 65536
    start = FlowState(fp.w_hat, fp.s_hat + 1e-3)
    integrate(params, CUBIC, start, 1.0, h, fp=fp)  # builds and loads the compiled loop
    tracemalloc.start()
    try:
        traj = integrate(params, CUBIC, start, (n - 0.5) * h, h, fp=fp)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(traj.x1) == n + 1
    assert peak <= 5.1 * 8 * (n + 1)


def test_sample_times_are_the_step_multiples(canonical_params, canonical_fp):
    # Whole, and for ranges that cross the write chunks' seams, the times
    # are float(i) * h bit for bit, in the trajectory and its diagnostics.
    params, fp = canonical_params, canonical_fp
    h, chunk = params.tau / 64, artifacts._WRITE_CHUNK
    n = 3 * chunk + 5
    traj = integrate(params, CUBIC, FlowState(fp.w_hat, fp.s_hat + 1e-3), (n - 0.5) * h, h,
                     fp=fp)
    diag = stability_trace(traj, certificate(fp, params))
    grid = np.arange(n + 1, dtype=np.float64) * h
    assert traj.t.tobytes() == diag.t.tobytes() == grid.tobytes()
    for lo, hi in [(0, n + 1), (chunk - 1, chunk + 1), (chunk, 2 * chunk),
                   (2 * chunk - 3, 3 * chunk + 2), (n, n + 1), (5, 5)]:
        for table in (traj, diag):
            assert table.columns(lo, hi)[0].tobytes() == grid[lo:hi].tobytes()
