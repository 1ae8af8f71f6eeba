import contextlib
import io
import math
import tempfile
from dataclasses import fields, replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from oracles import scalar_razumikhin_mask
from tcpfluid import (
    ConfigError,
    ExperimentConfig,
    build_config,
    read_config_file,
    run_experiment,
)
from tcpfluid.cli import main
from tcpfluid.experiment import (
    CONFIG_MAX_BYTES,
    KEY_PARSERS,
    MODES,
    WORK_BUDGET,
    bits_to_packets,
    post_transient_mean,
)

BASE = {"capacity_pkts": 100.0, "delay_tau": 0.1, "t_end": 2.0}


def make_config(**over):
    raw = dict(BASE)
    raw.update(over)
    return build_config(raw)


def test_unit_conversions_round_trip():
    # 1 Gbit/s at 1000-byte packets is exactly 125000 packets/s.
    assert bits_to_packets(1e9) == 125000.0
    assert bits_to_packets(777.0 * 8.0 * 500.0, 500.0) == 777.0


def test_read_config_file(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text(
        "# a comment line\n"
        "capacity_pkts = 100   # trailing comment\n"
        "\n"
        "delay_tau=0.1\n"
        "seed = 1\n"
        "seed = 2\n"
    )
    raw = read_config_file(path)
    assert raw == {"capacity_pkts": "100", "delay_tau": "0.1", "seed": "2"}
    bad = tmp_path / "bad.cfg"
    bad.write_text("capacity_pkts 100\n")
    with pytest.raises(ConfigError):
        read_config_file(bad)


def test_build_config_parses_string_values():
    config = build_config(
        {
            "capacity_pkts": "100",
            "delay_tau": "0.1",
            "mode": "nhpl",
            "flows": "2",
            "init": "explicit",
            "init_w_max": "10,12",
            "init_s": "0, 0.05",
        }
    )
    assert config.flows == 2
    assert config.init_w_max == (10.0, 12.0)
    assert config.init_s == (0.0, 0.05)
    assert config.system_params().capacity == 100.0


@pytest.mark.parametrize("typed", [
    {"capacity_pkts": 100, "delay_tau": np.float64(0.1), "flows": np.int64(2)},
    {"capacity_pkts": np.float64(100.0), "delay_tau": 0.1, "b": np.float32(0.25), "flows": 2},
])
def test_typed_values_write_the_cli_summary(tmp_path, capsys, typed):
    # Typed numbers become the key's Python type, so they run and print as
    # the same values given as strings: no np.float64(...) in the summary, no
    # int capacity printed as 100, no single-precision fixed point.
    config = build_config({"b": 0.25, **typed, "mode": "fluid", "t_end": 2.0})
    assert all(type(getattr(config, key)) is (int if key == "flows" else float) for key in typed)
    run_experiment(config, tmp_path / "typed")
    assert main(["fluid", "--capacity-pkts", "100", "--delay-tau", "0.1", "--b", "0.25",
                 "--flows", "2", "--t-end", "2", "--out", str(tmp_path / "cli")]) == 0
    capsys.readouterr()
    for name in ("summary.txt", "fluid_trace.csv"):
        assert (tmp_path / "typed" / name).read_bytes() == (tmp_path / "cli" / name).read_bytes()


@pytest.mark.parametrize(
    "raw",
    [
        {"nonsense_key": "1", **BASE},
        {"capacity_pkts": "ten", "delay_tau": "0.1"},
        {"delay_tau": 0.1},  # no capacity at all
        {"capacity_pkts": 100.0, "capacity_bps": 1e9, "delay_tau": 0.1},
        {**BASE, "b": 1.5},
        {**BASE, "b": 0.0},
        {**BASE, "algorithm": "bbr"},
        {**BASE, "mode": "spin"},
        {**BASE, "init": "magic"},
        {**BASE, "init": "explicit"},  # missing lists
        {**BASE, "init": "explicit", "init_w_max": (10.0,), "init_s": (0.0, 0.0)},
        {**BASE, "flows": 0},
        {**BASE, "seed": -1},
        {**BASE, "t_end": 0.0},
        {**BASE, "step": 0.06},  # only 2 steps per delay
        {**BASE, "step": 0.015},  # does not divide the delay
        {**BASE, "post_transient": 0.0},
        {**BASE, "post_transient": 1.5},
        {**BASE, "sample_dt": 0.0},
        {**BASE, "packet_size_bytes": 0.0},
        {**BASE, "t_end": float("nan")},  # typed values pass the finiteness check too
        {**BASE, "step": float("nan")},
        {**BASE, "init_offset_w": float("inf")},
        {**BASE, "init_offset_w": 10**400},
        {**BASE, "flows": 2.0},  # typed values must have the key's type
        {**BASE, "mode": 3},
        {**BASE, "init_w_max": 5},
        {**BASE, "b": None},  # None stands for a default only where that is None
        {**BASE, "algorithm": "reno", "mode": "stability"},  # the certificate is cubic's
        {**BASE, "mode": "convergence"},  # V vanishes at the fixed-point init
        {**BASE, "flows": True},  # a bool is no number
        {**BASE, "seed": False},
        {**BASE, "capacity_pkts": True},
        {**BASE, "init_offset_w": np.bool_(True)},
        {**BASE, "init": "explicit", "init_w_max": (True,), "init_s": (0.0,)},
    ],
)
def test_build_config_rejects(raw):
    with pytest.raises(ConfigError):
        build_config(raw)


@pytest.mark.parametrize("over", [
    {"mode": "bogus"},
    {"mode": "nhpl", "post_transient": 0.0},
    {"mode": "fluid", "init": "explicit"},  # no lists
    {"algorithm": "vegas"},
])
def test_direct_construction_is_checked(tmp_path, over):
    # A config built without build_config gets the same checks, so
    # run_experiment never sees one that build_config would reject.
    with pytest.raises(ConfigError):
        run_experiment(ExperimentConfig(capacity_pkts=100.0, delay_tau=0.1, **over),
                       tmp_path / "out")
    assert not (tmp_path / "out").exists()


def test_replace_is_checked():
    with pytest.raises(ConfigError, match="fluid steps"):
        replace(make_config(), t_end=1e12)


def test_post_transient_mean():
    t = np.linspace(0.0, 10.0, 11)
    w = np.arange(11.0)
    assert post_transient_mean(t, w, 10.0, 0.5) == 7.5
    assert post_transient_mean(t, w, 10.0, 1.0) == 5.0
    with pytest.raises(ValueError):
        post_transient_mean(np.array([0.0, 1.0]), np.array([1.0, 2.0]), 10.0, 0.05)


def test_fluid_mode_artifacts(tmp_path):
    config = make_config(mode="fluid", init="offset", init_offset_w=1.0)
    result = run_experiment(config, tmp_path / "out")
    assert set(result.artifacts) == {"fluid_trace", "summary"}
    trace = (tmp_path / "out" / "fluid_trace.csv").read_text().splitlines()
    assert trace[0] == "t,w_max,s,w,p"
    assert len(trace) > 100
    assert "fluid_mean_w" in result.metrics
    assert result.metrics["w_hat"] > 0.0
    assert "fluid_mean_w:" in result.summary


def test_fluid_counters(tmp_path):
    # A start below the bdp crosses it on the way up to the fixed point.
    config = make_config(mode="fluid", init="offset", init_offset_w=-10.0, t_end=20.0)
    result = run_experiment(config, tmp_path / "out")
    rows = (tmp_path / "out" / "fluid_trace.csv").read_text().splitlines()[1:]
    w = [float(row.split(",")[3]) for row in rows]
    bdp = config.capacity_pkts * config.delay_tau
    crossings = sum((a > bdp) != (b > bdp) for a, b in zip(w, w[1:]))
    assert result.metrics["fluid_steps"] == len(rows) - 1
    assert result.metrics["fluid_bdp_crossings"] == crossings > 0
    assert f"fluid_bdp_crossings: {crossings}" in result.summary.splitlines()


def test_nhpl_mode_artifacts(tmp_path):
    config = make_config(mode="nhpl", seed=3, t_end=5.0)
    result = run_experiment(config, tmp_path / "out")
    assert set(result.artifacts) == {"nhpl_events", "nhpl_trace", "summary"}
    events = (tmp_path / "out" / "nhpl_events.csv").read_text().splitlines()
    assert events[0] == "event_type,time,flow,window_before,window_after"
    assert result.metrics["nhpl_losses"] >= 1.0
    assert result.metrics["nhpl_mean_w"] > 0.0


def test_both_mode_reports_the_gap(tmp_path):
    config = make_config(mode="both", seed=3, t_end=5.0)
    result = run_experiment(config, tmp_path / "out")
    assert set(result.artifacts) == {
        "fluid_trace", "nhpl_events", "nhpl_trace", "summary",
    }
    gap = result.metrics["nhpl_vs_fluid"]
    assert gap == pytest.approx(
        result.metrics["nhpl_mean_w"] / result.metrics["fluid_mean_w"] - 1.0
    )


def test_fixed_point_mode(tmp_path):
    config = make_config(mode="fixed-point")
    result = run_experiment(config, tmp_path / "out")
    assert set(result.artifacts) == {"summary"}
    assert abs(result.metrics["consistency_residual"]) < 1e-9
    assert "consistency_residual:" in (tmp_path / "out" / "summary.txt").read_text()


def test_stability_mode(tmp_path):
    config = make_config(mode="stability")
    result = run_experiment(config, tmp_path / "out")
    assert result.metrics["lambda_min"] > 0.0
    assert result.metrics["basin_delta"] > 0.0
    report = (tmp_path / "out" / "stability_report.txt").read_text()
    assert "lambda_min:" in report and "qtilde_row:" in report


def test_stability_report_layout(tmp_path):
    # Readers parse the report by key: the qtilde_row and lambda_min lines
    # above all, so its keys keep this order.
    result = run_experiment(make_config(mode="stability"), tmp_path / "out")
    lines = (tmp_path / "out" / "stability_report.txt").read_text().splitlines()
    pairs = [line.split(": ", 1) for line in lines]
    assert [key for key, _ in pairs] == [
        "w_hat", "s_hat", "p_hat", "alpha", "beta", "gamma", "delta", "d1", "d4",
        "eps0", "eps1", "k_margin", "razumikhin_p", "qtilde_row", "qtilde_row", "qtilde_row",
        "lambda_min", "epsilon", "basin_delta",
    ]
    assert all(len(value.split(",")) == 3 for key, value in pairs if key == "qtilde_row")
    assert pairs[-3][1] == repr(result.metrics["lambda_min"])
    assert pairs[-1][1] == repr(result.metrics["basin_delta"])
    assert pairs[0][1] == repr(result.metrics["w_hat"])


def test_convergence_mode(tmp_path):
    config = make_config(
        mode="convergence", init="offset", init_offset_s=0.01, t_end=1.0
    )
    result = run_experiment(config, tmp_path / "out")
    diag = (tmp_path / "out" / "convergence.csv").read_text().splitlines()
    assert diag[0] == "t,norm_x,V,Vdot,bound"
    assert 0.0 <= result.metrics["bound_fraction"] <= 1.0
    # The first sample always passes the Razumikhin comparison with itself.
    share = result.metrics["razumikhin_fraction"]
    assert 1.0 / (len(diag) - 1) <= share <= 1.0
    summary = (tmp_path / "out" / "summary.txt").read_text()
    assert f"razumikhin_fraction: {share!r}\n" in summary


def test_convergence_fractions_match_the_csv(tmp_path):
    # Criterion 6's divergent start, where the decay bound fails on part of
    # the run: both shares the summary reports are recomputed from the CSV,
    # the bound's from its columns and the Razumikhin share from its V
    # column over the 16 steps of one delay.
    out = tmp_path / "out"
    assert main(["convergence", "--capacity-pkts", "125000", "--delay-tau", "0.1",
                 "--init", "explicit", "--init-w-max", "12371.9952", "--init-s", "13.6794",
                 "--t-end", "20", "--out", str(out)]) == 0
    reported = dict(line.split(": ", 1) for line in (out / "summary.txt").read_text().splitlines())
    lines = (out / "convergence.csv").read_text().splitlines()
    _, norm_x, v, _, bound = np.array([[float(c) for c in line.split(",")]
                                       for line in lines[1:]]).T
    assert len(v) == 3201
    # The start is not in the basin: |x| grows over the final half, from row
    # 1600 at t = 10 s, by the 18x README states.
    assert norm_x[-1] > 18.0 * norm_x[1600]
    bounded = float(np.mean(norm_x**4 <= bound * (1.0 + 1e-12)))
    razumikhin = float(np.mean(scalar_razumikhin_mask(v, 16, 1.01)))
    assert 0.0 < bounded < 1.0
    assert reported["bound_fraction"] == repr(bounded)
    assert reported["razumikhin_fraction"] == repr(razumikhin)


def test_readme_reno_run_leaves_its_fixed_point(tmp_path, capsys):
    # README's example: Reno started on its fixed point drifts into a limit
    # cycle.
    assert main(["fluid", "--algorithm", "reno", "--capacity-pkts", "100",
                 "--delay-tau", "0.1", "--out", str(tmp_path / "out")]) == 0
    report = dict(line.split(": ", 1) for line in capsys.readouterr().out.splitlines())
    assert report["fluid_bdp_crossings"] == "22"
    assert round(float(report["fluid_mean_w_rel_fp"]), 4) == -0.0807


def test_readme_stability_run_then_in_basin_convergence_run(tmp_path, capsys):
    # README's example: the certified basin radius of the canonical system,
    # then a trajectory started at 0.8 of it, inside the decay bound at every
    # sample.
    system = ["--capacity-pkts", "12500", "--delay-tau", "0.01"]
    assert main(["stability", *system, "--out", str(tmp_path / "stability")]) == 0
    report = dict(line.split(": ", 1) for line in capsys.readouterr().out.splitlines())
    delta = float(report["basin_delta(eps=0.01*w_hat)"])
    assert main(["convergence", *system, "--init", "offset", "--init-offset-s",
                 repr(0.8 * delta), "--out", str(tmp_path / "convergence")]) == 0
    assert "bound_fraction: 1.0\n" in capsys.readouterr().out


@pytest.mark.parametrize("mode", ["fluid", "convergence"])
def test_fluid_modes_build_flow_0_alone(tmp_path, mode):
    # The fluid-only modes integrate flow 0 and build no start per flow, so
    # 2**70 flows write the trajectory one flow writes, and only the
    # summary's flows line differs.
    trace = {"fluid": "fluid_trace.csv", "convergence": "convergence.csv"}[mode]
    for flows in (1, 2**70):
        assert main([mode, "--capacity-pkts", "100", "--delay-tau", "0.1", "--init", "offset",
                     "--init-offset-s", "0.01", "--flows", str(flows),
                     "--out", str(tmp_path / str(flows))]) == 0
    one, many = tmp_path / "1", tmp_path / str(2**70)
    assert (one / trace).read_bytes() == (many / trace).read_bytes()
    summary = (one / "summary.txt").read_text()
    assert "\nflows: 1\n" in summary
    assert (many / "summary.txt").read_text() == summary.replace("\nflows: 1\n",
                                                                f"\nflows: {2**70}\n")


@pytest.mark.parametrize("over", [
    {"mode": "fluid", "init": "offset", "init_offset_w": 1.0},
    {"mode": "nhpl", "seed": 3, "t_end": 5.0, "flows": 2},
    {"mode": "both", "seed": 3, "t_end": 5.0},
    {"mode": "stability"},
    {"mode": "convergence", "init": "offset", "init_offset_s": 0.01, "t_end": 1.0},
    {"mode": "fixed-point"},
], ids=lambda over: over["mode"])
def test_summary_reports_every_metric(tmp_path, over):
    result = run_experiment(make_config(**over), tmp_path / "out")
    summary = (tmp_path / "out" / "summary.txt").read_text()
    assert summary == result.summary + "\n"
    lines = summary.splitlines()
    assert lines[0] == f"mode: {over['mode']}"
    keys = [line.split(": ", 1)[0] for line in lines]
    assert keys[5:9] == ["w_hat", "s_hat", "p_hat", "consistency_residual"]
    assert abs(result.metrics["consistency_residual"]) < 1e-9
    # Each line after the five header lines is one report call, in order:
    # every metric is in the summary and every summary number in the metrics.
    labels = {"basin_delta": "basin_delta(eps=0.01*w_hat)"}
    assert lines[5:] == [f"{labels.get(key, key)}: {value!r}"
                         for key, value in result.metrics.items()]


@pytest.mark.parametrize("mode", ["stability", "convergence"])
def test_certificate_modes_are_cubic_only(mode):
    with pytest.raises(ConfigError, match="cubic"):
        make_config(mode=mode, algorithm="reno", init="offset", init_offset_s=0.01)


def test_convergence_mode_rejects_equilibrium_start():
    with pytest.raises(ConfigError, match="offset or explicit"):
        make_config(mode="convergence")


@pytest.mark.parametrize("mode", ["fluid", "both", "convergence"])
def test_fluid_modes_need_identical_explicit_flows(mode):
    # The fluid modes integrate flow 0 only, so flows that differ would be
    # dropped without a word; identical flows still run.
    explicit = dict(mode=mode, flows=2, init="explicit", init_s=(0.0, 0.0))
    with pytest.raises(ConfigError, match="same explicit init"):
        make_config(**explicit, init_w_max=(12.0, 30.0))
    make_config(**explicit, init_w_max=(12.0, 12.0))
    make_config(**{**explicit, "mode": "nhpl"}, init_w_max=(12.0, 30.0))


def test_work_budget_bounds_steps_and_rows():
    # Criterion 8 takes 480000 fluid steps and 630021 trace rows.
    make_config(mode="both", flows=20, capacity_pkts=125000.0, delay_tau=0.001,
                t_end=30.0)
    tau = BASE["delay_tau"]
    at_budget = WORK_BUDGET * tau / 16
    make_config(mode="fluid", t_end=at_budget)
    with pytest.raises(ConfigError, match="fluid steps"):
        make_config(mode="fluid", t_end=at_budget * (1 + 1e-9))
    # (floor(t_end / tau) + 1) * (flows + 1) rows
    make_config(mode="nhpl", t_end=(WORK_BUDGET // 2 - 1) * tau)
    with pytest.raises(ConfigError, match="trace rows"):
        make_config(mode="nhpl", t_end=(WORK_BUDGET // 2) * tau)
    # Modes without fluid steps or a trace do not count them.
    make_config(mode="fixed-point", t_end=1e300)


@pytest.mark.parametrize(
    "t_end, post_transient",
    [(0.05, 0.5), (0.1, 0.5), (1.05, 0.01), (1.0, 0.01), (1.0, 1.0), (0.3, 0.4)],
)
def test_simulator_modes_need_a_post_transient_sample(tmp_path, t_end, post_transient):
    # Samples every tau = 0.1 s: a config passes validation exactly when the
    # final post_transient share of the horizon holds one, and then runs.
    over = dict(mode="nhpl", t_end=t_end, post_transient=post_transient)
    try:
        config = make_config(**over)
    except ConfigError as exc:
        assert "no trace sample" in str(exc)
        t = np.arange(math.floor(t_end / 0.1 + 1e-9) + 1) * 0.1
        assert not np.any(t >= (1.0 - post_transient) * t_end)
        return
    assert run_experiment(config, tmp_path / "out").metrics["nhpl_mean_w"] > 0.0


def _equilibrium_argv() -> list[str]:
    config = make_config()
    fp = config.steady_state(config.system_params())
    return ["--init", "explicit", "--init-w-max", repr(fp.w_hat), "--init-s", repr(fp.s_hat)]


@pytest.mark.parametrize(
    "argv",
    [
        ["nhpl", "--capacity-pkts", "100", "--t-end", "0.05"],
        ["compare", "--capacity-pkts", "100", "--t-end", "0.05"],
        # A start on the fixed point leaves V(0) = 0 for the decay bound;
        # 1e-30 is below half an ulp of w_hat.
        ["convergence", "--capacity-pkts", "100", "--init", "offset"],
        ["convergence", "--capacity-pkts", "100", "--init", "offset", "--init-offset-w", "1e-30"],
        ["convergence", "--capacity-pkts", "100", "EQUILIBRIUM"],
        # V(0) past the float range leaves no decay bound: x2**4 of 1e80.
        ["convergence", "--capacity-pkts", "100", "--init", "offset", "--init-offset-s", "1e80",
         "--t-end", "0.1"],
        ["convergence", "--capacity-pkts", "100", "--init", "explicit", "--init-w-max", "100",
         "--init-s", "1e80"],
        # 1e308 bit/s over 1e-300-byte packets is an infinite packet rate.
        ["nhpl", "--algorithm", "reno", "--capacity-bps", "1e308", "--packet-size-bytes", "1e-300"],
        # An offset start off the positive window domain.
        ["fluid", "--capacity-pkts", "100", "--init", "offset", "--init-offset-w", "-1000"],
        ["nhpl", "--capacity-pkts", "100", "--init", "offset", "--init-offset-w", "-1000"],
        ["compare", "--capacity-pkts", "100", "--init", "offset", "--init-offset-w", "-1000"],
        # The last fluid sample, 222 h = 3.6999999999999997, falls a hair
        # short of t_end and so outside the final share.
        ["fluid", "--capacity-pkts", "100", "--step", "0.016666666666666666", "--t-end", "3.7",
         "--post-transient", "1e-300"],
        ["compare", "--capacity-pkts", "100", "--step", "0.016666666666666666", "--t-end", "3.7",
         "--post-transient", "1e-300"],
    ],
)
def test_cli_rejects_runs_without_a_result(tmp_path, capsys, argv):
    if "EQUILIBRIUM" in argv:
        argv = argv[:-1] + _equilibrium_argv()
    rc = main(argv + ["--delay-tau", "0.1", "--out", str(tmp_path / "out")])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("config error:") and "Traceback" not in err
    assert len(err.splitlines()) == 1
    assert not (tmp_path / "out").exists()


def test_cli_fixed_point_success(tmp_path, capsys):
    rc = main([
        "fixed-point",
        "--capacity-pkts", "100",
        "--delay-tau", "0.1",
        "--out", str(tmp_path / "out"),
    ])
    assert rc == 0
    captured = capsys.readouterr()
    assert "w_hat:" in captured.out
    assert "wrote summary:" in captured.out
    assert (tmp_path / "out" / "summary.txt").exists()


def test_cli_missing_config_file(tmp_path, capsys):
    rc = main(["fluid", "--config", str(tmp_path / "absent.cfg")])
    assert rc == 2
    assert "error:" in capsys.readouterr().err


def test_cli_rejects_config_file_that_is_not_utf8(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_bytes(b"\x7fELF\x02\x01\x01\x00\xff\xfe capacity_pkts=100\n")
    rc = main(["fixed-point", "--config", str(cfg), "--out", str(tmp_path / "out")])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("config error:") and str(cfg) in err
    assert len(err.splitlines()) == 1
    assert not (tmp_path / "out").exists()


def test_cli_rejects_config_file_over_the_size_cap(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    text = "capacity_pkts=100\ndelay_tau=0.1\n"
    cfg.write_text(text + "#" * (CONFIG_MAX_BYTES + 1 - len(text)))
    rc = main(["fixed-point", "--config", str(cfg), "--out", str(tmp_path / "out")])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("config error:") and str(cfg) in err
    assert len(err.splitlines()) == 1
    assert not (tmp_path / "out").exists()
    cfg.write_text(text + "#" * (CONFIG_MAX_BYTES - len(text)))  # at the cap: accepted
    assert main(["fixed-point", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 0


def test_cli_rejects_unknown_config_key(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("capacity_pkts=100\ndelay_tau=0.1\nwarp_factor=9\n")
    rc = main(["fluid", "--config", str(cfg), "--out", str(tmp_path / "out")])
    assert rc == 2
    assert "config error:" in capsys.readouterr().err


def test_cli_rejects_coarse_step(tmp_path, capsys):
    rc = main([
        "fluid",
        "--capacity-pkts", "100",
        "--delay-tau", "0.1",
        "--step", "0.06",
        "--out", str(tmp_path / "out"),
    ])
    assert rc == 2
    assert "step" in capsys.readouterr().err


@pytest.mark.parametrize("start, needle", [
    # A huge initial epoch age drives the integrator out of the positive
    # window domain within the first delay interval.
    (["--init-w-max", "1", "--init-s", "1000000", "--t-end", "0.1"], "positive domain"),
    # A w_max below half an ulp of w_hat is lost in the deviation about the
    # fixed point; the message names the start, not a window at 0.
    (["--init-w-max", "1e-300", "--init-s", "0", "--t-end", "1"], "1e-300"),
], ids=["age-past-domain", "start-below-ulp"])
def test_cli_reports_numeric_failure(tmp_path, capsys, start, needle):
    rc = main([
        "fluid",
        "--capacity-pkts", "100",
        "--delay-tau", "0.1",
        "--init", "explicit",
        *start,
        "--out", str(tmp_path / "out"),
    ])
    assert rc == 3
    err = capsys.readouterr().err
    assert err.startswith("numeric failure:")
    assert len(err.splitlines()) == 1
    assert needle in err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("command", [name for name, _ in MODES.values()])
def test_cli_flags_follow_config_fields(capsys, command):
    with pytest.raises(SystemExit):
        main([command, "--help"])
    flags = [line.split()[0] for line in capsys.readouterr().out.splitlines()
             if line.startswith("  --")]
    keys = [f.name.replace("_", "-") for f in fields(ExperimentConfig) if f.name != "mode"]
    assert flags == ["--config", "--out"] + ["--" + key for key in keys]


@pytest.mark.parametrize(
    "flag, value",
    [
        ("--t-end", "nan"),
        ("--delay-tau", "nan"),
        ("--seed", str(2**64)),
        ("--capacity-pkts", "inf"),
    ],
)
def test_cli_rejects_unusable_values(tmp_path, capsys, flag, value):
    rc = main([
        "nhpl",
        "--capacity-pkts", "100",
        "--delay-tau", "0.1",
        flag, value,
        "--out", str(tmp_path / "out"),
    ])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("config error:")
    assert len(err.splitlines()) == 1


@pytest.mark.parametrize(
    "argv",
    [
        # tau^3 c / b overflows, then underflows to zero with the bdp.
        ["fixed-point", "--capacity-pkts", "100", "--delay-tau", "1e200"],
        ["nhpl", "--capacity-pkts", "1e-300", "--delay-tau", "1e-300"],
        # s_hat = cbrt(w b / c) is 1.3e100, so s_hat**7 overflows.
        ["stability", "--capacity-pkts", "100", "--delay-tau", "0.1", "--c", "1e-300"],
        # Reno's w_hat = (bdp + sqrt(bdp^2 + 8)) / 2 is inf once bdp^2 overflows.
        ["fixed-point", "--algorithm", "reno", "--capacity-pkts", "1e160", "--delay-tau", "1"],
        ["fluid", "--algorithm", "reno", "--capacity-pkts", "1e160", "--delay-tau", "1",
         "--t-end", "4", "--post-transient", "1"],
        ["nhpl", "--algorithm", "reno", "--capacity-pkts", "1e160", "--delay-tau", "1",
         "--t-end", "1", "--post-transient", "1"],
    ],
)
def test_cli_numeric_failure_out_of_float_range(tmp_path, capsys, argv):
    rc = main(argv + ["--out", str(tmp_path / "out")])
    assert rc == 3
    err = capsys.readouterr().err
    assert err.startswith("numeric failure:")
    assert len(err.splitlines()) == 1
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize(
    "argv",
    [
        ["fluid", "--t-end", "1e300"],
        ["nhpl", "--t-end", "1e300"],
        ["nhpl", "--flows", "100000000000"],
        # About 1.4e8 losses at one per s_hat = 7.07e-4 s.
        ["nhpl", "--algorithm", "reno", "--capacity-pkts", "1", "--delay-tau", "1e-3",
         "--sample-dt", "100", "--t-end", "1e5"],
        # About 5e8 losses in the first delay, before any indication lands.
        ["nhpl", "--algorithm", "reno", "--init", "explicit", "--init-w-max", "1e9",
         "--init-s", "0", "--t-end", "1"],
        # One trace sample of 10^7 rows and about 5.8e5 losses, but each loss
        # costs work in all 10^7 flows.
        ["nhpl", "--flows", "9999999", "--t-end", "0.1", "--sample-dt", "1",
         "--post-transient", "1"],
    ],
)
def test_cli_rejects_runs_over_the_work_budget(tmp_path, capsys, argv):
    # The argv's own flags come last and override the defaults.
    rc = main(argv[:1] + ["--capacity-pkts", "100", "--delay-tau", "0.1"] + argv[1:] + [
        "--out", str(tmp_path / "out"),
    ])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("config error:") and "over" in err
    assert len(err.splitlines()) == 1
    assert not (tmp_path / "out").exists()


def test_cli_flags_override_config_file(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("capacity_pkts=100\ndelay_tau=0.1\nt_end=1\n")
    rc = main([
        "fixed-point",
        "--config", str(cfg),
        "--capacity-pkts", "200",
        "--out", str(tmp_path / "out"),
    ])
    assert rc == 0
    summary = (tmp_path / "out" / "summary.txt").read_text()
    assert "capacity_pkts: 200.0" in summary


def test_nhpl_artifacts_are_byte_reproducible(tmp_path):
    config = make_config(mode="both", seed=11, t_end=5.0)
    run_experiment(config, tmp_path / "a")
    run_experiment(config, tmp_path / "b")
    for name in ("nhpl_events.csv", "nhpl_trace.csv", "fluid_trace.csv"):
        assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()


NUMBERS = st.one_of(
    st.floats(),  # NaN, +-inf and subnormals included
    st.sampled_from([math.nan, math.inf, -math.inf, 5e-324, 1e308, -1e308, 0.0, -0.0]),
    st.integers(min_value=-(2**70), max_value=2**70),
    st.integers(min_value=2**64, max_value=2**1100),
)
VALUES = st.one_of(
    NUMBERS,
    NUMBERS.map(repr),
    st.text(max_size=8),
    st.sampled_from(["cubic", "reno", "both", "nhpl", "convergence", "offset", "explicit"]),
    st.lists(NUMBERS, max_size=3).map(tuple),
    st.lists(NUMBERS, max_size=3).map(lambda xs: ",".join(map(repr, xs))),
    st.none(),
)


@settings(max_examples=400, deadline=None)
@given(
    st.sampled_from([{}, BASE, {"capacity_bps": 1e9, "delay_tau": 0.01}]),
    st.dictionaries(st.sampled_from(sorted(KEY_PARSERS)), VALUES, max_size=5),
)
def test_build_config_returns_or_raises_config_error(base, over):
    # build_config and direct construction both raise ConfigError, or both
    # return the same config.
    configs = []
    for build in (build_config, lambda raw: ExperimentConfig(**raw)):
        try:
            configs.append(build({**base, **over}))
        except ConfigError:
            configs.append(None)
    assert configs[0] == configs[1]
    assert configs[0] is None or isinstance(configs[0], ExperimentConfig)


JUNK = ["nan", "inf", "-inf", "-1", "0", "5e-324", "1e308", str(2**64), "1e999", "x", ""]


def flag_value(rnd, lo: float, hi: float) -> str:
    """10**x for x uniform in [lo, hi] as a decimal string, or now and then junk."""
    if rnd.random() < 0.1:
        return rnd.choice(JUNK)
    x = rnd.uniform(lo, hi)
    return f"{10 ** (x % 1.0):.4f}e{math.floor(x)}"


@settings(max_examples=500, deadline=None)
@given(st.sampled_from([("fixed-point", "cubic"), ("fixed-point", "reno"),
                        ("stability", "cubic")]), st.randoms(use_true_random=False))
def test_cli_exit_codes_for_any_system_params(run, rnd):
    # Only these two commands run here: their cost does not grow with the
    # horizon (stability takes cubic alone).  Exponents reach a little past
    # both ends of the float range; "--flag=value" keeps argparse from
    # reading "-inf" as a flag.
    command, algorithm = run
    flags = {
        "--algorithm": algorithm,
        "--capacity-pkts": flag_value(rnd, -330.0, 310.0),
        "--delay-tau": flag_value(rnd, -330.0, 310.0),
        "--b": flag_value(rnd, -330.0, 0.0),
        "--c": flag_value(rnd, -330.0, 310.0),
    }
    stdout, err = io.StringIO(), io.StringIO()
    with tempfile.TemporaryDirectory() as out, contextlib.redirect_stdout(stdout), \
            contextlib.redirect_stderr(err):
        rc = main([command, "--out", out] + [f"{f}={v}" for f, v in flags.items()])
    assert rc in (0, 2, 3)
    if rc != 0:
        assert len(err.getvalue().splitlines()) == 1
    else:  # every equilibrium that runs lies inside the float range
        report = dict(line.split(": ", 1) for line in stdout.getvalue().splitlines())
        assert 0.0 < float(report["w_hat"]) < math.inf
        assert 0.0 < float(report["s_hat"]) < math.inf
