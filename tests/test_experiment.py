import numpy as np
import pytest

from tcpfluid import ConfigError, build_config, read_config_file, run_experiment
from tcpfluid.cli import main
from tcpfluid.experiment import (
    bits_to_packets,
    packets_to_bits,
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
    assert packets_to_bits(125000.0) == 1e9
    assert bits_to_packets(packets_to_bits(777.0, 500.0), 500.0) == 777.0


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
        {**BASE, "tol": 0.0},
        {**BASE, "sample_dt": 0.0},
        {**BASE, "lookahead": -1.0},
        {**BASE, "packet_size_bytes": 0.0},
    ],
)
def test_build_config_rejects(raw):
    with pytest.raises(ConfigError):
        build_config(raw)


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


def test_convergence_mode(tmp_path):
    config = make_config(
        mode="convergence", init="offset", init_offset_s=0.01, t_end=1.0
    )
    result = run_experiment(config, tmp_path / "out")
    diag = (tmp_path / "out" / "convergence.csv").read_text().splitlines()
    assert diag[0] == "t,norm_x,V,Vdot,bound"
    assert 0.0 <= result.metrics["bound_fraction"] <= 1.0


@pytest.mark.parametrize("mode", ["stability", "convergence"])
def test_certificate_modes_are_cubic_only(tmp_path, mode):
    config = make_config(mode=mode, algorithm="reno", init="offset",
                         init_offset_s=0.01)
    with pytest.raises(ConfigError):
        run_experiment(config, tmp_path / "out")


def test_convergence_mode_rejects_equilibrium_start(tmp_path):
    config = make_config(mode="convergence")
    with pytest.raises(ConfigError):
        run_experiment(config, tmp_path / "out")


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


def test_cli_reports_numeric_failure(tmp_path, capsys):
    # A huge initial epoch age drives the integrator out of the positive
    # window domain within the first delay interval.
    rc = main([
        "fluid",
        "--capacity-pkts", "100",
        "--delay-tau", "0.1",
        "--init", "explicit",
        "--init-w-max", "1",
        "--init-s", "1000000",
        "--t-end", "0.1",
        "--out", str(tmp_path / "out"),
    ])
    assert rc == 3
    assert "numeric failure:" in capsys.readouterr().err


@pytest.mark.parametrize(
    "flag, value",
    [
        ("--t-end", "nan"),
        ("--delay-tau", "nan"),
        ("--lookahead", "nan"),
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
