"""Experiment configuration and artifact-producing runners.

Configs are flat key=value files (or dicts of the same keys); every key can
also be supplied as a command-line flag, with flags taking precedence.  Each
mode writes CSV artifacts plus a plain-text summary into the output
directory and returns the headline numbers, so runs are scriptable and
byte-reproducible for a fixed config and seed.
"""

from __future__ import annotations

import io
import math
import numbers
import operator
from bisect import bisect_left
from dataclasses import asdict, dataclass, fields
from functools import partial

import numpy as np

from . import nhpl
from .artifacts import write_artifacts, write_lines
from .core import FlowState, SystemParams, check_start
from .dde import integrate, step_grid, steps_per_delay
from .fixedpoint import FixedPoint, cubic_fixed_point, reno_steady_state
from .nhpl import RngStream, losses_before_indication, run_simulation, sample_count
from .protocols import window_function
from .stability import (RAZUMIKHIN_P, Certificate, basin_delta, certificate, lyapunov_V,
                        stability_trace)


class ConfigError(ValueError):
    """Invalid or inconsistent experiment configuration."""


# Config mode -> (CLI subcommand, help).  Only "both" runs under another name.
MODES = {
    "fluid": ("fluid", "integrate the delay fluid model and write the trajectory CSV"),
    "nhpl": ("nhpl", "run the event-driven loss simulation and write events + trace CSVs"),
    "both": ("compare", "run both models and report post-transient means"),
    "stability": ("stability", "report the Lyapunov certificate (Qtilde, lambda_min, basin)"),
    "convergence": ("convergence", "write the norm/V/Vdot/bound diagnostics CSV"),
    "fixed-point": ("fixed-point", "solve and report the equilibrium"),
}
FLUID_MODES = ("fluid", "both", "convergence")  # integrate flow 0 of the config
TRACE_MODES = ("nhpl", "both")  # run the simulator and render its trace

CONFIG_MAX_BYTES = 2**20  # fits explicit init lists for about 50,000 flows

BITS_PER_BYTE = 8.0
DEFAULT_PACKET_SIZE = 1000.0  # bytes, used only to convert bit rates


def bits_to_packets(bits_per_s: float, packet_size_bytes: float = DEFAULT_PACKET_SIZE) -> float:
    return bits_per_s / (BITS_PER_BYTE * packet_size_bytes)


@dataclass(frozen=True)
class ExperimentConfig:
    """All run parameters: each field is a config key and a CLI flag.

    Capacity is given either directly in packets/s (capacity_pkts) or in
    bits/s (capacity_bps) converted with packet_size_bytes.  Initial
    conditions come in three shapes: "fixed-point" starts every flow at the
    equilibrium, "offset" adds (init_offset_w, init_offset_s) to it, and
    "explicit" takes comma-separated per-flow lists init_w_max / init_s.

    Construction parses each field with its ``KEY_PARSERS`` entry (None for
    a field whose default is None means that default) and raises ConfigError
    for all that the config alone decides, in ``dataclasses.replace`` too.
    """

    algorithm: str = "cubic"
    capacity_pkts: float | None = None
    capacity_bps: float | None = None
    packet_size_bytes: float = DEFAULT_PACKET_SIZE
    delay_tau: float | None = None
    b: float = 0.2
    c: float = 0.4
    flows: int = 1
    init: str = "fixed-point"
    init_offset_w: float = 0.0
    init_offset_s: float = 0.0
    init_w_max: tuple[float, ...] | None = None
    init_s: tuple[float, ...] | None = None
    t_end: float | None = None
    step: float | None = None
    seed: int = 0
    mode: str = "fluid"
    sample_dt: float | None = None
    post_transient: float = 0.5

    def __post_init__(self) -> None:
        for f in fields(self):
            value = getattr(self, f.name)
            if value is None and f.default is None:
                continue  # the key's default
            try:
                object.__setattr__(self, f.name, KEY_PARSERS[f.name](value))
            except (TypeError, ValueError, OverflowError) as exc:
                raise ConfigError(f"config key {f.name!r}: {exc}") from exc
        _validate(self)

    def system_params(self) -> SystemParams:
        capacity = self.capacity_pkts
        if capacity is None:
            capacity = bits_to_packets(self.capacity_bps, self.packet_size_bytes)
        return SystemParams(capacity=capacity, tau=self.delay_tau, b=self.b, c=self.c,
                            flows=self.flows)

    def horizon(self) -> float:
        return self.t_end if self.t_end is not None else 100.0 * self.delay_tau

    def step_h(self) -> float:
        return self.step if self.step is not None else self.delay_tau / 16.0

    def steady_state(self, params: SystemParams) -> FixedPoint:
        if self.algorithm == "reno":
            return reno_steady_state(params)
        return cubic_fixed_point(params)

    def start(self, fp: FixedPoint) -> tuple[float, float]:
        """(w_max, s) of flow 0 at t = 0, the start the fluid modes integrate."""
        if self.init == "explicit":
            return self.init_w_max[0], self.init_s[0]
        if self.init == "fixed-point":
            return fp.w_hat, fp.s_hat
        w0 = fp.w_hat + self.init_offset_w
        s0 = fp.s_hat + self.init_offset_s
        try:
            check_start(w0, s0)
        except ValueError as exc:
            raise ConfigError(f"offset init leaves the domain: {exc}") from None
        return w0, s0

    def initial_conditions(self, fp: FixedPoint) -> list[tuple[float, float]]:
        """(w_max, s) of every flow at t = 0, for the simulator."""
        if self.init == "explicit":
            return list(zip(self.init_w_max, self.init_s))
        return [self.start(fp)] * self.flows


# Parsers take a value as a string or as a Python caller typed it and give the
# key's Python type, a bool being no number; ``str`` turns a mistyped
# enumeration into a string that _validate rejects.
def _parse_float(v: object) -> float:
    if isinstance(v, bool) or not isinstance(v, str | numbers.Real):
        raise TypeError(f"must be a number, got {v!r}")
    x = float(v)  # OverflowError for an int past the float range
    if not math.isfinite(x):
        raise ValueError(f"must be a finite number, got {v!r}")
    return x


def _parse_int(v: object) -> int:
    if isinstance(v, bool):
        raise TypeError(f"must be an integer, got {v!r}")
    return int(v) if isinstance(v, str) else operator.index(v)


def _parse_float_list(v: object) -> tuple[float, ...]:
    if isinstance(v, str):
        v = [part for part in v.split(",") if part.strip() != ""]
    return tuple(_parse_float(part) for part in v)


_PARSERS = {"str": str, "int": _parse_int, "float": _parse_float,
            "tuple[float, ...]": _parse_float_list}
# A parser per field from its annotation, in field order, which is the order
# of the CLI flags.  An annotation missing from _PARSERS fails at import.
KEY_PARSERS = {f.name: _PARSERS[f.type.removesuffix(" | None")] for f in fields(ExperimentConfig)}


def read_config_file(path: str) -> dict[str, str]:
    """Flat key=value lines; '#' starts a comment; later keys win."""
    raw: dict[str, str] = {}
    with open(path, "rb") as fh:
        data = fh.read(CONFIG_MAX_BYTES + 1)
    if len(data) > CONFIG_MAX_BYTES:
        raise ConfigError(f"{path}: config file is over {CONFIG_MAX_BYTES} bytes")
    try:
        lines = io.StringIO(data.decode("utf-8"), newline=None).readlines()
    except UnicodeDecodeError as exc:
        raise ConfigError(f"{path}: not UTF-8 text: {exc}") from None
    for lineno, line in enumerate(lines, start=1):
        stripped = line.split("#", 1)[0].strip()
        if not stripped:
            continue
        if "=" not in stripped:
            raise ConfigError(f"{path}:{lineno}: expected key=value, got {line.rstrip()!r}")
        key, value = stripped.split("=", 1)
        raw[key.strip()] = value.strip()
    return raw


def build_config(raw: dict[str, object]) -> ExperimentConfig:
    """Config from raw key/value strings (or already-typed values).

    ConfigError for an unknown key; constructing ExperimentConfig checks the rest.
    """
    for key in raw:
        if key not in KEY_PARSERS:
            raise ConfigError(f"unknown config key {key!r}")
    return ExperimentConfig(**raw)


def _validate(config: ExperimentConfig) -> None:
    if config.algorithm not in ("reno", "cubic"):
        raise ConfigError(f"algorithm must be reno or cubic, got {config.algorithm!r}")
    if config.mode not in MODES:
        raise ConfigError(f"mode must be one of {tuple(MODES)}, got {config.mode!r}")
    if config.init not in ("fixed-point", "offset", "explicit"):
        raise ConfigError(f"init must be fixed-point, offset, or explicit, got {config.init!r}")
    given = [k for k in ("capacity_pkts", "capacity_bps") if getattr(config, k) is not None]
    if len(given) != 1:
        raise ConfigError("exactly one of capacity_pkts or capacity_bps is required")
    if config.delay_tau is None:
        raise ConfigError("delay_tau is required")
    if config.mode in ("stability", "convergence") and config.algorithm != "cubic":
        raise ConfigError(f"{config.mode} mode analyzes the cubic window function")
    if config.mode == "convergence" and config.init == "fixed-point":
        # The decay bound divides by V at t=0, which vanishes there.
        raise ConfigError("convergence mode needs an offset or explicit init")
    if config.init == "explicit":
        if config.init_w_max is None or config.init_s is None:
            raise ConfigError("explicit init requires init_w_max and init_s")
        if len(config.init_w_max) != config.flows or len(config.init_s) != config.flows:
            raise ConfigError(
                f"explicit init lists must have {config.flows} entries, got "
                f"{len(config.init_w_max)} and {len(config.init_s)}"
            )
        if config.mode in FLUID_MODES and len(set(zip(config.init_w_max, config.init_s))) > 1:
            # The fluid modes integrate flow 0 and would drop the others.
            raise ConfigError(f"{config.mode} mode needs the same explicit init for every flow")
    if config.packet_size_bytes <= 0.0:
        raise ConfigError("packet_size_bytes must be positive")
    if config.t_end is not None and config.t_end <= 0.0:
        raise ConfigError(f"t_end must be positive, got {config.t_end}")
    if config.sample_dt is not None and config.sample_dt <= 0.0:
        raise ConfigError(f"sample_dt must be positive, got {config.sample_dt}")
    if not 0.0 < config.post_transient <= 1.0:
        raise ConfigError(f"post_transient must lie in (0, 1], got {config.post_transient}")
    try:  # the model's constructors hold its range checks
        params = config.system_params()
        steps_per_delay(params.tau, config.step_h())
        RngStream.checked_seed(config.seed)
        if config.init == "explicit":
            for w0, s0 in zip(config.init_w_max, config.init_s):
                check_start(w0, s0)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    horizon, step = config.horizon(), config.step_h()
    budget = nhpl.WORK_BUDGET  # the one budget, which the simulator's loop reads too
    if config.mode in FLUID_MODES and horizon / step > budget:
        raise ConfigError(f"{horizon} s at step {step} is over {budget} fluid steps")
    if config.mode in ("fluid", "both"):
        # The fluid post-transient mean needs the last grid sample n h, which
        # may fall a hair short of the horizon, inside the final share.
        _, h, n = step_grid(params.tau, step, horizon)
        if not n * h >= (1.0 - config.post_transient) * horizon:
            raise ConfigError(f"no fluid sample every {h!r} s falls in the final "
                              f"{config.post_transient} of {horizon} s")
    if config.mode in TRACE_MODES:
        dt = config.sample_dt if config.sample_dt is not None else params.tau
        # horizon / dt can overflow to inf; any count past the budget is rejected.
        samples = sample_count(horizon, dt) if horizon / dt <= budget else budget + 1
        if samples * (config.flows + 1) > budget:
            raise ConfigError(f"{horizon} s every {dt} s for {config.flows} flows is "
                              f"over {budget} trace rows")
        # The simulator's post-transient mean needs a trace sample at
        # (samples - 1) * dt, the last one, inside the final share.
        if not (samples - 1) * dt >= (1.0 - config.post_transient) * horizon:
            raise ConfigError(f"no trace sample every {dt} s falls in the final "
                              f"{config.post_transient} of {horizon} s")


def post_transient_mean(w: np.ndarray, step: float, t_end: float, fraction: float) -> float:
    """Mean of the samples w[i], at t = i * step, over the final `fraction`
    of the horizon."""
    first = bisect_left(range(len(w)), (1.0 - fraction) * t_end, key=lambda i: i * step)
    if first == len(w):
        raise ValueError("post-transient window contains no samples")
    return float(np.mean(w[first:]))


@dataclass
class ExperimentResult:
    mode: str
    artifacts: dict[str, str]
    metrics: dict[str, float]
    summary: str


def _stability_report(cert: Certificate, epsilon: float, delta: float) -> list[str]:
    values = {**asdict(cert.fp), **asdict(cert.coeffs), "d1": cert.d1, "d4": cert.d4,
              "eps0": cert.eps0, "eps1": cert.eps1, "k_margin": cert.k_margin,
              "razumikhin_p": RAZUMIKHIN_P}
    lines = [f"{key}: {value!r}" for key, value in values.items()]
    lines += ["qtilde_row: " + ",".join(repr(float(v)) for v in row) for row in cert.matrix]
    lines += [f"lambda_min: {cert.lambda_min!r}", f"epsilon: {epsilon!r}",
              f"basin_delta: {delta!r}"]
    return lines


def run_experiment(config: ExperimentConfig, out_dir: str) -> ExperimentResult:
    """Run one experiment mode and write its artifacts under out_dir.

    First a ConfigError rejects what needs the fixed point: an offset start
    outside the domain, a V(0) that is 0 or not finite in convergence mode,
    and a simulation whose expected losses times flows are over the budget
    at equilibrium or before its first indication.  A ConfigError also stops
    a simulation whose losses times flows pass the budget as it runs.  Every
    check and computation runs before out_dir is made, and a failed write
    leaves what was there before the run (see
    :func:`tcpfluid.artifacts.write_artifacts`).
    """
    params = config.system_params()
    fp = config.steady_state(params)
    fn = window_function(config.algorithm)
    horizon = config.horizon()
    if config.mode in FLUID_MODES:
        start = config.start(fp)  # the fluid modes integrate flow 0 alone
    if config.mode in ("stability", "convergence"):
        cert = certificate(fp, params)
    if config.mode == "convergence":
        # The decay bound divides by V at t = 0, which vanishes on the fixed
        # point and leaves no bound past the float range, where its products
        # give inf.
        v0 = lyapunov_V(start[0] - fp.w_hat, start[1] - fp.s_hat, cert)
        if not 0.0 < v0 < math.inf:
            raise ConfigError(f"convergence mode needs a start off the fixed point with a "
                              f"finite V(0), got V(0) = {v0!r}")
    if config.mode in TRACE_MODES:
        # Each loss costs the simulator work in every flow (a candidate sums
        # all flows' coefficients, a loss evaluates all flows' windows), so
        # both budgets count expected losses x flows.  At equilibrium each
        # flow loses once per s_hat.  The simulator's loop counts the losses
        # too, since an unstable run can lose far more often.
        budget = nhpl.WORK_BUDGET
        if not config.flows * config.flows * horizon <= budget * fp.s_hat:
            raise ConfigError(f"{config.flows} flows for {horizon} s at one loss per "
                              f"s_hat = {fp.s_hat!r} s each: expected losses x flows is "
                              f"over {budget}")
        # Until the first indication every window only grows, so the losses
        # before it are work the equilibrium count does not see.
        starts = config.initial_conditions(fp)
        losses = losses_before_indication(params, fn, starts, horizon)
        if not losses * config.flows <= budget:
            raise ConfigError(f"the start's windows give {losses!r} expected losses before "
                              f"the first indication: x {config.flows} flows is over "
                              f"{budget}")
    writers = []  # (file name, writer taking the path)
    metrics: dict[str, float] = {}
    lines = [f"mode: {config.mode}", f"algorithm: {config.algorithm}",
             f"capacity_pkts: {params.capacity!r}", f"delay_tau: {params.tau!r}",
             f"flows: {params.flows}"]

    def report(key: str, value: float, label: str | None = None) -> None:
        metrics[key] = value
        lines.append(f"{label or key}: {value!r}")

    report("w_hat", fp.w_hat)
    report("s_hat", fp.s_hat)
    report("p_hat", fp.p_hat)
    report("consistency_residual", fp.s_hat * fp.w_hat * fp.p_hat / params.tau - 1.0)

    if config.mode in FLUID_MODES:
        traj = integrate(params, fn, FlowState(*start), horizon, config.step_h(), fp=fp)
        report("fluid_steps", len(traj.x1) - 1)
        # Samples on the other side of the bdp from the one before: where
        # the loss rate switches on or off.
        above = traj.w > params.bdp
        report("fluid_bdp_crossings", int(np.count_nonzero(above[1:] != above[:-1])))

    if config.mode in ("fluid", "both"):
        writers.append(("fluid_trace.csv", traj.write_csv))
        mean = post_transient_mean(traj.w, traj.step, horizon, config.post_transient)
        report("fluid_mean_w", mean)
        report("fluid_mean_w_rel_fp", mean / fp.w_hat - 1.0)

    if config.mode in TRACE_MODES:
        try:
            sim = run_simulation(params, fn, starts, config.seed, horizon,
                                 sample_dt=config.sample_dt)
        except ValueError as exc:  # losses x flows over the budget as the run went
            raise ConfigError(str(exc)) from None
        writers.append(("nhpl_events.csv", sim.write_events_csv))
        writers.append(("nhpl_trace.csv", sim.write_trace_csv))
        mean = post_transient_mean(sim.windows[:, -1], sim.sample_dt, horizon,
                                   config.post_transient)
        report("nhpl_mean_w", mean)
        report("nhpl_mean_w_rel_fp", mean / fp.w_hat - 1.0)
        report("nhpl_losses", sim.events.count("loss"))
        report("nhpl_indications", sim.events.count("indication"))
        report("nhpl_candidates", sim.candidates)

    if config.mode == "both":
        report("nhpl_vs_fluid", metrics["nhpl_mean_w"] / metrics["fluid_mean_w"] - 1.0)

    if config.mode in ("stability", "convergence"):
        report("lambda_min", cert.lambda_min)

    if config.mode == "stability":
        epsilon = 0.01 * fp.w_hat
        delta = basin_delta(epsilon, cert)
        report_lines = _stability_report(cert, epsilon, delta)
        writers.append(("stability_report.txt", partial(write_lines, lines=report_lines)))
        report("basin_delta", delta, "basin_delta(eps=0.01*w_hat)")

    if config.mode == "convergence":
        diag = stability_trace(traj, cert)
        writers.append(("convergence.csv", diag.write_csv))
        report("bound_fraction", float(np.mean(diag.bounded)))
        report("razumikhin_fraction", float(np.mean(diag.razumikhin_ok)))

    writers.append(("summary.txt", partial(write_lines, lines=lines)))
    artifacts = write_artifacts(out_dir, writers)
    return ExperimentResult(config.mode, artifacts, metrics, summary="\n".join(lines))
