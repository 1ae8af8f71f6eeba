"""One cold-process execution of a benchmark workload.

    python3 bench/workload.py --workload NAME --seed N --out DIR [--trace | --setup-only]

``bench/run.py`` starts this script in a fresh process for every run of a
workload, with ``src`` on ``PYTHONPATH`` and the BLAS/OpenMP thread counts
pinned to 1.  The script imports tcpfluid and builds the workload's config
(setup), runs the workload and writes its artifacts (run), then checks the
artifacts against values the benchmark computes itself.  Its last stdout
line is one JSON record with the timings, the CPU time and peak RSS of the
run, the outcome of each operation's checks and, with ``--trace``, the
per-layer figures.  ``--setup-only`` stops after setup.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import resource
import shutil
import sys
from time import perf_counter

# Operations one process runs: convergence-canonical writes the stability
# report, then integrates the in-basin trajectory.
OPS_PER_PROCESS = {"compare-cubic20": 1, "nhpl-frozen1": 1, "convergence-canonical": 2}
WORKLOADS = tuple(OPS_PER_PROCESS)
# Processes, each on its own simulator seed, in one untraced round.  The
# cost of the 20-flow CUBIC simulation differs twofold between seeds (3.4M
# to 6.9M window evaluations over seeds 1-10), so compare-cubic20 averages
# two seeds per run; the frozen run's cost barely depends on the seed.
SEEDS_PER_ROUND = {"compare-cubic20": 2, "nhpl-frozen1": 1, "convergence-canonical": 1}

# Criterion-5 system: 4000 delays at step tau/64 keep the run several
# seconds long while every sample stays inside the certified basin.
CONVERGENCE_BASE = {"algorithm": "cubic", "capacity_pkts": 12500.0, "delay_tau": 0.01, "b": 0.2, "c": 0.4}
CONVERGENCE_DELAYS = 4000
CONVERGENCE_START = 0.8  # share of the certified basin radius


def _cpu_s() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


def _peak_rss_mb() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, kids) / 1024.0  # ru_maxrss is in KiB on Linux


def _build(tcp, workload: str, seed: int, out: str):
    """Config for the workload, and the function that runs it.

    The runner calls every layer through module attributes, so a tracer that
    rebinds them sees each call.
    """
    experiment, fixedpoint, nhpl = tcp.experiment, tcp.fixedpoint, tcp.nhpl
    if workload == "compare-cubic20":
        config = experiment.build_config({
            "mode": "both", "algorithm": "cubic", "capacity_pkts": 125000.0,
            "delay_tau": 0.001, "b": 0.2, "c": 0.4, "flows": 20,
            "init": "fixed-point", "t_end": 30.0, "seed": seed, "post_transient": 0.5,
        })

        def run():
            return {"config": config, "result": experiment.run_experiment(config, out)}

    elif workload == "nhpl-frozen1":
        params = tcp.core.SystemParams(capacity=100.0, tau=0.1, b=0.2, c=0.4)

        def run():
            fp = fixedpoint.cubic_fixed_point(params)
            sim = nhpl.run_simulation(params, tcp.protocols.FROZEN, [(15.0, 0.0)], seed, 220.0)
            os.makedirs(out, exist_ok=True)
            sim.write_events_csv(os.path.join(out, "nhpl_events.csv"))
            return {"params": params, "fp": fp, "sim": sim}

    else:
        stab_config = experiment.build_config({**CONVERGENCE_BASE, "mode": "stability"})

        def run():
            stab = experiment.run_experiment(stab_config, os.path.join(out, "stability"))
            tau = CONVERGENCE_BASE["delay_tau"]
            conv_config = experiment.build_config({
                **CONVERGENCE_BASE, "mode": "convergence", "init": "offset",
                "init_offset_s": CONVERGENCE_START * stab.metrics["basin_delta"],
                "t_end": CONVERGENCE_DELAYS * tau, "step": tau / 64,
            })
            conv = experiment.run_experiment(conv_config, os.path.join(out, "convergence"))
            return {"config": conv_config, "stability": stab, "result": conv}

    return run


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--out", required=True, help="scratch directory for artifacts and spans")
    mode = ap.add_mutually_exclusive_group()
    mode.add_argument("--trace", action="store_true")
    mode.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)

    t_import = perf_counter()
    tcp = importlib.import_module("tcpfluid")
    t_config = perf_counter()
    out = os.path.join(args.out, f"{args.workload}-{os.getpid()}")
    run = _build(tcp, args.workload, args.seed, out)
    t_setup_end = perf_counter()
    record = {
        "tcpfluid": os.path.dirname(tcp.__file__),
        "import_s": t_config - t_import,
        "config_s": t_setup_end - t_config,
        "setup_s": t_setup_end - t_import,
    }
    if args.setup_only:
        print(json.dumps(record))
        return 0

    tracer = None
    if args.trace:
        import tracer as tracing  # bench/tracer.py, next to this script

        tracer = tracing.Tracer(tcp)
        tracer.install()

    try:
        cpu0 = _cpu_s()
        t0 = perf_counter()
        outputs = run()
        t1 = perf_counter()
        cpu1 = _cpu_s()
        record.update(run_s=t1 - t0, cpu_s=cpu1 - cpu0, peak_rss_mb=_peak_rss_mb())

        if tracer is not None:
            tracer.uninstall()
            record["layers"] = tracer.layer_metrics()
            os.makedirs(os.path.join(args.out, "spans"), exist_ok=True)
            tracer.write_spans(os.path.join(args.out, "spans", f"{args.workload}-seed{args.seed}.csv"))

        import checks

        record["ops"] = checks.CHECKS[args.workload](tcp, outputs, out, args.seed)
    finally:
        shutil.rmtree(out, ignore_errors=True)
    print(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main())
