"""tcpfluid benchmark: three workloads, each round in fresh processes.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; tcpfluid is imported from ``src``.
A round starts ``bench/workload.py`` once per simulator seed of the workload
(``SEEDS_PER_ROUND``), each in a fresh process that runs the workload once.
Rounds repeat while the next one is expected to end within S seconds (at
least one runs); then setup-only processes add samples to ``setup_s``.

With ``--trace 0`` the last stdout line carries the end-to-end metrics, each
the median over the run's processes.  With ``--trace 1`` a round is one
untraced and one traced process on seed N, and the line carries the
per-layer metrics of the traced ones plus the tracing overhead (traced minus
untraced ``run_s``).  Without a ``src/tcpfluid`` package, or when every
process fails, the script exits 2 without printing a result.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

from workload import OPS_PER_PROCESS, SEEDS_PER_ROUND, WORKLOADS

ROOT = Path(__file__).resolve().parent.parent
BENCH = ROOT / "bench"
OUT = ROOT / ".bench_out"
SETUP_PROBES = 11
# Round member i of a multi-seed workload simulates seed + i * SEED_STRIDE.
SEED_STRIDE = 2**32
CHILD_TIMEOUT_S = 150
THREAD_VARS = (
    "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS", "BLIS_NUM_THREADS",
)

class BenchError(RuntimeError):
    pass


def _child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")  # this checkout's tcpfluid and nothing else
    env.update({var: "1" for var in THREAD_VARS})
    return env


def run_child(workload: str, seed: int, *flags: str) -> dict | None:
    """One fresh process; its JSON record, or None if it failed."""
    cmd = [sys.executable, str(BENCH / "workload.py"), "--workload", workload,
           "--seed", str(seed), "--out", str(OUT), *flags]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=_child_env(), stdout=subprocess.PIPE,
                              text=True, timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print(f"{workload}: operation timed out after {CHILD_TIMEOUT_S} s", file=sys.stderr)
        return None
    if proc.returncode != 0 or not proc.stdout.strip():
        print(f"{workload}: operation exited with {proc.returncode}", file=sys.stderr)
        return None
    record = json.loads(proc.stdout.strip().splitlines()[-1])
    if Path(record["tcpfluid"]) != ROOT / "src" / "tcpfluid":
        raise BenchError(f"imported tcpfluid from {record['tcpfluid']}, not from this checkout")
    if "run_s" in record:
        print(f"{workload} seed {seed}{' traced' if '--trace' in flags else ''}: "
              f"setup_s {record['setup_s']:.4f} run_s {record['run_s']:.3f} "
              f"cpu_s {record['cpu_s']:.3f} peak_rss_mb {record['peak_rss_mb']:.1f}", file=sys.stderr)
    return record


def median(records: list[dict], key: str) -> float:
    return statistics.median(r[key] for r in records)


def bench(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    if not (ROOT / "src" / "tcpfluid" / "__init__.py").is_file():
        raise BenchError(f"no tcpfluid package under {ROOT / 'src'}")
    OUT.mkdir(exist_ok=True)
    # Untimed: fills the bytecode cache, which users do not pay for per run.
    if run_child(workload, seed, "--setup-only") is None:
        raise BenchError("tcpfluid does not import")

    plain: list[dict] = []
    traced: list[dict] = []
    if trace:
        jobs = [(seed, (), plain), (seed, ("--trace",), traced)]
    else:
        jobs = [(seed + i * SEED_STRIDE, (), plain) for i in range(SEEDS_PER_ROUND[workload])]
    attempted = failed = 0
    start = perf_counter()
    longest = 0.0
    while True:
        round_start = perf_counter()
        for child_seed, flags, into in jobs:
            attempted += OPS_PER_PROCESS[workload]
            record = run_child(workload, child_seed, *flags)
            if record is None:
                failed += OPS_PER_PROCESS[workload]
                continue
            into.append(record)
            faults = [o["fault"] for o in record["ops"] if o["fault"] is not None]
            failed += len(faults)
            for fault in faults:
                print(f"{workload}: operation failed: {fault}", file=sys.stderr)
        longest = max(longest, perf_counter() - round_start)
        if perf_counter() - start + longest > seconds:
            break
    records = plain + traced
    if not plain or (trace and not traced):
        raise BenchError("every operation failed")
    failures = [f for r in records for o in r["ops"] for f in o["failures"]]
    for f in failures:
        print(f"{workload}: check failed: {f}", file=sys.stderr)

    if trace:
        values = {name: statistics.median(r["layers"][name] for r in traced)
                  for name in traced[0]["layers"]}
        values["setup.import_s"] = median(traced, "import_s")
        values["setup.config_s"] = median(traced, "config_s")
        values["trace.overhead_s"] = median(traced, "run_s") - median(plain, "run_s")
    else:
        probes = [run_child(workload, seed, "--setup-only") for _ in range(SETUP_PROBES)]
        setups = [r["setup_s"] for r in plain + [p for p in probes if p is not None]]
        values = {
            "run_s": median(plain, "run_s"),
            "cpu_s": median(plain, "cpu_s"),
            "setup_s": statistics.median(setups),
            "peak_rss_mb": median(plain, "peak_rss_mb"),
        }
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer" if trace else "end_to_end"]
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in spec}
    return {"correct": not failures, "attempted": attempted, "failed": failed, "metrics": metrics}


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description="tcpfluid benchmark")
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True, help="simulator seed")
    ap.add_argument("--seconds", type=float, required=True, help="measuring time of one run")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    try:
        result = bench(args.workload, args.seed, args.seconds, bool(args.trace))
    except BenchError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
