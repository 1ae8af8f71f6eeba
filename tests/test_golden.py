"""Every byte of the canonical runs against a committed manifest.

Each run below is rerun into ``tmp_path`` twice: with the compiled library,
and through the Python step loop, event loop and ``repr`` together.  Both
must give what ``golden/manifest.json`` holds: the run's stdout,
``summary.txt`` and ``stability_report.txt`` in full, and each CSV's row
count and SHA-256.  So a change that means to move no bit shows that it
moved none, and a change that moves bits on purpose regenerates the
manifest in the same commit, from the repository's root, with

    PYTHONPATH=src python tests/test_golden.py

The runs are CI's three library on/off runs (its convergence run, the
compare run of acceptance criterion 8 and a 2-flow Reno ``nhpl`` run),
criterion 7's frozen-window run with a second trace sampled every 0.7 s,
README's Reno ``fluid``, ``fixed-point``, ``stability``, ``compare`` and two
``convergence`` runs, a CUBIC ``fluid`` run and a 9-flow CUBIC ``nhpl``
run.  Each writes under ``--out`` relative to the working directory, so the
``wrote ...`` paths on stdout do not depend on where the test runs.  The
digests were taken with glibc 2.36's libm: the CUBIC runs go through
``log1p``, ``expm1`` and ``pow``.
"""

import contextlib
import hashlib
import io
import json
import os
import shlex
import tempfile
from pathlib import Path

import pytest

from tcpfluid import SystemParams, _rk4, cli
from tcpfluid.nhpl import run_simulation
from tcpfluid.protocols import FROZEN
from oracles import assert_same_text

MANIFEST = Path(__file__).resolve().parent / "golden" / "manifest.json"

# Each run's command-line arguments, but --out; None for the frozen run,
# which no command-line mode runs.
RUNS = {
    "ci-convergence": "convergence --capacity-pkts 12500 --delay-tau 0.01 --init offset "
                      "--init-offset-s 1e-3 --step 0.00015625 --t-end 8",
    "criterion-8-compare": "compare --capacity-pkts 125000 --delay-tau 0.001 --flows 20 "
                           "--t-end 30 --seed 7",
    "ci-reno-nhpl": "nhpl --algorithm reno --capacity-pkts 100 --delay-tau 0.1 --flows 2 "
                    "--t-end 30 --seed 5",
    "criterion-7-frozen": None,
    "readme-reno-fluid": "fluid --algorithm reno --capacity-pkts 100 --delay-tau 0.1",
    "readme-fixed-point": "fixed-point --capacity-pkts 12500 --delay-tau 0.01",
    "readme-stability": "stability --capacity-pkts 12500 --delay-tau 0.01",
    "readme-compare": "compare --capacity-pkts 100 --delay-tau 0.1",
    "readme-convergence": "convergence --capacity-pkts 12500 --delay-tau 0.01 --init offset "
                          "--init-offset-s 0.009960885127671754",
    "readme-long-delay": "convergence --capacity-pkts 125000 --delay-tau 0.1 --init explicit "
                         "--init-w-max 12371.9952 --init-s 13.6794 --t-end 20",
    "cubic-fluid": "fluid --capacity-pkts 12500 --delay-tau 0.01",
    "cubic-nhpl-9": "nhpl --capacity-pkts 1000 --delay-tau 0.01 --flows 9 --t-end 30 --seed 3",
}
FROZEN_COMMAND = ("sim = run_simulation(SystemParams(100.0, 0.1, 0.2, 0.4), FROZEN, "
                  "[(15.0, 0.0)], 2025, 220.0); sim.write_events_csv(out/nhpl_events.csv); "
                  "sim.write_trace_csv(out/nhpl_trace.csv); the same run with sample_dt=0.7, "
                  "write_trace_csv(out/nhpl_trace_0.7.csv)")


def command(name: str) -> str:
    """The run ``name`` as the manifest records it."""
    args = RUNS[name]
    return FROZEN_COMMAND if args is None else f"tcpfluid {args} --out {name}"


def frozen(out: Path) -> None:
    """Criterion 7's frozen-window run, as ``FROZEN_COMMAND`` says."""
    out.mkdir()
    params = SystemParams(100.0, 0.1, 0.2, 0.4)
    sim = run_simulation(params, FROZEN, [(15.0, 0.0)], 2025, 220.0)
    sim.write_events_csv(out / "nhpl_events.csv")
    sim.write_trace_csv(out / "nhpl_trace.csv")
    coarse = run_simulation(params, FROZEN, [(15.0, 0.0)], 2025, 220.0, sample_dt=0.7)
    coarse.write_trace_csv(out / "nhpl_trace_0.7.csv")


def record(name: str) -> dict:
    """Run ``name`` into the directory ``name`` under the working directory
    and return its manifest entry."""
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout):
        if RUNS[name] is None:
            frozen(Path(name))
        else:
            assert cli.main([*shlex.split(RUNS[name]), "--out", name]) == 0
    files = {}
    for path in sorted(Path(name).iterdir()):
        data = path.read_bytes()
        files[path.name] = ({"rows": data.count(b"\n") - 1,
                             "sha256": hashlib.sha256(data).hexdigest()}
                            if path.suffix == ".csv" else {"text": data.decode("utf-8")})
    return {"command": command(name), "stdout": stdout.getvalue(), "files": files}


@pytest.fixture(scope="module")
def manifest():
    return json.loads(MANIFEST.read_text(encoding="utf-8"))


@pytest.mark.parametrize("name", RUNS)
@pytest.mark.parametrize("loops", ["compiled", "python"])
def test_a_canonical_run_writes_the_manifest_bytes(name, loops, manifest, request, tmp_path,
                                                   monkeypatch):
    if loops == "compiled" and _rk4.library() is None:
        pytest.skip("no C compiler to build the library with; CI requires it")
    if loops == "python":
        for fixture in ("python_loop", "python_sim", "python_format"):
            request.getfixturevalue(fixture)
    monkeypatch.chdir(tmp_path)
    got, want = record(name), manifest[name]
    assert got["command"] == want["command"], f"{name}: the manifest has another command"
    files = want["files"]
    assert sorted(got["files"]) == sorted(files), f"{name}: wrote other files"
    same_text(f"{name}/stdout", got["stdout"], want["stdout"])
    for file, entry in got["files"].items():
        if "text" in entry:
            same_text(f"{name}/{file}", entry["text"], files[file]["text"])
        else:
            assert entry == files[file], f"{name}/{file}: {entry}, the manifest has {files[file]}"


def same_text(where: str, got: str, want: str) -> None:
    """``assert_same_text``, its failure prefixed with ``where``."""
    try:
        assert_same_text(got, want)
    except AssertionError as err:
        raise AssertionError(f"{where}: {err}") from None

if __name__ == "__main__":
    home = os.getcwd()
    with tempfile.TemporaryDirectory() as scratch:
        os.chdir(scratch)
        try:
            entries = {name: record(name) for name in RUNS}
        finally:
            os.chdir(home)
    MANIFEST.parent.mkdir(exist_ok=True)
    MANIFEST.write_text(json.dumps(entries, indent=1) + "\n", encoding="utf-8")
