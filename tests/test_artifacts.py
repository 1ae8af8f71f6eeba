import errno
import math
import os
import re

import numpy as np
import pytest

from tcpfluid import SystemParams, _rk4, artifacts, build_config, run_experiment
from tcpfluid.artifacts import write_artifacts
from tcpfluid.cli import main
from tcpfluid.nhpl import run_simulation
from tcpfluid.protocols import FROZEN
from oracles import (assert_same_text, awkward_columns, per_row_csv, python_format_rows,
                     write_csv)


@pytest.mark.parametrize("chunks", [1, 2, 3])
def test_write_csv_matches_per_row_repr_in_any_number_of_chunks(tmp_path, chunks):
    # Row counts one short of that many write chunks, exactly that many,
    # and one row past, whose last chunk is one row long; the output is the
    # only file written.
    m = artifacts._WRITE_CHUNK
    sizes = (chunks * m - 1, chunks * m, chunks * m + 1)
    full = awkward_columns(max(sizes))
    oracle = per_row_csv("kind,a,b,c,d,e,f,flow", full).splitlines(keepends=True)
    numeric = per_row_csv("a,b,c,d,e,f,flow", full[1:]).splitlines(keepends=True)
    path = tmp_path / "parts.csv"
    for n in sizes:
        # With the kinds as bytes, and without them, by the compiled
        # formatter, where it can be built.
        for header, columns, text in [("kind,a,b,c,d,e,f,flow", full, oracle),
                                      ("a,b,c,d,e,f,flow", full[1:], numeric)]:
            write_csv(path, header, [col[:n] for col in columns])
            assert_same_text(path.read_text(encoding="utf-8"), "".join(text[: n + 1]))
            assert os.listdir(tmp_path) == ["parts.csv"]


@pytest.mark.parametrize("chunks", [1, 2, 3])
def test_write_csv_matches_per_row_repr_in_any_number_of_chunks_by_repr(tmp_path, python_format,
                                                                        chunks):
    test_write_csv_matches_per_row_repr_in_any_number_of_chunks(tmp_path, chunks)


def test_a_later_chunk_the_formatter_refuses_fails_the_table(tmp_path, monkeypatch):
    # The writer is chosen from the first chunk: a later chunk that is a
    # strided view, which the formatter refuses, fails the table with the
    # formatter's ValueError, and no file is left.  The compiled formatter
    # where it can be built, else its stand-in.
    lib = _rk4.library()
    formatter = python_format_rows if lib is None else lib.format_rows
    m = artifacts._WRITE_CHUNK
    values = np.arange(8 * m) / 7.0 + math.pi

    def columns(lo, hi):
        return [values[lo:hi] if lo < 3 * m else np.repeat(values[lo:hi], 2)[::2]]

    monkeypatch.setattr(artifacts, "_formatter", lambda: formatter)
    with pytest.raises(ValueError, match="the formatter takes"):
        artifacts.write_rows(tmp_path / "mixed.csv", "t", len(values), columns)
    assert os.listdir(tmp_path) == []


@pytest.mark.parametrize("flows", [1, 2, 3])
def test_every_chunk_of_the_package_tables_is_formattable(tmp_path, monkeypatch, flows):
    # write_rows takes a table's writer from its first chunk, so every
    # later chunk of the four tables the package writes must be one the
    # compiled formatter takes too: Reno, CUBIC and frozen runs, in chunks
    # of 3 rows.  The stand-in refuses any other chunk, and it writes every
    # row of every table.
    formatted = []

    def counted(chunk, out):
        formatted.append(len(chunk[0]))
        return python_format_rows(chunk, out)

    monkeypatch.setattr(artifacts, "_WRITE_CHUNK", 3)
    monkeypatch.setattr(artifacts, "_formatter", lambda: counted)
    written = []
    for algorithm, mode, init in (("reno", "both", {}), ("cubic", "both", {}),
                                  ("cubic", "convergence", {"init": "offset",
                                                            "init_offset_s": 0.01})):
        config = build_config({"capacity_pkts": 100.0, "delay_tau": 0.1, "t_end": 20.0,
                               "algorithm": algorithm, "mode": mode, "flows": flows, **init})
        result = run_experiment(config, tmp_path / f"{algorithm}-{mode}")
        written += [path for name, path in result.artifacts.items() if name != "summary"]
    sim = run_simulation(SystemParams(100.0, 0.1, 0.2, 0.4, flows=flows), FROZEN,
                         [(15.0 + f, 0.1 * f) for f in range(flows)], 3, 20.0)
    for name, write in (("nhpl_events.csv", sim.write_events_csv),
                        ("nhpl_trace.csv", sim.write_trace_csv)):
        written.append(tmp_path / f"frozen-{name}")
        write(written[-1])
    assert {os.path.basename(path).split("-")[-1] for path in written} == {
        "convergence.csv", "fluid_trace.csv", "nhpl_events.csv", "nhpl_trace.csv"}
    rows = []
    for path in written:
        with open(path, "rb") as fh:
            rows.append(fh.read().count(b"\n") - 1)
    assert min(rows) > 2 * 3 and sum(formatted) == sum(rows)


def test_write_lines_never_loads_the_library(tmp_path, monkeypatch):
    # The text files are a header with no rows: the library is neither
    # imported nor loaded for them.
    def refused():
        raise AssertionError("loaded the library for a text file")

    monkeypatch.setattr(artifacts, "_formatter", refused)
    artifacts.write_lines(tmp_path / "one.txt", ["header"])
    assert (tmp_path / "one.txt").read_text(encoding="utf-8") == "header\n"
    artifacts.write_lines(tmp_path / "s.txt", ["header", "a: 1", "b: 2.5"])
    assert (tmp_path / "s.txt").read_text(encoding="utf-8") == "header\na: 1\nb: 2.5\n"


def test_the_event_log_is_formatted_by_the_library_chunk_by_chunk(tmp_path, monkeypatch):
    # Its event types are bytes, so with the library present every chunk of
    # nhpl_events.csv goes through the compiled formatter, and none by repr.
    lib = _rk4.library()
    if lib is None:
        pytest.skip("no C compiler to build the formatter with; CI requires it")
    calls = []

    def counted(chunk, out):
        calls.append(len(chunk[0]))
        return lib.format_rows(chunk, out)

    def no_repr(chunk):
        raise AssertionError("a chunk of the event log was written by repr")

    sim = run_simulation(SystemParams(100.0, 0.1, 0.2, 0.4), FROZEN, [(15.0, 0.0)], 3, 50.0)
    rows, m = len(sim.events), artifacts._WRITE_CHUNK
    assert rows > 2 * m and sim.events.count("indication") > 0
    monkeypatch.setattr(artifacts, "_formatter", lambda: counted)
    monkeypatch.setattr(artifacts, "_chunk_cells", no_repr)
    sim.write_events_csv(tmp_path / "nhpl_events.csv")
    assert calls == [min(m, rows - lo) for lo in range(0, rows, m)]
    assert_same_text((tmp_path / "nhpl_events.csv").read_text(encoding="utf-8"), "".join(
        ["event_type,time,flow,window_before,window_after\n",
         *(f"{ev.event_type},{ev.time!r},{ev.flow},{ev.window_before!r},{ev.window_after!r}\n"
           for ev in sim.events)]))


def test_a_host_without_the_library_writes_the_same_bytes_quietly(tmp_path, monkeypatch, capfd):
    # A loader that finds no library: the step loop and every table run in
    # Python, and the run's files are the same, with nothing printed.
    argv = ["convergence", "--capacity-pkts", "12500", "--delay-tau", "0.01", "--init", "offset",
            "--init-offset-s", "1e-3", "--step", str(0.01 / 64), "--t-end", "2"]
    printed = []
    for name, loader in [("with", _rk4.library), ("without", lambda: None)]:
        monkeypatch.setattr(_rk4, "library", loader)
        assert main([*argv, "--out", str(tmp_path / name)]) == 0
        out, err = capfd.readouterr()
        printed.append((out.replace(str(tmp_path / name), "OUT"), err))
    assert printed[0] == printed[1] and printed[1][1] == ""
    files = sorted(os.listdir(tmp_path / "with"))
    assert files == sorted(os.listdir(tmp_path / "without")) and "convergence.csv" in files
    for name in files:
        assert_same_text((tmp_path / "without" / name).read_text(encoding="utf-8"),
                         (tmp_path / "with" / name).read_text(encoding="utf-8"))


def test_write_csv_reports_a_failed_formatter_call(tmp_path, monkeypatch, capfd):
    # A formatter whose call fails on the third chunk, after two chunks are
    # written: the file, through the CLI too, is reported as not written
    # and removed, so no truncated file looks complete.  The formatter is a
    # Python stand-in, so every host runs this.
    calls = []

    def failing(chunk, out):
        calls.append(1)
        if len(calls) == 3:
            raise OSError("formatter failed")
        return python_format_rows(chunk, out)

    monkeypatch.setattr(artifacts, "_formatter", lambda: failing)
    path = tmp_path / "parts.csv"
    with pytest.raises(OSError, match=re.escape(f"could not write {path}: formatter failed")):
        write_csv(path, "t", [np.arange(8 * artifacts._WRITE_CHUNK) / 7.0])
    assert os.listdir(tmp_path) == []
    calls.clear()
    out = tmp_path / "out"
    rc = main(["fluid", "--capacity-pkts", "12500", "--delay-tau", "0.01",
               "--step", str(0.01 / 64), "--t-end", "6.0", "--out", str(out)])
    assert rc == 2
    err = capfd.readouterr().err
    assert err == f"error: could not write {out / 'fluid_trace.csv'}: formatter failed\n"
    assert not out.exists()


def test_full_disk_names_the_file_and_puts_back_the_earlier_run(tmp_path, capfd, full_disk):
    # The writes into the output file fail: the CLI prints one line naming
    # the file, with the prefix once, removes what it wrote, and the
    # earlier run's files keep their names and bytes.
    out = tmp_path / "out"
    argv = ["fluid", "--capacity-pkts", "100", "--delay-tau", "0.1", "--out", str(out)]
    assert main(argv) == 0
    before = {p.name: p.read_bytes() for p in out.iterdir()}
    capfd.readouterr()
    full_disk("fluid_trace.csv", "summary.txt")
    assert main(argv) == 2
    err = capfd.readouterr().err
    assert err == f"error: could not write {out / 'fluid_trace.csv'}: [Errno 28] " \
                  f"{os.strerror(errno.ENOSPC)}\n"
    assert {p.name: p.read_bytes() for p in out.iterdir()} == before


def test_a_failed_chunk_names_the_file_once(tmp_path):
    # Forming the columns of a later chunk fails, after the chunks before
    # it are written: the error names the file once, and no file is left.
    rows = 8 * artifacts._WRITE_CHUNK
    values = np.arange(rows) / 7.0

    def columns(lo, hi):
        if lo >= 3 * artifacts._WRITE_CHUNK:
            raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))
        return [values[lo:hi]]

    path = tmp_path / "t.csv"
    with pytest.raises(OSError) as info:
        artifacts.write_rows(path, "t", rows, columns)
    assert str(info.value).count("could not write") == 1 and str(path) in str(info.value)
    assert os.listdir(tmp_path) == []


def test_write_csv_into_a_missing_directory_fails_before_any_row(tmp_path, monkeypatch):
    # The file is opened first, so a missing directory fails there: one
    # error naming the file, no row formatted, and nothing left behind.

    def formatted(*args, **kwargs):
        raise AssertionError("a row was formatted")

    monkeypatch.setattr(artifacts, "_formatter", lambda: formatted)
    monkeypatch.setattr(artifacts, "_chunk_cells", formatted)
    path = tmp_path / "missing" / "t.csv"
    for write in (lambda: write_csv(path, "t", [np.arange(8 * artifacts._WRITE_CHUNK) / 7.0]),
                  lambda: artifacts.write_lines(path, ["t", "a", "b"])):
        with pytest.raises(OSError) as info:
            write()
        assert str(info.value).count("could not write") == 1 and str(path) in str(info.value)
    assert os.listdir(tmp_path) == []


def test_set_aside_that_fails_leaves_no_hidden_file(tmp_path, monkeypatch):
    # The earlier file cannot be moved aside: the run fails before writing,
    # the earlier file stays as it was, and the hidden name made for it is
    # removed.
    (tmp_path / "a.txt").write_text("old a", encoding="utf-8")

    def stuck(src, dst):
        raise OSError(errno.EACCES, os.strerror(errno.EACCES))

    monkeypatch.setattr(os, "replace", stuck)
    with pytest.raises(OSError, match=os.strerror(errno.EACCES)):
        write_artifacts(str(tmp_path), [("a.txt", write_text("new a"))])
    assert {p.name: p.read_text(encoding="utf-8") for p in tmp_path.iterdir()} == {
        "a.txt": "old a"}


def write_text(text):
    def write(path):
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)

    return write


def fail(path):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("partial")
    raise OSError(f"could not write {path}")


def test_write_artifacts_replaces_earlier_files_only_on_success(tmp_path):
    # Earlier files under the run's names give way to the new ones when
    # every write succeeds, and keep their names and bytes when one fails;
    # no other file is left either way.
    (tmp_path / "a.txt").write_text("old a", encoding="utf-8")
    (tmp_path / "b.txt").write_text("old b", encoding="utf-8")
    (tmp_path / "notes.txt").write_text("kept", encoding="utf-8")
    with pytest.raises(OSError, match=re.escape(str(tmp_path / "b.txt"))):
        write_artifacts(str(tmp_path), [("a.txt", write_text("new a")),
                                        ("c.txt", write_text("new c")),
                                        ("b.txt", fail)])
    assert {p.name: p.read_text(encoding="utf-8") for p in tmp_path.iterdir()} == {
        "a.txt": "old a", "b.txt": "old b", "notes.txt": "kept"}
    paths = write_artifacts(str(tmp_path), [("a.txt", write_text("new a")),
                                            ("b.txt", write_text("new b"))])
    assert paths == {"a": str(tmp_path / "a.txt"), "b": str(tmp_path / "b.txt")}
    assert {p.name: p.read_text(encoding="utf-8") for p in tmp_path.iterdir()} == {
        "a.txt": "new a", "b.txt": "new b", "notes.txt": "kept"}


def test_a_symlink_under_a_run_name_is_replaced_not_written_through(tmp_path):
    # A link to a file outside the output directory: a failed run puts the
    # link back and leaves its target's bytes; a successful one leaves a
    # regular file under the name and the target as it was.
    out, target = tmp_path / "out", tmp_path / "target.txt"
    out.mkdir()
    target.write_bytes(b"kept")
    (out / "a.txt").symlink_to(os.path.join("..", "target.txt"))
    with pytest.raises(OSError, match=re.escape(str(out / "b.txt"))):
        write_artifacts(str(out), [("a.txt", write_text("new a")), ("b.txt", fail)])
    assert os.listdir(out) == ["a.txt"] and os.readlink(out / "a.txt") == "../target.txt"
    assert target.read_bytes() == b"kept"
    write_artifacts(str(out), [("a.txt", write_text("new a")), ("b.txt", write_text("new b"))])
    assert not (out / "a.txt").is_symlink() and (out / "a.txt").read_bytes() == b"new a"
    assert sorted(os.listdir(out)) == ["a.txt", "b.txt"] and target.read_bytes() == b"kept"


def test_a_dangling_symlink_under_a_run_name_makes_nothing_at_its_target(tmp_path):
    out, target = tmp_path / "out", tmp_path / "target.txt"
    out.mkdir()
    (out / "a.txt").symlink_to(target)
    with pytest.raises(OSError, match=re.escape(str(out / "b.txt"))):
        write_artifacts(str(out), [("a.txt", write_text("new a")), ("b.txt", fail)])
    assert os.listdir(out) == ["a.txt"] and os.readlink(out / "a.txt") == str(target)
    assert not os.path.lexists(target)
