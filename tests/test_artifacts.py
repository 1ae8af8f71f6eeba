import errno
import os
import re
import threading

import numpy as np
import pytest

from tcpfluid import _rk4, artifacts
from tcpfluid.artifacts import write_artifacts, write_csv
from tcpfluid.cli import main
from oracles import assert_same_text, awkward_columns, per_row_csv


@pytest.mark.parametrize("cpus", [1, 2, 3])
def test_write_csv_matches_per_row_repr_in_any_number_of_parts(tmp_path, monkeypatch, forks,
                                                                cpus):
    # Row counts one short of two parts, exactly two parts, and one row past
    # three parts, whose last range ends one row into a chunk.  Patched CPU
    # counts split the file on any host; the forks show the split taken.
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)))
    m = artifacts._MIN_PART_ROWS
    sizes = (2 * m - 1, 2 * m, 3 * m + 1)
    full = awkward_columns(max(sizes))
    oracle = per_row_csv("kind,a,b,c,d,e,f,flow", full).splitlines(keepends=True)
    numeric = per_row_csv("a,b,c,d,e,f,flow", full[1:]).splitlines(keepends=True)
    path = tmp_path / "parts.csv"
    for n in sizes:
        # With the str column by repr; without it by the compiled formatter,
        # where it can be built.
        for header, columns, text in [("kind,a,b,c,d,e,f,flow", full, oracle),
                                      ("a,b,c,d,e,f,flow", full[1:], numeric)]:
            forks.clear()
            write_csv(path, header, [col[:n] for col in columns])
            assert_same_text(path.read_text(), "".join(text[: n + 1]))
            assert len(forks) == min(cpus, n // m) - 1


@pytest.mark.parametrize("cpus", [1, 2, 3])
def test_write_csv_matches_per_row_repr_in_any_number_of_parts_by_repr(
        tmp_path, monkeypatch, forks, python_format, cpus):
    test_write_csv_matches_per_row_repr_in_any_number_of_parts(tmp_path, monkeypatch, forks,
                                                                cpus)


def test_write_csv_does_not_fork_beside_other_threads(tmp_path, monkeypatch, forks):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
    columns = [np.arange(2 * artifacts._MIN_PART_ROWS) / 7.0]
    path = tmp_path / "one.csv"
    done = threading.Event()
    thread = threading.Thread(target=done.wait)
    thread.start()
    try:
        write_csv(path, "t", columns)
    finally:
        done.set()
        thread.join(timeout=10.0)
    assert not thread.is_alive() and forks == []
    assert_same_text(path.read_text(), per_row_csv("t", columns))


def test_write_csv_does_not_fork_beside_other_threads_by_repr(tmp_path, monkeypatch, forks,
                                                               python_format):
    test_write_csv_does_not_fork_beside_other_threads(tmp_path, monkeypatch, forks)


def test_the_formatter_is_loaded_once_before_any_fork(tmp_path, monkeypatch, forks):
    # The parent loads the library, once per file, and hands the formatter
    # to its forked writers, so no child loads or builds it.  The loads are
    # counted in a file, which the children would append to.
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
    loads = tmp_path / "loads"
    formatter = artifacts._formatter

    def counting():
        with open(loads, "a") as fh:
            fh.write(f"{os.getpid()}\n")
        return formatter()

    monkeypatch.setattr(artifacts, "_formatter", counting)
    columns = awkward_columns(2 * artifacts._MIN_PART_ROWS)[1:]
    path = tmp_path / "t.csv"
    write_csv(path, "a,b,c,d,e,f,flow", columns)
    assert len(forks) == 1 and loads.read_text() == f"{os.getpid()}\n"
    assert_same_text(path.read_text(), per_row_csv("a,b,c,d,e,f,flow", columns))


def test_tables_with_a_str_column_never_load_the_library(tmp_path, monkeypatch):
    # The event log and the text files have a str column: repr writes them,
    # and the library is neither imported nor loaded for them.
    def refused():
        raise AssertionError("loaded the library for a table with a str column")

    monkeypatch.setattr(artifacts, "_formatter", refused)
    columns = awkward_columns(3000)
    write_csv(tmp_path / "t.csv", "kind,a,b,c,d,e,f,flow", columns)
    assert_same_text((tmp_path / "t.csv").read_text(),
                     per_row_csv("kind,a,b,c,d,e,f,flow", columns))
    artifacts.write_lines(tmp_path / "s.txt", ["header", "a: 1", "b: 2.5"])
    assert (tmp_path / "s.txt").read_text() == "header\na: 1\nb: 2.5\n"


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
        assert_same_text((tmp_path / "without" / name).read_text(),
                         (tmp_path / "with" / name).read_text())



def test_write_csv_reports_a_failed_child(tmp_path, monkeypatch, capfd, failing_children):
    # A writer that fails only in a forked child: although the parent's own
    # range is written, the file, through the CLI too, is reported as not
    # written and removed, so no truncated file looks complete.
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
    path = tmp_path / "parts.csv"
    n = 2 * artifacts._MIN_PART_ROWS
    with pytest.raises(OSError, match=re.escape(str(path))):
        write_csv(path, "t", [np.arange(n) / 7.0])
    assert not path.exists()
    out = tmp_path / "out"
    rc = main(["fluid", "--capacity-pkts", "12500", "--delay-tau", "0.01",
               "--step", str(0.01 / 64), "--t-end", "6.0", "--out", str(out)])
    assert rc == 2
    err = capfd.readouterr().err
    assert err.startswith("error: could not write") and str(out / "fluid_trace.csv") in err
    assert len(err.splitlines()) == 1
    assert not (out / "fluid_trace.csv").exists()


def test_full_disk_names_the_file_and_puts_back_the_earlier_run(tmp_path, monkeypatch, capfd):
    # The append into the output file fails: the CLI prints one line naming
    # the file, with the prefix once, removes what it appended, and the
    # earlier run's files keep their names and bytes.
    out = tmp_path / "out"
    argv = ["fluid", "--capacity-pkts", "100", "--delay-tau", "0.1", "--out", str(out)]
    assert main(argv) == 0
    before = {p.name: p.read_bytes() for p in out.iterdir()}
    capfd.readouterr()

    def full(*args):
        raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))

    monkeypatch.setattr(os, "sendfile", full)
    assert main(argv) == 2
    err = capfd.readouterr().err
    assert err == f"error: could not write {out / 'fluid_trace.csv'}: [Errno 28] " \
                  f"{os.strerror(errno.ENOSPC)}\n"
    assert {p.name: p.read_bytes() for p in out.iterdir()} == before


def test_own_part_failure_names_the_file_once(tmp_path, monkeypatch):
    # The part this process formats fails: the error names the file once,
    # and no file is written.
    def full(*args):
        raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))

    monkeypatch.setattr(artifacts, "_write_rows", full)
    path = tmp_path / "t.csv"
    with pytest.raises(OSError) as info:
        write_csv(path, "t", [np.arange(10) / 7.0])
    assert str(info.value).count("could not write") == 1 and str(path) in str(info.value)
    assert os.listdir(tmp_path) == []


def test_write_csv_into_a_missing_directory_fails_before_any_row(tmp_path, monkeypatch, forks):
    # Parts are made beside the file, so a missing directory fails at the
    # first part: one error naming the file, nothing forked or formatted,
    # and nothing left behind.
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})

    def formatted(*args, **kwargs):
        raise AssertionError("a row was formatted")

    monkeypatch.setattr(artifacts, "_write_rows", formatted)
    path = tmp_path / "missing" / "t.csv"
    with pytest.raises(OSError) as info:
        write_csv(path, "t", [np.arange(2 * artifacts._MIN_PART_ROWS) / 7.0])
    assert str(info.value).count("could not write") == 1 and str(path) in str(info.value)
    assert forks == [] and os.listdir(tmp_path) == []


def test_set_aside_that_fails_leaves_no_hidden_file(tmp_path, monkeypatch):
    # The earlier file cannot be moved aside: the run fails before writing,
    # the earlier file stays as it was, and the hidden name made for it is
    # removed.
    (tmp_path / "a.txt").write_text("old a")

    def stuck(src, dst):
        raise OSError(errno.EACCES, os.strerror(errno.EACCES))

    monkeypatch.setattr(os, "replace", stuck)
    with pytest.raises(OSError, match=os.strerror(errno.EACCES)):
        write_artifacts(str(tmp_path), [("a.txt", write_text("new a"))])
    assert {p.name: p.read_text() for p in tmp_path.iterdir()} == {"a.txt": "old a"}


@pytest.mark.parametrize("out_exists", [False, True])
def test_write_parts_are_anonymous(tmp_path, monkeypatch, forks, temp_files, out_exists):
    # While this process formats its own part of the forked trace, and then
    # the summary, nothing named appears under --out but the files written,
    # nor beside it when the run had to make it: the parts are files
    # without a name, and every one is closed.
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
    out = tmp_path / "out"
    if out_exists:
        out.mkdir()
    parent, seen = os.getpid(), []
    write = artifacts._write_rows

    def watched(*args):
        if os.getpid() == parent:
            seen.append((os.listdir(tmp_path), os.listdir(out)))
        write(*args)

    monkeypatch.setattr(artifacts, "_write_rows", watched)
    rc = main(["fluid", "--capacity-pkts", "12500", "--delay-tau", "0.01",
               "--step", str(0.01 / 64), "--t-end", "6.0", "--out", str(out)])
    assert rc == 0 and forks and temp_files
    assert seen == [(["out"], []), (["out"], ["fluid_trace.csv"])]
    assert all(isinstance(tmp.name, int) and tmp.closed for tmp in temp_files)
    assert sorted(os.listdir(out)) == ["fluid_trace.csv", "summary.txt"]


def write_text(text):
    def write(path):
        with open(path, "w") as fh:
            fh.write(text)

    return write


def fail(path):
    with open(path, "w") as fh:
        fh.write("partial")
    raise OSError(f"could not write {path}")


def test_write_artifacts_replaces_earlier_files_only_on_success(tmp_path):
    # Earlier files under the run's names give way to the new ones when
    # every write succeeds, and keep their names and bytes when one fails;
    # no other file is left either way.
    (tmp_path / "a.txt").write_text("old a")
    (tmp_path / "b.txt").write_text("old b")
    (tmp_path / "notes.txt").write_text("kept")
    with pytest.raises(OSError, match=re.escape(str(tmp_path / "b.txt"))):
        write_artifacts(str(tmp_path), [("a.txt", write_text("new a")),
                                        ("c.txt", write_text("new c")),
                                        ("b.txt", fail)])
    assert {p.name: p.read_text() for p in tmp_path.iterdir()} == {
        "a.txt": "old a", "b.txt": "old b", "notes.txt": "kept"}
    paths = write_artifacts(str(tmp_path), [("a.txt", write_text("new a")),
                                            ("b.txt", write_text("new b"))])
    assert paths == {"a": str(tmp_path / "a.txt"), "b": str(tmp_path / "b.txt")}
    assert {p.name: p.read_text() for p in tmp_path.iterdir()} == {
        "a.txt": "new a", "b.txt": "new b", "notes.txt": "kept"}
