import errno
import os
import re
import threading

import numpy as np
import pytest

from tcpfluid import artifacts
from tcpfluid.artifacts import CSVParts, write_artifacts, write_csv, write_rows
from tcpfluid.cli import main
from oracles import awkward_columns, per_row_csv


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
    path = tmp_path / "parts.csv"
    for n in sizes:
        forks.clear()
        write_csv(path, "kind,a,b,c,d,e,f,flow", [col[:n] for col in full])
        assert path.read_text() == "".join(oracle[: n + 1])
        assert len(forks) == min(cpus, n // m) - 1


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
    assert path.read_text() == per_row_csv("t", columns)



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
    def full(fh, columns, lo, hi):
        raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))

    monkeypatch.setattr(artifacts, "_write_rows", full)
    path = tmp_path / "t.csv"
    with pytest.raises(OSError) as info:
        write_csv(path, "t", [np.arange(10) / 7.0])
    assert str(info.value).count("could not write") == 1 and str(path) in str(info.value)
    assert os.listdir(tmp_path) == []


def test_set_aside_that_fails_leaves_no_hidden_file(tmp_path, monkeypatch):
    # The earlier file cannot be moved aside: the run fails before writing,
    # the earlier file stays as it was, and the hidden name made for it is
    # removed.
    (tmp_path / "a.txt").write_text("old a")

    def stuck(src, dst):
        raise OSError(errno.EACCES, os.strerror(errno.EACCES))

    monkeypatch.setattr(os, "replace", stuck)
    with pytest.raises(OSError, match=os.strerror(errno.EACCES)):
        write_artifacts(str(tmp_path), [("a", "a.txt", write_text("new a"))])
    assert {p.name: p.read_text() for p in tmp_path.iterdir()} == {"a.txt": "old a"}


def test_write_rows_names_the_path_once(tmp_path):
    # The rows a head holds belong to its own path: naming another file is
    # an error, and neither file is written.
    columns = [np.arange(10) / 7.0]
    with CSVParts(tmp_path / "a.csv") as head:
        with pytest.raises(ValueError, match="a.csv"):
            write_rows(tmp_path / "b.csv", "t", 10, lambda lo, hi: [columns[0][lo:hi]], head)
    assert os.listdir(tmp_path) == []
    with CSVParts(str(tmp_path / "a.csv")) as head:
        write_rows(tmp_path / "a.csv", "t", 10, lambda lo, hi: [columns[0][lo:hi]], head)
    assert (tmp_path / "a.csv").read_text() == per_row_csv("t", columns)


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
        write_artifacts(str(tmp_path), [("a", "a.txt", write_text("new a")),
                                        ("c", "c.txt", write_text("new c")),
                                        ("b", "b.txt", fail)])
    assert {p.name: p.read_text() for p in tmp_path.iterdir()} == {
        "a.txt": "old a", "b.txt": "old b", "notes.txt": "kept"}
    paths = write_artifacts(str(tmp_path), [("a", "a.txt", write_text("new a")),
                                            ("b", "b.txt", write_text("new b"))])
    assert paths == {"a": str(tmp_path / "a.txt"), "b": str(tmp_path / "b.txt")}
    assert {p.name: p.read_text() for p in tmp_path.iterdir()} == {
        "a.txt": "new a", "b.txt": "new b", "notes.txt": "kept"}
