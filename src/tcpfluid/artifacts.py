"""How a run's files reach its output directory, and what a failed run leaves.

Every CSV goes through one ``CSVParts`` per file, which writes each number
by ``repr``, one chunk of rows at a time, and formats each run of a
repeated float value within a chunk once.  The file is a sequence of parts
in row order.  While the model integrates, its ``on_block`` hook
``CSVParts.take`` hands each backlog of at least ``_MIN_PART_ROWS``
completed rows to a forked child while fewer than CPUs - 1 of them run; the
child reads the rows from the fork's copy-on-write snapshot of the
trajectory.  ``CSVParts.write`` then cuts the rows left into one range per
CPU, formats the first in the parent and forks a child for each other,
waits for every child, and only then opens the file and appends every part
in order, so the bytes are the same for any CPU count.  Parts are anonymous
temporary files in the nearest existing directory of the output file, so
nothing appears under the output directory before ``write_artifacts``, the
one writer of a run's files, places them there.
"""

from __future__ import annotations

import os
import tempfile
import threading
from contextlib import suppress
from functools import partial

import numpy as np

# Rows formatted per write.  A chunk of five columns holds about 250 bytes
# per row while it is joined; on a 2-core host 1024 rows wrote 256k rows as
# fast as 4096 did, with a quarter of that memory.
_WRITE_CHUNK = 1024
# Fewest rows a forked writer is given.  Measured on a 2-core host from a
# 60 MB process writing five all-distinct float columns: a fork with its
# temporary file, wait and copy costs about 10 ms and 8 ms of CPU, so two
# parts of 4096 rows just break even, and two of 16384 rows take 0.6 of one
# part's wall time for 1.03 of its CPU.
_MIN_PART_ROWS = 16384


def _chunk_cells(chunk: np.ndarray):
    """The cells of one column chunk, in row order: an object chunk's str
    cells as they are, and the ``repr`` of every number.

    A float64 chunk with fewer runs of equal bit patterns than half its rows
    formats each run's value once and repeats the string.  Patterns, not
    values, are compared, so 0.0 and -0.0, and NaNs of different payloads,
    stay apart, as their reprs are read back.
    """
    if chunk.dtype == object:
        return chunk.tolist()
    if chunk.dtype == np.float64:
        bits = chunk.view(np.int64)
        starts = np.flatnonzero(bits[1:] != bits[:-1]) + 1
        if 2 * (len(starts) + 1) < len(chunk):
            starts = np.concatenate(([0], starts))
            text = np.array(list(map(repr, chunk[starts].tolist())), dtype=object)
            return np.repeat(text, np.diff(starts, append=len(chunk))).tolist()
    return map(repr, chunk.tolist())


def _write_rows(fh, columns, lo: int, hi: int) -> None:
    """Rows [lo, hi) of the table ``columns`` (see :func:`write_rows`),
    formed and written one write chunk at a time, every number by ``repr``
    and every str of an object column as it is.

    ``.tolist()`` hands repr Python floats and ints, so a float round-trips
    its exact binary value and an integer column prints as integers.
    """
    for a in range(lo, hi, _WRITE_CHUNK):
        cells = [_chunk_cells(col) for col in columns(a, min(a + _WRITE_CHUNK, hi))]
        fh.write("\n".join(map(",".join, zip(*cells))))
        fh.write("\n")  # not appended to the chunk, which would copy it


def _cpus() -> int:
    """CPUs a file's writers may use: those this process may run on; one
    where the platform cannot fork, or where the process runs other threads,
    one of which may hold a lock a forked child needs."""
    if not all(hasattr(os, name) for name in ("fork", "sched_getaffinity", "sendfile")):
        return 1
    if threading.active_count() > 1:
        return 1
    return len(os.sched_getaffinity(0))


def _part_count(rows: int) -> int:
    """Processes to format ``rows`` rows: one per CPU (see :func:`_cpus`),
    at most one per ``_MIN_PART_ROWS`` rows."""
    return max(1, min(_cpus(), rows // _MIN_PART_ROWS))


def _existing_dir(folder) -> tuple[str, list[str]]:
    """The nearest directory at or above ``folder`` that exists, and the
    directories below it down to ``folder``, outermost first, that do not."""
    missing = []
    folder = os.path.abspath(folder)
    while not os.path.isdir(folder):
        missing.insert(0, folder)
        folder = os.path.dirname(folder)
    return folder, missing


def _write_text(tmp, write) -> None:
    """Call ``write(out)`` with a text file ``out`` over the file ``tmp``."""
    with open(tmp.fileno(), "w", newline="", closefd=False) as out:
        write(out)


def _run_child(tmp, write) -> None:
    """In a forked child: ``write`` a text file over ``tmp``, then exit.
    The parent's buffers are never flushed, since ``os._exit`` skips every
    finaliser; any failure shows as a nonzero exit status."""
    status = 1
    try:
        _write_text(tmp, write)
        status = 0
    finally:
        os._exit(status)


class CSVParts:
    """The writer of the CSV file ``path``, and the one place a writer is
    forked, waited for and its output placed.

    The file is a sequence of parts in row order: the ranges ``take`` hands
    to forked children while the integrator runs (when built with
    ``columns_of``, a function from a :class:`tcpfluid.dde.Trajectory` to
    its CSV table), then those ``write`` cuts from the rows left.  Each part
    is an anonymous temporary file in the nearest existing directory of
    ``path`` (the room the file needs anyway; the directory of ``path`` need
    not exist yet).  Leaving a ``with`` block waits for every child and
    closes every temporary file, whatever happened.
    """

    def __init__(self, path, columns_of=None):
        self.path = path
        self.rows = 0
        self._columns_of = columns_of
        self._dir = _existing_dir(os.path.dirname(path))[0]
        self._tmps = []
        self._pids = []
        self._codes = {}  # pid -> exit code, once reaped

    def __enter__(self) -> CSVParts:
        return self

    def __exit__(self, *exc_info) -> None:
        try:
            self._wait()
        finally:
            for tmp in self._tmps:
                tmp.close()

    def _new_part(self):
        tmp = tempfile.TemporaryFile(dir=self._dir)
        self._tmps.append(tmp)
        return tmp

    def _fork(self, write) -> None:
        """Start a child that calls ``write(out)`` on a text file over the
        next part, then exits."""
        tmp = self._new_part()
        try:
            pid = os.fork()
        except OSError as exc:
            raise OSError(f"could not write {self.path}: {exc}") from exc
        if pid == 0:
            _run_child(tmp, write)
        self._pids.append(pid)

    def _running(self) -> int:
        """Children still formatting; those that have finished are reaped."""
        for pid in self._pids:
            if pid not in self._codes:
                done, status = os.waitpid(pid, os.WNOHANG)
                if done:
                    self._codes[pid] = os.waitstatus_to_exitcode(status)
        return len(self._pids) - len(self._codes)

    def take(self, rows: int, traj) -> None:
        """The ``on_block`` hook: samples [0, ``rows``) of ``traj`` are
        final.  Every whole write chunk among them not yet taken goes to one
        new child, if they hold at least ``_MIN_PART_ROWS`` rows and fewer
        than CPUs - 1 (see :func:`_cpus`) children are running.  The child
        forms their columns from ``traj`` as the fork found it."""
        lo, hi = self.rows, rows - rows % _WRITE_CHUNK
        if hi - lo >= _MIN_PART_ROWS and self._running() < _cpus() - 1:
            self._fork(lambda out: _write_rows(out, self._columns_of(traj), lo, hi))
            self.rows = hi

    def write(self, header: str, rows: int, columns) -> None:
        """Write the file: ``header``, then ``rows`` rows of the table
        ``columns`` (see :func:`write_rows`), of which ``take`` has handed
        out [0, ``self.rows``).

        The rest are cut into contiguous ranges of whole write chunks, one
        per CPU (see :func:`_part_count`), each a part: the first formatted
        here, each other by a forked child.  Then the file is opened and
        every part appended in order, so the bytes are the same for any
        number of parts.  Raises ``OSError`` naming ``path`` when a part
        or the file could not be written; a failure leaves no file.
        """
        done = self.rows
        parts = _part_count(rows - done)
        chunks = -(-(rows - done) // _WRITE_CHUNK)
        bounds = [done + chunks * i // parts * _WRITE_CHUNK for i in range(parts)] + [rows]
        own = self._new_part()  # placed before the parts forked next
        for lo, hi in zip(bounds[1:], bounds[2:]):
            self._fork(partial(_write_rows, columns=columns, lo=lo, hi=hi))
        try:
            _write_text(own, partial(_write_rows, columns=columns, lo=done, hi=bounds[1]))
            self._wait()
            failed = sum(code != 0 for code in self._codes.values())
            if failed:
                raise OSError(f"{failed} of {len(self._codes)} writers failed")
            with open(self.path, "w", newline="") as fh:
                try:
                    fh.write(header + "\n")
                    fh.flush()  # the header goes before the parts sendfile appends
                    for tmp in self._tmps:
                        offset = 0
                        while sent := os.sendfile(fh.fileno(), tmp.fileno(), offset, 1 << 30):
                            offset += sent
                except BaseException:
                    os.remove(self.path)
                    raise
        except OSError as exc:  # this process's part, a child's or the file itself
            raise OSError(f"could not write {self.path}: {exc}") from exc

    def _wait(self) -> None:
        for pid in self._pids:
            if pid not in self._codes:
                self._codes[pid] = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])


def write_rows(path, header: str, rows: int, columns, head: CSVParts | None = None) -> None:
    """``header`` and ``rows`` rows as the CSV file ``path``, through
    ``head`` when given, the file's :class:`CSVParts` whose ``take`` has
    formatted its first rows while the integrator ran; a ``head`` built for
    another path raises ``ValueError``.

    ``columns(lo, hi)`` gives the numpy columns of rows [lo, hi); they are
    formed one write chunk at a time, so only a chunk of them is held.
    """
    if head is not None and os.path.abspath(head.path) != os.path.abspath(path):
        raise ValueError(f"the rows taken for {head.path} cannot be written to {path}")
    with head or CSVParts(path) as parts:
        parts.write(header, rows, columns)


def write_csv(path, header: str, columns) -> None:
    """``header`` and the rows of the equal-length numpy ``columns`` as the
    CSV file ``path`` (see :func:`write_rows`)."""
    write_rows(path, header, len(columns[0]), lambda lo, hi: [col[lo:hi] for col in columns])


def write_lines(path, lines: list[str]) -> None:
    """``lines`` as the file ``path``, a one-column CSV of str cells."""
    write_csv(path, lines[0], [np.array(lines[1:], dtype=object)])


def _set_aside(path) -> str | None:
    """Move a regular file at ``path`` to a new hidden name beside it and
    return that name; None when there is no such file."""
    if os.path.islink(path) or not os.path.isfile(path):
        return None
    folder, name = os.path.split(path)
    fd, aside = tempfile.mkstemp(prefix=f".{name}.", dir=folder)
    os.close(fd)
    try:
        os.replace(path, aside)
    except BaseException:
        os.remove(aside)
        raise
    return aside


def write_artifacts(out_dir: str, writers) -> dict[str, str]:
    """Write each (artifact name, file name, writer of the path) into
    ``out_dir``, made if missing; the paths by name.

    A regular file already there under one of the run's names is moved
    aside just before its own file is written.  On a failure every file the
    run wrote and every directory it made are removed and every file moved
    aside goes back; on success the files moved aside are dropped.  So a
    failed run leaves what was there before it.
    """
    undo = [(os.rmdir, folder) for folder in _existing_dir(out_dir)[1]]
    os.makedirs(out_dir, exist_ok=True)
    artifacts: dict[str, str] = {}
    asides = []
    try:
        for name, filename, write in writers:
            path = artifacts[name] = os.path.join(out_dir, filename)
            aside = _set_aside(path)
            if aside is None:
                undo.append((os.remove, path))
            else:  # the earlier file takes its name back over what was written
                asides.append(aside)
                undo.append((partial(os.replace, aside), path))
            write(path)
    except BaseException:
        for action, path in reversed(undo):
            with suppress(OSError):
                action(path)
        raise
    for aside in asides:
        os.remove(aside)
    return artifacts
