"""How a run's files reach its output directory, and what a failed run leaves.

Every CSV goes through ``write_rows``, one chunk of rows at a time.  A
table of float64 and int64 columns only (``convergence.csv``,
``fluid_trace.csv``, ``nhpl_trace.csv``) is formatted by compiled C,
``_repr.c``, which writes every float as ``repr`` and every integer as
``str`` does, byte for byte; it is built into the library the compiled step
loop lives in (:mod:`tcpfluid._rk4`), which ``write_rows`` loads before it
forks, never on import.  ``repr`` stays its specification and its
fallback: it writes every table with a str column (``nhpl_events.csv``
and the text files of ``write_lines``), every chunk of another dtype or
of a non-contiguous column, and every table on a host where the library
cannot be built, with the same bytes; it formats each run of a repeated
float value within a chunk once.  ``write_rows`` cuts the rows into one
range per CPU, formats the first in the parent and forks a child for each
other, waits for every child, and only then opens the file and appends
every part in order, so the bytes are the same for any CPU count.  Parts
are anonymous temporary files in the output file's own directory, so
nothing named appears there but the files ``write_artifacts``, the one
writer of a run's files, places.
"""

from __future__ import annotations

import os
import tempfile
import threading
from contextlib import suppress
from functools import partial

import numpy as np

# Rows formatted per write.  A chunk of five columns holds about 250 bytes
# per row while repr's cells are joined, 125 in the compiled formatter's
# buffer; on a 2-core host 1024 rows wrote 256k rows by repr as fast as
# 4096 did, with a quarter of that memory.
_WRITE_CHUNK = 1024
# Fewest rows a forked writer is given.  Measured on a 2-core host from a
# 60 MB process writing five all-distinct float columns by repr: a fork
# with its temporary file, wait and copy costs about 10 ms and 8 ms of CPU,
# so two parts of 4096 rows just break even, and two of 16384 rows take 0.6
# of one part's wall time for 1.03 of its CPU.  With the compiled
# formatter, two parts of 16384 rows of convergence.csv just break even
# (15.5 ms against 15.7 ms in one process), and two of 65536 take 0.8 of
# one part's wall time.
_MIN_PART_ROWS = 16384


def _chunk_cells(chunk: np.ndarray):
    """The cells of one column chunk on the ``repr`` path, in row order: an
    object chunk's str cells as they are, and the ``repr`` of every number.

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


def formattable(columns) -> bool:
    """Whether the compiled formatter takes the numpy ``columns``:
    contiguous, native float64 or int64, all of one length."""
    return all(col.dtype in (np.float64, np.int64) and col.flags.c_contiguous
               and len(col) == len(columns[0]) for col in columns)


def _formatter():
    """The compiled formatter (see :func:`tcpfluid._rk4.load`); None where
    the library cannot be built."""
    from . import _rk4  # on first use: importing artifacts leaves the loader unread

    lib = _rk4.library()
    return None if lib is None else lib.format_rows


def _write_rows(tmp, columns, lo: int, hi: int, format_rows) -> None:
    """Rows [lo, hi) of the table ``columns`` (see :func:`write_rows`) as
    text over the file ``tmp``, formed and written one write chunk at a
    time.

    A chunk the compiled ``format_rows`` takes (see :func:`formattable`) is
    formatted by it into one buffer, reused from chunk to chunk.  Every
    other chunk, and every chunk when ``format_rows`` is None, is written
    by ``repr``, the formatter's specification, and every str of an object
    column as it is: ``.tolist()`` hands repr Python floats and ints, so a
    float round-trips its exact binary value and an integer column prints
    as integers.
    """
    out = None
    with open(tmp.fileno(), "w", newline="", closefd=False) as fh:
        for a in range(lo, hi, _WRITE_CHUNK):
            chunk = columns(a, min(a + _WRITE_CHUNK, hi))
            if format_rows is None or not formattable(chunk):
                cells = [_chunk_cells(col) for col in chunk]
                fh.write("\n".join(map(",".join, zip(*cells))))
                fh.write("\n")  # not appended to the chunk, which would copy it
                continue
            if out is None:
                from ._rk4 import CELL_BYTES

                out = np.empty(_WRITE_CHUNK * len(chunk) * CELL_BYTES, np.uint8)
            fh.flush()  # any text written before goes first
            fh.buffer.write(out[:format_rows(chunk, out)])


def _part_count(rows: int) -> int:
    """Processes to format ``rows`` rows: one per CPU this process may run
    on, at most one per ``_MIN_PART_ROWS`` rows; one where the platform
    cannot fork, or where the process runs other threads, one of which may
    hold a lock a forked child needs."""
    if threading.active_count() > 1 or not all(
            hasattr(os, name) for name in ("fork", "sched_getaffinity", "sendfile")):
        return 1
    return max(1, min(len(os.sched_getaffinity(0)), rows // _MIN_PART_ROWS))


def _run_child(*args) -> None:
    """In a forked child: ``_write_rows(*args)``, then exit.
    The parent's buffers are never flushed, since ``os._exit`` skips every
    finaliser; any failure shows as a nonzero exit status."""
    status = 1
    try:
        _write_rows(*args)
        status = 0
    finally:
        os._exit(status)


def _wait(pids: list[int]) -> int:
    """Wait for every child in ``pids``, each removed once reaped; the
    number that exited nonzero."""
    failed = 0
    while pids:
        failed += os.waitstatus_to_exitcode(os.waitpid(pids[0], 0)[1]) != 0
        del pids[0]
    return failed


def write_rows(path, header: str, rows: int, columns) -> None:
    """``header`` and ``rows`` rows as the CSV file ``path``.

    ``columns(lo, hi)`` gives the numpy columns of rows [lo, hi); they are
    formed one write chunk at a time, so only a chunk of them is held.  The
    rows are cut into contiguous ranges of whole write chunks, one per CPU
    (see :func:`_part_count`), each a part: the first formatted here, each
    other by a forked child.  Each part is an anonymous temporary file in
    the directory of ``path``, the room the file needs anyway, so a missing
    directory fails before any row is formatted.  Then the file is opened
    and every part appended in order, so the bytes are the same for any
    number of parts.  Raises ``OSError`` naming ``path`` when a part or the
    file could not be written; a failure leaves no file.
    Every child is waited for and every temporary file closed, whatever
    happened.
    """
    # The library is loaded here, before any fork, and only for a table
    # whose first row the compiled formatter takes.
    format_rows = _formatter() if rows and formattable(columns(0, 1)) else None
    parts = _part_count(rows)
    chunks = -(-rows // _WRITE_CHUNK)
    bounds = [chunks * i // parts * _WRITE_CHUNK for i in range(parts)] + [rows]
    folder = os.path.dirname(path) or os.curdir
    tmps, pids = [], []
    try:
        for lo, hi in zip(bounds, bounds[1:]):
            tmps.append(tempfile.TemporaryFile(dir=folder))
            if len(tmps) > 1:  # every part after this process's own is a child's
                pid = os.fork()
                if pid == 0:
                    _run_child(tmps[-1], columns, lo, hi, format_rows)
                pids.append(pid)
        _write_rows(tmps[0], columns, 0, bounds[1], format_rows)
        failed = _wait(pids)
        if failed:
            raise OSError(f"{failed} of {parts - 1} writers failed")
        with open(path, "w", newline="") as fh:
            try:
                fh.write(header + "\n")
                fh.flush()  # the header goes before the parts sendfile appends
                for tmp in tmps:
                    offset = 0
                    while sent := os.sendfile(fh.fileno(), tmp.fileno(), offset, 1 << 30):
                        offset += sent
            except BaseException:
                os.remove(path)
                raise
    except OSError as exc:  # this process's part, a child's or the file itself
        raise OSError(f"could not write {path}: {exc}") from exc
    finally:  # a child's part is its own descriptor of the nameless file
        for tmp in tmps:
            tmp.close()
        _wait(pids)


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
    """Write each (file name, writer of the path) into ``out_dir``, made if
    missing; the paths by artifact name, the file name's stem.

    A regular file already there under one of the run's names is moved
    aside just before its own file is written.  On a failure every file the
    run wrote and every directory it made are removed and every file moved
    aside goes back; on success the files moved aside are dropped.  So a
    failed run leaves what was there before it.
    """
    undo = []
    folder = os.path.abspath(out_dir)
    while not os.path.isdir(folder):  # each directory makedirs makes, outermost first
        undo.insert(0, (os.rmdir, folder))
        folder = os.path.dirname(folder)
    os.makedirs(out_dir, exist_ok=True)
    artifacts: dict[str, str] = {}
    asides = []
    try:
        for filename, write in writers:
            path = artifacts[os.path.splitext(filename)[0]] = os.path.join(out_dir, filename)
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
