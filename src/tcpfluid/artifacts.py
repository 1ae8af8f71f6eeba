"""How a run's files reach its output directory, and what a failed run leaves.

Every CSV goes through ``write_rows``, which opens the file in binary mode
and writes it one chunk of rows at a time, in row order, on the calling
thread, every chunk by the formatter the first one chooses.  A table of
contiguous float64, int64 and short bytes columns (``convergence.csv``,
``fluid_trace.csv``, ``nhpl_trace.csv`` and ``nhpl_events.csv``, whose
event types are bytes) is formatted by compiled C, ``_repr.c``, which
writes every float as ``repr`` and every integer as ``str`` does, and every
bytes cell as its text, byte for byte, into one buffer reused for every
chunk; it is built into the library the compiled step loop lives in
(:mod:`tcpfluid._rk4`), which ``write_rows`` loads on the first such
table, never on import.  ``repr`` stays its specification and its
fallback: it writes every table of another dtype, of a wider bytes column
or of a non-contiguous column, and every table on a host where the
library cannot be built, with the same bytes; it formats each run of a
repeated float value within a chunk once.  The text files of
``write_lines`` are a header with no rows.  The writer makes no
temporary file, so nothing appears in the output directory but the files
``write_artifacts``, the one writer of a run's files, places.
"""

from __future__ import annotations

import os
import tempfile
from contextlib import suppress
from functools import partial

import numpy as np

# The bytes the compiled formatter may take per cell, its separator
# included (``_repr.c``'s CELL_BYTES): a bytes column is at most one narrower.
CELL_BYTES = 25
# Rows formatted per write.  A chunk of five columns holds about 250 bytes
# per row while repr's cells are joined, 125 in the compiled formatter's
# buffer; on a 2-core host 1024 rows wrote 256k rows by repr as fast as
# 4096 did, with a quarter of that memory.
_WRITE_CHUNK = 1024


def _chunk_cells(chunk: np.ndarray):
    """The cells of one column chunk on the ``repr`` path, in row order: a
    bytes chunk's ASCII cells up to their first NUL, as the compiled
    formatter writes them, and the ``repr`` of every number.

    A bytes chunk decodes each of its distinct cells once, in the order
    they first appear, so the first cell that is not ASCII raises what a
    decode row by row would.  A float64 chunk with fewer runs of equal bit
    patterns than half its rows formats each run's value once and repeats
    the string.  Patterns, not values, are compared, so 0.0 and -0.0, and
    NaNs of different payloads, stay apart, as their reprs are read back.
    """
    if chunk.dtype.kind == "S":
        cells, first, inverse = np.unique(chunk, return_index=True, return_inverse=True)
        order = np.argsort(first)
        text = np.empty(len(cells), dtype=object)
        text[order] = [cell.partition(b"\0")[0].decode("ascii") for cell in cells[order].tolist()]
        return text[inverse].tolist()
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
    contiguous, native float64 or int64, or bytes (``S``) narrower than
    ``CELL_BYTES``, all of one length."""
    return all((col.dtype in (np.float64, np.int64)
                or col.dtype.kind == "S" and col.itemsize < CELL_BYTES)
               and col.flags.c_contiguous and len(col) == len(columns[0]) for col in columns)


def _formatter():
    """The compiled formatter (see :func:`tcpfluid._rk4.load`); None where
    the library cannot be built."""
    from . import _rk4  # on first use: importing artifacts leaves the loader unread

    lib = _rk4.library()
    return None if lib is None else lib.format_rows


def write_rows(path, header: str, rows: int, columns) -> None:
    """``header`` and ``rows`` rows as the CSV file ``path``.

    ``columns(lo, hi)`` gives the numpy columns of rows [lo, hi); they are
    formed one write chunk at a time, so only one chunk is held.  The file
    is opened first, so a missing directory fails before any row is
    formatted; then the ASCII header and every chunk are written into it as
    bytes, in row order, all by the writer the first chunk chooses.  A table
    the compiled ``format_rows`` takes (see :func:`formattable`) is
    formatted by it into one buffer, reused from chunk to chunk; a later
    chunk it refuses raises its ``ValueError``.  Every other table, and
    every table when ``format_rows`` cannot be built, is written by
    ``repr``, the formatter's specification: ``.tolist()`` hands repr Python
    floats and ints, so a float round-trips its exact binary value and an
    integer column prints as integers.  Raises ``OSError`` naming ``path``
    when the file could not be written or the formatter failed; a failure
    leaves no file.
    """
    try:
        fh = open(path, "wb")
        try:
            with fh:
                fh.write(header.encode() + b"\n")
                for lo in range(0, rows, _WRITE_CHUNK):
                    chunk = columns(lo, min(lo + _WRITE_CHUNK, rows))
                    if lo == 0:  # the writer of every chunk
                        format_rows = _formatter() if formattable(chunk) else None
                        if format_rows is not None:
                            out = np.empty(_WRITE_CHUNK * len(chunk) * CELL_BYTES, np.uint8)
                    if format_rows is None:
                        cells = [_chunk_cells(col) for col in chunk]
                        fh.write(("\n".join(map(",".join, zip(*cells))) + "\n").encode())
                    else:
                        fh.write(out[:format_rows(chunk, out)])
        except BaseException:
            os.remove(path)
            raise
    except OSError as exc:  # the file or the formatter's call
        raise OSError(f"could not write {path}: {exc}") from exc


def write_lines(path, lines: list[str]) -> None:
    """``lines`` as the text file ``path``: a CSV whose header is the
    lines, with no rows (see :func:`write_rows`)."""
    write_rows(path, "\n".join(lines), 0, None)


def _set_aside(path) -> str | None:
    """Move what is at ``path``, a symlink itself, to a new hidden name
    beside it and return that name; None for nothing or a real directory."""
    if not os.path.lexists(path) or (os.path.isdir(path) and not os.path.islink(path)):
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

    Whatever is already there under one of the run's names, a symlink too,
    but not a real directory, is moved aside just before its own file is
    written.  On a failure every file the run wrote and every directory it
    made are removed and everything moved aside goes back; on success what
    was moved aside is dropped.  So a failed run leaves what was there
    before it.
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
