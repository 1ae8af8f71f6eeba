"""Build, cache and bind the package's compiled library: ``_rk4.c``, the
step loop of :func:`tcpfluid.dde.integrate` for the Reno and CUBIC windows,
and ``_repr.c``, the formatter of :func:`tcpfluid.artifacts.write_rows` for
tables of float64 and int64 columns.

``dde`` and ``artifacts`` import this module on the first run or write that
needs the library, never on import, and share its one loader,
:func:`library`.  The C is a plain shared library (no ``Python.h``), built
with the compiler Python was built with and called through ctypes.
"""

from __future__ import annotations

import ctypes
import functools
import os
import shlex
import sysconfig
import zlib
from collections import namedtuple
from contextlib import suppress

import numpy as np

from .artifacts import formattable
from .core import FlowState
from .dde import _DELAYED_EXIT, _STORED_EXIT, IntegrationError, Trajectory

# The sources of the one library, in this package's directory.
_SOURCES = ("_rk4.c", "_repr.c")
# No fast-math and no fused multiply-add, so that the compiled loop rounds
# as the Python loop does.
_FLAGS = ("-O2", "-ffp-contract=off", "-fPIC", "-shared")
# The bytes _repr.c's format_rows may take per cell (its CELL_BYTES).
CELL_BYTES = 25
# The messages of _rk4.c's domain-exit return codes.
_EXITS = {1: _DELAYED_EXIT, 2: _STORED_EXIT}


class _Params(ctypes.Structure):
    """``struct rk4_params`` of ``_rk4.c``."""

    _fields_ = [("k", ctypes.c_long), ("cubic", ctypes.c_long),
                *((field, ctypes.c_double) for field in
                  ("h", "tau", "bdp", "b", "c", "w_ref", "s_ref", "r_start"))]


# The compiled library's two entry points (see :func:`load`).
Library = namedtuple("Library", "steps format_rows")


def load(cache: str) -> Library | None:
    """Load ``_rk4.c`` and ``_repr.c`` built as one shared library in the
    directory ``cache``, building it first (see :func:`_build`) when no
    library there has its name; None, with nothing printed and no file left
    behind, when it cannot be built or loaded.

    The library's name is a CRC of the sources and the compile command, so
    an edited source gets a library of its own.  Its ``steps(traj, cubic,
    k, r_start)`` takes every step of ``integrate``'s loop on a trajectory
    with sample 0 stored, given its CUBIC (else Reno) flag, k and the
    start's delayed rate, and raises what that loop raises.  Its
    ``format_rows(columns, out)`` writes the rows of the equal-length,
    contiguous, native float64 and int64 ``columns`` as CSV text into the
    uint8 array ``out``, which holds ``CELL_BYTES`` per cell, and returns
    the number of bytes written: every float as ``repr`` and every integer
    as ``str`` writes it.
    """
    folder = os.path.dirname(__file__)
    sources = [os.path.join(folder, name) for name in _SOURCES]
    try:
        compiler = [*shlex.split(sysconfig.get_config_var("CC") or ""), *_FLAGS]
        crc = zlib.crc32(" ".join(compiler).encode())
        for source in sources:
            with open(source, "rb") as fh:
                crc = zlib.crc32(fh.read(), crc)
        library = os.path.join(cache, f"_rk4-{crc:08x}.so")
        if not (os.path.exists(library) or _build([*compiler, *sources, "-lm", "-o"], library)):
            return None
        lib = ctypes.CDLL(library)
        rk4_steps, c_format_rows = lib.rk4_steps, lib.format_rows
    # ValueError: a CC that shlex cannot split; AttributeError: a missing symbol.
    except (OSError, ValueError, AttributeError):
        return None
    rk4_steps.restype = ctypes.c_int
    rk4_steps.argtypes = [ctypes.POINTER(_Params), *[ctypes.c_void_p] * 5, ctypes.c_long,
                          ctypes.POINTER(ctypes.c_long), ctypes.POINTER(ctypes.c_double)]
    c_format_rows.restype = ctypes.c_long
    c_format_rows.argtypes = [ctypes.c_long, ctypes.c_long, ctypes.c_void_p, ctypes.c_char_p,
                              ctypes.c_void_p]

    def steps(traj: Trajectory, cubic: bool, k: int, r_start: float) -> None:
        p, h, rows = traj.params, traj.step, len(traj.x1)
        columns = (traj.x1, traj.x2, traj.dx1, traj.dx2, traj.w)
        if not all(col.dtype == np.float64 and col.flags.c_contiguous and len(col) == rows
                   for col in columns):
            raise ValueError("the kernel takes contiguous float64 columns of one length")
        at, state = ctypes.c_long(), (ctypes.c_double * 2)()
        # The C writes samples [1, rows) of the columns from sample 0.
        code = rk4_steps(_Params(k, cubic, h, p.tau, p.bdp, p.b, p.c, *traj.ref, r_start),
                         *(col.ctypes.data for col in columns), rows - 1, at, state)
        if code:
            raise IntegrationError(_EXITS[code], at.value * h, FlowState(*state))

    def format_rows(columns, out: np.ndarray) -> int:
        rows = len(columns[0])
        if not (formattable(columns) and out.dtype == np.uint8 and out.flags.c_contiguous
                and len(out) >= rows * len(columns) * CELL_BYTES):
            raise ValueError("the formatter takes contiguous float64 and int64 columns of one "
                             "length, and a uint8 buffer of CELL_BYTES per cell")
        kinds = b"".join(b"i" if col.dtype == np.int64 else b"f" for col in columns)
        pointers = (ctypes.c_void_p * len(columns))(*(col.ctypes.data for col in columns))
        return c_format_rows(rows, len(columns), pointers, kinds, out.ctypes.data)

    return Library(steps, format_rows)


@functools.cache
def library() -> Library | None:
    """The library (see :func:`load`), built into this package's
    ``__pycache__`` on first use; None where it cannot be."""
    return load(os.path.join(os.path.dirname(__file__), "__pycache__"))


def _build(command: list[str], library: str) -> bool:
    """Run the compile ``command``, which ends in ``-o``, into a temporary
    file beside ``library``, then rename that to ``library``: two processes
    that build at once leave one whole library.  False, with nothing
    printed and the temporary file removed, where that fails."""
    import subprocess  # here, not on a cache hit: it adds 0.4 MB of RSS
    import tempfile

    cache = os.path.dirname(library)
    try:
        os.makedirs(cache, exist_ok=True)
        fd, temp = tempfile.mkstemp(prefix=os.path.basename(library), suffix=".tmp", dir=cache)
    except OSError:
        return False
    os.close(fd)
    try:
        subprocess.run([*command, temp], stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL,
                       stderr=subprocess.DEVNULL, check=True, timeout=120)
        os.replace(temp, library)
        return True
    except (OSError, subprocess.SubprocessError):
        return False
    finally:
        with suppress(FileNotFoundError):
            os.unlink(temp)
