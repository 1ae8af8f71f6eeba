"""Build, cache and bind ``_rk4.c``, the compiled step loop of
:func:`tcpfluid.dde.integrate` for the Reno and CUBIC windows.

``dde`` imports this module on the first run that needs the loop, never on
import.  The C is a plain shared library (no ``Python.h``), built with the
compiler Python was built with and called through ctypes.
"""

from __future__ import annotations

import ctypes
import os
import shlex
import sysconfig
import zlib
from contextlib import suppress

import numpy as np

from .core import FlowState
from .dde import _DELAYED_EXIT, _STORED_EXIT, IntegrationError, Trajectory

# No fast-math and no fused multiply-add, so that the compiled loop rounds
# as the Python loop does.
_FLAGS = ("-O2", "-ffp-contract=off", "-fPIC", "-shared")
# The messages of _rk4.c's domain-exit return codes.
_EXITS = {1: _DELAYED_EXIT, 2: _STORED_EXIT}


class _Params(ctypes.Structure):
    """``struct rk4_params`` of ``_rk4.c``."""

    _fields_ = [("k", ctypes.c_long), ("cubic", ctypes.c_long),
                *((field, ctypes.c_double) for field in
                  ("h", "tau", "bdp", "b", "c", "w_ref", "s_ref", "r_start"))]


def load(cache: str):
    """Load ``_rk4.c`` built as a shared library in the directory ``cache``,
    building it first (see :func:`_build`) when no library there has its
    name; None, with nothing printed and no file left behind, when it
    cannot be built or loaded.

    The library's name is a CRC of the source and the compile command, so
    an edited source gets a library of its own.  What is returned,
    ``kernel(traj, cubic, k, r_start)``, takes every step of
    ``integrate``'s loop on a trajectory with sample 0 stored, given its
    CUBIC (else Reno) flag, k and the start's delayed rate, and raises what
    that loop raises.
    """
    source = os.path.join(os.path.dirname(__file__), "_rk4.c")
    try:
        compiler = [*shlex.split(sysconfig.get_config_var("CC") or ""), *_FLAGS]
        with open(source, "rb") as fh:
            name = f"_rk4-{zlib.crc32(' '.join(compiler).encode(), zlib.crc32(fh.read())):08x}.so"
        library = os.path.join(cache, name)
        if not (os.path.exists(library) or _build([*compiler, source, "-lm", "-o"], library)):
            return None
        rk4_steps = ctypes.CDLL(library).rk4_steps
    except (OSError, ValueError):  # ValueError: a CC that shlex cannot split
        return None
    rk4_steps.restype = ctypes.c_int
    rk4_steps.argtypes = [ctypes.POINTER(_Params), *[ctypes.c_void_p] * 5, ctypes.c_long,
                          ctypes.POINTER(ctypes.c_long), ctypes.POINTER(ctypes.c_double)]

    def kernel(traj: Trajectory, cubic: bool, k: int, r_start: float) -> None:
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

    return kernel


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
