"""One BLAS thread in every process that computes rounds.

OpenBLAS splits a large enough product over its threads, and the split
changes the summation order: with scipy-openblas 0.3.31 on a 2-CPU
x86-64 machine, ``np.dot(X, X.T)`` for a (420, 8) ``X`` differs in 28
of 176,400 entries between one and two threads, and one
``knn_sanitizer`` round's near-tie neighbour then flips.  OpenBLAS
defaults to one thread per CPU, so without a policy the same round
spec would archive different bits on hosts with different CPU counts,
and a pool's workers would each run as many threads as the host has
CPUs.

:func:`pin_one_blas_thread` sets NumPy's bundled OpenBLAS to one thread
through the runtime setter the library exports, reached with
:mod:`ctypes`.  ``build_context_kernel`` and the engine's round loop
call it before any BLAS work on a context, so the serial host, every
pool worker (and its parent, before it forks) and every shard compute
rounds at one thread, whatever ``OPENBLAS_NUM_THREADS`` says.
Parallelism lives in pool workers and shards.  scipy's own OpenBLAS,
under the LP solve, is a separate library and is left alone.  Where
no setter is found (a NumPy not built on scipy-openblas), the first
call warns, naming NumPy's BLAS.
"""

from __future__ import annotations

import ctypes
import functools
import glob
import os
import threading
import warnings

__all__ = ["pin_one_blas_thread"]

# The thread-count setter of the OpenBLAS that NumPy's wheels bundle
# (scipy-openblas, 64-bit integer build).
_SETTER_NAME = "scipy_openblas_set_num_threads64_"

_lock = threading.Lock()
_pinned_pid: int | None = None


def _reset_lock_after_fork() -> None:
    """A child forked while another thread held the lock starts with a
    free one."""
    global _lock
    _lock = threading.Lock()


if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_reset_lock_after_fork)


def _blas_name() -> str:
    import numpy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        return f"{blas['name']} {blas.get('version', '')}".strip()
    except (TypeError, KeyError):  # NumPy before 1.26 has no dict mode
        return "unknown"


@functools.cache  # once per interpreter: a forked child inherits it
def _find_setter():
    """NumPy's bundled OpenBLAS setter, or ``None`` (warned once)."""
    import numpy

    libs = os.path.join(os.path.dirname(os.path.dirname(numpy.__file__)),
                        "numpy.libs")
    for path in sorted(glob.glob(os.path.join(libs, "*openblas*"))):
        setter = getattr(ctypes.CDLL(path), _SETTER_NAME, None)
        if setter is not None:
            setter.argtypes, setter.restype = [ctypes.c_int], None
            return setter
    warnings.warn(
        f"found no thread-count setter for NumPy's BLAS ({_blas_name()}): "
        f"round outcomes may depend on this host's BLAS thread count",
        RuntimeWarning, stacklevel=3)
    return None


def pin_one_blas_thread() -> None:
    """Set NumPy's OpenBLAS to one thread in this process, once per pid.

    Cheap after the first call in a process.  A forked child re-applies
    the setting on its own first call.
    """
    global _pinned_pid
    pid = os.getpid()
    if _pinned_pid == pid:
        return
    with _lock:
        if _pinned_pid == pid:
            return
        setter = _find_setter()
        if setter is not None:
            setter(1)
        _pinned_pid = pid
