"""Thread control of numpy's bundled OpenBLAS through the library's own entry points.

numpy wheels ship OpenBLAS as ``numpy.libs/libscipy_openblas*.so``, which
exports ``scipy_openblas_get_num_threads64_`` and
``scipy_openblas_set_num_threads64_``. Any other BLAS is not recognised: its
thread count reads None and :func:`single_threaded` leaves it alone.

Work that runs in parallel does so on threads inside :func:`single_threaded`, on a
pool of :func:`pool_size` threads: numpy releases the interpreter lock in the BLAS
calls, and one BLAS thread per pool thread keeps the roundoff independent of the
pool's size.
"""

from __future__ import annotations

import ctypes
import glob
import os
import threading
from contextlib import contextmanager
from functools import cache

import numpy as np

_lock = threading.Lock()
_depth = 0  # single_threaded regions open in this process
_saved = None  # thread count to restore when the last one closes


@cache
def _library():
    """``(get, set)`` thread-count functions of numpy's bundled OpenBLAS, or None."""
    libs = os.path.join(os.path.dirname(os.path.dirname(np.__file__)), "numpy.libs")
    for path in sorted(glob.glob(os.path.join(libs, "libscipy_openblas*.so"))):
        try:
            lib = ctypes.CDLL(path)
            get, set_ = lib.scipy_openblas_get_num_threads64_, lib.scipy_openblas_set_num_threads64_
        except (OSError, AttributeError):
            continue
        get.argtypes, get.restype = [], ctypes.c_int
        set_.argtypes, set_.restype = [ctypes.c_int], None
        return get, set_
    return None


def threads() -> int | None:
    """The BLAS's current thread count, or None when the library is not recognised."""
    lib = _library()
    return None if lib is None else lib[0]()


def vendor() -> str:
    """Name and version of the BLAS numpy was built against, from numpy's build config."""
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        return f"{blas['name']} {blas['version']}"
    except (TypeError, KeyError):
        return "unknown"


def pool_size(requested: int, items: int) -> int:
    """Threads for a pool over ``items`` items: ``requested``, capped by the usable CPUs and
    by ``items``, so no thread is started that could not run or would find nothing to do."""
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    return min(requested, cpus or 1, items)


@contextmanager
def single_threaded():
    """Run the block with BLAS on one thread, then restore the count found on entry.

    Regions may overlap across threads: the count is saved when the first
    opens and restored when the last closes. Does nothing to a BLAS that is
    not recognised.
    """
    global _depth, _saved
    lib = _library()
    if lib is None:
        yield
        return
    get, set_ = lib
    with _lock:
        if _depth == 0:
            _saved = get()
            set_(1)
        _depth += 1
    try:
        yield
    finally:
        with _lock:
            _depth -= 1
            if _depth == 0:
                set_(_saved)
