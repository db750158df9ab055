"""Thread control of numpy's bundled OpenBLAS through the library's own entry points.

numpy wheels ship OpenBLAS as ``numpy.libs/libscipy_openblas*.so``, which
exports ``scipy_openblas_get_num_threads64_`` and
``scipy_openblas_set_num_threads64_``. Any other BLAS is not recognised: its
thread count reads None and :func:`single_threaded` leaves it alone.

:func:`eigvalsh` calls the same library's ``LAPACKE_dsyevd`` directly, since
numpy's ``eigvalsh`` keeps the interpreter lock during that call on matrices of
up to 500 rows.

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

_COL_MAJOR = 102  # LAPACKE's matrix layout code
_lock = threading.Lock()
_depth = 0  # single_threaded regions open in this process
_saved = None  # thread count to restore when the last one closes


def _bundled(*names):
    """The named functions of numpy's bundled OpenBLAS, or None when no library has them all."""
    libs = os.path.join(os.path.dirname(os.path.dirname(np.__file__)), "numpy.libs")
    for path in sorted(glob.glob(os.path.join(libs, "libscipy_openblas*.so"))):
        try:
            lib = ctypes.CDLL(path)
            return [getattr(lib, name) for name in names]
        except (OSError, AttributeError):
            continue
    return None


@cache
def _library():
    """``(get, set)`` thread-count functions of numpy's bundled OpenBLAS, or None."""
    found = _bundled("scipy_openblas_get_num_threads64_", "scipy_openblas_set_num_threads64_")
    if found is None:
        return None
    get, set_ = found
    get.argtypes, get.restype = [], ctypes.c_int
    set_.argtypes, set_.restype = [ctypes.c_int], None
    return get, set_


@cache
def _dsyevd():
    """``LAPACKE_dsyevd`` of numpy's bundled OpenBLAS (64-bit LAPACK integers), or None."""
    found = _bundled("scipy_LAPACKE_dsyevd64_")
    if found is None:
        return None
    (dsyevd,) = found
    # (layout, jobz, uplo, n, a, lda, w) -> info
    dsyevd.argtypes = [ctypes.c_int, ctypes.c_char, ctypes.c_char, ctypes.c_int64,
                       ctypes.c_void_p, ctypes.c_int64, ctypes.c_void_p]
    dsyevd.restype = ctypes.c_int64
    return dsyevd


def eigvalsh(matrix: np.ndarray) -> np.ndarray:
    """Eigenvalues of a symmetric matrix, ascending, with the interpreter lock released.

    The same LAPACK call (``dsyevd``, lower triangle, eigenvalues only) as
    ``np.linalg.eigvalsh``, so the same values, bit for bit; with a BLAS that is
    not recognised it is ``np.linalg.eigvalsh`` itself.
    """
    dsyevd = _dsyevd()
    if dsyevd is None:
        return np.linalg.eigvalsh(matrix)
    a = np.array(matrix, dtype=np.float64, order="F")  # dsyevd overwrites its input
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {a.shape}")
    n = a.shape[0]
    w = np.empty(n)
    info = dsyevd(_COL_MAJOR, b"N", b"L", n, a.ctypes.data, max(n, 1), w.ctypes.data)
    if info != 0:
        raise np.linalg.LinAlgError(f"Eigenvalues did not converge (dsyevd info {info})")
    return w


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
