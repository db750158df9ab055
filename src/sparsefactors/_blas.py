"""Thread control and LAPACK calls of numpy's bundled OpenBLAS through its own entry points.

numpy wheels ship OpenBLAS as ``numpy.libs/libscipy_openblas*.so``, which
exports ``scipy_openblas_get_num_threads64_`` and
``scipy_openblas_set_num_threads64_``, and ``scipy_openblas_get_corename64_``
(:func:`core`). Any other BLAS is not recognised: its thread count and core name
read None and :func:`single_threaded` leaves it alone.

:func:`tridiagonalize_in_place` binds four LAPACK routines of the same library, each
one ctypes call made without the interpreter lock: ``dsytrd`` reduces a symmetric,
Fortran-ordered matrix to tridiagonal form in its own buffer, ``dsterf`` gives the
whole spectrum from it, ``dstemr`` (the MRRR algorithm of Dhillon, Parlett & Vömel,
ACM TOMS 32(4), 2006) the eigenvectors of the tridiagonal for the top k eigenvalues,
and ``dormtr`` maps them back through the reduction. With a BLAS that is not
recognised it returns None.

A batch of independent units (replications, rolling windows) runs through
:func:`pinned_map` alone: on a pool of :func:`pool_size` threads inside
:func:`single_threaded`. numpy releases the interpreter lock in the BLAS calls, and
one BLAS thread per pool thread keeps the roundoff independent of the pool's size.
"""

from __future__ import annotations

import ctypes
import glob
import os
import threading
from concurrent.futures import ThreadPoolExecutor
from contextlib import contextmanager
from dataclasses import dataclass
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
def _lapack():
    """``(dsytrd, dsterf, dstemr, dormtr)`` of numpy's bundled OpenBLAS through LAPACKE
    (64-bit LAPACK integers), or None."""
    found = _bundled("scipy_LAPACKE_dsytrd64_", "scipy_LAPACKE_dsterf64_",
                     "scipy_LAPACKE_dstemr64_", "scipy_LAPACKE_dormtr64_")
    if found is None:
        return None
    dsytrd, dsterf, dstemr, dormtr = found
    i64, ptr, char = ctypes.c_int64, ctypes.c_void_p, ctypes.c_char
    # (layout, uplo, n, a, lda, d, e, tau) -> info
    dsytrd.argtypes = [ctypes.c_int, char, i64, ptr, i64, ptr, ptr, ptr]
    # (n, d, e) -> info
    dsterf.argtypes = [i64, ptr, ptr]
    # (layout, jobz, range, n, d, e, vl, vu, il, iu, m, w, z, ldz, nzc, isuppz, tryrac) -> info
    dstemr.argtypes = [ctypes.c_int, char, char, i64, ptr, ptr, ctypes.c_double, ctypes.c_double,
                       i64, i64, ptr, ptr, ptr, i64, i64, ptr, ptr]
    # (layout, side, uplo, trans, m, n, a, lda, tau, c, ldc) -> info
    dormtr.argtypes = [ctypes.c_int, char, char, char, i64, i64, ptr, i64, ptr, ptr, i64]
    for f in found:
        f.restype = i64
    return dsytrd, dsterf, dstemr, dormtr


def _ok(info: int, routine: str) -> None:
    if info != 0:
        raise np.linalg.LinAlgError(f"{routine} failed (info {info})")


@dataclass(frozen=True)
class Tridiagonal:
    """``Q' A Q = T`` for a symmetric ``A``, as ``dsytrd`` leaves it from the lower triangle.

    ``d`` and ``e`` are the diagonal and subdiagonal of T; ``a`` (column-major) holds
    the Householder reflectors of Q below its subdiagonal, with scale factors ``tau``.
    """

    a: np.ndarray
    tau: np.ndarray
    d: np.ndarray
    e: np.ndarray

    def eigenvalues(self) -> np.ndarray:
        """The spectrum, ascending, by ``dsterf``: what ``dsyevd`` runs after its own
        ``dsytrd`` when numpy asks it for eigenvalues only, so numpy's values bit for bit
        (``dsyevd`` first rescales a matrix whose largest entry is beyond about 1e-146 or
        1e146 in magnitude; this does not)."""
        d, e = self.d.copy(), self.e.copy()
        _ok(_lapack()[1](len(d), d.ctypes.data, e.ctypes.data), "dsterf")
        return d

    def leading(self, k: int) -> np.ndarray:
        """Unit eigenvectors of A for its k largest eigenvalues, as columns in nonincreasing
        order, by ``dstemr`` on T and ``dormtr``; their signs are as the solver left them."""
        _, _, dstemr, dormtr = _lapack()
        n = len(self.d)
        if not 1 <= k <= n:
            raise ValueError(f"k must be in [1, {n}], got {k}")
        d, e = self.d.copy(), self.e.copy()
        found, tryrac = ctypes.c_int64(0), ctypes.c_int64(0)  # absolute accuracy, as eigh's
        w, z, isuppz = np.empty(n), np.empty((n, k), order="F"), np.empty(2 * k, dtype=np.int64)
        _ok(dstemr(_COL_MAJOR, b"V", b"I", n, d.ctypes.data, e.ctypes.data, 0.0, 0.0, n - k + 1, n,
                   ctypes.byref(found), w.ctypes.data, z.ctypes.data, n, k, isuppz.ctypes.data,
                   ctypes.byref(tryrac)), "dstemr")
        _ok(dormtr(_COL_MAJOR, b"L", b"L", b"N", n, k, self.a.ctypes.data, n, self.tau.ctypes.data,
                   z.ctypes.data, n), "dormtr")
        return z[:, ::-1].copy()


def tridiagonalize_in_place(a: np.ndarray) -> Tridiagonal | None:
    """``dsytrd`` of a symmetric, writeable, Fortran-contiguous float64 matrix, read from its
    lower triangle and overwritten with the reflectors, so the result's ``a`` is ``a``; or
    None, with ``a`` untouched, when the BLAS is not recognised. The transpose of a C-ordered
    symmetric array is such a matrix."""
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {a.shape}")
    if a.dtype != np.float64 or not (a.flags.f_contiguous and a.flags.writeable):
        raise ValueError("expected a writeable, Fortran-contiguous float64 matrix")
    lapack = _lapack()
    if lapack is None:
        return None
    n = a.shape[0]
    d, e, tau = np.empty(n), np.zeros(n), np.zeros(max(n - 1, 1))  # e[n-1] is dstemr workspace
    _ok(lapack[0](_COL_MAJOR, b"L", n, a.ctypes.data, max(n, 1), d.ctypes.data, e.ctypes.data,
                  tau.ctypes.data), "dsytrd")
    return Tridiagonal(a=a, tau=tau, d=d, e=e)


def threads() -> int | None:
    """The BLAS's current thread count, or None when the library is not recognised."""
    lib = _library()
    return None if lib is None else lib[0]()


@cache
def core() -> str | None:
    """The name of the kernels OpenBLAS chose when it loaded (e.g. "Haswell", which
    ``OPENBLAS_CORETYPE`` can force), or None when the library is not recognised."""
    found = _bundled("scipy_openblas_get_corename64_")
    if found is None:
        return None
    (corename,) = found
    corename.argtypes, corename.restype = [], ctypes.c_char_p
    return corename().decode()


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


def pinned_map(fn, items, requested: int) -> tuple[list, dict]:
    """``[fn(item) for item in items]`` on ``pool_size(requested, len(items))`` threads inside
    :func:`single_threaded` (the first exception in the items' order is raised), and how they
    ran: ``{"workers": threads, "blas_threads": the BLAS count they ran on, or None}``."""
    workers = pool_size(requested, len(items))
    with single_threaded(), ThreadPoolExecutor(workers) as pool:
        blas_threads = threads()
        results = list(pool.map(fn, items))
    return results, {"workers": workers, "blas_threads": blas_threads}
