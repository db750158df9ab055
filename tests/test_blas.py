import ast
import sys
import threading
import time
from pathlib import Path

import numpy as np
import pytest

from sparsefactors import _blas

needs_blas = pytest.mark.skipif(_blas.threads() is None, reason="BLAS not recognised")


@pytest.fixture
def two_threads():
    """Set the BLAS to two threads for the test, then put back the count found."""
    get, set_ = _blas._library()
    before = get()
    set_(2)
    yield
    set_(before)


@needs_blas
def test_single_threaded_pins_and_restores(two_threads):
    with _blas.single_threaded():
        assert _blas.threads() == 1
    assert _blas.threads() == 2


@needs_blas
def test_restored_when_the_block_raises(two_threads):
    with pytest.raises(KeyError):
        with _blas.single_threaded():
            raise KeyError("boom")
    assert _blas.threads() == 2


@needs_blas
def test_overlapping_regions_restore_on_the_last_exit(two_threads):
    outer, inner = _blas.single_threaded(), _blas.single_threaded()
    outer.__enter__()
    inner.__enter__()
    outer.__exit__(None, None, None)  # closes first, as when two threads overlap
    assert _blas.threads() == 1
    inner.__exit__(None, None, None)
    assert _blas.threads() == 2


@needs_blas
def test_many_threads_entering_and_leaving_restore_the_count(two_threads):
    seen, errors = [], []

    def churn():
        try:
            for _ in range(200):
                with _blas.single_threaded():
                    time.sleep(0)  # let another thread enter or leave meanwhile
                    seen.append(_blas.threads())
        except Exception as exc:  # reported by the assert below
            errors.append(exc)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        workers = [threading.Thread(target=churn) for _ in range(8)]
        for w in workers:
            w.start()
        for w in workers:
            w.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(w.is_alive() for w in workers) and not errors
    assert seen == [1] * 1600  # pinned inside every region
    assert _blas.threads() == 2  # and restored once the last one closed


def test_unrecognised_blas_is_left_alone(monkeypatch):
    monkeypatch.setattr(_blas, "_library", lambda: None)
    assert _blas.threads() is None
    with _blas.single_threaded():
        assert _blas.threads() is None


def test_pool_size_is_capped_by_the_cpus_and_the_items(two_cpus):
    assert _blas.pool_size(1000, 6) == 2
    assert _blas.pool_size(1000, 1) == 1
    assert _blas.pool_size(1, 6) == 1


def test_pinned_map_keeps_the_order_and_reports_how_it_ran(two_cpus):
    pinned = None if _blas.threads() is None else 1
    results, run = _blas.pinned_map(lambda i: (i, _blas.threads()), range(5), 3)
    assert results == [(i, pinned) for i in range(5)]  # every item ran on the pinned BLAS
    assert run == {"workers": 2, "blas_threads": pinned}


def test_pinned_map_raises_the_first_error_in_the_items_order():
    def fail_from_two(i):
        if i >= 2:
            raise ValueError(str(i))
        return i

    with pytest.raises(ValueError, match="^2$"):
        _blas.pinned_map(fail_from_two, range(6), 3)


def test_only_blas_opens_a_pool_or_pins_the_blas():
    """Every batch runs through pinned_map: no other module of the package imports
    concurrent.futures or calls single_threaded."""
    package = Path(_blas.__file__).parent
    offenders = []
    for path in sorted(package.rglob("*.py")):
        if path == Path(_blas.__file__):
            continue
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                modules = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                modules = [node.module or ""]
            else:
                modules = []
            if any(m.split(".")[0] == "concurrent" for m in modules):
                offenders.append(f"{path.name}:{node.lineno} imports {modules}")
            if isinstance(node, ast.Call) and "single_threaded" in (
                    getattr(node.func, "attr", None), getattr(node.func, "id", None)):
                offenders.append(f"{path.name}:{node.lineno} calls single_threaded")
    assert not offenders


needs_lapacke = pytest.mark.skipif(_blas._lapack() is None, reason="LAPACKE not recognised")


@needs_lapacke
@pytest.mark.parametrize("n", [1, 2, 7, 60, 301])
def test_eigvalsh_is_numpys_bit_for_bit(n):
    """The spectrum of the reduction is ``np.linalg.eigvalsh``'s, bit for bit."""
    a = np.random.default_rng(n).normal(size=(n, n))
    m = (a + a.T) / 2
    tri = _blas.tridiagonalize_in_place(np.array(m, order="F"))
    assert np.array_equal(tri.eigenvalues(), np.linalg.eigvalsh(m))


@needs_lapacke
def test_in_place_reduction_is_the_copying_one_in_the_input_buffer():
    """Reducing the Fortran view of a symmetric C array is reducing a Fortran copy of it."""
    a = np.random.default_rng(4).normal(size=(50, 50))
    m = a @ a.T
    copied = _blas.tridiagonalize_in_place(np.array(m, order="F"))
    in_place = _blas.tridiagonalize_in_place(m.T)  # the Fortran view of the symmetric m
    assert np.shares_memory(in_place.a, m)
    for name in ("a", "tau", "d", "e"):
        assert np.array_equal(getattr(in_place, name), getattr(copied, name))


def read_only(a):
    a.setflags(write=False)
    return a


@pytest.mark.parametrize("matrix", [np.ones((4, 3), order="F"), np.ones((3, 3)),
                                    np.ones((3, 3), dtype=np.float32, order="F"),
                                    read_only(np.ones((3, 3), order="F"))])
def test_in_place_reduction_rejects_what_it_cannot_overwrite(matrix):
    with pytest.raises(ValueError, match="square|Fortran"):
        _blas.tridiagonalize_in_place(matrix)


def test_eigvalsh_rejects_a_non_square_matrix():
    with pytest.raises(ValueError, match="square"):
        _blas.tridiagonalize_in_place(np.array(np.ones((3, 4)), order="F"))


@needs_lapacke
def test_eigvalsh_releases_the_interpreter_lock():
    """With no forced thread switch, the caller's loop runs during the reduction only if
    the call released the lock."""
    a = np.random.default_rng(3).normal(size=(400, 400))
    m = np.array(a @ a.T, order="F")
    started, done, spins = threading.Event(), threading.Event(), []

    def decompose_once():
        started.set()
        _blas.tridiagonalize_in_place(m)
        done.set()

    old = sys.getswitchinterval()
    sys.setswitchinterval(30.0)
    try:
        worker = threading.Thread(target=decompose_once)
        worker.start()
        started.wait(timeout=30)
        while not done.is_set():
            spins.append(1)
            time.sleep(0)  # lets the worker take the lock back when its call returns
        worker.join(timeout=30)
    finally:
        sys.setswitchinterval(old)
    assert not worker.is_alive()
    assert len(spins) > 10
