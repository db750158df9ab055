import os
import sys
import tracemalloc

import pytest

import sparsefactors.pca as pca
from sparsefactors import _blas


def _record_calls(monkeypatch, name, record):
    """Make every sparsefactors module's ``pca.<name>`` pass its result to ``record``."""
    real = getattr(pca, name)

    def recording(*args, **kwargs):
        result = real(*args, **kwargs)
        record(result)
        return result

    for modname, module in list(sys.modules.items()):
        if modname.split(".")[0] == "sparsefactors" and getattr(module, name, None) is real:
            monkeypatch.setattr(module, name, recording)


@pytest.fixture
def peak_bytes():
    """``peak_bytes(fn)``: the tracemalloc peak of the allocations made while ``fn()`` runs."""

    def peak(fn):
        tracemalloc.start()
        try:
            fn()
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    return peak


@pytest.fixture
def pc_fit_calls(monkeypatch):
    """List that grows by one on every ``pc_fit`` call made through any sparsefactors module."""
    calls = []
    _record_calls(monkeypatch, "pc_fit", lambda fit: calls.append(1))
    return calls


@pytest.fixture
def eig_dims(monkeypatch):
    """Dimension of every ``decompose`` made through any sparsefactors module, on either
    side (the N x N or the T x T Gram)."""
    dims = []
    _record_calls(monkeypatch, "decompose", lambda eig: dims.append(len(eig.values)))
    return dims


@pytest.fixture
def eigh_calls(monkeypatch):
    """List that grows by one on every full ``eig_sym_desc`` made through any sparsefactors
    module: ``decompose`` makes one only under a BLAS it does not recognise."""
    calls = []
    _record_calls(monkeypatch, "eig_sym_desc", lambda eig: calls.append(1))
    return calls


@pytest.fixture(autouse=True)
def blas_threads_unchanged():
    """Every test leaves the process's BLAS thread count as it found it."""
    before = _blas.threads()
    yield
    assert _blas.threads() == before, "the BLAS thread count was not restored"


@pytest.fixture
def two_cpus(monkeypatch):
    """The process sees two usable CPUs, so a pool of two threads is not capped to one."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: 2)


@pytest.fixture
def fuzz_bytes():
    """Hypothesis strategy: arbitrary bytes, mixed with byte strings built from CSV-shaped
    tokens."""
    st = pytest.importorskip("hypothesis.strategies")
    tokens = [b",", b"\n", b"\r", b'"', b" ", b"series", b"code", b"group", b"s0", b"s1", b"t1",
              b"0", b"1", b"5", b"9", b"x", b"-2.5", b"1e308", b"1e999", b"inf", b"nan",
              b"\x00", b"\xff", b"\xc3\xa9"]
    return st.binary(max_size=400) | st.lists(st.sampled_from(tokens), max_size=120).map(b"".join)
