import sys

import pytest

import sparsefactors.pca as pca


def _record_calls(monkeypatch, name, record):
    """Make every sparsefactors module's ``pca.<name>`` call ``record(*args)`` first."""
    real = getattr(pca, name)

    def recording(*args, **kwargs):
        record(*args, **kwargs)
        return real(*args, **kwargs)

    for modname, module in list(sys.modules.items()):
        if modname.split(".")[0] == "sparsefactors" and getattr(module, name, None) is real:
            monkeypatch.setattr(module, name, recording)


@pytest.fixture
def pc_fit_calls(monkeypatch):
    """List that grows by one on every ``pc_fit`` call made through any sparsefactors module."""
    calls = []
    _record_calls(monkeypatch, "pc_fit", lambda *args, **kwargs: calls.append(1))
    return calls


@pytest.fixture
def eig_dims(monkeypatch):
    """Dimension of the matrix of every ``eig_sym_desc`` call made through any sparsefactors module."""
    dims = []
    _record_calls(monkeypatch, "eig_sym_desc", lambda matrix: dims.append(len(matrix)))
    return dims
