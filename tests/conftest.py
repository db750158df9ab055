import sys

import pytest

import sparsefactors.pca as pca


@pytest.fixture
def pc_fit_calls(monkeypatch):
    """List that grows by one on every ``pc_fit`` call made through any sparsefactors module."""
    calls = []
    real = pca.pc_fit

    def counting(*args, **kwargs):
        calls.append(1)
        return real(*args, **kwargs)

    for name, module in list(sys.modules.items()):
        if name.split(".")[0] == "sparsefactors" and getattr(module, "pc_fit", None) is real:
            monkeypatch.setattr(module, "pc_fit", counting)
    return calls
