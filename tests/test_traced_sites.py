"""The benchmark's traced mode wraps package functions by name; every name must resolve.

``benchmark/run.py`` is read as text and its ``TRACED`` table evaluated as a literal, so
the benchmark is neither imported nor run here.
"""

import ast
import importlib
from pathlib import Path

RUN = Path(__file__).resolve().parents[1] / "benchmark" / "run.py"


def traced_sites():
    tree = ast.parse(RUN.read_text(encoding="utf-8"))
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "TRACED" for t in node.targets):
            return ast.literal_eval(node.value)
    raise AssertionError(f"no TRACED table in {RUN}")


def test_every_traced_site_resolves_in_the_package():
    sites = traced_sites()
    assert sites
    missing = []
    for name, module, attr in sites:
        target = getattr(importlib.import_module(f"sparsefactors.{module}"), attr, None)
        if not callable(target):
            missing.append(f"{name}: sparsefactors.{module}.{attr}")
    assert not missing, f"benchmark/run.py traces names the package does not define: {missing}"
