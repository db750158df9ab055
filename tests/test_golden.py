"""The CLI's data artifacts against the golden files in ``tests/golden``.

Every command of ``make_golden.COMMANDS`` is rerun into ``tmp_path``. Each command must write
the same artifacts, and in each artifact (a JSON document or a CSV table) every integer and
string leaf must match exactly; a float may differ by roundoff, at most
``1e-12 * max(1, |a|, |b|)``. The second case takes the ``eigh`` route, as under a BLAS
without the LAPACK routines of ``_blas``. The third reruns the commands in a child process
on OpenBLAS's Haswell kernels (``OPENBLAS_CORETYPE``), which numpy's bundled OpenBLAS reads
when it loads.
"""

import csv
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

import sparsefactors
from golden.make_golden import COMMANDS, GOLDEN, artifacts, run_commands
from sparsefactors import _blas

RTOL = 1e-12


def _cell(text: str):
    """A CSV cell as an int, a float or, failing both, the string itself."""
    for convert in (int, float):
        try:
            return convert(text)
        except ValueError:
            pass
    return text


def _document(path):
    """A JSON artifact as parsed, a CSV artifact as its rows of cells."""
    text = path.read_text(encoding="utf-8")
    if path.suffix == ".json":
        return json.loads(text)
    return [[_cell(c) for c in row] for row in csv.reader(text.splitlines())]


def _close(a: float, b: float) -> bool:
    if math.isnan(a) or math.isnan(b):
        return math.isnan(a) and math.isnan(b)
    return a == b or abs(a - b) <= RTOL * max(1.0, abs(a), abs(b))


def _mismatches(want, got, where: str):
    """Where ``got`` departs from ``want``: a different shape or type, an unequal integer or
    string, or a float beyond roundoff."""
    if isinstance(want, dict) and isinstance(got, dict):
        if want.keys() != got.keys():
            yield f"{where}: keys {sorted(want)} != {sorted(got)}"
            return
        for key in want:
            yield from _mismatches(want[key], got[key], f"{where}.{key}")
    elif isinstance(want, list) and isinstance(got, list):
        if len(want) != len(got):
            yield f"{where}: length {len(want)} != {len(got)}"
            return
        for k, (w, g) in enumerate(zip(want, got)):
            yield from _mismatches(w, g, f"{where}[{k}]")
    elif type(want) is float and type(got) is float:
        if not _close(want, got):
            yield f"{where}: {want!r} != {got!r}"
    elif type(want) is not type(got) or want != got:
        yield f"{where}: {want!r} != {got!r}"


def assert_golden(outdir):
    """Every command's artifacts in ``outdir`` match the golden files to roundoff."""
    found = []
    for name in COMMANDS:
        want, got = GOLDEN / name, outdir / name
        assert artifacts(got) == artifacts(want), name
        for file in artifacts(want):
            found += _mismatches(_document(want / file), _document(got / file), f"{name}/{file}")
    assert not found, f"{len(found)} mismatches, first: {found[:5]}"


@pytest.mark.parametrize("route", ["default", "eigh"])
def test_cli_outputs_match_the_golden_files(route, tmp_path, monkeypatch):
    if route == "eigh":
        monkeypatch.setattr(_blas, "_lapack", lambda: None)
    run_commands(tmp_path)
    assert_golden(tmp_path)


_ON_HASWELL = """
import sys
from pathlib import Path
from golden.make_golden import run_commands
from sparsefactors import _blas
run_commands(Path(sys.argv[1]))
print(_blas.core())
"""


@pytest.mark.skipif(_blas.threads() is None, reason="the BLAS is not numpy's bundled OpenBLAS")
def test_cli_outputs_match_the_golden_files_on_another_openblas_kernel(tmp_path):
    paths = [str(Path(sparsefactors.__file__).parents[1]), str(Path(__file__).parent)]
    env = {**os.environ, "OPENBLAS_CORETYPE": "Haswell",
           "PYTHONPATH": os.pathsep.join(filter(None, paths + [os.environ.get("PYTHONPATH")]))}
    child = subprocess.run([sys.executable, "-c", _ON_HASWELL, str(tmp_path)], env=env,
                           capture_output=True, text=True, timeout=300)
    assert child.returncode == 0, child.stderr
    assert child.stdout.split() == ["Haswell"]  # the kernels the commands ran on
    assert_golden(tmp_path)


def test_a_departure_is_reported():
    assert list(_mismatches({"a": [1, "x", 0.5]}, {"a": [1, "x", 0.5 + 1e-13]}, "f")) == []
    assert list(_mismatches([[2, 0.5]], [[3, 0.5]], "f")) == ["f[0][0]: 2 != 3"]
    assert list(_mismatches([1.0], [1.0 + 1e-9], "f")) == [f"f[0]: 1.0 != {1.0 + 1e-9!r}"]
    assert list(_mismatches([1], [1.0], "f")) == ["f[0]: 1 != 1.0"]
    assert list(_mismatches({"a": 1}, {"b": 1}, "f")) == ["f: keys ['a'] != ['b']"]
