"""Tests of the benchmark's tracer: self-time arithmetic and wrapper removal.

Run from the repository root::

    python3 -m pytest -q benchmark/test_tracer.py
"""

import sys
import types
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from tracer import Span, Tracer, installed_wrappers, self_times, summarize  # noqa: E402


def test_self_time_subtracts_direct_children_only():
    spans = [
        Span("root", 0.0, 10.0, None),
        Span("a", 1.0, 4.0, 0),
        Span("a.child", 2.0, 3.5, 1),
        Span("b", 5.0, 9.0, 0),
    ]
    assert self_times(spans) == pytest.approx([3.0, 1.5, 1.5, 4.0])


def test_self_time_counts_overlapping_children_once_and_clips_to_parent():
    spans = [
        Span("root", 0.0, 10.0, None),
        Span("x", 1.0, 5.0, 0),
        Span("y", 3.0, 6.0, 0),  # overlaps x: the union [1, 6] is covered
        Span("z", 9.0, 12.0, 0),  # runs past the parent's end: only [9, 10] counts
    ]
    assert self_times(spans)[0] == pytest.approx(10.0 - 5.0 - 1.0)


def test_wrapped_calls_nest_and_summarize():
    ticks = iter(range(100))
    tracer = Tracer(clock=lambda: float(next(ticks)))
    mod = types.ModuleType("fake")

    def inner():
        return 1

    def outer():
        return mod.inner() + mod.inner()

    mod.inner, mod.outer = inner, outer
    tracer.install([("inner", inner, None), ("outer", outer, None)], [mod])
    assert mod.outer() == 2
    tracer.restore()
    # clock ticks: outer 0..5, inner 1..2 and 3..4
    assert [(s.name, s.start, s.end, s.parent) for s in tracer.spans] == [
        ("outer", 0.0, 5.0, None), ("inner", 1.0, 2.0, 0), ("inner", 3.0, 4.0, 0),
    ]
    table = summarize(tracer.spans)
    assert table["outer"] == {"calls": 1, "total_s": 5.0, "self_s": 3.0}
    assert table["inner"] == {"calls": 2, "total_s": 2.0, "self_s": 2.0}


def test_counters_accumulate():
    tracer = Tracer()
    mod = types.ModuleType("fake")
    mod.square = lambda x: x * x
    original = mod.square
    tracer.install([("sq", original, lambda args, kwargs, out: {"sum": out})], [mod])
    mod.square(2)
    mod.square(3)
    tracer.restore()
    assert tracer.counts == {"sum": 13}
    assert mod.square is original


def test_unknown_target_raises_and_leaves_nothing_installed():
    mod = types.ModuleType("fake")
    mod.f = lambda: None
    tracer = Tracer()
    with pytest.raises(LookupError):
        tracer.install([("f", mod.f, None), ("ghost", lambda: None, None)], [mod])
    assert installed_wrappers([mod]) == []


def test_traced_run_restores_every_site_of_the_package():
    run = pytest.importorskip("run")
    pkg = run.Package()
    modules = pkg.modules()
    before = [dict(vars(m)) for m in modules]
    selectors = dict(pkg.factor_count.SELECTORS)
    tracer = Tracer()
    with tracer:
        tracer.install(pkg.targets(), modules)
        wrapped = installed_wrappers(modules)
        # every layer function is wrapped where it is defined and where it is imported
        for site in ("sparsefactors.pca.pc_fit", "sparsefactors.factor_count.pc_fit",
                     "sparsefactors.simulate.eig_sym_desc", "sparsefactors.rolling.gram",
                     "sparsefactors.cli.run_cli", "sparsefactors.factor_count.SELECTORS['bn']"):
            assert site in wrapped
        work = run.MonteCarlo(40, 40, batch=2)
        work.setup(pkg, seed=3, tmp=Path("."))
        work.check(work.unit())
    assert installed_wrappers(modules) == []
    pkg.assert_untraced()
    for mod, old in zip(modules, before):
        for attr, value in old.items():
            assert vars(mod)[attr] is value, f"{mod.__name__}.{attr} not restored"
    assert pkg.factor_count.SELECTORS == selectors
    names = {s.name for s in tracer.spans}
    assert {"simulate.run_replications", "pca.pc_fit", "factor_count.bn"} <= names
