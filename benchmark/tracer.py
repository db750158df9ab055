"""In-memory span tracer that wraps a loaded package's functions from outside.

``Tracer.install`` replaces a function at every site that holds it: each
module attribute bound to it (its defining module, every module that imported
it by name, the package namespace) and each value of a module-level dict (such
as a registry of selectors). Every call then records a span (name, start,
end, parent) in memory. ``Tracer.restore`` puts the originals back;
``installed_wrappers`` lists any wrapper still in place, so a caller can prove
that untraced timings run on the unmodified code.

A span's self time is its duration minus the part of its interval that its
direct children cover.
"""

from __future__ import annotations

import functools
import time
from dataclasses import dataclass

_MARK = "__bench_traced_original__"


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None  # index of the enclosing span in Tracer.spans


def self_times(spans: list[Span]) -> list[float]:
    """Duration of each span minus the union of its direct children's intervals."""
    children: list[list[tuple[float, float]]] = [[] for _ in spans]
    for sp in spans:
        if sp.parent is not None:
            children[sp.parent].append((sp.start, sp.end))
    out = []
    for sp, kids in zip(spans, children):
        covered, reach = 0.0, sp.start
        for lo, hi in sorted(kids):
            lo, hi = max(lo, reach), min(hi, sp.end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        out.append((sp.end - sp.start) - covered)
    return out


def summarize(spans: list[Span]) -> dict[str, dict]:
    """Per span name: number of calls, total seconds, and self seconds."""
    table: dict[str, dict] = {}
    for sp, own in zip(spans, self_times(spans)):
        row = table.setdefault(sp.name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
        row["calls"] += 1
        row["total_s"] += sp.end - sp.start
        row["self_s"] += own
    return table


def installed_wrappers(modules) -> list[str]:
    """Sites in ``modules`` that still hold a tracing wrapper."""
    found = []
    for mod in modules:
        for attr, value in vars(mod).items():
            if hasattr(value, _MARK):
                found.append(f"{mod.__name__}.{attr}")
            elif isinstance(value, dict):
                found += [f"{mod.__name__}.{attr}[{k!r}]" for k, v in value.items() if hasattr(v, _MARK)]
    return found


class Tracer:
    """Records spans for calls to wrapped functions; single-threaded use."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: list[Span] = []
        self.counts: dict[str, float] = {}
        self._stack: list[int] = []
        self._patches: list[tuple] = []

    def wrap(self, name: str, fn, count=None):
        """Return ``fn`` wrapped to record a span named ``name``.

        ``count(args, kwargs, result)`` may return a dict of counters to add
        to ``self.counts`` after each call.
        """

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = Span(name, self.clock(), 0.0, self._stack[-1] if self._stack else None)
            self._stack.append(len(self.spans))
            self.spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = self.clock()
                self._stack.pop()
            if count is not None:
                for key, val in count(args, kwargs, result).items():
                    self.counts[key] = self.counts.get(key, 0) + val
            return result

        setattr(traced, _MARK, fn)
        return traced

    def install(self, targets, modules) -> None:
        """Wrap each ``(name, fn, count)`` target at every site in ``modules``.

        Raises ``LookupError`` (after restoring) if a target is held by no
        site, because then its layer would silently go unmeasured.
        """
        if self._patches:
            raise RuntimeError("tracer already installed")
        try:
            for name, fn, count in targets:
                wrapper = self.wrap(name, fn, count)
                hits = 0
                for mod in modules:
                    for attr, value in list(vars(mod).items()):
                        if value is fn:
                            self._patches.append((vars(mod), attr, fn))
                            setattr(mod, attr, wrapper)
                            hits += 1
                        elif isinstance(value, dict):
                            for key, entry in list(value.items()):
                                if entry is fn:
                                    self._patches.append((value, key, fn))
                                    value[key] = wrapper
                                    hits += 1
                if not hits:
                    raise LookupError(f"no site holds the function traced as {name!r}")
        except BaseException:
            self.restore()
            raise

    def restore(self) -> None:
        """Put every original function back where ``install`` found it."""
        while self._patches:
            container, key, fn = self._patches.pop()
            container[key] = fn

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.restore()
        return False
