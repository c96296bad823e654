"""In-process tracing of the posetsat layers, done from outside the library.

``installed(targets, tracer)`` replaces each target function by a wrapper
under every ``posetsat`` module name it is bound to (``from .detect import
find_diamond`` makes ``posetsat.saturate.find_diamond`` a second binding),
and restores the originals on exit.  Each wrapper records into ``tracer``:

* a span (name, start, end, parent) for low-rate functions;
* an aggregate per (name, parent span) for high-rate functions such as
  ``creates_diamond``: call count, total time, true results.

A function called while an aggregated call is open is aggregated too,
under that call, so no time is counted twice.  Self time is a span's
duration minus the part of it covered by child spans and aggregates.
"""

from __future__ import annotations

import functools
import sys
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Callable


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None  # index into Tracer.spans
    counters: dict[str, float] = field(default_factory=dict)


@dataclass
class Aggregate:
    calls: int = 0
    total: float = 0.0
    counters: dict[str, float] = field(default_factory=dict)


@dataclass(frozen=True)
class Target:
    """A function to wrap: ``module.func`` plus how its calls are recorded.

    ``observe(args, result)`` returns counter increments for one call.
    """

    qualname: str
    aggregate: bool = False
    observe: Callable[[tuple, object], dict[str, float]] | None = None

    @property
    def module(self) -> str:
        return self.qualname.rsplit(".", 1)[0]

    @property
    def func(self) -> str:
        return self.qualname.rsplit(".", 1)[1]


def _add(counters: dict[str, float], more: dict[str, float]) -> None:
    for key, value in more.items():
        counters[key] = counters.get(key, 0) + value


class Tracer:
    """Spans and aggregates of one traced command, kept in memory."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self.clock = clock
        self.spans: list[Span] = []
        # (name, parent span, enclosing aggregated name or None) -> Aggregate
        self.aggregates: dict[tuple[str, int | None, str | None], Aggregate] = {}
        self._spans_open: list[int] = []
        self._aggs_open: list[str] = []

    def call(self, target: Target, fn, args, kwargs):
        name = target.qualname
        parent = self._spans_open[-1] if self._spans_open else None
        if target.aggregate or self._aggs_open:
            outer = self._aggs_open[-1] if self._aggs_open else None
            self._aggs_open.append(name)
            start = self.clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = self.clock() - start
                self._aggs_open.pop()
            agg = self.aggregates.setdefault((name, parent, outer), Aggregate())
            agg.calls += 1
            agg.total += elapsed
            if target.observe:
                _add(agg.counters, target.observe(args, result))
            return result
        span = Span(name, self.clock(), float("nan"), parent)
        self.spans.append(span)
        self._spans_open.append(len(self.spans) - 1)
        try:
            result = fn(*args, **kwargs)
        finally:
            self._spans_open.pop()
            span.end = self.clock()
        if target.observe:
            _add(span.counters, target.observe(args, result))
        return result


def _wrapper(target: Target, fn, tracer: Tracer):
    @functools.wraps(fn)
    def traced(*args, **kwargs):
        return tracer.call(target, fn, args, kwargs)

    return traced


@contextmanager
def installed(targets: list[Target], tracer: Tracer, package: str = "posetsat"):
    """Wrap every binding of each target inside `package`'s loaded modules."""
    patched: list[tuple[object, str, object]] = []
    try:
        for target in targets:
            fn = getattr(sys.modules[target.module], target.func)
            wrapped = _wrapper(target, fn, tracer)
            for modname, module in list(sys.modules.items()):
                if module is None or not (modname == package or modname.startswith(package + ".")):
                    continue
                for attr, value in list(vars(module).items()):
                    if value is fn:
                        patched.append((module, attr, fn))
                        setattr(module, attr, wrapped)
        yield
    finally:
        for module, attr, fn in reversed(patched):
            setattr(module, attr, fn)


def _covered(start: float, end: float, intervals: list[tuple[float, float]]) -> float:
    """Length of the part of [start, end] that the intervals cover."""
    total, reach = 0.0, start
    for lo, hi in sorted(intervals):
        lo, hi = max(lo, reach), min(hi, end)
        if hi > lo:
            total += hi - lo
            reach = hi
    return total


def span_self_times(tracer: Tracer) -> list[float]:
    """Per span: duration minus the time its child spans and aggregates cover."""
    children: dict[int, list[tuple[float, float]]] = {}
    for span in tracer.spans:
        if span.parent is not None:
            children.setdefault(span.parent, []).append((span.start, span.end))
    agg_time: dict[int | None, float] = {}
    for (_, parent, outer), agg in tracer.aggregates.items():
        if outer is None:
            agg_time[parent] = agg_time.get(parent, 0.0) + agg.total
    out = []
    for i, span in enumerate(tracer.spans):
        duration = span.end - span.start
        covered = _covered(span.start, span.end, children.get(i, [])) + agg_time.get(i, 0.0)
        out.append(max(duration - covered, 0.0))
    return out


def summarise(tracer: Tracer) -> dict[str, dict[str, float]]:
    """Per function: calls, busy (time inside, outermost calls only), self time, counters."""
    table: dict[str, dict[str, float]] = {}

    def row(name):
        return table.setdefault(name, {"calls": 0, "busy_s": 0.0, "self_s": 0.0})

    def has_ancestor(i: int, name: str) -> bool:
        parent = tracer.spans[i].parent
        while parent is not None:
            if tracer.spans[parent].name == name:
                return True
            parent = tracer.spans[parent].parent
        return False

    for i, (span, self_s) in enumerate(zip(tracer.spans, span_self_times(tracer))):
        r = row(span.name)
        r["calls"] += 1
        r["self_s"] += self_s
        if not has_ancestor(i, span.name):
            r["busy_s"] += span.end - span.start
        _add(r, span.counters)
    nested_time: dict[tuple[str, int | None], float] = {}
    for (name, parent, outer), agg in tracer.aggregates.items():
        if outer is not None:
            nested_time[(outer, parent)] = nested_time.get((outer, parent), 0.0) + agg.total
    for (name, parent, outer), agg in tracer.aggregates.items():
        r = row(name)
        r["calls"] += agg.calls
        r["self_s"] += max(agg.total - nested_time.get((name, parent), 0.0), 0.0)
        if outer != name:
            r["busy_s"] += agg.total
        _add(r, agg.counters)
    return table
