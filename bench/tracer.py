"""In-memory span tracer that wraps closegraph's public functions from outside.

A span records a layer name, a start and end time and the index of the
span that was open when it began (its parent). Spans live in flat arrays
until the run ends. A layer's self time is the duration of its spans
minus the part of each span that its child spans cover.

The package imports many functions by name (``from .graph import
graph_closeness``), so wrapping ``graph.graph_closeness`` alone would miss
every call made through ``verify``, ``cli`` or ``vulnerability``. Installing
a wrapper therefore replaces every module attribute in the package that is
the original function, including bound class methods such as
``formulas._P2 = Dyadic.pow2``.
"""

from __future__ import annotations

import functools
import sys
import time
import types
from array import array
from collections import defaultdict

ROOT = -1


class Tracer:
    """Records spans and per-layer counters while wrappers are installed."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name_idx = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack = [ROOT]
        self.counters: dict[str, float] = defaultdict(float)
        self._undo: list[tuple[object, str, object]] = []

    # -- recording ---------------------------------------------------------

    def _name_id(self, name: str) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def wrap(self, name: str, fn, after=None):
        """Return fn wrapped in a span; after(result, args) runs once the
        span is closed and returns {counter: increment}."""
        nid = self._name_id(name)
        name_idx, parent, start, end = self.name_idx, self.parent, self.start, self.end
        stack, clock, counters = self._stack, self.clock, self.counters

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            i = len(start)
            name_idx.append(nid)
            parent.append(stack[-1])
            end.append(0.0)
            stack.append(i)
            start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                end[i] = clock()
                stack.pop()
            if after is not None:
                for key, inc in after(result, args).items():
                    counters[key] += inc
            return result

        return traced

    def span(self, name: str):
        """Context manager form, for the benchmark's own root spans."""
        return _Span(self, self._name_id(name))

    # -- installing --------------------------------------------------------

    def patch_function(self, module, attr: str, name: str, after=None) -> None:
        """Wrap module.attr and every alias of it inside the package."""
        original = getattr(module, attr)
        wrapper = self.wrap(name, original, after)
        package = module.__name__.split(".")[0]
        for mod in _package_modules(package):
            for key, value in list(vars(mod).items()):
                if value is original:
                    self._set(mod, key, wrapper)

    def patch_method(self, cls, attr: str, name: str, after=None) -> None:
        """Wrap a method or classmethod defined on cls, and every bound
        alias of a classmethod inside the package."""
        raw = cls.__dict__[attr]
        if isinstance(raw, classmethod):
            wrapper = self.wrap(name, raw.__func__, after)
            self._set(cls, attr, classmethod(wrapper))
            package = cls.__module__.split(".")[0]
            for mod in _package_modules(package):
                for key, value in list(vars(mod).items()):
                    if (
                        isinstance(value, types.MethodType)
                        and value.__func__ is raw.__func__
                    ):
                        self._set(mod, key, types.MethodType(wrapper, value.__self__))
        else:
            self._set(cls, attr, self.wrap(name, raw, after))

    def _set(self, owner, key: str, value) -> None:
        self._undo.append((owner, key, owner.__dict__[key]))
        setattr(owner, key, value)

    def uninstall(self) -> None:
        """Put back every original object, last patch first."""
        while self._undo:
            owner, key, original = self._undo.pop()
            setattr(owner, key, original)

    # -- reading -----------------------------------------------------------

    def layer_totals(self) -> tuple[dict[str, float], dict[str, int]]:
        """Self time and span count summed per layer name."""
        seconds = [0.0] * len(self.names)
        calls = [0] * len(self.names)
        for nid, self_s in zip(self.name_idx, self_times(self.start, self.end, self.parent)):
            seconds[nid] += self_s
            calls[nid] += 1
        return dict(zip(self.names, seconds)), dict(zip(self.names, calls))

    def durations(self, name: str) -> list[float]:
        nid = self._name_ids.get(name)
        return [
            e - s for n, s, e in zip(self.name_idx, self.start, self.end) if n == nid
        ]


class _Span:
    def __init__(self, tracer: Tracer, nid: int):
        self.tracer, self.nid = tracer, nid

    def __enter__(self):
        t = self.tracer
        self.i = len(t.start)
        t.name_idx.append(self.nid)
        t.parent.append(t._stack[-1])
        t.end.append(0.0)
        t._stack.append(self.i)
        t.start.append(t.clock())
        return self

    def __exit__(self, *exc):
        t = self.tracer
        t.end[self.i] = t.clock()
        t._stack.pop()
        return False


def _package_modules(package: str):
    return [
        mod
        for key, mod in list(sys.modules.items())
        if mod is not None and (key == package or key.startswith(package + "."))
    ]


def self_times(start, end, parent) -> list[float]:
    """Self time of each span: its duration minus the time its children
    cover, each child clipped to its parent.

    The three sequences are indexed by span; parent holds a span index or
    ROOT. Spans recorded by one thread nest, so siblings never overlap and
    the covered time is the sum of the clipped child durations.
    """
    covered = [0.0] * len(start)
    for s, e, p in zip(start, end, parent):
        if p != ROOT:
            covered[p] += max(0.0, min(e, end[p]) - max(s, start[p]))
    return [e - s - c for s, e, c in zip(start, end, covered)]
