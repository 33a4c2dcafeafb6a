"""Outside-in span tracing of the telecrit layers.

The library has no trace hooks of its own, so the traced pass wraps the
public functions of each layer at run time.  A layer is found through a
function the package re-exports (``importlib.import_module(fn.__module__)``),
never through ``import telecrit.<layer>``: ``telecrit.scan`` is the
``scan`` function, which shadows the submodule of the same name.  Every
module of the package that holds the original function object gets the
wrapper, so callers inside the library (``scan`` calling
``unitarity_defect``) and the benchmark (``telecrit.scan(...)``) both go
through it.  Nothing under ``src/`` is edited; :func:`patched` restores
every attribute on exit.

Each span records name, start, end and parent in compact columns kept in
memory; self time is a span's duration minus the durations of its
children (spans nest strictly, one thread).
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import inspect
import sys
from array import array
from collections import Counter
from time import perf_counter

import numpy as np

# layer name -> package attribute whose defining module is that layer
LAYER_ANCHORS = {
    "states": "tensor",
    "entanglement": "partial_trace",
    "teleport": "criterion_check",
    "scan": "scan",
}


class Tracer:
    """Span store: one row per call of a wrapped function or named block."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_col = array("i")
        self.parent_col = array("q")
        self.start_col = array("d")
        self.end_col = array("d")
        self._stack: list[int] = []
        # work counters observed on return values at span boundaries
        self.counters: Counter[str] = Counter()

    def _open(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        idx = len(self.name_col)
        self.name_col.append(nid)
        self.parent_col.append(self._stack[-1] if self._stack else -1)
        self.start_col.append(0.0)
        self.end_col.append(0.0)
        self._stack.append(idx)
        return idx

    def _close(self, idx: int, start: float, end: float) -> None:
        self._stack.pop()
        self.start_col[idx] = start
        self.end_col[idx] = end

    @contextlib.contextmanager
    def span(self, name: str):
        idx = self._open(name)
        start = perf_counter()
        try:
            yield
        finally:
            self._close(idx, start, perf_counter())

    def wrap(self, name: str, fn, observe=None):
        """``fn`` recorded as span ``name``; ``observe(result, counters)``
        runs on each return value, outside the span."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = self._open(name)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(idx, start, perf_counter())
            if observe is not None:
                observe(result, self.counters)
            return result

        return traced


class TraceSummary:
    """Per-name calls, inclusive and self time, from the recorded spans."""

    def __init__(self, tracer: Tracer) -> None:
        self.names = list(tracer.names)
        name = np.frombuffer(tracer.name_col, dtype=np.int32).copy()
        parent = np.frombuffer(tracer.parent_col, dtype=np.int64).copy()
        dur = np.frombuffer(tracer.end_col) - np.frombuffer(tracer.start_col)
        has_parent = parent >= 0
        child = np.bincount(
            parent[has_parent], weights=dur[has_parent], minlength=len(dur)
        )
        self_time = dur - child
        k = len(self.names)
        self._calls = np.bincount(name, minlength=k)
        self._total = np.bincount(name, weights=dur, minlength=k)
        self._self = np.bincount(name, weights=self_time, minlength=k)
        self._name, self._parent = name, parent

    def _id(self, name: str) -> int | None:
        try:
            return self.names.index(name)
        except ValueError:
            return None

    def calls(self, name: str) -> int:
        nid = self._id(name)
        return 0 if nid is None else int(self._calls[nid])

    def total_ms(self, name: str) -> float:
        nid = self._id(name)
        return 0.0 if nid is None else float(self._total[nid]) * 1e3

    def self_ms(self, name: str) -> float:
        nid = self._id(name)
        return 0.0 if nid is None else float(self._self[nid]) * 1e3

    def calls_under(self, name: str, ancestor: str) -> int:
        """Calls of ``name`` with a span named ``ancestor`` somewhere above."""
        nid, aid = self._id(name), self._id(ancestor)
        if nid is None or aid is None:
            return 0
        under = np.zeros(len(self._name), dtype=bool)
        up = self._parent.copy()
        while True:
            live = up >= 0
            if not live.any():
                break
            under[live] |= self._name[up[live]] == aid
            up[live] = self._parent[up[live]]
        return int(np.count_nonzero(under & (self._name == nid)))


def layer_modules(package) -> dict[str, object]:
    """Layer name -> module, for the layers present in this version."""
    found = {}
    for layer, attr in LAYER_ANCHORS.items():
        fn = getattr(package, attr, None)
        if fn is not None and getattr(fn, "__module__", None):
            found[layer] = importlib.import_module(fn.__module__)
    with contextlib.suppress(ImportError):
        found["cli"] = importlib.import_module(package.__name__ + ".cli")
    return found


def _public_functions(module) -> dict[str, object]:
    names = getattr(module, "__all__", None) or [
        n for n in vars(module) if not n.startswith("_")
    ]
    out = {}
    for name in names:
        obj = getattr(module, name, None)
        if inspect.isfunction(obj) and obj.__module__ == module.__name__:
            out[name] = obj
    return out


def _count_classification(result, counters: Counter) -> None:
    kind = getattr(result, "kind", None)
    if kind is not None:
        counters[f"scan.kind.{kind}"] += 1
    counters["scan.roots"] += len(getattr(result, "roots", None) or ())


# span name -> observer of the wrapped function's return value
OBSERVERS = {"scan.classify_theta": _count_classification}


@contextlib.contextmanager
def patched(tracer: Tracer, package):
    """Wrap every public layer function wherever the package binds it.

    Yields the sorted list of span names that were wrapped, so a caller
    can tell an absent target (deleted by a later version) from one that
    was simply never called.
    """
    prefix = package.__name__
    holders = [
        mod
        for key, mod in list(sys.modules.items())
        if mod is not None and (key == prefix or key.startswith(prefix + "."))
    ]
    saved: list[tuple[object, str, object]] = []
    wrapped: list[str] = []
    try:
        for layer, module in layer_modules(package).items():
            for fname, fn in _public_functions(module).items():
                span_name = f"{layer}.{fname}"
                wrapper = tracer.wrap(span_name, fn, OBSERVERS.get(span_name))
                wrapped.append(span_name)
                for holder in holders:
                    for attr, value in list(vars(holder).items()):
                        if value is fn:
                            saved.append((holder, attr, value))
                            setattr(holder, attr, wrapper)
        yield sorted(wrapped)
    finally:
        for holder, attr, value in reversed(saved):
            setattr(holder, attr, value)
