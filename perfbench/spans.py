"""Span tracing of the viscowave package from outside it.

``SpanRecorder.install`` replaces every public function of the given
modules, and every public method of the classes they define, with a wrapper
that records one span per call: a name id, start, end and the index of the
enclosing span.  Names read ``<module>.<function>`` or
``<module>.<Class>.<method>``.  Module-level names bound by ``from .x import
f`` are rebound too, so calls between modules are traced.

Spans sit in flat typed arrays (24 bytes each) while a scenario runs and are
reduced to per-name call counts, total time and self time afterwards.  A
span's self time is its duration minus the durations of its direct children;
the program is single-threaded, so children never overlap.
"""

from __future__ import annotations

import functools
import inspect
from array import array
from time import perf_counter

import numpy as np


class SpanRecorder:
    def __init__(self) -> None:
        self._ids: dict[str, int] = {}
        self.active = False
        self.instances: dict[str, object] = {}
        self.clear()

    def clear(self) -> None:
        self.name_id = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack: list[int] = []

    def _wrap(self, name: str, func, method_of: str | None = None):
        nid = self._ids.setdefault(name, len(self._ids))
        rec = self

        @functools.wraps(func)
        def traced(*args, **kwargs):
            if not rec.active:
                return func(*args, **kwargs)
            if method_of is not None and args:
                rec.instances[method_of] = args[0]
            idx = len(rec.start)
            stack = rec._stack
            rec.name_id.append(nid)
            rec.parent.append(stack[-1] if stack else -1)
            rec.start.append(0.0)
            rec.end.append(0.0)
            stack.append(idx)
            t0 = perf_counter()
            try:
                return func(*args, **kwargs)
            finally:
                t1 = perf_counter()
                stack.pop()
                rec.start[idx] = t0
                rec.end[idx] = t1

        return traced

    def install(self, modules, package) -> None:
        """Wrap the public callables of ``modules`` and rebind every alias."""
        replaced: dict[int, object] = {}
        for mod in modules:
            short = mod.__name__.rsplit(".", 1)[-1]
            for attr, obj in list(vars(mod).items()):
                if attr.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if inspect.isfunction(obj):
                    wrapped = self._wrap(f"{short}.{attr}", obj)
                    replaced[id(obj)] = wrapped
                    setattr(mod, attr, wrapped)
                elif inspect.isclass(obj) and not issubclass(obj, BaseException):
                    self._wrap_class(short, obj)
        for mod in [package, *modules]:
            for attr, obj in list(vars(mod).items()):
                if id(obj) in replaced:
                    setattr(mod, attr, replaced[id(obj)])

    def _wrap_class(self, short: str, cls) -> None:
        for attr, val in list(vars(cls).items()):
            if attr.startswith("_"):
                continue
            name = f"{short}.{cls.__name__}.{attr}"
            if inspect.isfunction(val):
                setattr(cls, attr, self._wrap(name, val, method_of=cls.__name__))
            elif isinstance(val, classmethod):
                setattr(cls, attr, classmethod(self._wrap(name, val.__func__)))
            elif isinstance(val, staticmethod):
                setattr(cls, attr, staticmethod(self._wrap(name, val.__func__)))

    def summary(self) -> "SpanSummary":
        return SpanSummary(
            ids=dict(self._ids),
            name_id=np.frombuffer(self.name_id, dtype=np.int32).copy(),
            parent=np.frombuffer(self.parent, dtype=np.int32).copy(),
            start=np.frombuffer(self.start, dtype=np.float64).copy(),
            end=np.frombuffer(self.end, dtype=np.float64).copy(),
        )


class SpanSummary:
    """Per-name reductions of one recorded scenario."""

    def __init__(self, ids, name_id, parent, start, end):
        self._ids = ids
        self.name_id = name_id
        self.start = start
        dur = end - start
        has_parent = parent >= 0
        child = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=len(dur))
        width = len(ids)
        self.calls = np.bincount(name_id, minlength=width)
        self.total = np.bincount(name_id, weights=dur, minlength=width)
        self.self_time = np.bincount(name_id, weights=dur - child, minlength=width)
        self.durations = dur
        self.parent = parent

    def _id(self, name: str) -> int:
        return self._ids[name]

    def count(self, *names: str) -> int:
        return int(sum(self.calls[self._id(n)] for n in names))

    def seconds(self, *names: str) -> float:
        """Inclusive time of all calls of ``names``."""
        return float(sum(self.total[self._id(n)] for n in names))

    def self_seconds(self, *names: str) -> float:
        return float(sum(self.self_time[self._id(n)] for n in names))

    def child_seconds(self, parent_name: str, *names: str) -> float:
        """Inclusive time of the calls of ``names`` made directly by ``parent_name``."""
        has_parent = self.parent >= 0
        under = np.zeros(len(self.parent), dtype=bool)
        under[has_parent] = self.name_id[self.parent[has_parent]] == self._id(parent_name)
        hit = np.isin(self.name_id, [self._id(n) for n in names]) & under
        return float(self.durations[hit].sum())

    def first_start(self, name: str) -> float:
        return float(self.start[self.name_id == self._id(name)].min())

    def durations_of(self, name: str) -> np.ndarray:
        """Durations of every call of ``name``, in call order."""
        return self.durations[self.name_id == self._id(name)]
