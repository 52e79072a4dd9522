"""Spans around the layers of shexval, recorded from outside the package.

A span records its name, start, end, parent and the label of the
operation it ran under (``refine/cold``, ``setup``, ...).  Spans live in
flat arrays, so tracing a few hundred thousand calls adds little memory
and no objects for the garbage collector.  A layer's self time is its
spans' durations minus the durations of their direct children.

``Tracer.installed`` replaces the module attributes the callers look up
(the modules bind these names with ``from ... import``) and restores them
on exit.
"""

from __future__ import annotations

import importlib
from array import array
from collections import Counter, defaultdict
from contextlib import contextmanager
from time import perf_counter


def _membership_tag(witness):
    return f"membership.{witness.algorithm}", 1


def _ilp_tag(result):
    return f"sat.ilp.{result.status}", 1


def _init_tag(typing):
    return "validate.init.pairs", sum(map(len, typing.values()))


# (module, attribute, span name, result tag).  A tag turns a result into
# a (count name, amount) pair, e.g. which membership algorithm answered.
WRAPPED = (
    ("shexval.validate", "member", "membership", _membership_tag),
    ("shexval.schema", "member", "membership", _membership_tag),
    ("shexval.validate", "inter1", "sat.inter1", None),
    ("shexval.validate", "inter1_groups", "sat.flow", None),
    ("shexval.sat.core", "inter1_groups", "sat.flow", None),
    ("shexval.sat.core", "ilp_feasible", "sat.ilp", _ilp_tag),
    ("shexval.membership", "ilp_feasible", "sat.ilp", _ilp_tag),
    ("shexval.validate", "structure_filtered_init", "validate.init", _init_tag),
)


class Tracer:
    def __init__(self):
        self._names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.label = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack: list[int] = []
        self.current = "-"
        self._label = self._id(self.current)
        self.recording = True
        # Counts added by results and by the benchmark, per label.
        self.counts: dict[str, Counter] = defaultdict(Counter)

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self._names)
            self._names.append(name)
        return self._ids[name]

    def set_label(self, label: str) -> None:
        self.current = label
        self._label = self._id(label)

    def count(self, key: str, amount: int) -> None:
        self.counts[self.current][key] += amount

    def _open(self, name_id: int) -> int:
        i = len(self.start)
        self.name.append(name_id)
        self.label.append(self._label)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.end.append(0.0)
        self._stack.append(i)
        self.start.append(perf_counter())
        return i

    def _close(self, i: int) -> None:
        self.end[i] = perf_counter()
        self._stack.pop()

    @contextmanager
    def span(self, name: str):
        i = self._open(self._id(name))
        try:
            yield
        finally:
            self._close(i)

    def wrap(self, fn, name: str, tag):
        name_id = self._id(name)

        def traced(*args, **kwargs):
            if not self.recording:
                return fn(*args, **kwargs)
            i = self._open(name_id)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(i)
            if tag is not None:
                self.count(*tag(result))
            return result

        return traced

    @contextmanager
    def installed(self):
        """Wrap every layer function of ``WRAPPED`` for the duration."""
        saved = []
        try:
            for module_name, attr, name, tag in WRAPPED:
                module = importlib.import_module(module_name)
                original = getattr(module, attr)
                saved.append((module, attr, original))
                setattr(module, attr, self.wrap(original, name, tag))
            yield self
        finally:
            for module, attr, original in reversed(saved):
                setattr(module, attr, original)

    @contextmanager
    def paused(self):
        self.recording = False
        try:
            yield
        finally:
            self.recording = True

    def layers(self) -> dict[tuple[str, str], dict[str, float]]:
        """Per (label, span name): ``calls``, total ``time`` and ``self`` time."""
        n = len(self.start)
        child = array("d", bytes(8 * n))
        for j in range(n):
            p = self.parent[j]
            if p >= 0:
                child[p] += self.end[j] - self.start[j]
        out: dict[tuple[str, str], dict[str, float]] = {}
        for j in range(n):
            key = (self._names[self.label[j]], self._names[self.name[j]])
            cell = out.setdefault(key, {"calls": 0, "time": 0.0, "self": 0.0})
            duration = self.end[j] - self.start[j]
            cell["calls"] += 1
            cell["time"] += duration
            cell["self"] += duration - child[j]
        return out
