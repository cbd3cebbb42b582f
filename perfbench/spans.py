"""In-memory spans for the traced benchmark run.

A span records its name, start, end, parent span and the operation it
belongs to.  The benchmark opens spans around its own calls into the
program and, for the traced pass only, wraps the program's public functions
at their module or class attribute so that every call opens a span.  Spans
stay in memory and are written out once the run ends.  A span's self time
is its duration minus the durations of its children (everything runs on one
thread, so children never overlap).
"""

from __future__ import annotations

import functools
import time
from collections import Counter
from contextlib import contextmanager, nullcontext

import numpy as np


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.parents: list[int] = []
        self.ops: list[int] = []
        self.counts: Counter = Counter()
        self._stack = [-1]
        self._op = -1
        self._patched: list[tuple[object, str, object]] = []

    def begin(self, name: str) -> int:
        i = len(self.names)
        self.names.append(name)
        self.parents.append(self._stack[-1])
        self.ops.append(self._op)
        self.ends.append(0.0)
        self._stack.append(i)
        self.starts.append(time.perf_counter())
        return i

    def end(self, i: int) -> None:
        self.ends[i] = time.perf_counter()
        self._stack.pop()

    @contextmanager
    def span(self, name: str):
        i = self.begin(name)
        try:
            yield
        finally:
            self.end(i)

    @contextmanager
    def operation(self, name: str):
        """Root span of one benchmark operation; its descendants share its id."""
        self._op += 1
        with self.span(name):
            yield

    def wrap(self, owner, attr: str, name, count=None) -> None:
        """Replace ``owner.attr`` with a spanning wrapper until :meth:`unwrap`.

        ``name`` is a span name or a function of the call's positional
        arguments; ``count(args, result)`` may return counter increments.
        """
        original = getattr(owner, attr)
        begin, end, counts = self.begin, self.end, self.counts

        @functools.wraps(original)
        def traced(*args, **kwargs):
            i = begin(name if isinstance(name, str) else name(args))
            try:
                result = original(*args, **kwargs)
            finally:
                end(i)
            if count is not None:
                counts.update(count(args, result))
            return result

        setattr(owner, attr, traced)
        self._patched.append((owner, attr, original))

    def unwrap(self) -> None:
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    # -- analysis -------------------------------------------------------------

    def durations(self) -> np.ndarray:
        return np.asarray(self.ends) - np.asarray(self.starts)

    def self_times(self) -> np.ndarray:
        dur = self.durations()
        parents = np.asarray(self.parents, dtype=np.int64)
        child = np.zeros(len(dur))
        has_parent = parents >= 0
        np.add.at(child, parents[has_parent], dur[has_parent])
        return dur - child

    def totals(self) -> tuple[dict, dict, dict]:
        """Per span name: summed self time, summed duration and call count."""
        selft = self.self_times()
        dur = self.durations()
        self_s: dict[str, float] = {}
        incl_s: dict[str, float] = {}
        calls: dict[str, int] = {}
        for n, s, d in zip(self.names, selft.tolist(), dur.tolist()):
            self_s[n] = self_s.get(n, 0.0) + s
            incl_s[n] = incl_s.get(n, 0.0) + d
            calls[n] = calls.get(n, 0) + 1
        return self_s, incl_s, calls

    def to_json(self) -> dict:
        t0 = self.starts[0] if self.starts else 0.0
        return {
            "columns": ["name", "start_s", "end_s", "parent", "op"],
            "spans": [
                [n, round(s - t0, 9), round(e - t0, 9), p, o]
                for n, s, e, p, o in zip(
                    self.names, self.starts, self.ends, self.parents, self.ops
                )
            ],
        }


class NullTracer:
    """Stands in for :class:`Tracer` when tracing is off."""

    def span(self, name: str):
        return _NULL

    operation = span


_NULL = nullcontext()
