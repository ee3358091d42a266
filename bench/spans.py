"""Spans and counters for the benchmark's traced runs.

Every call into an `icfmdp` module is made inside `Tracer.span`, in the benchmark's
own code, and `Tracer.stage_end` (when set) is called as each top-level span ends,
traced or not; the timing loop uses it to split an input's time into segments.
A disabled tracer records nothing else. Enabled, it records each span as (name,
parent, start, end) plus per-name totals, and keeps counters; the one call made deep inside the library that the benchmark
needs to see (`icfmdp.coupling.lp_solve`) is wrapped for the duration of a traced
round and restored afterwards. The library itself is never edited.
"""

from __future__ import annotations

import contextlib
import time
from collections import defaultdict
from typing import Callable


class _StageEnd:
    """Reusable context manager that calls the tracer's `stage_end` on exit."""

    __slots__ = ("tracer",)

    def __init__(self, tracer: "Tracer") -> None:
        self.tracer = tracer

    def __enter__(self) -> None:
        pass

    def __exit__(self, *exc) -> None:
        if self.tracer.stage_end is not None:
            self.tracer.stage_end()


class Tracer:
    """Spans as (name, parent index, start, end) plus per-name totals and counters."""

    def __init__(self) -> None:
        self.enabled = False
        self.spans: list[tuple[str, int, float, float]] = []
        self.seconds: defaultdict[str, float] = defaultdict(float)
        self.counts: defaultdict[str, float] = defaultdict(float)
        self.stage_end: Callable[[], None] | None = None
        self._stack: list[int] = []
        self._untraced = _StageEnd(self)

    def span(self, name: str):
        return self._span(name) if self.enabled else self._untraced

    @contextlib.contextmanager
    def _span(self, name: str):
        parent = self._stack[-1] if self._stack else -1
        index = len(self.spans)
        self.spans.append((name, parent, time.perf_counter(), 0.0))
        self._stack.append(index)
        try:
            yield
        finally:
            self._stack.pop()
            _, _, start, _ = self.spans[index]
            end = time.perf_counter()
            self.spans[index] = (name, parent, start, end)
            self.seconds[name] += end - start
            if not self._stack and self.stage_end is not None:
                self.stage_end()

    def count(self, name: str, n: float = 1) -> None:
        if self.enabled:
            self.counts[name] += n

    @contextlib.contextmanager
    def wrapping(self, module, attr: str, span_name: str, counter: str):
        """Replace `module.attr` by a spanned, counted call until the block ends."""
        original = getattr(module, attr)

        def traced(*args, **kwargs):
            self.count(counter)
            with self.span(span_name):
                return original(*args, **kwargs)

        setattr(module, attr, traced)
        try:
            yield
        finally:
            setattr(module, attr, original)

    def to_json(self) -> dict:
        return {
            "spans": [{"name": n, "parent": p, "start": s, "end": e} for n, p, s, e in self.spans],
            "seconds": dict(self.seconds),
            "counts": dict(self.counts),
        }
