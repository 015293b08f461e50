"""In-memory span recorder for the traced benchmark run.

A span is one timed call into a layer: ``name`` (the layer and the
call, e.g. ``frontend.extract``), ``start``/``end`` on the
``perf_counter`` clock, the ``parent`` span that caused it, and the
``op`` id of the benchmark operation (a pass or a request) it belongs
to.  Spans are kept in a list and written out once, when the run ends,
so recording costs one clock read and one append per boundary.

The untraced run uses :data:`NULL`, whose ``span`` is a no-op context
manager, so the same workload code runs in both modes.
"""

from __future__ import annotations

import contextlib
import itertools
import threading
import time
from collections import defaultdict

__all__ = ["Tracer", "NULL"]


class Tracer:
    """Records spans from any thread; parents are tracked per thread."""

    enabled = True

    def __init__(self) -> None:
        self.spans: list[dict] = []
        self._ids = itertools.count()
        self._lock = threading.Lock()
        self._local = threading.local()

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @contextlib.contextmanager
    def span(self, name: str, *, op: "int | None" = None, **attrs):
        """Time the ``with`` body as span ``name``.

        ``op`` starts a new operation; nested spans inherit their
        parent's.  ``attrs`` are stored on the span (block, workload,
        endpoint ...).  Yields the span dict so the body can attach
        results (``span["terms"] = ...``).
        """
        with self._lock:
            span_id = next(self._ids)
        stack = self._stack()
        parent = stack[-1] if stack else None
        if op is None:
            op = parent["op"] if parent is not None else span_id
        record = {"id": span_id, "parent": parent["id"] if parent else None,
                  "op": op, "name": name, **attrs}
        stack.append(record)
        record["start"] = time.perf_counter()
        try:
            yield record
        finally:
            record["end"] = time.perf_counter()
            stack.pop()
            with self._lock:
                self.spans.append(record)

    def new_op(self) -> int:
        """A fresh operation id for a span that starts one."""
        with self._lock:
            return next(self._ids)

    def durations(self, name: str, **attrs) -> list:
        """Seconds of every span called ``name`` whose attributes
        include ``attrs``."""
        return [s["end"] - s["start"] for s in self.spans
                if s["name"] == name
                and all(s.get(k) == v for k, v in attrs.items())]

    def totals(self) -> dict:
        """``{name: {"count", "total_s", "self_s"}}`` over all spans.

        Self time is a span's duration minus the time its direct
        children cover (children never overlap their parent's other
        children here: each thread records a strict nesting).
        """
        child_time: dict = defaultdict(float)
        for s in self.spans:
            if s["parent"] is not None:
                child_time[s["parent"]] += s["end"] - s["start"]
        out: dict = {}
        for s in self.spans:
            entry = out.setdefault(s["name"], {"count": 0, "total_s": 0.0,
                                               "self_s": 0.0})
            duration = s["end"] - s["start"]
            entry["count"] += 1
            entry["total_s"] += duration
            entry["self_s"] += duration - child_time.get(s["id"], 0.0)
        return out


class _NullTracer:
    """The untraced mode: every span is a throwaway no-op context."""

    enabled = False

    class _Span(dict):
        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

    def span(self, name: str, **_attrs):
        return self._Span()

    def new_op(self) -> int:
        return 0


NULL = _NullTracer()
