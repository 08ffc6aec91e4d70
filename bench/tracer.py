"""In-memory span tracer that wraps functions from outside the program.

The benchmark times calls into grfspan without editing it: ``Tracer.patch``
replaces module or class attributes with timing wrappers and puts the
originals back when the block exits.  Every wrapped call becomes a ``Span``
with its parent, the operation it belongs to, and its self time (duration
minus the time covered by its direct children).  Calls nest strictly on one
thread, so the children of a span never overlap and their durations add up.

Spans stay in memory until ``write_jsonl`` is called at the end of a run.
"""

from __future__ import annotations

import functools
import json
import time
from contextlib import contextmanager
from dataclasses import dataclass, fields


@dataclass(slots=True)
class Span:
    """One timed call.  ``counts`` holds work counts derived from it."""

    name: str
    start: float
    end: float
    self_s: float
    span_id: int
    parent: int | None
    op: int | None
    counts: dict | None = None

    @property
    def duration(self) -> float:
        return self.end - self.start


FIELDS = [f.name for f in fields(Span)]


@dataclass(frozen=True)
class Target:
    """An attribute to wrap: ``owner.attr`` is timed under ``name``.

    ``counts(args, kwargs, result)`` returns a dict of work counts for one
    call; it is not called when the wrapped function raises.
    """

    owner: object
    attr: str
    name: str
    counts: object = None


class Tracer:
    """Records nested spans; ``clock`` is injectable for tests."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: list[Span] = []
        self.op: int | None = None
        self._stack: list[list] = []      # [span_id, start, child seconds]
        self._next_id = 0

    def _enter(self):
        frame = [self._next_id, self.clock(), 0.0]
        self._next_id += 1
        self._stack.append(frame)
        return frame

    def _exit(self, frame, name, counts):
        end = self.clock()
        self._stack.pop()
        span_id, start, child_s = frame
        duration = end - start
        parent = self._stack[-1] if self._stack else None
        if parent is not None:
            parent[2] += duration
        self.spans.append(Span(name=name, start=start, end=end,
                               self_s=duration - child_s, span_id=span_id,
                               parent=parent[0] if parent else None,
                               op=self.op, counts=counts))

    @contextmanager
    def span(self, name):
        """Time a block of the benchmark's own code as a span."""
        frame = self._enter()
        try:
            yield
        finally:
            self._exit(frame, name, None)

    def wrap(self, fn, name, counts=None):
        """A function that calls ``fn`` inside a span called ``name``."""
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            frame = self._enter()
            result_counts = None
            try:
                result = fn(*args, **kwargs)
                if counts is not None:
                    result_counts = counts(args, kwargs, result)
                return result
            finally:
                self._exit(frame, name, result_counts)
        return traced

    @contextmanager
    def patch(self, targets):
        """Install wrappers for ``targets``; restore every original on exit.

        Originals are read from the owner's own ``__dict__`` so that a method
        inherited from a base class is removed again, not copied down.
        """
        saved = []
        try:
            for target in targets:
                owner_dict = vars(target.owner)
                had_own = target.attr in owner_dict
                original = getattr(target.owner, target.attr)
                saved.append((target.owner, target.attr, had_own,
                              owner_dict.get(target.attr)))
                setattr(target.owner, target.attr,
                        self.wrap(original, target.name, target.counts))
            yield self
        finally:
            for owner, attr, had_own, original in reversed(saved):
                if had_own:
                    setattr(owner, attr, original)
                else:
                    delattr(owner, attr)

    def write_jsonl(self, path):
        """Write every span as one JSON list per line, fields in ``FIELDS``
        order."""
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(json.dumps({"fields": FIELDS}) + "\n")
            for span in self.spans:
                handle.write(json.dumps([getattr(span, f) for f in FIELDS]) + "\n")


def aggregate(spans):
    """Per span name: calls, total and self seconds, and summed counts."""
    table = {}
    for span in spans:
        row = table.setdefault(span.name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
        row["calls"] += 1
        row["total_s"] += span.duration
        row["self_s"] += span.self_s
        for key, value in (span.counts or {}).items():
            row[key] = row.get(key, 0) + value
    return table
