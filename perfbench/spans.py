"""In-memory span recorder with per-thread parent stacks.

A span is one timed call into a layer: name, layer, thread, start, end
and the span that caused it. Spans on one thread nest through that
thread's stack; work handed to another thread (a coalesced batch, a
server handler) is attached afterwards with :meth:`SpanRecorder.link`.
Counters (pairs, bytes, k-means iterations) are added to the innermost
open span of the calling thread, so a count lands where the work ran.

A span's *self time* is its duration minus the part of its interval
that its children (nested and linked) cover. The recorder keeps
everything in memory; the benchmark writes it out when the run ends.
"""

from __future__ import annotations

import threading
import time
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass, field


@dataclass
class Span:
    sid: int
    name: str
    layer: "str | None"
    thread: int
    parent: "int | None"
    start: float
    end: "float | None" = None
    links: list = field(default_factory=list)
    counts: dict = field(default_factory=dict)
    attrs: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start

    def to_record(self) -> dict:
        return {
            "id": self.sid,
            "name": self.name,
            "layer": self.layer,
            "thread": self.thread,
            "parent": self.parent,
            "start": self.start,
            "end": self.end,
            "links": list(self.links),
            "counts": dict(self.counts),
        }


class SpanRecorder:
    """Records spans from any thread; ``clock`` is injectable for tests."""

    def __init__(self, clock=time.perf_counter) -> None:
        self.clock = clock
        self.spans: "list[Span]" = []
        self._lock = threading.Lock()
        self._local = threading.local()

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def current(self) -> "Span | None":
        stack = self._stack()
        return stack[-1] if stack else None

    def open(self, name: str, layer: "str | None" = None, *, start=None) -> Span:
        """Start a span as a child of this thread's innermost open span."""
        stack = self._stack()
        parent = stack[-1].sid if stack else None
        begin = self.clock() if start is None else start
        with self._lock:
            span = Span(
                len(self.spans), name, layer, threading.get_ident(), parent, begin
            )
            self.spans.append(span)
        stack.append(span)
        return span

    def close(self, span: Span, *, end=None) -> None:
        span.end = self.clock() if end is None else end
        stack = self._stack()
        if stack and stack[-1] is span:
            stack.pop()
        else:  # closed out of order: drop it wherever it sits
            stack.remove(span)

    @contextmanager
    def span(self, name: str, layer: "str | None" = None):
        opened = self.open(name, layer)
        try:
            yield opened
        finally:
            self.close(opened)

    def count(self, name: str, value: float = 1) -> None:
        """Add ``value`` to counter ``name`` on the innermost open span."""
        current = self.current()
        if current is not None:
            current.counts[name] = current.counts.get(name, 0) + value

    @staticmethod
    def link(parent: Span, child: Span) -> None:
        """Make ``child`` (usually on another thread) a child of ``parent``."""
        if child.sid not in parent.links:
            parent.links.append(child.sid)


def _covered(intervals, start: float, end: float) -> float:
    """Length of the union of ``intervals`` clipped to ``[start, end]``."""
    clipped = sorted(
        (max(a, start), min(b, end)) for a, b in intervals if b > start and a < end
    )
    total = 0.0
    cursor = start
    for a, b in clipped:
        if b <= cursor:
            continue
        total += b - max(a, cursor)
        cursor = b
    return total


class SpanTree:
    """Parent/child index and self times over a finished set of spans."""

    def __init__(self, spans: "list[Span]") -> None:
        self.spans = [s for s in spans if s.end is not None]
        self.by_id = {s.sid: s for s in self.spans}
        self.children: "dict[int, list[int]]" = defaultdict(list)
        for s in self.spans:
            if s.parent is not None and s.parent in self.by_id:
                self.children[s.parent].append(s.sid)
        for s in self.spans:
            for child in s.links:
                if child in self.by_id:
                    self.children[s.sid].append(child)
        self.self_time = {
            s.sid: s.duration
            - _covered(
                [
                    (self.by_id[c].start, self.by_id[c].end)
                    for c in self.children[s.sid]
                ],
                s.start,
                s.end,
            )
            for s in self.spans
        }

    def subtree(self, root: Span) -> "list[Span]":
        """``root`` and every span below it, linked ones included (a span
        shared by several roots appears in each of their subtrees)."""
        seen, order, todo = set(), [], [root.sid]
        while todo:
            sid = todo.pop()
            if sid in seen:
                continue
            seen.add(sid)
            order.append(self.by_id[sid])
            todo.extend(self.children[sid])
        return order

    def inclusive_by_name(self, root: Span) -> "dict[str, float]":
        """Summed durations of the outermost spans of each name below
        ``root`` (a span nested in one of its own name is not re-added)."""
        totals: "dict[str, float]" = defaultdict(float)
        for s in self.subtree(root):
            parent = self.by_id.get(s.parent)
            if parent is None or parent.name != s.name:
                totals[s.name] += s.duration
        return dict(totals)
