"""Spans around the benchmark's calls into the program's layers.

A span records the layer call's name, its start and end on the reference
clock's timeline, the span that was open when it began (its parent), the
operation it belongs to, and counts the caller attaches.  Spans stay in
memory until the run ends.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, field


@dataclass
class Span:
    ident: int
    parent: int | None
    group: str
    name: str
    start: float
    end: float = 0.0
    counts: dict[str, int] = field(default_factory=dict)


class NullTracer:
    """Calls straight through; used for every timed end-to-end run."""

    on = False

    def call(self, name, fn, *args, **kwargs):
        return fn(*args, **kwargs)


class Tracer:
    """Records one span per call made through :meth:`call`."""

    on = True

    def __init__(self, now):
        self.now = now
        self.spans: list[Span] = []
        self.group = "setup"
        self.last: Span | None = None
        self._stack: list[Span] = []

    def call(self, name, fn, *args, **kwargs):
        span = Span(len(self.spans), self._stack[-1].ident if self._stack
                    else None, self.group, name, self.now())
        self.spans.append(span)
        self._stack.append(span)
        try:
            return fn(*args, **kwargs)
        finally:
            span.end = self.now()
            self._stack.pop()
            self.last = span

    def count(self, **counts) -> None:
        """Attach counts to the span that finished last."""
        self.last.counts.update(counts)

    def write(self, path, scaled) -> None:
        """One JSON line per span, with its raw duration and the duration
        ``scaled(start, end)`` gives, both in milliseconds."""
        with open(path, "w", encoding="utf-8") as out:
            for span in self.spans:
                out.write(json.dumps(dict(
                    asdict(span), raw_ms=(span.end - span.start) * 1e3,
                    scaled_ms=scaled(span.start, span.end) * 1e3)) + "\n")
