"""In-memory span tracer that wraps `rulefst`'s public functions and methods
from outside the package.

A span is (name, start, end, parent index). A layer's self time is its span
minus the time its direct child spans cover; spans nest on one thread, so
the children never overlap. Patching replaces module attributes and class
methods and `restore()` puts the originals back. Names imported directly into
another module (`seq2seq.softmax`, `serialize.match_rules`) are patched in
every module that holds them, so calls made through either name are traced.
"""

from __future__ import annotations

import contextlib
import functools
import time
from collections import Counter, defaultdict
from dataclasses import dataclass


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int  # index into the span list, -1 for a root span


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self.counts: Counter = Counter()
        self.enabled = False
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    @contextlib.contextmanager
    def paused(self):
        """Record no spans inside the block (the benchmark's own checks)."""
        was, self.enabled = self.enabled, False
        try:
            yield
        finally:
            self.enabled = was

    def inside(self, name: str) -> bool:
        return any(self.spans[i].name == name for i in self._stack)

    def wrap(self, fn, name, hook=None):
        """fn traced as a span; name is a string or a function of the call's
        arguments; hook(args, kwargs, result) updates self.counts."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.enabled:
                return fn(*args, **kwargs)
            span_name = name if isinstance(name, str) else name(args, kwargs)
            index = len(self.spans)
            parent = self._stack[-1] if self._stack else -1
            self.spans.append(Span(span_name, time.perf_counter(), 0.0, parent))
            self._stack.append(index)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._stack.pop()
                self.spans[index].end = time.perf_counter()
            if hook is not None:
                hook(args, kwargs, result)
            return result

        return traced

    def patch(self, owners, attr: str, name, hook=None) -> None:
        """Replace attr on every owner (modules or classes) that holds the
        same object with one traced wrapper."""
        original = getattr(owners[0], attr)
        self.replace(owners, attr, self.wrap(original, name, hook))

    def replace(self, owners, attr: str, new) -> None:
        original = getattr(owners[0], attr)
        for owner in owners:
            if getattr(owner, attr) is not original:
                raise RuntimeError(f"{owner!r}.{attr} is not the object being traced")
            self._patched.append((owner, attr, original))
            setattr(owner, attr, new)

    def restore(self) -> None:
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()


def aggregate(spans: list[Span]) -> dict[str, dict[str, float]]:
    """Per span name: call count, inclusive seconds and self seconds."""
    child_time = [0.0] * len(spans)
    for s in spans:
        if s.parent >= 0:
            child_time[s.parent] += s.end - s.start
    out: dict[str, dict[str, float]] = defaultdict(lambda: {"calls": 0, "total_s": 0.0, "self_s": 0.0})
    for s, covered in zip(spans, child_time):
        entry = out[s.name]
        entry["calls"] += 1
        entry["total_s"] += s.end - s.start
        entry["self_s"] += s.end - s.start - covered
    return dict(out)
