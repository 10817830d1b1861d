"""In-memory spans and counters, the wrappers that record them, and the
self-time arithmetic.  Standard library only, so the parent process can
summarise spans without importing the program.

A span is the list ``[span_id, parent_id, name, start, end, attr]``: times
come from ``time.monotonic`` (CLOCK_MONOTONIC, one clock for every process
on the machine), ``parent_id`` is the span open on the caller's side when
the call began (``None`` at the top), and ``attr`` is whatever the layer's
hook returned, kept for per-call breakdowns.
"""
from __future__ import annotations

import statistics
import time
from collections import Counter, defaultdict


class Tracer:
    """Spans and counters of one traced process, kept in memory."""

    def __init__(self, run_id: str = ""):
        self.run_id = run_id
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self.distinct: dict[str, set] = defaultdict(set)
        self._stack: list = [None]

    def wrap(self, name: str, fn, hook=None):
        """``fn`` recording one span per call.

        ``hook(tracer, args, kwargs, result)`` runs after the span has ended,
        so counting and digesting stay out of the layer's time; its return
        value becomes the span's ``attr``.
        """
        spans, stack, clock = self.spans, self._stack, time.monotonic

        def wrapper(*args, **kwargs):
            record = [len(spans), stack[-1], name, 0.0, 0.0, None]
            spans.append(record)
            stack.append(record[0])
            record[3] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                record[4] = clock()
                stack.pop()
            if hook is not None:
                record[5] = hook(self, args, kwargs, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def wrap_iter(self, name: str, fn):
        """Generator function ``fn`` with one span from the call to the end
        of the iteration; ``attr`` lists the arrival time of each item.

        The span is taken off the stack while the generator is suspended,
        so the consumer's calls between items are not made its children.
        """
        def wrapper(*args, **kwargs):
            return self._iterate(name, fn(*args, **kwargs), time.monotonic())

        wrapper.__wrapped__ = fn
        return wrapper

    def _iterate(self, name, gen, start):
        arrivals: list[float] = []
        record = [len(self.spans), self._stack[-1], name, start, start, arrivals]
        self.spans.append(record)
        self._stack.append(record[0])
        try:
            for item in gen:
                arrivals.append(time.monotonic())
                self._stack.pop()
                yield item
                self._stack.append(record[0])
        finally:
            record[4] = time.monotonic()
            if self._stack[-1] == record[0]:
                self._stack.pop()

    def counter(self, name: str, fn):
        """``fn`` adding one to ``counts[name]`` per call, with no span."""
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        wrapper.__wrapped__ = fn
        return wrapper


class Patcher:
    """Replaces module or class attributes and puts the originals back.

    Every alias of one function object gets the same wrapper, and an alias
    that already holds a wrapper is left alone, so a call counts once
    whichever name the caller looked up.
    """

    def __init__(self):
        self._saved: list[tuple] = []
        self._wrappers: dict[int, object] = {}

    def patch(self, aliases, make_wrapper) -> None:
        """Point every ``(owner, attribute)`` in ``aliases`` at
        ``make_wrapper(original)``, one wrapper per distinct original."""
        ours = set(map(id, self._wrappers.values()))
        for owner, attr in aliases:
            current = getattr(owner, attr)
            if id(current) in ours:
                continue
            wrapper = self._wrappers.get(id(current))
            if wrapper is None:
                wrapper = make_wrapper(current)
                self._wrappers[id(current)] = wrapper
                ours.add(id(wrapper))
            self._saved.append((owner, attr, current))
            setattr(owner, attr, wrapper)

    def restore(self) -> None:
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved.clear()
        self._wrappers.clear()

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.restore()
        return False


def self_times(spans) -> dict[int, float]:
    """Per span id: its duration minus the part of its interval that the
    union of its children's intervals covers."""
    children: dict = defaultdict(list)
    for span_id, parent, _name, start, end, _attr in spans:
        if parent is not None:
            children[parent].append((start, end))
    out = {}
    for span_id, _parent, _name, start, end, _attr in spans:
        covered, cursor = 0.0, start
        for c_start, c_end in sorted(children.get(span_id, ())):
            lo, hi = max(c_start, cursor), min(c_end, end)
            if hi > lo:
                covered += hi - lo
                cursor = hi
        out[span_id] = (end - start) - covered
    return out


def summarize(spans) -> dict[str, dict[str, float]]:
    """Per span name: ``calls``, busy time ``s`` and ``self_s``."""
    own = self_times(spans)
    out: dict = defaultdict(lambda: {"calls": 0, "s": 0.0, "self_s": 0.0})
    for span_id, _parent, name, start, end, _attr in spans:
        entry = out[name]
        entry["calls"] += 1
        entry["s"] += end - start
        entry["self_s"] += own[span_id]
    return dict(out)


def median_duration(spans, name: str, match=lambda attr: True) -> tuple[float, int]:
    """Median duration of the ``name`` spans whose attr passes ``match``,
    with the number of spans it was taken over (0.0 when there are none)."""
    durations = [end - start for _i, _p, n, start, end, attr in spans
                 if n == name and match(attr)]
    return (statistics.median(durations) if durations else 0.0), len(durations)
