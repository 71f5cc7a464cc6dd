"""Spans around the calls into mnl's modules, recorded from outside the program.

A Tracer rebinds a name that a calling module looks up at call time (for
instance ``mnl.pipeline.contains``) to a wrapper that times the call.  Two
kinds of wrapper exist:

- ``span``: every call is kept as a span (id, parent id, name, start, end,
  self time).  Self time is the span's duration minus the time its direct
  children (spans and leaf calls) took.
- ``leaf``: hot kernels called millions of times.  Keeping each call would
  cost hundreds of megabytes, so a leaf call is folded into per-name totals
  and into its parent span's child time and child counts; it never has
  children of its own.

Spans stay in memory and are written out once, by ``dump``.  Everything is
single threaded, like mnl itself.
"""
from __future__ import annotations

import json
from collections import defaultdict
from time import perf_counter


class _Frame:
    __slots__ = ("name", "span_id", "parent_id", "child_s", "child_calls")

    def __init__(self, name: str, span_id: int, parent_id: int) -> None:
        self.name = name
        self.span_id = span_id
        self.parent_id = parent_id
        self.child_s = 0.0
        self.child_calls: dict[str, int] = defaultdict(int)


class Tracer:
    def __init__(self) -> None:
        self.spans: list[tuple[int, int, str, float, float, float]] = []
        # name -> [calls, total seconds, self seconds]
        self.totals: dict[str, list[float]] = defaultdict(lambda: [0, 0.0, 0.0])
        self.counters: dict[str, float] = defaultdict(int)
        self._stack: list[_Frame] = []
        self._next_id = 1
        self._restore: list[tuple[object, str, object]] = []

    # -- recording -------------------------------------------------------

    def _open(self, name: str) -> _Frame:
        parent = self._stack[-1].span_id if self._stack else 0
        frame = _Frame(name, self._next_id, parent)
        self._next_id += 1
        self._stack.append(frame)
        return frame

    def _close(self, frame: _Frame, start: float, end: float) -> float:
        self._stack.pop()
        name = frame.name
        duration = end - start
        self_s = duration - frame.child_s
        total = self.totals[name]
        total[0] += 1
        total[1] += duration
        total[2] += self_s
        if self._stack:
            parent = self._stack[-1]
            parent.child_s += duration
            parent.child_calls[name] += 1
        self.spans.append((frame.span_id, frame.parent_id, name, start, end, self_s))
        return duration

    def region(self, name: str):
        """Context manager for a span opened by the benchmark itself."""
        return _Region(self, name)

    def wrap_span(self, owner, attr: str, name: str, on_exit=None) -> None:
        """Rebind owner.attr to a spanning wrapper.  on_exit(frame, args,
        result, seconds) runs after the span closes."""
        original = getattr(owner, attr)
        tracer = self

        def wrapper(*args, **kwargs):
            frame = tracer._open(name)
            start = perf_counter()
            try:
                result = original(*args, **kwargs)
            finally:
                seconds = tracer._close(frame, start, perf_counter())
            if on_exit is not None:
                on_exit(frame, args, result, seconds)
            return result

        self.rebind(owner, attr, original, wrapper)

    def wrap_leaf(self, owner, attr: str, name: str) -> None:
        original = getattr(owner, attr)
        totals = self.totals[name]
        stack = self._stack

        def wrapper(*args, **kwargs):
            start = perf_counter()
            try:
                return original(*args, **kwargs)
            finally:
                duration = perf_counter() - start
                totals[0] += 1
                totals[1] += duration
                totals[2] += duration
                if stack:
                    parent = stack[-1]
                    parent.child_s += duration
                    parent.child_calls[name] += 1

        self.rebind(owner, attr, original, wrapper)

    def rebind(self, owner, attr: str, original, wrapper) -> None:
        self._restore.append((owner, attr, original))
        setattr(owner, attr, wrapper)

    def restore(self) -> None:
        """Put every rebound name back, newest first."""
        while self._restore:
            owner, attr, original = self._restore.pop()
            setattr(owner, attr, original)

    # -- reading ---------------------------------------------------------

    def current_name(self) -> str | None:
        """Name of the innermost open span."""
        return self._stack[-1].name if self._stack else None

    def calls(self, name: str) -> int:
        return int(self.totals[name][0]) if name in self.totals else 0

    def total_s(self, name: str) -> float:
        return self.totals[name][1] if name in self.totals else 0.0

    def self_s(self, name: str) -> float:
        return self.totals[name][2] if name in self.totals else 0.0

    def durations(self, name: str) -> list[float]:
        return [end - start for _, _, n, start, end, _ in self.spans if n == name]

    # -- exchange with traced child processes -----------------------------

    def to_json(self) -> dict:
        return {
            "spans": self.spans,
            "totals": dict(self.totals),
            "counters": dict(self.counters),
        }

    def merge(self, doc: dict, prefix: str) -> None:
        """Fold a child process's dump in; its span ids get a prefix so they
        stay distinct."""
        for span_id, parent_id, name, start, end, self_s in doc["spans"]:
            self.spans.append(
                (f"{prefix}{span_id}", f"{prefix}{parent_id}" if parent_id else 0,
                 name, start, end, self_s)
            )
        for name, (calls, total, self_s) in doc["totals"].items():
            mine = self.totals[name]
            mine[0] += calls
            mine[1] += total
            mine[2] += self_s
        for name, value in doc["counters"].items():
            self.counters[name] += value

    def dump(self, path) -> None:
        """Write every kept span as one JSON line, then the totals."""
        with open(path, "w", encoding="utf-8") as fh:
            for span_id, parent_id, name, start, end, self_s in self.spans:
                fh.write(json.dumps({
                    "id": span_id, "parent": parent_id, "name": name,
                    "start": start, "end": end, "self_s": self_s,
                }) + "\n")
            fh.write(json.dumps({"totals": dict(self.totals), "counters": dict(self.counters)}) + "\n")


class _Region:
    def __init__(self, tracer: Tracer, name: str) -> None:
        self.tracer = tracer
        self.name = name

    def __enter__(self) -> _Frame:
        self.frame = self.tracer._open(self.name)
        self.start = perf_counter()
        return self.frame

    def __exit__(self, *exc) -> None:
        self.tracer._close(self.frame, self.start, perf_counter())
