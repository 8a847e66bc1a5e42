"""In-memory spans around the benchmark's calls into rsol.

A span records its name, start, end, parent span and request id, plus
optional counts.  Spans live in memory and are written out once, when
the run ends.  `NullTracer` keeps the untraced runs free of bookkeeping.
"""

from __future__ import annotations

import json
from time import perf_counter


class _Span:
    __slots__ = ("tracer", "name", "counts", "index")

    def __init__(self, tracer, name, counts):
        self.tracer = tracer
        self.name = name
        self.counts = counts
        self.index = None

    def __enter__(self):
        tr = self.tracer
        parent = tr.stack[-1] if tr.stack else None
        self.index = len(tr.spans)
        tr.spans.append([self.name, perf_counter(), None, parent, tr.request,
                         self.counts])
        tr.stack.append(self.index)
        return self

    def __exit__(self, *exc):
        tr = self.tracer
        tr.spans[self.index][2] = perf_counter()
        tr.stack.pop()
        return False


class Tracer:
    on = True

    def __init__(self):
        self.spans: list = []
        self.stack: list = []
        self.request = None

    def span(self, name: str, **counts) -> _Span:
        return _Span(self, name, counts)

    def layer_totals(self, skip_requests=()) -> dict:
        """Per span name: calls, self time in ms, and summed counts.

        Self time is the span's duration minus the durations of its
        direct children; children never overlap because each request runs
        on one thread.
        """
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent, req, _ in self.spans:
            if parent is not None:
                child_time[parent] += end - start
        out: dict = {}
        for i, (name, start, end, parent, req, counts) in enumerate(self.spans):
            if req in skip_requests:
                continue
            agg = out.setdefault(name, {"calls": 0, "self_ms": 0.0, "counts": {}})
            agg["calls"] += 1
            agg["self_ms"] += (end - start - child_time[i]) * 1000.0
            for key, value in counts.items():
                agg["counts"][key] = agg["counts"].get(key, 0) + value
        return out

    def dump(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for i, (name, start, end, parent, req, counts) in enumerate(self.spans):
                fh.write(json.dumps({"id": i, "name": name, "start": start,
                                     "end": end, "parent": parent,
                                     "request": req, "counts": counts}) + "\n")


class _NullSpan:
    __slots__ = ("counts",)

    def __init__(self):
        self.counts = {}

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False


class NullTracer:
    on = False
    request = None
    _span = _NullSpan()

    def span(self, name: str, **counts) -> _NullSpan:
        return self._span
