"""Spans and counters recorded by the benchmark around calls into ppdiv.

A span records one call into a layer's public function: its name, start,
end, the enclosing span and the job it belongs to, plus how many density
evaluations the counting wrappers saw while it was open.  Spans stay in
memory and are written out once, when the run ends.  Untraced runs use
:data:`NULL`, whose spans do nothing.
"""

from __future__ import annotations

import contextlib
import json
import time
from collections import defaultdict


class _NullTracer:
    enabled = False
    job = None
    _noop = contextlib.nullcontext()

    def span(self, name):
        return self._noop

    def counted(self, fn):
        return fn


NULL = _NullTracer()


class _Span:
    __slots__ = ("tracer", "name", "parent", "start", "end", "evals0",
                 "evals", "job", "index")

    def __init__(self, tracer, name):
        self.tracer = tracer
        self.name = name

    def __enter__(self):
        tr = self.tracer
        self.parent = tr._stack[-1].index if tr._stack else None
        self.job = tr.job
        self.index = len(tr.spans)
        tr.spans.append(self)
        tr._stack.append(self)
        self.evals0 = tr.evals
        self.start = time.perf_counter()
        return self

    def __exit__(self, *exc):
        self.end = time.perf_counter()
        tr = self.tracer
        self.evals = tr.evals - self.evals0
        tr._stack.pop()
        return False


class Tracer:
    """In-memory span recorder with one shared density-evaluation count."""

    enabled = True

    def __init__(self):
        self.spans: list[_Span] = []
        self._stack: list[_Span] = []
        self.evals = 0
        self.job = None

    def span(self, name):
        return _Span(self, name)

    def counted(self, fn):
        """Wrap a density callable so that every call is counted."""
        def wrapper(*args):
            self.evals += 1
            return fn(*args)
        return wrapper

    def per_job(self):
        """{job: {span name: [total seconds, total evals, calls]}}."""
        out: dict = defaultdict(lambda: defaultdict(lambda: [0.0, 0, 0]))
        for s in self.spans:
            acc = out[s.job][s.name]
            acc[0] += s.end - s.start
            acc[1] += s.evals
            acc[2] += 1
        return out

    def self_times(self):
        """Total self time per span name: duration minus the part of it
        that child spans cover."""
        child = defaultdict(float)
        for s in self.spans:
            if s.parent is not None:
                child[s.parent] += s.end - s.start
        totals = defaultdict(float)
        for s in self.spans:
            totals[s.name] += (s.end - s.start) - child[s.index]
        return dict(totals)

    def dump(self, path, extra):
        t0 = self.spans[0].start if self.spans else 0.0
        doc = {
            **extra,
            "self_time_s": self.self_times(),
            "spans": [{"name": s.name, "job": s.job, "parent": s.parent,
                       "start_s": s.start - t0, "end_s": s.end - t0,
                       "evals": s.evals} for s in self.spans],
        }
        with open(path, "w") as fh:
            json.dump(doc, fh)

