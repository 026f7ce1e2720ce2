"""Spans around calls into the package's layers, kept in memory.

A span records name, start, end, parent span, request id and an optional
work count.  The layer is the name's first dotted part; ``request`` spans
belong to the benchmark itself and root each request's tree.  Spans are
recorded only by the benchmark's own code, either around direct calls or
by rebinding a module attribute for the length of a traced pass.
"""

from __future__ import annotations

import contextlib
import functools
import time

REQUEST = "request"
NAME, START, END, PARENT, REQ, COUNT = range(6)


class Tracer:
    enabled = True

    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent, request, count]
        self._stack: list[int] = []
        self._request: str | None = None

    @contextlib.contextmanager
    def span(self, name: str, count=None):
        parent = self._stack[-1] if self._stack else None
        span = [name, time.perf_counter(), None, parent, self._request, count]
        self._stack.append(len(self.spans))
        self.spans.append(span)
        try:
            yield
        finally:
            span[END] = time.perf_counter()
            self._stack.pop()

    def call(self, name: str, fn, *args, _count=None, **kwargs):
        """Run ``fn`` inside a span; ``_count`` is the work it stands for."""
        with self.span(name, _count):
            return fn(*args, **kwargs)

    @contextlib.contextmanager
    def request(self, request_id: str):
        self._request = request_id
        try:
            with self.span(REQUEST):
                yield
        finally:
            self._request = None

    def wrap(self, name: str, fn, count=None):
        """``fn`` with every call recorded; ``count(*args)`` gives its work."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            n = count(*args) if count is not None else None
            return self.call(name, fn, *args, _count=n, **kwargs)

        return traced

    @contextlib.contextmanager
    def patched(self, targets):
        """Rebind ``(module, attribute, replacement)`` triples, then restore."""
        saved = [(mod, attr, getattr(mod, attr)) for mod, attr, _ in targets]
        try:
            for mod, attr, new in targets:
                setattr(mod, attr, new)
            yield
        finally:
            for mod, attr, old in reversed(saved):
                setattr(mod, attr, old)


class Timer(Tracer):
    """The untraced path: records nothing and rebinds nothing."""

    enabled = False

    @contextlib.contextmanager
    def span(self, name: str, count=None):
        yield

    @contextlib.contextmanager
    def request(self, request_id: str):
        yield

    def call(self, name: str, fn, *args, _count=None, **kwargs):
        return fn(*args, **kwargs)

    def wrap(self, name: str, fn, count=None):
        return fn


def merge(span_lists) -> list[list]:
    """The spans of several passes as one list, with parents re-indexed."""
    out: list[list] = []
    for spans in span_lists:
        base = len(out)
        for s in spans:
            parent = None if s[PARENT] is None else s[PARENT] + base
            out.append([*s[:PARENT], parent, *s[PARENT + 1:]])
    return out


def self_times(spans: list[list]) -> list[float]:
    """Each span's duration minus the time its child spans cover."""
    own = [s[END] - s[START] for s in spans]
    for s in spans:
        if s[PARENT] is not None:
            own[s[PARENT]] -= s[END] - s[START]
    return own


def summarize(spans: list[list]) -> dict:
    """Self time per layer and per span name, inclusive time and work per name.

    ``unattributed`` is the part of the requests' time that no layer span
    covers; ``request_s`` is the requests' total time.
    """
    own = self_times(spans)
    out = {
        "layer_self_s": {},
        "self_s": {},
        "total_s": {},
        "calls": {},
        "count": {},
        "request_s": 0.0,
        "unattributed_s": 0.0,
        "by_request": {},
    }
    for s, self_s in zip(spans, own):
        name = s[NAME]
        dur = s[END] - s[START]
        if name == REQUEST:
            out["request_s"] += dur
            out["unattributed_s"] += self_s
            out["by_request"][s[REQ]] = out["by_request"].get(s[REQ], 0.0) + dur
            continue
        layer = name.split(".")[0]
        out["layer_self_s"][layer] = out["layer_self_s"].get(layer, 0.0) + self_s
        out["self_s"][name] = out["self_s"].get(name, 0.0) + self_s
        out["total_s"][name] = out["total_s"].get(name, 0.0) + dur
        out["calls"][name] = out["calls"].get(name, 0) + 1
        if s[COUNT] is not None:
            out["count"][name] = out["count"].get(name, 0) + s[COUNT]
    return out
