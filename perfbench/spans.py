"""Span tracer for the benchmark's traced runs.

A span records one call across a layer boundary: its name, start, end,
parent span and request id, plus a few counts read from the call's
arguments.  Spans are kept in memory and aggregated when the run ends.

The tracer never touches the program's source.  ``Tracer.patch`` wraps the
boundary functions and rebinds the wrapper in every module namespace that
binds the original (``from ._zonalseries import zonal_abs_power_mean``
binds the function into ``multipliers``, ``quadrature`` and ``lemmas``);
leaving the ``with`` block restores every binding.  Outside a request the
wrappers call straight through and record nothing, so every recorded span
chains up to exactly one request.
"""

import sys
import time
from contextlib import contextmanager
from dataclasses import dataclass, field


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int  # index of the parent span, -1 for a request root
    request: int
    counts: dict = field(default_factory=dict)
    failed: bool = False

    @property
    def duration(self):
        return self.end - self.start


class Tracer:
    """Records nested spans; single-threaded, one request at a time."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans = []
        self._stack = []
        self._request = None
        self._restore = []

    # -- recording ---------------------------------------------------------

    @contextmanager
    def request(self, request_id):
        """Root span of one request; requests do not nest."""
        if self._request is not None:
            raise RuntimeError("requests do not nest")
        self._request = request_id
        span = self._open("request", {})
        failed = True
        try:
            yield span
            failed = False
        finally:
            self._close(span, failed)
            self._request = None

    def _open(self, name, counts):
        parent = self._stack[-1] if self._stack else -1
        span = Span(name, self.clock(), 0.0, parent, self._request, counts)
        self.spans.append(span)
        self._stack.append(len(self.spans) - 1)
        return span

    def _close(self, span, failed=False):
        span.end = self.clock()
        span.failed = failed
        self._stack.pop()

    def wrap(self, name, fn, counts=None):
        """Return fn wrapped so that each call inside a request is a span.

        counts(args, kwargs, result) returns a dict of counts for the span;
        it runs after the call, inside the span's interval, with result None
        when the call raised.
        """
        tracer = self

        def traced(*args, **kwargs):
            if tracer._request is None:
                return fn(*args, **kwargs)
            span = tracer._open(name, {})
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                if counts is not None:
                    span.counts = counts(args, kwargs, None)
                tracer._close(span, failed=True)
                raise
            if counts is not None:
                span.counts = counts(args, kwargs, result)
            tracer._close(span)
            return result

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        return traced

    # -- patching ----------------------------------------------------------

    def patch(self, targets, namespaces_prefix):
        """Wrap each (name, module, attribute, counts) target and rebind it
        in the defining module and in every loaded module whose name starts
        with namespaces_prefix.  Use as a context manager."""
        namespaces = [
            mod
            for mod_name, mod in sorted(sys.modules.items())
            if mod is not None and mod_name.split(".")[0] == namespaces_prefix
        ]
        for name, module, attr, counts in targets:
            original = getattr(module, attr)
            wrapper = self.wrap(name, original, counts)
            for ns in [module] + namespaces:
                for key, value in list(vars(ns).items()):
                    if value is original:
                        self._restore.append((ns, key, original))
                        setattr(ns, key, wrapper)
        return self

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        while self._restore:
            ns, key, original = self._restore.pop()
            setattr(ns, key, original)
        return False


# -- aggregation ------------------------------------------------------------


def self_times(spans):
    """Self time of each span: its duration minus its children's durations."""
    child = [0.0] * len(spans)
    for span in spans:
        if span.parent >= 0:
            child[span.parent] += span.duration
    return [span.duration - c for span, c in zip(spans, child)]


def outermost(spans, index):
    """True when no ancestor of spans[index] carries the same name."""
    name = spans[index].name
    p = spans[index].parent
    while p >= 0:
        if spans[p].name == name:
            return False
        p = spans[p].parent
    return True


def ancestors_of(spans, prefix):
    """Indices of the spans that have a descendant whose name starts with prefix."""
    marked = set()
    for span in spans:
        if span.name.startswith(prefix):
            p = span.parent
            while p >= 0 and p not in marked:
                marked.add(p)
                p = spans[p].parent
    return marked
