"""Outside-in span tracer for the fuzzyloc benchmark.

The tracer patches public functions at the module attributes the program
actually looks them up through (for example ``fuzzyloc.pipeline.load_csv``,
not ``fuzzyloc.data.load_csv``, because ``pipeline`` imported the name), so
nothing under ``src/`` changes. Patches are installed only inside
``Tracer.installed()``; untraced passes run the pristine functions.

Each span records (name, start, end, parent index). Spans stay in memory and
are written out once at the end of a run. A span's layer is the part of its
name before the first dot. Time is attributed as *self time*: a span's
duration minus the durations of its direct children. Summing self time per
layer partitions the traced interval, so the per-layer totals plus the
benchmark's own glue (time outside any span) add up to the traced wall time.
"""

import hashlib
import statistics
import time
from collections import Counter
from contextlib import contextmanager

import numpy as np


class Span:
    __slots__ = ("name", "start", "end", "parent", "result", "children")

    def __init__(self, name, start, parent):
        self.name = name
        self.start = start
        self.end = start
        self.parent = parent
        self.result = None
        self.children = []

    @property
    def layer(self):
        return self.name.split(".", 1)[0]

    @property
    def duration(self):
        return self.end - self.start

    def as_dict(self):
        return {"name": self.name, "start": self.start, "end": self.end, "parent": self.parent}


class Tracer:
    """Collects spans and counters around patched entry points.

    ``patch(module, attr, span_name, on_call=None)`` registers one lookup
    site. ``on_call(tracer, args, kwargs, result)`` runs after the wrapped
    call returns (outside the timed interval of the span) to update
    counters from arguments and results.
    """

    def __init__(self):
        self.spans = []
        self.counters = Counter()
        self._stack = []
        self._sites = []
        self._seen_fits = set()

    def patch(self, module, attr, span_name, on_call=None):
        self._sites.append((module, attr, span_name, on_call))

    def reset(self):
        """Drop spans and counters; the next round starts from zero."""
        self.spans = []
        self.counters = Counter()
        self._stack = []
        self._seen_fits = set()

    def _wrap(self, original, span_name, on_call):
        tracer = self

        def traced(*args, **kwargs):
            parent = tracer._stack[-1] if tracer._stack else None
            index = len(tracer.spans)
            span = Span(span_name, 0.0, parent)
            tracer.spans.append(span)
            if parent is not None:
                tracer.spans[parent].children.append(index)
            tracer._stack.append(index)
            span.start = time.perf_counter()
            try:
                result = original(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                tracer._stack.pop()
            span.result = result
            if on_call is not None:
                on_call(tracer, args, kwargs, result)
            return result

        traced.__wrapped__ = original
        return traced

    @contextmanager
    def installed(self):
        """Patch every registered site; restore the originals on exit."""
        saved = []
        try:
            for module, attr, span_name, on_call in self._sites:
                original = getattr(module, attr)
                saved.append((module, attr, original))
                setattr(module, attr, self._wrap(original, span_name, on_call))
            yield self
        finally:
            for module, attr, original in reversed(saved):
                setattr(module, attr, original)

    def note_fit(self, points, k, seed, restarts):
        """Count one k-means fit and whether an earlier fit had the same inputs."""
        pts = np.ascontiguousarray(points, dtype=float)
        key = (
            hashlib.sha1(pts.tobytes()).hexdigest(),
            pts.shape,
            int(k),
            int(seed),
            int(restarts),
        )
        self.counters["kmeans_fits"] += 1
        if key in self._seen_fits:
            self.counters["repeat_fits"] += 1
        self._seen_fits.add(key)

    # -- analysis -------------------------------------------------------

    def self_time(self, span):
        return span.duration - sum(self.spans[c].duration for c in span.children)

    def layer_time(self, span):
        """Self time of a span plus that of its same-layer descendants.

        Time inside a child span of another layer belongs to that layer
        and is excluded, so ``clustering.elbow_k`` includes its k-means
        fits while ``rulebase.extract_rules`` excludes them.
        """
        total = self.self_time(span)
        for c in span.children:
            child = self.spans[c]
            if child.layer == span.layer:
                total += self.layer_time(child)
        return total

    def named(self, name):
        return [s for s in self.spans if s.name == name]

    def named_time(self, name):
        """Layer time of the outermost spans with this name."""
        total = 0.0
        for s in self.named(name):
            if not self._has_ancestor_named(s, name):
                total += self.layer_time(s)
        return total

    def _has_ancestor_named(self, span, name):
        parent = span.parent
        while parent is not None:
            if self.spans[parent].name == name:
                return True
            parent = self.spans[parent].parent
        return False

    def layer_totals(self):
        totals = Counter()
        for s in self.spans:
            totals[s.layer] += self.self_time(s)
        return totals

    def quantile_ms(self, spans, q):
        """Quantile ``q`` of the span durations in ms (0.0 for no spans)."""
        durations = sorted(s.duration * 1e3 for s in spans)
        if len(durations) < 2:
            return durations[0] if durations else 0.0
        return statistics.quantiles(durations, n=100, method="inclusive")[round(q * 100) - 1]

    def median_ms(self, spans):
        durations = [s.duration * 1e3 for s in spans]
        return statistics.median(durations) if durations else 0.0

    def dump(self):
        return [s.as_dict() for s in self.spans]
