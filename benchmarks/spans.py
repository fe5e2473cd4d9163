"""Span tracer for the benchmark's traced run.

`Tracer.wrap` replaces a public function through its module attribute, so
calls from inside the package (compare_spectra -> eigenvalues, cli.main ->
band_table) are traced too.  Each span keeps its
name, start, end, parent span and the benchmark op it belongs to.  Spans stay
in memory; `summary` turns them into per-layer calls, busy and self times,
plus the work counts the wrap hooks record.  `close` puts the original
functions back.
"""

import functools
from collections import defaultdict
from dataclasses import dataclass, field
from time import perf_counter


@dataclass
class Span:
    name: str
    start: float
    end: float = 0.0
    parent: int = -1
    op: int = -1
    counts: dict = field(default_factory=dict)


class Tracer:
    def __init__(self):
        self.spans = []
        self.op = -1
        self._stack = []
        self._originals = []

    def wrap(self, module, attr, counts=None):
        """Trace module.attr; counts(args, kwargs, result) -> {name: number}."""
        fn = getattr(module, attr)
        name = f"{module.__name__.rsplit('.', 1)[-1]}.{attr}"

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = Span(name, perf_counter(),
                        parent=self._stack[-1] if self._stack else -1, op=self.op)
            self._stack.append(len(self.spans))
            self.spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = perf_counter()
                self._stack.pop()
            if counts is not None:
                span.counts = counts(args, kwargs, result)
            return result

        self._originals.append((module, attr, fn))
        setattr(module, attr, traced)

    def close(self):
        for module, attr, fn in reversed(self._originals):
            setattr(module, attr, fn)
        self._originals.clear()

    def summary(self, names):
        """{name: {"calls", "busy_s", "self_s", <counts summed>}} for every name."""
        child = defaultdict(float)
        for s in self.spans:
            if s.parent >= 0:
                child[s.parent] += s.end - s.start
        out = {n: defaultdict(int, calls=0, busy_s=0.0, self_s=0.0) for n in names}
        for i, s in enumerate(self.spans):
            row = out[s.name]
            row["calls"] += 1
            row["busy_s"] += s.end - s.start
            row["self_s"] += s.end - s.start - child[i]
            for k, v in s.counts.items():
                row[k] += v
        return out
