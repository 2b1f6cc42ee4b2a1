"""In-memory spans around the benchmark's calls into cfgzip.

A span is ``<module>.<function>`` plus start and end (``perf_counter_ns``),
the index of the enclosing span, and the request it belongs to.  Spans
nest through a stack, so a layer's self time is its spans' durations
minus the parts covered by their child spans.  With tracing off,
``call`` is a plain call and nothing is recorded.
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager

_now = time.perf_counter_ns


class Tracer:
    def __init__(self, enabled: bool):
        self.enabled = enabled
        self.spans: list[list] = []  # [name, start_ns, end_ns, parent, request]
        self._stack: list[int] = []
        self.request: str | None = None

    def call(self, name: str, fn, *args, **kwargs):
        if not self.enabled:
            return fn(*args, **kwargs)
        with self.span(name):
            return fn(*args, **kwargs)

    @contextmanager
    def span(self, name: str):
        if not self.enabled:
            yield
            return
        parent = self._stack[-1] if self._stack else -1
        idx = len(self.spans)
        rec = [name, _now(), 0, parent, self.request]
        self.spans.append(rec)
        self._stack.append(idx)
        try:
            yield
        finally:
            rec[2] = _now()
            self._stack.pop()

    def self_seconds(self) -> dict[str, float]:
        """Self time per layer (the span name's module part), in seconds."""
        child_ns = [0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child_ns[parent] += end - start
        out: dict[str, float] = {}
        for (name, start, end, _, _), covered in zip(self.spans, child_ns):
            layer = name.split(".", 1)[0]
            out[layer] = out.get(layer, 0.0) + (end - start - covered) / 1e9
        return out

    def write(self, path) -> None:
        with open(path, "w") as fh:
            for name, start, end, parent, request in self.spans:
                fh.write(
                    json.dumps(
                        {"name": name, "start_ns": start, "end_ns": end, "parent": parent, "request": request}
                    )
                    + "\n"
                )


def span_cost_ns(samples: int = 20000) -> float:
    """Measured cost of one recorded span around a no-op call, minus the
    cost of the same call with tracing off."""

    def noop():
        return None

    costs = []
    for enabled in (False, True):
        tr = Tracer(enabled)
        t0 = _now()
        for _ in range(samples):
            tr.call("bench.noop", noop)
        costs.append((_now() - t0) / samples)
    return max(costs[1] - costs[0], 0.0)
