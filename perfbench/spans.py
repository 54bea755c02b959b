"""In-memory spans and the order statistics the benchmark reports.

A span is one call the benchmark makes into a layer of ``repro``: its
name is ``<layer>.<call>``, it has a start, an end, the index of the
span that was open when it began (its parent) and the id of the
operation it belongs to.  Spans stay in memory and are written out
once, when the run ends.  With tracing off, :meth:`Tracer.span` hands
back a shared no-op context, so the untraced run pays one attribute
test per call.
"""

from __future__ import annotations

import contextlib
import json
import statistics
import time

_NULL = contextlib.nullcontext()


class Tracer:
    def __init__(self, enabled: bool) -> None:
        self.enabled = enabled
        self.spans: list[dict] = []
        self._open: list[int] = []
        self._next_rid = 0

    def new_rid(self) -> int:
        """A fresh operation id; spans opened under it inherit it."""
        self._next_rid += 1
        return self._next_rid

    def span(self, name: str, rid: int | None = None):
        if not self.enabled:
            return _NULL
        return self._record(name, rid)

    @contextlib.contextmanager
    def _record(self, name: str, rid: int | None):
        parent = self._open[-1] if self._open else None
        if rid is None and parent is not None:
            rid = self.spans[parent]["rid"]
        rec = {"name": name, "start": time.perf_counter(), "end": None, "parent": parent, "rid": rid}
        self._open.append(len(self.spans))
        self.spans.append(rec)
        try:
            yield
        finally:
            rec["end"] = time.perf_counter()
            self._open.pop()

    def self_times(self) -> dict[str, float]:
        """Seconds per layer spent in its own spans, children excluded.

        The benchmark is a single closed-loop client, so children of one
        span never overlap and their union is their sum.
        """
        child = [0.0] * len(self.spans)
        for s in self.spans:
            if s["parent"] is not None:
                child[s["parent"]] += s["end"] - s["start"]
        out: dict[str, float] = {}
        for s, c in zip(self.spans, child, strict=True):
            layer = s["name"].split(".", 1)[0]
            out[layer] = out.get(layer, 0.0) + (s["end"] - s["start"]) - c
        return out

    def dump(self, path) -> None:
        path.write_text(json.dumps({"spans": self.spans}))


def median(values) -> float:
    return float(statistics.median(values))


def tail(values) -> tuple[float, float]:
    """The highest percentile with at least ten samples beyond it.

    Returns ``(value, percentile)``: the eleventh-largest sample and the
    share of samples at or below it, in percent.
    """
    xs = sorted(values)
    n = len(xs)
    if n < 11:
        raise ValueError(f"a tail needs at least 11 samples, got {n}")
    return float(xs[n - 11]), 100.0 * (n - 10) / n
