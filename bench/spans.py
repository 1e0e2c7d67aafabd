"""Spans recorded around calls into each layer, and what is derived from them.

A span is (id, parent, item, name, start_ns, end_ns); `item` identifies the
frame or problem the span belongs to and `parent` is -1 at top level.  The
layer of a span is the part of its name before the first dot.  Spans stay
in memory until the run writes them out; the per-layer self times are then
read back from that file.
"""

from __future__ import annotations

import csv
import time
from collections import defaultdict
from contextlib import contextmanager, nullcontext

SPAN_COLUMNS = ("id", "parent", "item", "name", "start_ns", "end_ns")
TAIL_SAMPLES = 10

_NO_SPAN = nullcontext()


class Tracer:
    """In-memory span and count recorder; a disabled tracer records nothing."""

    def __init__(self, enabled: bool):
        self.enabled = enabled
        self.spans: list[tuple] = []
        self.counts: dict[str, list[float]] = defaultdict(list)
        self.item = -1
        self._stack: list[int] = []

    def span(self, name: str):
        return self._record(name) if self.enabled else _NO_SPAN

    def count(self, name: str, value: float) -> None:
        if self.enabled:
            self.counts[name].append(value)

    @contextmanager
    def _record(self, name: str):
        sid = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append(None)
        self._stack.append(sid)
        start = time.perf_counter_ns()
        try:
            yield
        finally:
            end = time.perf_counter_ns()
            self._stack.pop()
            self.spans[sid] = (sid, parent, self.item, name, start, end)


def write_spans(path, spans) -> None:
    with open(path, "w", newline="", encoding="ascii") as fh:
        writer = csv.writer(fh)
        writer.writerow(SPAN_COLUMNS)
        writer.writerows(spans)


def read_spans(path) -> list[tuple]:
    with open(path, newline="", encoding="ascii") as fh:
        rows = csv.reader(fh)
        if tuple(next(rows)) != SPAN_COLUMNS:
            raise ValueError(f"{path}: not a spans file")
        return [(int(i), int(p), int(it), name, int(s), int(e)) for i, p, it, name, s, e in rows]


def durations_us(spans) -> dict[str, list[float]]:
    """Span durations in microseconds, grouped by span name."""
    out: dict[str, list[float]] = defaultdict(list)
    for _, _, _, name, start, end in spans:
        out[name].append((end - start) / 1e3)
    return out


def self_time_us(spans) -> dict[str, float]:
    """Total self time per layer: each span's duration minus its children's."""
    child_ns: dict[int, int] = defaultdict(int)
    for _, parent, _, _, start, end in spans:
        if parent >= 0:
            child_ns[parent] += end - start
    out: dict[str, float] = defaultdict(float)
    for sid, _, _, name, start, end in spans:
        out[name.split(".", 1)[0]] += (end - start - child_ns[sid]) / 1e3
    return out


def summarize(values) -> dict:
    """Median, tail and sample count of a timing list.

    The tail is the highest percentile with at least TAIL_SAMPLES samples
    beyond it.  With 2 x TAIL_SAMPLES samples or fewer that percentile is
    not above the median, and the maximum is reported instead.  Empty
    lists give zeros with n = 0.
    """
    xs = sorted(values)
    n = len(xs)
    if n == 0:
        return {"p50": 0.0, "tail": 0.0, "n": 0}
    mid = n // 2
    p50 = xs[mid] if n % 2 else (xs[mid - 1] + xs[mid]) / 2.0
    rank = n - 1 - TAIL_SAMPLES if n > 2 * TAIL_SAMPLES else n - 1
    return {"p50": p50, "tail": xs[rank], "n": n}
