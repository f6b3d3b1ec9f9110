"""Span tracing for the benchmark's traced runs, and the arithmetic on spans.

A traced run replaces public voxsynth functions, in the module namespace
where their caller looks them up, by wrappers that record one span per call:
name, start, end, parent span and item id. Spans stay in memory. Forked pool
workers inherit the wrappers; each writes its spans to a file when it exits,
and the driving process merges those files after the batch. Untraced runs
install no wrapper, so they measure the program as shipped.
"""

from __future__ import annotations

import functools
import json
import os
import re
import resource
import statistics
import time
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import asdict, dataclass
from multiprocessing import util as mp_util
from pathlib import Path

METRIC_NAME = re.compile(r"[A-Za-z0-9_.-]+")
MAX_NAME_LENGTH = 64
TAIL_PERCENTILES = (99.9, 99.0, 95.0, 90.0)
MIN_BEYOND_TAIL = 10


def check_metric_name(name: str) -> str:
    """Return `name` if it is a valid metric name, else raise ValueError."""
    if len(name) > MAX_NAME_LENGTH or not METRIC_NAME.fullmatch(name) or not name[0].isalnum():
        raise ValueError(f"invalid metric name {name!r}")
    return name


@dataclass
class Span:
    id: str
    name: str
    start: float
    end: float
    parent: str | None
    item: int | None

    @property
    def duration(self) -> float:
        return self.end - self.start


def peak_rss_mb(who: int = resource.RUSAGE_SELF) -> float:
    return resource.getrusage(who).ru_maxrss / 1024.0


class Tracer:
    """Records spans and counts while `active`; one instance per traced run."""

    def __init__(self, dump_dir):
        self.dump_dir = Path(dump_dir)
        self.pid = os.getpid()
        self.spans: list[Span] = []
        self.counts: list[tuple[str, int | None, float]] = []
        self.worker_rss_mb: dict[int, float] = {}
        self.item: int | None = None
        self.active = False
        self._stack: list[str] = []
        self._next_id = 0
        self._patched: list[tuple[object, str, object]] = []

    # -- recording -------------------------------------------------------

    def _adopt_process(self) -> None:
        # first record in a forked pool worker: drop the parent's records and
        # write this worker's own when it exits
        if os.getpid() == self.pid:
            return
        self.pid = os.getpid()
        self.spans, self.counts, self._stack = [], [], []
        mp_util.Finalize(self, self._dump_worker, exitpriority=10)

    @contextmanager
    def span(self, name: str):
        if not self.active:
            yield
            return
        self._adopt_process()
        span_id = f"{self.pid}:{self._next_id}"
        self._next_id += 1
        parent = self._stack[-1] if self._stack else None
        self._stack.append(span_id)
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            self._stack.pop()
            self.spans.append(Span(span_id, name, start, end, parent, self.item))

    def count(self, name: str, value: float = 1.0) -> None:
        if self.active:
            self._adopt_process()
            self.counts.append((name, self.item, float(value)))

    # -- wrappers --------------------------------------------------------

    def wrap(self, owner, attr: str, name: str | None, after=None, item_from=None) -> None:
        """Replace `owner.attr` by a wrapper recording a span named `name`
        (no span when `name` is None).

        `after(tracer, args, kwargs, result)` records counts; `item_from(args,
        kwargs)` names the item the call belongs to (a pool worker learns its
        sample index this way).
        """
        original = getattr(owner, attr)
        tracer = self

        @functools.wraps(original)
        def traced(*args, **kwargs):
            if item_from is not None and tracer.active:
                tracer.item = item_from(args, kwargs)
            if name is None or not tracer.active:
                result = original(*args, **kwargs)
            else:
                with tracer.span(name):
                    result = original(*args, **kwargs)
            if after is not None and tracer.active:
                after(tracer, args, kwargs, result)
            return result

        traced.__bench_traced__ = True
        setattr(owner, attr, traced)
        self._patched.append((owner, attr, original))

    def uninstall(self) -> None:
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    # -- pool workers ----------------------------------------------------

    def _dump_worker(self) -> None:
        record = {
            "pid": self.pid,
            "rss_mb": peak_rss_mb(),
            "spans": [asdict(s) for s in self.spans],
            "counts": self.counts,
        }
        (self.dump_dir / f"worker-{self.pid}.json").write_text(json.dumps(record))

    def merge_worker_dumps(self) -> None:
        for path in sorted(self.dump_dir.glob("worker-*.json")):
            record = json.loads(path.read_text())
            self.spans.extend(Span(**s) for s in record["spans"])
            self.counts.extend((n, i, v) for n, i, v in record["counts"])
            self.worker_rss_mb[record["pid"]] = record["rss_mb"]
            path.unlink()


def is_traced(function) -> bool:
    return getattr(function, "__bench_traced__", False)


# -- arithmetic on spans ----------------------------------------------------


def _covered(intervals: list[tuple[float, float]], lo: float, hi: float) -> float:
    """Length of the union of `intervals`, clipped to [lo, hi]."""
    total = 0.0
    cursor = lo
    for start, end in sorted(intervals):
        start, end = max(start, cursor), min(end, hi)
        if end > start:
            total += end - start
            cursor = end
    return total


def self_times(spans: list[Span]) -> dict[str, float]:
    """Each span's duration minus the part of it that its children cover."""
    children: dict[str, list[tuple[float, float]]] = defaultdict(list)
    for s in spans:
        if s.parent is not None:
            children[s.parent].append((s.start, s.end))
    return {
        s.id: s.duration - _covered(children.get(s.id, []), s.start, s.end) for s in spans
    }


def per_item_self(spans: list[Span], name: str, items) -> list[float]:
    """Self time of the spans named `name`, summed per item, for every item."""
    own = self_times(spans)
    totals = dict.fromkeys(items, 0.0)
    for s in spans:
        if s.name == name and s.item in totals:
            totals[s.item] += own[s.id]
    return list(totals.values())


def per_item_count(counts, name: str, items) -> list[float]:
    totals = dict.fromkeys(items, 0.0)
    for count_name, item, value in counts:
        if count_name == name and item in totals:
            totals[item] += value
    return list(totals.values())


def median(values) -> float:
    values = list(values)
    return float(statistics.median(values)) if values else 0.0


def _percentile(sorted_values: list[float], pct: float) -> float:
    """Linear interpolation between order statistics."""
    position = (len(sorted_values) - 1) * pct / 100.0
    lo = int(position)
    hi = min(lo + 1, len(sorted_values) - 1)
    return sorted_values[lo] + (sorted_values[hi] - sorted_values[lo]) * (position - lo)


def timing_summary(values) -> dict:
    """Median and sample count, plus the highest tail percentile that has at
    least ten samples beyond it (none for fewer than 100 samples)."""
    values = sorted(float(v) for v in values)
    summary = {"n": len(values), "median": median(values)}
    for pct in TAIL_PERCENTILES:
        # samples beyond the percentile, in tenths of a percent to stay exact
        if len(values) * (1000 - round(pct * 10)) >= MIN_BEYOND_TAIL * 1000:
            summary[f"p{pct:g}"] = _percentile(values, pct)
            break
    return summary
