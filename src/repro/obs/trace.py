"""Span tracing: nested, timestamped spans with a Chrome-trace export.

One :class:`Tracer` collects two kinds of spans:

* **wall-clock spans** via the :meth:`Tracer.span` context manager —
  nesting is tracked per thread, so a span opened inside another becomes
  its child;
* **modeled spans** via :meth:`Tracer.add_span` — explicit start/duration
  in modeled seconds, used to lay out an epoch's simulated timeline.

Both export to the Chrome tracing JSON format (``chrome://tracing`` /
Perfetto "complete" events), and :func:`spans_from_chrome_events` reads
that JSON back into spans so round-trips can be tested.

:func:`epoch_trace_events` and :func:`write_chrome_trace` export an
:class:`~repro.frameworks.base.EpochReport`: its timeline is the exact
layout the framework's epoch-time model computed, including allreduce
spans and any pipeline overlap (GNNLab's factored sampler, the
out-of-core prefetch pipeline), so the trace's extent reconciles with
``EpochReport.epoch_time``.
"""

from __future__ import annotations

import json
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass, field

#: Chrome-trace colour names per span category.
SPAN_COLORS = {
    "sample": "thread_state_runnable",
    "idmap": "thread_state_unknown",
    "memory_io": "thread_state_iowait",
    "network": "rail_response",
    "compute": "thread_state_running",
    "allreduce": "thread_state_sleeping",
    "retry": "bad",
    "fault_stall": "terrible",
}


@dataclass
class Span:
    """One closed span on one lane."""

    name: str
    start: float
    duration: float
    lane: str = "main"
    category: str = ""
    #: Nesting depth (0 = top level); wall-clock spans track this via the
    #: per-thread stack, modeled spans may set it explicitly.
    depth: int = 0
    args: dict = field(default_factory=dict)

    @property
    def end(self) -> float:
        return self.start + self.duration


class Tracer:
    """Collects spans; disabled tracers drop everything.

    ``clock`` is injectable so tests (and the modeled-epoch exporter) can
    drive span timestamps deterministically.
    """

    def __init__(self, enabled: bool = True, clock=time.perf_counter) -> None:
        self.enabled = bool(enabled)
        self.clock = clock
        self.spans: list = []
        self._lock = threading.Lock()
        self._local = threading.local()

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @contextmanager
    def span(self, name: str, category: str = "", lane: str = "main",
             **args):
        """Context manager recording one wall-clock span."""
        if not self.enabled:
            yield None
            return
        stack = self._stack()
        record = Span(name=name, start=self.clock(), duration=0.0,
                      lane=lane, category=category, depth=len(stack),
                      args=dict(args))
        stack.append(record)
        try:
            yield record
        finally:
            record.duration = max(0.0, self.clock() - record.start)
            stack.pop()
            with self._lock:
                self.spans.append(record)

    def add_span(self, name: str, start: float, duration: float,
                 lane: str = "main", category: str = "", depth: int = 0,
                 **args) -> Span | None:
        """Record one modeled span with explicit timing."""
        if not self.enabled:
            return None
        record = Span(name=name, start=float(start),
                      duration=float(duration), lane=lane,
                      category=category, depth=int(depth), args=dict(args))
        with self._lock:
            self.spans.append(record)
        return record

    def sorted_spans(self) -> list:
        """Spans ordered by (lane, start, -duration): parents before
        children, stable within a lane."""
        with self._lock:
            spans = list(self.spans)
        return sorted(spans, key=lambda s: (s.lane, s.start, -s.duration))

    def lane_totals(self) -> dict:
        """Per-lane wall-clock extent: lane -> latest span end."""
        totals: dict = {}
        with self._lock:
            spans = list(self.spans)
        for span in spans:
            totals[span.lane] = max(totals.get(span.lane, 0.0), span.end)
        return totals

    def to_chrome_events(self, pid: str = "repro") -> list:
        """Chrome-trace "complete" events (timestamps in microseconds)."""
        events = []
        for span in self.sorted_spans():
            event = {
                "name": span.name,
                "cat": span.category or "span",
                "ph": "X",
                "ts": span.start * 1e6,
                "dur": span.duration * 1e6,
                "pid": pid,
                "tid": span.lane,
                "args": dict(span.args, depth=span.depth),
            }
            color = SPAN_COLORS.get(span.category)
            if color is not None:
                event["cname"] = color
            events.append(event)
        return events

    def write_chrome_trace(self, path, pid: str = "repro",
                           other_data: dict | None = None) -> int:
        """Write the Perfetto-loadable trace JSON; returns event count."""
        events = self.to_chrome_events(pid=pid)
        payload = {
            "traceEvents": events,
            "displayTimeUnit": "ms",
            "otherData": dict(other_data or {}),
        }
        with open(path, "w") as handle:
            json.dump(payload, handle)
        return len(events)


def spans_from_chrome_events(events) -> list:
    """Rebuild :class:`Span` records from Chrome-trace "X" events.

    The inverse of :meth:`Tracer.to_chrome_events` (timestamps come back
    in seconds); used to test that nesting and ordering survive the JSON
    round-trip.
    """
    spans = []
    for event in events:
        if event.get("ph") != "X":
            continue
        args = dict(event.get("args", {}))
        depth = int(args.pop("depth", 0))
        spans.append(Span(
            name=event["name"],
            start=event["ts"] / 1e6,
            duration=event["dur"] / 1e6,
            lane=str(event.get("tid", "main")),
            category=event.get("cat", ""),
            depth=depth,
            args=args,
        ))
    return spans


#: Categories of an epoch's modeled phase spans.
PHASES = ("sample", "memory_io", "compute", "allreduce")


def _epoch_tracer(report) -> Tracer:
    """A tracer holding ``report.timeline()``; empty for a report that
    recorded no timeline."""
    tracer = Tracer(enabled=True)
    for span in report.timeline():
        tracer.add_span(
            span.name,
            start=span.start,
            duration=span.duration,
            lane=span.lane,
            category=span.category,
            batch=span.args.get("batch"),
            phase=span.category,
        )
    return tracer


def epoch_trace_events(report) -> list:
    """Trace events (dicts) for ``report``; empty if it recorded none."""
    return _epoch_tracer(report).to_chrome_events(pid=report.framework)


def write_chrome_trace(path, report) -> int:
    """Write the trace JSON for an epoch ``report``; returns the event
    count."""
    return _epoch_tracer(report).write_chrome_trace(
        path, pid=report.framework,
        other_data={
            "framework": report.framework,
            "dataset": report.dataset,
            "model": report.model,
            "modeled_epoch_seconds": report.epoch_time,
        },
    )
