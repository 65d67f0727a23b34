"""Hierarchical span tracer with Chrome-trace/Perfetto export.

A :class:`Tracer` hands out context managers that time a named region of
work and record it as a *span*: start/duration (microseconds), the
process that ran it, and the enclosing span's id (so nesting is
explicit, not just implied by timestamps).  Design constraints, in
order:

1. **Near-zero overhead when disabled.**  ``tracer.span(...)`` on a
   disabled tracer returns one shared no-op context manager — no span
   object, no dict, no clock read is ever allocated on that path, which
   is what lets the pipeline keep a tracer unconditionally.
2. **One thread per process.**  Every ``repro`` process runs on its
   main thread alone, so the open-span stack and the finished-span list
   are plain lists and nothing takes a lock — which is also what lets
   the sampling profiler's signal handler read the stack safely.  A
   span's ``tid`` is therefore the process id.  Worker processes record
   into their own (forked or unpickled) tracer and ship finished spans
   back with :meth:`drain`; the parent folds them in with
   :meth:`merge`.  ``time.perf_counter`` is CLOCK_MONOTONIC on Linux —
   machine-wide, so timestamps from different processes share one axis
   (the epoch is captured once and travels through fork/pickle).
3. **Standard viewers.**  :func:`write_chrome_trace` emits the Chrome
   ``trace_event`` JSON format: open the file in ``chrome://tracing`` or
   https://ui.perfetto.dev.  :func:`write_jsonl` emits one raw span per
   line for programmatic consumers.
"""

from __future__ import annotations

import itertools
import json
import os
import time
from typing import Any, Dict, Iterable, List, Optional, Sequence, Tuple

#: Per-process span id source; combined with ``pid`` ids are globally
#: unique, and 0 is reserved for "no parent".
_IDS = itertools.count(1)


class _NullSpan:
    """Shared no-op context manager returned by disabled tracers."""

    __slots__ = ()

    def __enter__(self) -> None:
        return None

    def __exit__(self, *exc: object) -> bool:
        return False


NULL_SPAN = _NullSpan()


class _SpanHandle:
    """Open span: records itself into the tracer on ``__exit__``."""

    __slots__ = ("tracer", "name", "category", "args", "span_id",
                 "parent_id", "_start")

    def __init__(self, tracer: "Tracer", name: str, category: str,
                 args: Optional[Dict[str, Any]]):
        self.tracer = tracer
        self.name = name
        self.category = category
        self.args = args

    def __enter__(self) -> "_SpanHandle":
        stack = self.tracer._open
        self.parent_id = stack[-1][0] if stack else 0
        self.span_id = next(_IDS)
        stack.append((self.span_id, self.name))
        self._start = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        end = time.perf_counter()
        tracer = self.tracer
        stack = tracer._open
        if stack and stack[-1][0] == self.span_id:
            stack.pop()
        pid = os.getpid()
        record: Dict[str, Any] = {
            "id": self.span_id,
            "parent": self.parent_id,
            "name": self.name,
            "cat": self.category,
            "ts": (self._start - tracer.epoch) * 1e6,
            "dur": (end - self._start) * 1e6,
            "pid": pid,
            "tid": pid,
        }
        if self.args:
            record["args"] = dict(self.args)
        if exc_type is not None:
            record["error"] = exc_type.__name__
        tracer._spans.append(record)
        return False


class Tracer:
    """Collects spans; one instance per logical run (shared by workers)."""

    def __init__(self, enabled: bool = True):
        self.enabled = enabled
        #: perf_counter value mapped to ts=0; shared across processes.
        self.epoch = time.perf_counter()
        #: ``(id, name)`` of every open span, outermost first.
        self._open: List[Tuple[int, str]] = []
        self._spans: List[Dict[str, Any]] = []

    # -- recording ----------------------------------------------------------

    def span(self, name: str, category: str = "repro",
             args: Optional[Dict[str, Any]] = None):
        """Context manager timing one region; no-op when disabled."""
        if not self.enabled:
            return NULL_SPAN
        return _SpanHandle(self, name, category, args)

    def instant(self, name: str, category: str = "repro",
                args: Optional[Dict[str, Any]] = None) -> None:
        """Record a zero-duration marker event."""
        if not self.enabled:
            return
        pid = os.getpid()
        record: Dict[str, Any] = {
            "id": next(_IDS),
            "parent": self._open[-1][0] if self._open else 0,
            "name": name,
            "cat": category,
            "ts": (time.perf_counter() - self.epoch) * 1e6,
            "dur": 0.0,
            "pid": pid,
            "tid": pid,
        }
        if args:
            record["args"] = dict(args)
        self._spans.append(record)

    def open_span_names(self) -> Tuple[str, ...]:
        """Names of the spans currently open (outermost first).

        The sampling profiler calls this from its signal handler to
        attribute a sample to the pipeline stage it interrupted.
        """
        return tuple(name for _, name in self._open)

    # -- collection ---------------------------------------------------------

    @property
    def n_spans(self) -> int:
        return len(self._spans)

    def spans(self) -> List[Dict[str, Any]]:
        """Snapshot of all finished spans (oldest first)."""
        return list(self._spans)

    def drain(self) -> List[Dict[str, Any]]:
        """Remove and return all finished spans (worker → parent hop)."""
        spans, self._spans = self._spans, []
        return spans

    def merge(self, spans: Iterable[Dict[str, Any]]) -> None:
        """Fold spans drained from another tracer (e.g. a pool worker)."""
        self._spans.extend(spans)

    # -- export -------------------------------------------------------------

    def export_jsonl(self, path: str) -> None:
        write_jsonl(self.spans(), path)

    def export_chrome(self, path: str,
                      extra_events: Sequence[Dict[str, Any]] = (),
                      metadata: Optional[Dict[str, Any]] = None) -> None:
        write_chrome_trace(path, self.spans(), extra_events=extra_events,
                           metadata=metadata)

    # -- pickling (fork start method never pickles; spawn does) -------------

    def __getstate__(self) -> Dict[str, Any]:
        # Workers must not replay the parent's already-recorded spans.
        return {"enabled": self.enabled, "epoch": self.epoch}

    def __setstate__(self, state: Dict[str, Any]) -> None:
        self.enabled = state["enabled"]
        self.epoch = state["epoch"]
        self._open = []
        self._spans = []


#: Process-wide disabled tracer: the default collaborator everywhere.
NULL_TRACER = Tracer(enabled=False)

_CURRENT: Tracer = NULL_TRACER


def get_tracer() -> Tracer:
    """The process-wide current tracer (disabled unless configured)."""
    return _CURRENT


def set_tracer(tracer: Optional[Tracer]) -> Tracer:
    """Install (or, with ``None``, reset) the process-wide tracer."""
    global _CURRENT
    _CURRENT = tracer if tracer is not None else NULL_TRACER
    return _CURRENT


# ---------------------------------------------------------------------------
# Export formats
# ---------------------------------------------------------------------------


def write_jsonl(spans: Sequence[Dict[str, Any]], path: str) -> None:
    """One span dict per line, oldest first."""
    with open(path, "w", encoding="utf-8") as handle:
        for span in sorted(spans, key=lambda s: s["ts"]):
            handle.write(json.dumps(span, sort_keys=True) + "\n")


def chrome_events(spans: Sequence[Dict[str, Any]]) -> List[Dict[str, Any]]:
    """Spans as Chrome ``trace_event`` complete ('X') events."""
    events: List[Dict[str, Any]] = []
    for span in spans:
        args = dict(span.get("args") or {})
        args["span_id"] = span["id"]
        if span.get("parent"):
            args["parent_id"] = span["parent"]
        if "error" in span:
            args["error"] = span["error"]
        events.append({
            "name": span["name"],
            "cat": span["cat"],
            "ph": "X",
            "ts": span["ts"],
            "dur": span["dur"],
            "pid": span["pid"],
            "tid": span["tid"],
            "args": args,
        })
    return events


def _metadata_events(events: Sequence[Dict[str, Any]]) -> List[Dict[str, Any]]:
    """Name every pid so Perfetto shows 'repro' / 'repro worker'."""
    pids = sorted({e["pid"] for e in events})
    parent = os.getpid()
    out = []
    for pid in pids:
        name = "repro" if pid == parent else "repro worker %d" % pid
        out.append({
            "name": "process_name",
            "ph": "M",
            "ts": 0,
            "pid": pid,
            "args": {"name": name},
        })
    return out


def write_chrome_trace(path: str, spans: Sequence[Dict[str, Any]],
                       extra_events: Sequence[Dict[str, Any]] = (),
                       metadata: Optional[Dict[str, Any]] = None) -> None:
    """Write a Chrome-trace JSON object file.

    ``extra_events`` are appended verbatim (counter tracks from the
    timeline sampler); ``metadata`` lands in ``otherData``.
    """
    events = chrome_events(spans) + list(extra_events)
    events += _metadata_events(events)
    payload: Dict[str, Any] = {
        "traceEvents": sorted(events, key=lambda e: (e["ts"], e["pid"])),
        "displayTimeUnit": "ms",
        "otherData": dict(metadata or {}),
    }
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(payload, handle, sort_keys=True)
