"""Metrics registry: counters, gauges and fixed-bucket histograms.

The registry is the single home for every operational number the system
produces — pipeline stage executions and wall-clock, cache hit/miss
rates, MSHR traffic, per-core stall counters — replacing ad-hoc dicts
that were lost whenever work ran inside a pool worker.  The key design
point is **mergeability**: :meth:`MetricsRegistry.snapshot` produces a
plain-JSON structure, :func:`diff_snapshots` subtracts a baseline from
it, and :meth:`MetricsRegistry.merge` folds such a delta into another
registry.  A worker therefore ships ``diff(now, at_fork)`` back with
each result and the parent's totals end up identical to a serial run.

Metrics are identified by a name plus a small set of string labels
(``registry.counter("pipeline.stage_executions", stage="trace")``);
histograms use fixed bucket upper bounds so percentiles of merged
histograms stay exact (to bucket resolution) without storing samples.
"""

from __future__ import annotations

import json
from typing import Any, Dict, Iterable, List, Optional, Tuple

from collections import Counter as _Counter

LabelItems = Tuple[Tuple[str, str], ...]

#: Default latency buckets in milliseconds (exponential-ish ladder).
DEFAULT_MS_BUCKETS: Tuple[float, ...] = (
    0.1, 0.25, 0.5, 1.0, 2.5, 5.0, 10.0, 25.0, 50.0,
    100.0, 250.0, 500.0, 1000.0, 2500.0, 5000.0, 10000.0,
)

#: Default ratio buckets (hit/miss rates, utilizations).
RATIO_BUCKETS: Tuple[float, ...] = (
    0.01, 0.02, 0.05, 0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 0.95, 1.0,
)


def _label_items(labels: Dict[str, Any]) -> LabelItems:
    return tuple(sorted((k, str(v)) for k, v in labels.items()))


class CounterMetric:
    """Monotonically increasing value (int or float)."""

    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value: float = 0

    def inc(self, amount: float = 1) -> None:
        if amount < 0:
            raise ValueError("counters only increase; got %r" % (amount,))
        self.value += amount


class GaugeMetric:
    """Last-write-wins value."""

    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value: float = 0.0

    def set(self, value: float) -> None:
        self.value = float(value)


class HistogramMetric:
    """Fixed-bucket histogram with percentile estimates.

    ``bounds`` are inclusive upper bucket edges; one overflow bucket is
    appended automatically.  Merging histograms with identical bounds is
    exact; percentiles are resolved to the matching bucket edge.
    """

    __slots__ = ("bounds", "counts", "sum", "count", "max")

    def __init__(self, bounds: Iterable[float]):
        self.bounds: Tuple[float, ...] = tuple(sorted(float(b) for b in bounds))
        if not self.bounds:
            raise ValueError("histogram needs at least one bucket bound")
        self.counts: List[int] = [0] * (len(self.bounds) + 1)
        self.sum: float = 0.0
        self.count: int = 0
        self.max: float = 0.0

    def observe(self, value: float) -> None:
        value = float(value)
        self.sum += value
        self.count += 1
        if value > self.max:
            self.max = value
        for i, bound in enumerate(self.bounds):
            if value <= bound:
                self.counts[i] += 1
                return
        self.counts[-1] += 1

    def merge_entry(self, entry: Dict[str, Any]) -> None:
        """Fold one snapshot entry (see :meth:`entry`) in."""
        if list(self.bounds) != list(entry["bounds"]):
            raise ValueError(
                "histogram %r bucket bounds differ; cannot merge"
                % entry["name"]
            )
        for i, n in enumerate(entry["counts"]):
            self.counts[i] += n
        self.sum += entry["sum"]
        self.count += entry["count"]
        if entry["max"] > self.max:
            self.max = entry["max"]

    def entry(self) -> Dict[str, Any]:
        """The histogram's fields as one JSON-able snapshot entry."""
        return {
            "bounds": list(self.bounds),
            "counts": list(self.counts),
            "sum": self.sum,
            "count": self.count,
            "max": self.max,
        }

    @property
    def mean(self) -> float:
        return self.sum / self.count if self.count else 0.0

    def percentile(self, p: float) -> float:
        """Upper bucket edge at or above the p-th percentile (0..100).

        Values in the overflow bucket resolve to the observed maximum.
        An empty histogram has no percentiles: the result is ``nan``
        (explicitly — callers render it or skip it, they never mistake
        it for a real zero-latency observation).
        """
        if not self.count:
            return float("nan")
        target = self.count * min(max(p, 0.0), 100.0) / 100.0
        cumulative = 0
        for i, n in enumerate(self.counts):
            cumulative += n
            if cumulative >= target and n:
                return (self.bounds[i] if i < len(self.bounds)
                        else self.max)
        return self.max


class MetricsRegistry:
    """Named, labeled metrics with snapshot/merge/diff support."""

    def __init__(self) -> None:
        self._counters: Dict[Tuple[str, LabelItems], CounterMetric] = {}
        self._gauges: Dict[Tuple[str, LabelItems], GaugeMetric] = {}
        self._histograms: Dict[Tuple[str, LabelItems], HistogramMetric] = {}

    # -- accessors (get-or-create) ------------------------------------------

    def counter(self, name: str, **labels: Any) -> CounterMetric:
        key = (name, _label_items(labels))
        metric = self._counters.get(key)
        if metric is None:
            metric = self._counters[key] = CounterMetric()
        return metric

    def gauge(self, name: str, **labels: Any) -> GaugeMetric:
        key = (name, _label_items(labels))
        metric = self._gauges.get(key)
        if metric is None:
            metric = self._gauges[key] = GaugeMetric()
        return metric

    def histogram(self, name: str,
                  buckets: Iterable[float] = DEFAULT_MS_BUCKETS,
                  **labels: Any) -> HistogramMetric:
        key = (name, _label_items(labels))
        metric = self._histograms.get(key)
        if metric is None:
            metric = self._histograms[key] = HistogramMetric(buckets)
        return metric

    # -- views --------------------------------------------------------------

    def counter_value(self, name: str, **labels: Any) -> float:
        metric = self._counters.get((name, _label_items(labels)))
        return metric.value if metric is not None else 0

    def labeled_values(self, name: str, label: str) -> "_Counter":
        """``{label value: counter value}`` across one label dimension.

        Backs the pipeline's ``counters``/``hits``/``timings`` views:
        ``labeled_values("pipeline.stage_executions", "stage")`` is a
        :class:`collections.Counter` keyed by stage name.
        """
        out: _Counter = _Counter()
        for (metric_name, labels), metric in self._counters.items():
            if metric_name != name:
                continue
            for key, value in labels:
                if key == label:
                    out[value] += metric.value
        return out

    # -- snapshot / merge / diff --------------------------------------------

    def snapshot(self) -> Dict[str, Any]:
        """JSON-able structured dump of every metric."""
        counters = [
            {"name": name, "labels": dict(labels), "value": m.value}
            for (name, labels), m in sorted(self._counters.items())
        ]
        gauges = [
            {"name": name, "labels": dict(labels), "value": m.value}
            for (name, labels), m in sorted(self._gauges.items())
        ]
        histograms = [
            {"name": name, "labels": dict(labels), **m.entry()}
            for (name, labels), m in sorted(self._histograms.items())
        ]
        return {"counters": counters, "gauges": gauges,
                "histograms": histograms}

    def merge(self, snapshot: Dict[str, Any]) -> None:
        """Fold a snapshot (typically a worker delta) into this registry."""
        for entry in snapshot.get("counters", ()):
            self.counter(entry["name"], **entry["labels"]).inc(entry["value"])
        for entry in snapshot.get("gauges", ()):
            self.gauge(entry["name"], **entry["labels"]).set(entry["value"])
        for entry in snapshot.get("histograms", ()):
            metric = self.histogram(
                entry["name"], buckets=entry["bounds"], **entry["labels"]
            )
            metric.merge_entry(entry)

    def to_json(self, indent: Optional[int] = 2) -> str:
        return json.dumps(self.snapshot(), indent=indent, sort_keys=True)

    def export(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(self.to_json())


def _index(entries: Iterable[Dict[str, Any]]):
    return {
        (e["name"], _label_items(e["labels"])): e for e in entries
    }


def diff_snapshots(current: Dict[str, Any],
                   baseline: Dict[str, Any]) -> Dict[str, Any]:
    """The metric activity between two snapshots of one registry.

    Counters and histograms subtract (zero deltas are dropped); gauges
    pass through at their current value.  The result is itself a valid
    snapshot, suitable for :meth:`MetricsRegistry.merge`.
    """
    base_counters = _index(baseline.get("counters", ()))
    counters = []
    for entry in current.get("counters", ()):
        key = (entry["name"], _label_items(entry["labels"]))
        base = base_counters.get(key)
        delta = entry["value"] - (base["value"] if base else 0)
        if delta:
            counters.append({**entry, "value": delta})
    base_hists = _index(baseline.get("histograms", ()))
    histograms = []
    for entry in current.get("histograms", ()):
        key = (entry["name"], _label_items(entry["labels"]))
        base = base_hists.get(key)
        if base is None:
            if entry["count"]:
                histograms.append(entry)
            continue
        counts = [n - m for n, m in zip(entry["counts"], base["counts"])]
        if any(counts):
            histograms.append({
                **entry,
                "counts": counts,
                "sum": entry["sum"] - base["sum"],
                "count": entry["count"] - base["count"],
            })
    return {
        "counters": counters,
        "gauges": list(current.get("gauges", ())),
        "histograms": histograms,
    }
