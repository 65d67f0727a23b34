"""Observability layer: span tracing, metrics, timeline sampling.

``tracer``
    Hierarchical span tracer (context-manager API, merges across worker
    processes, no-op when disabled) with JSONL and Chrome-trace/Perfetto
    export.
``metrics``
    Registry of counters/gauges/fixed-bucket histograms that snapshots,
    diffs and merges — how pool workers ship their stage counters back
    to the parent.
``timeline``
    Per-interval occupancy/issue/stall samples of the timing oracle,
    rendered as Perfetto counter tracks alongside the spans.
``schema``
    Checked-in JSON schemas for every exported format plus a
    dependency-free validator (also a CLI: ``python -m repro.obs.schema``).
``sampler``
    Stdlib ``SIGPROF`` sampling profiler on the main thread
    (collapsed-stack flamegraph export, span-attributed; CLI face
    ``repro profile --sample``).
``ledger`` / ``dashboard``
    Append-only JSONL prediction ledger, the accuracy-regression
    watchdog over it (``repro watchdog``), and the self-contained
    HTML dashboard (``repro dash``).
"""

from repro.obs.dashboard import collect_bench, render_dashboard, write_dashboard
from repro.obs.ledger import (
    DEFAULT_MODEL,
    PredictionLedger,
    WatchdogReport,
    WatchdogRow,
    build_record,
    compare_ledgers,
    read_ledger,
    read_ledgers,
)
from repro.obs.metrics import (
    DEFAULT_MS_BUCKETS,
    RATIO_BUCKETS,
    CounterMetric,
    GaugeMetric,
    HistogramMetric,
    MetricsRegistry,
    diff_snapshots,
)
from repro.obs.sampler import SamplingProfiler
from repro.obs.timeline import Timeline, TimelineSample
from repro.obs.tracer import (
    NULL_TRACER,
    Tracer,
    get_tracer,
    set_tracer,
    write_chrome_trace,
    write_jsonl,
)

__all__ = [
    "CounterMetric",
    "DEFAULT_MODEL",
    "DEFAULT_MS_BUCKETS",
    "GaugeMetric",
    "HistogramMetric",
    "MetricsRegistry",
    "NULL_TRACER",
    "PredictionLedger",
    "RATIO_BUCKETS",
    "SamplingProfiler",
    "Timeline",
    "TimelineSample",
    "Tracer",
    "WatchdogReport",
    "WatchdogRow",
    "build_record",
    "collect_bench",
    "compare_ledgers",
    "diff_snapshots",
    "get_tracer",
    "read_ledger",
    "read_ledgers",
    "render_dashboard",
    "set_tracer",
    "write_chrome_trace",
    "write_dashboard",
    "write_jsonl",
]
