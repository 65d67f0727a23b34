"""Per-layer accounting for the traced benchmark run.

The benchmark traces from its own files only: the pipeline already
emits one span per stage execution (category ``stage``) and one per
``evaluate``/``evaluate_many``; this module adds

* :class:`TracedStore`, an :class:`~repro.pipeline.store.ArtifactStore`
  wrapper that records every ``get``/``put`` as a span;
* :func:`traced_baselines`, which wraps the two Table II baseline entry
  points (recomputed on every ``evaluate``) in spans;

and turns the spans of one phase into self times per layer.  A span's
self time is its duration minus the part of it its child spans cover,
so the self times of all layers add up to the time spent inside the
program.  Spans of pool workers come home with their results and are
told apart by ``pid`` (span ids are only unique within a process).
"""

from __future__ import annotations

import functools
from collections import defaultdict
from contextlib import contextmanager
from typing import Any, Dict, Iterable, List, Optional, Tuple

from repro.pipeline import ArtifactStore

#: Pipeline stages the benchmark's workloads execute, in dataflow order.
STAGES = (
    "trace",
    "cache_sim",
    "latency_table",
    "interval_profiles",
    "clustering",
    "predict",
    "oracle",
)

#: Self-time buckets.  ``overhead`` is the time inside ``predict`` /
#: ``evaluate`` calls that no stage, store or baseline span covers:
#: key derivation, config fingerprints, dispatch, result assembly.
LAYERS = STAGES + ("baselines", "store.get", "store.put", "overhead")

#: Span names whose self time is pipeline overhead: the benchmark's own
#: per-call span plus the pipeline's top-level spans.
OVERHEAD_SPANS = frozenset({"op", "evaluate", "evaluate_many"})


def _stage_of(key: str) -> str:
    return key.partition(":")[0]


def _work_items(stage: str, artifact: Any) -> Optional[int]:
    """Work count an artifact carries: warp instructions of a trace,
    intervals of a profile set (read-only, no cached properties)."""
    if stage == "trace":
        return sum(len(warp) for warp in artifact.warps)
    if stage == "interval_profiles":
        return sum(len(profile.intervals) for profile in artifact)
    return None


class TracedStore(ArtifactStore):
    """Records each ``get``/``put`` of an inner store as a span."""

    def __init__(self, inner: ArtifactStore, tracer) -> None:
        self.inner = inner
        self.tracer = tracer

    def get(self, key: str) -> Optional[Any]:
        with self.tracer.span("store.get", category="store",
                              args={"stage": _stage_of(key)}):
            return self.inner.get(key)

    def put(self, key: str, value: Any) -> None:
        stage = _stage_of(key)
        args = {"stage": stage, "items": _work_items(stage, value)}
        with self.tracer.span("store.put", category="store", args=args):
            self.inner.put(key, value)


@contextmanager
def traced_baselines(tracer):
    """Wrap ``naive_interval_cpi`` and ``markov_chain_cpi`` in spans.

    ``Pipeline.evaluate`` imports both from their modules at call time,
    so replacing the module attributes is enough; forked pool workers
    inherit the wrappers.
    """
    import repro.baselines.markov as markov
    import repro.baselines.naive as naive

    def wrap(fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with tracer.span(fn.__name__, category="baselines"):
                return fn(*args, **kwargs)
        return traced

    originals = (naive.naive_interval_cpi, markov.markov_chain_cpi)
    naive.naive_interval_cpi = wrap(originals[0])
    markov.markov_chain_cpi = wrap(originals[1])
    try:
        yield
    finally:
        naive.naive_interval_cpi, markov.markov_chain_cpi = originals


def layer_of(span: Dict[str, Any]) -> Optional[str]:
    """The self-time bucket a span belongs to (``None``: not counted)."""
    category = span["cat"]
    if category in ("stage", "store"):
        return span["name"]
    if category == "baselines":
        return "baselines"
    if span["name"] in OVERHEAD_SPANS:
        return "overhead"
    return None


def _covered(intervals: List[Tuple[float, float]]) -> float:
    """Length of the union of ``(start, end)`` intervals."""
    total = 0.0
    reach = float("-inf")
    for start, end in sorted(intervals):
        if end <= reach:
            continue
        total += end - max(start, reach)
        reach = end
    return total


def self_times(spans: Iterable[Dict[str, Any]]) -> Dict[Tuple[int, int], float]:
    """Self time in seconds of every span, keyed by ``(pid, id)``."""
    spans = list(spans)
    children: Dict[Tuple[int, int], List[Tuple[float, float]]] = (
        defaultdict(list)
    )
    for span in spans:
        if span["parent"]:
            children[(span["pid"], span["parent"])].append(
                (span["ts"], span["ts"] + span["dur"])
            )
    return {
        (span["pid"], span["id"]): (
            span["dur"] - _covered(children.get((span["pid"], span["id"]), []))
        ) * 1e-6
        for span in spans
    }


class PhaseProfile:
    """Layer totals of one traced phase (one tracer's spans)."""

    def __init__(self, spans: List[Dict[str, Any]], wall_s: float):
        self.spans = spans
        self.wall_s = wall_s
        self.self_s: Dict[str, float] = dict.fromkeys(LAYERS, 0.0)
        self.busy_s: Dict[str, float] = defaultdict(float)
        self.calls: Dict[str, int] = defaultdict(int)
        self.get_s: Dict[str, float] = defaultdict(float)
        self.put_s: Dict[str, float] = defaultdict(float)
        self.items: Dict[str, int] = defaultdict(int)
        own = self_times(spans)
        for span in spans:
            layer = layer_of(span)
            if layer is None:
                continue
            self.self_s[layer] = (
                self.self_s.get(layer, 0.0) + own[(span["pid"], span["id"])]
            )
            dur = span["dur"] * 1e-6
            args = span.get("args") or {}
            if span["cat"] in ("stage", "baselines"):
                self.busy_s[layer] += dur
                self.calls[layer] += 1
            elif layer == "store.get":
                self.get_s[args["stage"]] += dur
            elif layer == "store.put":
                self.put_s[args["stage"]] += dur
                self.items[args["stage"]] += args.get("items") or 0

    @property
    def accounted_s(self) -> float:
        return sum(self.self_s.values())

    def share(self, layer: str) -> float:
        return self.self_s[layer] / self.wall_s if self.wall_s else 0.0

    def stage_seconds_by_kernel(self) -> Dict[str, Dict[str, float]]:
        """Stage busy seconds under each ``evaluate`` span, by kernel."""
        by_id = {(s["pid"], s["id"]): s for s in self.spans}
        per_kernel: Dict[str, Dict[str, float]] = defaultdict(
            lambda: defaultdict(float)
        )
        for span in self.spans:
            if span["cat"] != "stage":
                continue
            node = span
            while node is not None and node["name"] != "evaluate":
                node = by_id.get((node["pid"], node["parent"]))
            if node is not None:
                per_kernel[node["args"]["kernel"]][span["name"]] += (
                    span["dur"] * 1e-6
                )
        return per_kernel


def pool_profile(spans: List[Dict[str, Any]], parent_pid: int,
                 jobs: int) -> Dict[str, float]:
    """Process-pool numbers of one parallel ``evaluate_many`` call."""
    fan_out = [s for s in spans
               if s["name"] == "evaluate_many" and s["pid"] == parent_pid]
    wall = sum(s["dur"] for s in fan_out) * 1e-6
    fan_ids = {s["id"] for s in fan_out}
    parent_warm = sum(
        s["dur"] for s in spans
        if s["pid"] == parent_pid and s["parent"] in fan_ids
    ) * 1e-6
    worker_busy = sum(
        s["dur"] for s in spans
        if s["name"] == "evaluate" and s["pid"] != parent_pid
    ) * 1e-6
    return {
        "pool.wall_s": wall,
        "pool.worker_busy_s": worker_busy,
        "pool.efficiency": worker_busy / (jobs * wall) if wall else 0.0,
        "pool.parent_warm_s": parent_warm,
    }
