"""The staged artifact pipeline: cached stage execution + parallel sweeps.

:class:`Pipeline` reifies the Fig. 5 dataflow declared in
``repro.pipeline.stages``.  Every stage execution is

1. *keyed* — a content-addressed key from the kernel identity, the
   workload scale, the fingerprint of exactly the config fields the
   stage reads, and the keys of its upstream artifacts — and computed
   on a view of the config holding only the fields that key covers, so
   an undeclared read raises instead of caching a result that could go
   stale;
2. *memoised* — looked up in an :class:`~repro.pipeline.store.ArtifactStore`
   (in-memory by default; memory-fronted disk with ``cache_dir``), so a
   hardware sweep automatically re-runs only the cache-sim-and-later
   stages and a repeated sweep re-runs nothing at all;
3. *counted and timed* — every execution lands in the pipeline's
   :class:`~repro.obs.metrics.MetricsRegistry` (stage execution/hit
   counters, wall-clock totals and latency histograms, cache-sim and
   oracle statistics); ``pipeline.counters[stage]`` /
   ``pipeline.timings[stage]`` / ``pipeline.hits[stage]`` are live views
   over that registry, which is what the speedup harness and the
   invalidation tests read;
4. *traced* — when the pipeline's :class:`~repro.obs.tracer.Tracer` is
   enabled, each real execution is a span in the exported timeline
   (disabled tracing allocates nothing).

Independent (kernel × sweep-point) evaluations fan out over a
``ProcessPoolExecutor`` via :meth:`Pipeline.evaluate_many`; a single
evaluation runs in one process (the interval-profile stage is one
batched numpy pass over all warps).  Parallel execution is
bitwise-deterministic: workers run the identical pure stage functions
and results are collected in request order.  Each worker ships its
metric deltas and spans back with every result, so after a parallel
sweep the parent's stage counters equal a serial run's (exact whenever
requests do not share intermediate artifacts; shared artifacts may be
computed once per worker).
"""

from __future__ import annotations

import logging
import multiprocessing
import os
import time
from collections import Counter, defaultdict
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Sequence, Union

from repro.backend import BACKEND_STAGES, current_backend
from repro.config import GPUConfig
from repro.obs.metrics import MetricsRegistry, diff_snapshots
from repro.obs.tracer import Tracer, get_tracer
from repro.pipeline.stages import (
    compute_cache_sim,
    compute_clustering,
    compute_costmodel,
    compute_latency_table,
    compute_lint,
    compute_oracle,
    compute_profiles,
    compute_trace,
    compute_xcheck,
    config_view,
    stage_key,
    trace_digest,
)
from repro.pipeline.store import ArtifactStore, open_store
from repro.staticcheck.report import StaticCheckError
from repro.workloads.generators import Scale

_LOG = logging.getLogger(__name__)


@dataclass(frozen=True)
class EvalRequest:
    """One (kernel × configuration) point of a sweep."""

    kernel: str
    config: Optional[GPUConfig] = None
    policy: Optional[str] = None
    warps_per_core: Optional[int] = None
    selection_strategy: str = "clustering"


def _mp_context():
    """Prefer fork (workers inherit the warm in-memory store for free).

    ``REPRO_START_METHOD`` overrides the choice (the CI smoke job runs
    the same sweep under both ``fork`` and ``spawn``).
    """
    method = os.environ.get("REPRO_START_METHOD")
    if method:
        return multiprocessing.get_context(method)
    methods = multiprocessing.get_all_start_methods()
    return multiprocessing.get_context("fork" if "fork" in methods else None)


# Worker-process globals (set once per worker by the pool initializer).
_WORKER_PIPELINE: Optional["Pipeline"] = None
#: Metrics snapshot at the last worker→parent hand-off; deltas against
#: it are what each result ships home.
_WORKER_BASELINE: Optional[Dict[str, Any]] = None


def _init_worker(pipeline: "Pipeline") -> None:
    global _WORKER_PIPELINE, _WORKER_BASELINE
    _WORKER_PIPELINE = pipeline
    _WORKER_PIPELINE.jobs = 1  # no nested pools inside workers
    # Fork copies the parent's already-recorded history; it must not be
    # reported twice, so baseline the metrics and discard the spans.
    _WORKER_BASELINE = pipeline.metrics.snapshot()
    pipeline.tracer.drain()


def _evaluate_in_worker(request: EvalRequest):
    """Run one sweep point; returns (result, metric delta, spans)."""
    global _WORKER_BASELINE
    pipeline = _WORKER_PIPELINE
    result = pipeline.evaluate(
        request.kernel,
        config=request.config,
        policy=request.policy,
        warps_per_core=request.warps_per_core,
        selection_strategy=request.selection_strategy,
    )
    snapshot = pipeline.metrics.snapshot()
    delta = diff_snapshots(snapshot, _WORKER_BASELINE)
    _WORKER_BASELINE = snapshot
    spans = pipeline.tracer.drain() if pipeline.tracer.enabled else []
    return result, delta, spans


class Pipeline:
    """Cached, parallel execution of the GPUMech stage DAG."""

    def __init__(
        self,
        config: GPUConfig,
        scale: Optional[Scale] = None,
        store: Optional[ArtifactStore] = None,
        cache_dir: Optional[str] = None,
        jobs: int = 1,
        rr_mode: str = "probabilistic",
        lint: bool = False,
        tracer: Optional[Tracer] = None,
        metrics: Optional[MetricsRegistry] = None,
        timeline_interval: Optional[float] = None,
        ledger=None,
    ):
        if store is not None and cache_dir is not None:
            raise ValueError("pass either store or cache_dir, not both")
        self.config = config
        self.scale = scale if scale is not None else Scale.small()
        self.store = store if store is not None else open_store(cache_dir)
        self.jobs = max(1, int(jobs))
        self.rr_mode = rr_mode
        #: Opt-in static verification gating the trace stage: when set,
        #: every kernel is linted (cached + counted like any stage)
        #: before its first emulation, and lint errors abort the run
        #: before any artifact is built from the invalid kernel.
        self.lint = lint
        #: Span tracer; defaults to the process-wide one (disabled
        #: unless something installed an enabled tracer).
        self.tracer = tracer if tracer is not None else get_tracer()
        #: Home of every counter/timing this pipeline produces; pool
        #: workers ship deltas of it back with each result.
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        #: Oracle sampling period in cycles (None: no timeline).
        self.timeline_interval = timeline_interval
        #: Optional :class:`~repro.obs.ledger.PredictionLedger`: every
        #: evaluation appends one provenance + accuracy record.  The
        #: ledger holds only a path and run id, so it travels into pool
        #: workers, which append to the same file (one O_APPEND line
        #: per record — no coordination needed).
        self.ledger = ledger

    # -- plumbing -----------------------------------------------------------

    # ``counters``/``hits``/``timings`` are read-only *snapshots*: each
    # access builds a fresh Counter from the metrics registry, so
    # mutating the returned object affects nothing.  Worker activity
    # appears once ``evaluate_many`` has merged the workers' deltas.

    @property
    def counters(self) -> Counter:
        """Real stage executions (store misses), keyed by stage name
        (point-in-time snapshot)."""
        return self.metrics.labeled_values("pipeline.stage_executions",
                                           "stage")

    @property
    def hits(self) -> Counter:
        """Store hits, keyed by stage name (point-in-time snapshot)."""
        return self.metrics.labeled_values("pipeline.stage_hits", "stage")

    @property
    def timings(self) -> Dict[str, float]:
        """Cumulative compute seconds per stage, misses only
        (point-in-time snapshot)."""
        return defaultdict(
            float,
            self.metrics.labeled_values("pipeline.stage_seconds", "stage"),
        )

    def _scale_part(self) -> tuple:
        return (self.scale.n_blocks, self.scale.block_size, self.scale.iters)

    def _execute(self, stage: str, key: str, config: GPUConfig,
                 compute: Callable[[GPUConfig], Any]):
        """Store lookup, else compute + record + put.

        ``compute`` receives :func:`~repro.pipeline.stages.config_view`
        of ``config``: only the fields ``key`` covers, so a read of any
        other field raises before anything is stored.  ``config.arch``
        labels the execution in both the span args and the per-arch
        shadow counters — the observability face of the multi-backend
        refactor (cross-arch sweeps show up separated per backend).
        """
        artifact = self.store.get(key)
        if artifact is not None:
            self.metrics.counter("pipeline.stage_hits", stage=stage).inc()
            return artifact
        arch = config.arch
        span_args = {"key": key, "arch": arch}
        backend = None
        if stage in BACKEND_STAGES:
            backend = current_backend()
            span_args["trace.backend"] = backend
        with self.tracer.span(stage, category="stage", args=span_args):
            start = time.perf_counter()
            artifact = compute(config_view(stage, config))
            elapsed = time.perf_counter() - start
        metrics = self.metrics
        metrics.counter("pipeline.stage_executions", stage=stage).inc()
        metrics.counter("pipeline.stage_seconds", stage=stage).inc(elapsed)
        metrics.histogram("pipeline.stage_ms", stage=stage).observe(
            elapsed * 1e3
        )
        if backend is not None:
            # Per-backend shadow counters (separate names so the exact-
            # label stage views above stay backend-agnostic).
            metrics.counter(
                "pipeline.backend_executions", stage=stage, backend=backend
            ).inc()
            metrics.counter(
                "pipeline.backend_seconds", stage=stage, backend=backend
            ).inc(elapsed)
        # Per-architecture shadow counters, same pattern as above.
        metrics.counter(
            "pipeline.arch_executions", stage=stage, arch=arch
        ).inc()
        _LOG.debug("stage %s executed in %.1f ms (%s)",
                   stage, elapsed * 1e3, key)
        self.store.put(key, artifact)
        return artifact

    def _effective_config(
        self, config: Optional[GPUConfig], policy: Optional[str] = None
    ) -> GPUConfig:
        config = config if config is not None else self.config
        if policy is not None and policy != config.scheduler:
            config = config.with_(scheduler=policy)
        return config

    # -- stage accessors ----------------------------------------------------

    def trace_key(self, kernel_name: str, config: Optional[GPUConfig] = None):
        config = self._effective_config(config)
        return stage_key("trace", config, kernel_name, self._scale_part())

    def verify(self, kernel_name: str):
        """Statically verify a suite kernel (cached, counted, timed like
        any other stage); raises :class:`StaticCheckError` on errors."""
        key = stage_key("lint", self.config, kernel_name, self._scale_part())
        report = self._execute(
            "lint", key, self.config,
            lambda config: compute_lint(kernel_name, self.scale),
        )
        if report.has_errors:
            raise StaticCheckError(report)
        return report

    def analyze(self, kernel_name: str, config: Optional[GPUConfig] = None):
        """The (cached) static cost model of a suite kernel.

        Pure static analysis — no emulation: abstract interpretation
        over the kernel's CFG yields loop trip counts, memory-access
        coalescing classes, divergence regions, occupancy and CPI
        bounds (:class:`~repro.staticcheck.costmodel.KernelCostModel`).
        """
        config = self._effective_config(config)
        key = stage_key(
            "costmodel", config, kernel_name, self._scale_part()
        )
        return self._execute(
            "costmodel", key, config,
            lambda config: compute_costmodel(kernel_name, self.scale, config),
        )

    def crosscheck(
        self, kernel_name: str, config: Optional[GPUConfig] = None
    ):
        """Cross-validate a suite kernel's dynamic trace against its
        static cost model (the xcheck sanitizer stage).

        Returns the resulting :class:`~repro.staticcheck.LintReport`;
        every error counts into the ``xcheck.mismatches`` metric so
        sweeps surface collector drift without parsing reports.
        """
        config = self._effective_config(config)
        cost = self.analyze(kernel_name, config)
        trace, trace_key_ = self._trace(kernel_name, config)
        cost_key = stage_key(
            "costmodel", config, kernel_name, self._scale_part()
        )
        key = stage_key("xcheck", config, trace_key_, cost_key)

        def compute(config):
            report = compute_xcheck(
                kernel_name, self.scale, trace, cost, config
            )
            self.metrics.counter("xcheck.runs").inc()
            if report.errors:
                self.metrics.counter("xcheck.mismatches").inc(
                    len(report.errors)
                )
            return report

        return self._execute("xcheck", key, config, compute)

    def trace(self, kernel_name: str, config: Optional[GPUConfig] = None):
        """The (cached) functional trace of a suite kernel.

        With ``lint=True`` the kernel is statically verified first, so
        no trace artifact is ever built — or cached — from a kernel
        that fails verification.
        """
        return self._trace(kernel_name, self._effective_config(config))[0]

    def _trace(self, kernel_name: str, config: GPUConfig):
        if self.lint:
            self.verify(kernel_name)
        key = self.trace_key(kernel_name, config)
        trace = self._execute(
            "trace", key, config,
            lambda config: compute_trace(kernel_name, self.scale, config),
        )
        return trace, key

    def _cache_sim(self, trace, trace_key_, config, warps_per_core):
        key = stage_key("cache_sim", config, trace_key_, warps_per_core)

        def compute(config):
            result = compute_cache_sim(trace, config, warps_per_core)
            self._record_cache_metrics(result)
            return result

        return self._execute("cache_sim", key, config, compute), key

    def _record_cache_metrics(self, result) -> None:
        """Absorb one cache simulation's hit/miss statistics (miss only:
        cached replays contribute nothing new)."""
        from repro.obs.metrics import RATIO_BUCKETS

        metrics = self.metrics
        metrics.counter("cache_sim.runs").inc()
        metrics.histogram(
            "cache_sim.l1_miss_rate", buckets=RATIO_BUCKETS
        ).observe(result.l1_miss_rate)
        metrics.histogram(
            "cache_sim.l2_miss_rate", buckets=RATIO_BUCKETS
        ).observe(result.l2_miss_rate)

    def _latency_table(self, trace, cache_result, cache_key, config):
        key = stage_key("latency_table", config, cache_key)
        return (
            self._execute(
                "latency_table", key, config,
                lambda config: compute_latency_table(
                    trace, cache_result, config
                ),
            ),
            key,
        )

    def _profiles(self, trace, latency_table, latency_key, config):
        key = stage_key("interval_profiles", config, latency_key)
        return (
            self._execute(
                "interval_profiles", key, config,
                lambda config: compute_profiles(
                    trace.warps, latency_table, config
                ),
            ),
            key,
        )

    def _clustering(self, profiles, profiles_key, config, strategy):
        key = stage_key("clustering", config, profiles_key, strategy)
        return (
            self._execute(
                "clustering", key, config,
                lambda config: compute_clustering(profiles, strategy),
            ),
            key,
        )

    def _model_inputs(
        self, trace, trace_key_, config, selection_strategy, warps_per_core
    ):
        """Fig. 5 left side: cache sim → ... → clustering.

        Returns the inputs and the clustering key, which covers every
        config field any of them depends on.
        """
        from repro.core.model import ModelInputs  # circular at import time

        cache_result, cache_key = self._cache_sim(
            trace, trace_key_, config, warps_per_core
        )
        latency_table, latency_key = self._latency_table(
            trace, cache_result, cache_key, config
        )
        profiles, profiles_key = self._profiles(
            trace, latency_table, latency_key, config
        )
        selection, clustering_key = self._clustering(
            profiles, profiles_key, config, selection_strategy
        )
        inputs = ModelInputs(
            trace=trace,
            cache_result=cache_result,
            latency_table=latency_table,
            profiles=profiles,
            selection=selection,
        )
        return inputs, clustering_key

    # -- public products ----------------------------------------------------

    def model_inputs(
        self,
        kernel_name: str,
        config: Optional[GPUConfig] = None,
        selection_strategy: str = "clustering",
        warps_per_core: Optional[int] = None,
    ):
        """Fig. 5 left side for a suite kernel: trace → ... → clustering."""
        config = self._effective_config(config)
        trace, trace_key_ = self._trace(kernel_name, config)
        return self._model_inputs(
            trace, trace_key_, config, selection_strategy, warps_per_core
        )[0]

    def model_inputs_from_trace(
        self,
        trace,
        config: Optional[GPUConfig] = None,
        selection_strategy: str = "clustering",
        warps_per_core: Optional[int] = None,
        trace_key_: Optional[str] = None,
    ):
        """Fig. 5 left side for an externally supplied trace."""
        config = self._effective_config(config)
        if trace_key_ is None:
            trace_key_ = "trace:" + trace_digest(trace)
        return self._model_inputs(
            trace, trace_key_, config, selection_strategy, warps_per_core
        )[0]

    def simulate(
        self,
        kernel_name: str,
        config: Optional[GPUConfig] = None,
        warps_per_core: Optional[int] = None,
    ):
        """Run the cycle-level timing oracle (cached on the full config)."""
        config = self._effective_config(config)
        trace, trace_key_ = self._trace(kernel_name, config)
        interval = self.timeline_interval
        parts: tuple = (trace_key_, warps_per_core)
        if interval is not None:
            # Timeline-bearing artifacts are keyed apart so a cached
            # no-timeline run never satisfies a sampling request (and
            # existing caches stay valid).
            parts += (("timeline", interval),)
        key = stage_key("oracle", config, *parts)

        def compute(config):
            stats = compute_oracle(
                trace, config, warps_per_core, timeline_interval=interval
            )
            self._record_oracle_metrics(stats)
            return stats

        return self._execute("oracle", key, config, compute)

    def _record_oracle_metrics(self, stats) -> None:
        """Absorb one oracle run's counters (miss only, like any stage)."""
        metrics = self.metrics
        metrics.counter("oracle.runs").inc()
        metrics.counter("oracle.insts_issued").inc(stats.total_insts)
        metrics.counter("oracle.cycles").inc(stats.total_cycles)
        metrics.counter("oracle.dram_requests").inc(stats.dram_requests)
        metrics.counter("oracle.mshr_merges").inc(stats.mshr_merges)
        metrics.counter("oracle.mshr_allocations").inc(stats.mshr_allocations)
        for core in stats.cores:
            label = str(core.core_id)
            metrics.counter("oracle.core_insts", core=label).inc(
                core.insts_issued
            )
            metrics.counter("oracle.core_issue_cycles", core=label).inc(
                core.issue_cycles
            )
            metrics.counter("oracle.core_active_cycles", core=label).inc(
                core.active_cycles
            )
            metrics.counter("oracle.core_mshr_stall_cycles", core=label).inc(
                core.mshr_stall_cycles
            )
            metrics.counter("oracle.core_sfu_stall_cycles", core=label).inc(
                core.sfu_stall_cycles
            )
            metrics.counter(
                "oracle.core_barrier_stall_cycles", core=label
            ).inc(core.barrier_stall_cycles)
            metrics.counter("oracle.core_dep_stall_cycles", core=label).inc(
                core.dep_stall_cycles
            )

    def predict(
        self,
        kernel_name: str,
        config: Optional[GPUConfig] = None,
        policy: Optional[str] = None,
        warps_per_core: Optional[int] = None,
        n_warps: Optional[int] = None,
        selection_strategy: str = "clustering",
    ):
        """GPUMech prediction through the cached stage chain."""
        from repro.core.model import GPUMech, resident_warps_per_core

        config = self._effective_config(config, policy)
        trace, trace_key_ = self._trace(kernel_name, config)
        inputs, clustering_key = self._model_inputs(
            trace, trace_key_, config, selection_strategy, warps_per_core
        )
        if n_warps is None:
            n_warps = resident_warps_per_core(trace, config, warps_per_core)
        key = stage_key(
            "predict", config, clustering_key, n_warps, self.rr_mode
        )
        return self._execute(
            "predict", key, config,
            lambda config: GPUMech(config, rr_mode=self.rr_mode).predict(
                inputs, n_warps=n_warps
            ),
        )

    def evaluate(
        self,
        kernel_name: str,
        config: Optional[GPUConfig] = None,
        policy: Optional[str] = None,
        warps_per_core: Optional[int] = None,
        selection_strategy: str = "clustering",
    ):
        """Oracle + all Table II models on one kernel (one sweep point)."""
        config = self._effective_config(config, policy)
        with self.tracer.span(
            "evaluate",
            category="pipeline",
            args={"kernel": kernel_name, "policy": config.scheduler},
        ):
            return self._evaluate_traced(
                kernel_name, config, warps_per_core, selection_strategy
            )

    def _evaluate_traced(
        self, kernel_name, config, warps_per_core, selection_strategy
    ):
        from repro.baselines.markov import markov_chain_cpi
        from repro.baselines.naive import naive_interval_cpi
        from repro.core.model import resident_warps_per_core
        from repro.harness.runner import KernelResult  # circular at import

        started = time.perf_counter()
        timings_before = dict(self.timings) if self.ledger else {}
        oracle = self.simulate(kernel_name, config, warps_per_core)
        inputs = self.model_inputs(
            kernel_name,
            config,
            selection_strategy=selection_strategy,
            warps_per_core=warps_per_core,
        )
        n_warps = resident_warps_per_core(inputs.trace, config, warps_per_core)
        prediction = self.predict(
            kernel_name,
            config,
            warps_per_core=warps_per_core,
            n_warps=n_warps,
            selection_strategy=selection_strategy,
        )
        representative = inputs.representative
        mt_cpi = prediction.cpi_multithreading
        model_cpis = {
            "naive": naive_interval_cpi(representative, n_warps),
            "markov": markov_chain_cpi(representative, n_warps),
            "mt": mt_cpi,
            "mt_mshr": mt_cpi + prediction.cpi_mshr,
            "mt_mshr_band": prediction.cpi,
        }
        result = KernelResult(
            kernel=kernel_name,
            policy=config.scheduler,
            n_warps=n_warps,
            oracle_cpi=oracle.cpi,
            model_cpis=model_cpis,
            oracle=oracle,
            prediction=prediction,
        )
        if self.ledger is not None:
            self._ledger_append(result, config, inputs, timings_before,
                                started)
        return result

    def _ledger_append(self, result, config, inputs, timings_before,
                       started) -> None:
        """Append one provenance + accuracy record for an evaluation.

        Stage seconds are the *delta* this evaluation added to the
        registry (cache hits contribute zero, exactly like the stage
        counters), so the record carries where this prediction's time
        actually went.
        """
        from repro.obs.ledger import build_record

        timings_after = self.timings
        stage_seconds = {
            stage: timings_after[stage] - timings_before.get(stage, 0.0)
            for stage in timings_after
        }
        record = build_record(
            result,
            config,
            self.scale,
            backend=current_backend(),
            cache_result=inputs.cache_result,
            stage_seconds=stage_seconds,
            duration_s=time.perf_counter() - started,
        )
        self.ledger.append(record)
        self.metrics.counter("ledger.records").inc()

    # -- parallel sweep execution -------------------------------------------

    def evaluate_many(
        self,
        requests: Sequence[Union[EvalRequest, dict]],
        jobs: Optional[int] = None,
    ) -> List:
        """Evaluate many (kernel × configuration) points, possibly in
        parallel.

        Results come back in request order and are bitwise-identical to
        serial execution.  With ``jobs > 1`` the shared traces are warmed
        in the parent first (they are sweep-invariant), then points fan
        out over a process pool; artifacts computed inside workers reach
        the parent only through a shared on-disk store, so pass
        ``cache_dir`` when cross-run reuse matters.

        Workers return their metric deltas and spans alongside each
        result; both are merged here, so the parent's stage counters,
        timings and trace reflect the whole sweep — identical to a
        serial run whenever requests do not share intermediate
        artifacts (shared ones may execute once per worker, never
        fewer times than serially).
        """
        requests = [
            r if isinstance(r, EvalRequest) else EvalRequest(**r)
            for r in requests
        ]
        jobs = self.jobs if jobs is None else max(1, int(jobs))
        if jobs <= 1 or len(requests) <= 1:
            return [_evaluate_with(self, r) for r in requests]
        with self.tracer.span(
            "evaluate_many",
            category="pipeline",
            args={"points": len(requests), "jobs": jobs},
        ):
            for request in requests:  # warm shared traces (store-deduped)
                self.trace(
                    request.kernel,
                    self._effective_config(request.config, request.policy),
                )
            context = _mp_context()
            _LOG.info(
                "fanning %d sweep points out over %d workers (%s)",
                len(requests), jobs, context.get_start_method(),
            )
            with ProcessPoolExecutor(
                max_workers=jobs,
                mp_context=context,
                initializer=_init_worker,
                initargs=(self,),
            ) as pool:
                outcomes = list(pool.map(_evaluate_in_worker, requests))
        results = []
        for result, delta, spans in outcomes:
            self.metrics.merge(delta)
            if spans:
                self.tracer.merge(spans)
            results.append(result)
        return results


def _evaluate_with(pipeline: Pipeline, request: EvalRequest):
    return pipeline.evaluate(
        request.kernel,
        config=request.config,
        policy=request.policy,
        warps_per_core=request.warps_per_core,
        selection_strategy=request.selection_strategy,
    )
