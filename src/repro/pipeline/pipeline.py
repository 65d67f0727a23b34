"""The staged artifact pipeline: cached stage execution + parallel sweeps.

:class:`Pipeline` reifies the Fig. 5 dataflow declared in
``repro.pipeline.stages``.  Every stage execution is

1. *keyed* — a content-addressed key from the kernel identity, the
   workload scale, the fingerprint of exactly the config fields the
   stage reads, and the keys of its upstream artifacts — and computed
   on a view of the config holding only the fields that key covers, so
   an undeclared read raises instead of caching a result that could go
   stale (keys are memoized per process on the exact bytes of their
   inputs, see :func:`~repro.pipeline.stages.stage_key`);
2. *memoised* — looked up in an :class:`~repro.pipeline.store.ArtifactStore`
   (in-memory by default; memory-fronted disk with ``cache_dir``), so a
   hardware sweep automatically re-runs only the stages downstream of
   the fields it changes (``predict`` alone for MSHR, bandwidth or
   scheduler points) and a repeated sweep re-runs nothing at all.  A
   call computes all its keys top-down first (the trace key names the
   kernel, so no key reads an artifact), looks up only the stages it
   needs (``clustering``, ``predict`` for a prediction, ``oracle`` for
   a simulation), and reads or builds an upstream artifact, the trace
   included, only when a miss below it needs that artifact
   (:class:`_InputChain`).  The ``clustering`` artifact carries all a
   prediction reads from upstream, so a new design point reads just
   ``clustering``, and a warm ``evaluate`` just the oracle, clustering
   and prediction;
3. *counted and timed* — every execution, timed exclusive of the
   upstream stages its inputs needed, lands in the pipeline's
   :class:`~repro.obs.metrics.MetricsRegistry` (stage execution/hit
   counters, wall-clock totals and latency histograms, cache-sim and
   oracle statistics); ``pipeline.counters[stage]`` /
   ``pipeline.timings[stage]`` / ``pipeline.hits[stage]`` are live views
   over that registry, which is what the speedup harness and the
   invalidation tests read;
4. *traced* — when the pipeline's :class:`~repro.obs.tracer.Tracer` is
   enabled, each real execution is a span in the exported timeline
   (disabled tracing allocates nothing).

Static analysis is not a stage: ``repro lint``, ``repro analyze`` and
``characterize`` call :mod:`repro.staticcheck` directly, and none of its
results is ever stored.

Independent (kernel × sweep-point) evaluations fan out over a
``ProcessPoolExecutor`` via :meth:`Pipeline.evaluate_many`; a single
evaluation runs in one process (the interval-profile stage is one
pass over all warps that runs Eq. 4 once per warp class).  Parallel
execution is bitwise-deterministic: workers run the identical pure
stage functions and results are collected in request order.  Each worker ships its
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
from repro.core.cpi_stack import single_warp_stack
from repro.core.interval import build_interval_profiles
from repro.core.latency import build_latency_table
from repro.core.representative import select_representative
from repro.memory.cache_simulator import simulate_caches
from repro.obs.metrics import CounterMetric, MetricsRegistry, diff_snapshots
from repro.obs.tracer import Tracer, get_tracer
from repro.pipeline.stages import (
    STAGES,
    compute_oracle,
    compute_trace,
    config_view,
    stage_key,
    trace_digest,
)
from repro.pipeline.store import ArtifactStore, open_store
from repro.workloads.generators import Scale

_LOG = logging.getLogger(__name__)


@dataclass(frozen=True)
class EvalRequest:
    """One (kernel × configuration) point of a sweep."""

    kernel: str
    config: Optional[GPUConfig] = None
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
    result = _evaluate_with(pipeline, request)
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
        #: Span tracer; defaults to the process-wide one (disabled
        #: unless something installed an enabled tracer).
        self.tracer = tracer if tracer is not None else get_tracer()
        self._metrics = metrics if metrics is not None else MetricsRegistry()
        #: Metrics of ``self.metrics`` that ``_execute`` updates, each
        #: looked up once: hit counters by stage, execution metrics by
        #: (stage, backend).  Binding on first use keeps snapshots
        #: listing only metrics that moved.
        self._hit_counters: Dict[str, CounterMetric] = {}
        self._bound_runs: Dict[tuple, tuple] = {}
        #: Oracle sampling period in cycles (None: no timeline).
        self.timeline_interval = timeline_interval
        #: Optional :class:`~repro.obs.ledger.PredictionLedger`: every
        #: evaluation appends one provenance + accuracy record.  The
        #: ledger holds only a path and run id, so it travels into pool
        #: workers, which append to the same file (one O_APPEND line
        #: per record — no coordination needed).
        self.ledger = ledger

    # -- plumbing -----------------------------------------------------------

    @property
    def metrics(self) -> MetricsRegistry:
        """Home of every counter/timing this pipeline produces; pool
        workers ship deltas of it back with each result.  Read-only:
        ``_execute`` holds metrics bound from this registry."""
        return self._metrics

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
                 compute: Callable[..., Any],
                 load: Optional[Callable[[], Sequence[Any]]] = None):
        """Store lookup, else load + compute + record + put.

        ``compute`` receives :func:`~repro.pipeline.stages.config_view`
        of ``config`` (only the fields ``key`` covers, so a read of any
        other field raises before anything is stored), then the upstream
        artifacts ``load()`` returns.  ``load`` runs on a miss only, and
        before the stage's span and timer start: an upstream stage it
        reads or builds is never timed inside this one, so stage seconds
        stay exclusive.  ``config.arch`` labels the execution's span, so
        cross-arch sweeps show up separated per machine.
        """
        artifact = self.store.get(key)
        if artifact is not None:
            hits = self._hit_counters.get(stage)
            if hits is None:
                hits = self._hit_counters[stage] = self.metrics.counter(
                    "pipeline.stage_hits", stage=stage
                )
            hits.inc()
            return artifact
        upstream = load() if load is not None else ()
        span_args = {"key": key, "arch": config.arch}
        backend = None
        if stage in BACKEND_STAGES:
            backend = current_backend()
            span_args["trace.backend"] = backend
        with self.tracer.span(stage, category="stage", args=span_args):
            start = time.perf_counter()
            artifact = compute(config_view(stage, config), *upstream)
            elapsed = time.perf_counter() - start
        counters, stage_ms = self._run_metrics(stage, backend)
        for executions, seconds in counters:
            executions.inc()
            seconds.inc(elapsed)
        stage_ms.observe(elapsed * 1e3)
        _LOG.debug("stage %s executed in %.1f ms (%s)",
                   stage, elapsed * 1e3, key)
        self.store.put(key, artifact)
        return artifact

    def _run_metrics(self, stage: str, backend: Optional[str]):
        """``stage``'s execution metrics under ``backend``: (executions,
        seconds) counter pairs and the ``stage_ms`` histogram, looked up
        in the registry on the first execution only."""
        bound = self._bound_runs.get((stage, backend))
        if bound is None:
            metrics = self.metrics
            counters = [(
                metrics.counter("pipeline.stage_executions", stage=stage),
                metrics.counter("pipeline.stage_seconds", stage=stage),
            )]
            if backend is not None:
                # Per-backend shadow counters (separate names so the
                # exact-label stage views stay backend-agnostic).
                counters.append((
                    metrics.counter("pipeline.backend_executions",
                                    stage=stage, backend=backend),
                    metrics.counter("pipeline.backend_seconds",
                                    stage=stage, backend=backend),
                ))
            bound = self._bound_runs[stage, backend] = (
                counters, metrics.histogram("pipeline.stage_ms", stage=stage)
            )
        return bound

    def _effective_config(self, config: Optional[GPUConfig]) -> GPUConfig:
        return config if config is not None else self.config

    # -- stage accessors ----------------------------------------------------

    def trace_key(self, kernel_name: str, config: Optional[GPUConfig] = None):
        config = self._effective_config(config)
        return stage_key("trace", config, kernel_name, self._scale_part())

    def trace(self, kernel_name: str, config: Optional[GPUConfig] = None):
        """The (cached) functional trace of a suite kernel."""
        config = self._effective_config(config)
        return self._execute(
            "trace", self.trace_key(kernel_name, config), config,
            lambda config: compute_trace(kernel_name, self.scale, config),
        )

    def _chain(self, kernel_name: str, config: GPUConfig,
               selection_strategy: str = "clustering") -> "_InputChain":
        """The input walk of a suite kernel; it builds the trace on a
        miss that needs it."""
        return _InputChain(
            self, config, self.trace_key(kernel_name, config),
            selection_strategy, kernel_name=kernel_name,
        )

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

    # -- public products ----------------------------------------------------

    def model_inputs(
        self,
        kernel_name: str,
        config: Optional[GPUConfig] = None,
        selection_strategy: str = "clustering",
    ):
        """Fig. 5 left side for a suite kernel: trace → ... → clustering."""
        config = self._effective_config(config)
        return self._chain(kernel_name, config, selection_strategy).inputs()

    def model_inputs_from_trace(
        self,
        trace,
        config: Optional[GPUConfig] = None,
        selection_strategy: str = "clustering",
        trace_key_: Optional[str] = None,
    ):
        """Fig. 5 left side for an externally supplied trace."""
        config = self._effective_config(config)
        if trace_key_ is None:
            trace_key_ = "trace:" + trace_digest(trace)
        return _InputChain(
            self, config, trace_key_, selection_strategy, trace=trace,
        ).inputs()

    def simulate(self, kernel_name: str,
                 config: Optional[GPUConfig] = None):
        """Run the cycle-level timing oracle (cached on the full config)."""
        config = self._effective_config(config)
        return self._simulate(self._chain(kernel_name, config))

    def _simulate(self, chain: "_InputChain"):
        """The oracle of ``chain``'s kernel; it reads the trace on a miss
        only."""
        config = chain.config
        interval = self.timeline_interval
        parts: tuple = (chain.keys["trace"],)
        if interval is not None:
            # Timeline-bearing artifacts are keyed apart so a cached
            # no-timeline run never satisfies a sampling request (and
            # existing caches stay valid).
            parts += (("timeline", interval),)
        key = stage_key("oracle", config, *parts)

        def compute(config, trace):
            stats = compute_oracle(trace, config, timeline_interval=interval)
            self._record_oracle_metrics(stats)
            return stats

        return self._execute(
            "oracle", key, config, compute, lambda: (chain["trace"],)
        )

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
        selection_strategy: str = "clustering",
    ):
        """GPUMech prediction through the cached stage chain."""
        config = self._effective_config(config)
        return self._predict(
            self._chain(kernel_name, config, selection_strategy)
        )[2]

    def _predict(self, chain: "_InputChain"):
        """Fig. 5 down one input walk: ``(inputs, n_warps, prediction)``.

        The resident warps and the prediction come from the selection
        alone, so a new design point reads only ``clustering``.
        """
        from repro.core.model import GPUMech, resident_warps_per_core

        inputs, config = chain.inputs(), chain.config
        n_warps = resident_warps_per_core(inputs.selection, config)
        key = stage_key("predict", config, chain.keys["clustering"], n_warps)
        prediction = self._execute(
            "predict", key, config,
            lambda config: GPUMech(config).predict(inputs, n_warps=n_warps),
        )
        return inputs, n_warps, prediction

    def evaluate(
        self,
        kernel_name: str,
        config: Optional[GPUConfig] = None,
        selection_strategy: str = "clustering",
    ):
        """Oracle + all Table II models on one kernel (one sweep point)."""
        config = self._effective_config(config)
        with self.tracer.span(
            "evaluate",
            category="pipeline",
            args={"kernel": kernel_name, "policy": config.scheduler},
        ):
            return self._evaluate_traced(
                kernel_name, config, selection_strategy
            )

    def _evaluate_traced(self, kernel_name, config, selection_strategy):
        from repro.baselines.markov import markov_chain_cpi
        from repro.baselines.naive import naive_interval_cpi
        from repro.harness.runner import KernelResult  # circular at import

        started = time.perf_counter()
        timings_before = dict(self.timings) if self.ledger else {}
        chain = self._chain(kernel_name, config, selection_strategy)
        oracle = self._simulate(chain)
        inputs, n_warps, prediction = self._predict(chain)
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
                self.trace(request.kernel, request.config)
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
        selection_strategy=request.selection_strategy,
    )


class _InputChain:
    """One walk down the model-input chain of a kernel under a config.

    The five keys are computed top-down up front: a key needs only the
    keys above it, never an artifact (a suite kernel's trace key names
    the kernel and the scale; a supplied trace's is its digest).
    ``chain[stage]`` then reads the stage's artifact from the store, at
    most once per walk; on a miss the pipeline first materializes the
    upstream artifacts its compute takes (the stage's declared
    ``inputs``), each by the same rule, then executes it.  So a walk
    reads an upstream artifact, the trace included, only when a miss
    below it needs that artifact.  A walk over a supplied trace holds it
    from the start; one over a suite kernel builds it on a trace miss.
    """

    def __init__(self, pipeline, config, trace_key, strategy,
                 kernel_name=None, trace=None):
        self.pipeline = pipeline
        self.config = config
        self.strategy = strategy
        self.kernel_name = kernel_name
        self.artifacts: Dict[str, Any] = (
            {} if trace is None else {"trace": trace}
        )
        cache_key = stage_key("cache_sim", config, trace_key)
        latency_key = stage_key("latency_table", config, cache_key)
        profiles_key = stage_key("interval_profiles", config, latency_key)
        # The profiles key hashes the latency key, which hashes the trace
        # key, so the clustering key covers all the selection copies.
        self.keys = {
            "trace": trace_key,
            "cache_sim": cache_key,
            "latency_table": latency_key,
            "interval_profiles": profiles_key,
            "clustering": stage_key(
                "clustering", config, profiles_key, strategy
            ),
        }

    def __getitem__(self, stage: str):
        artifact = self.artifacts.get(stage)
        if artifact is None:
            artifact = self.artifacts[stage] = self.pipeline._execute(
                stage, self.keys[stage], self.config,
                getattr(self, "_" + stage),
                lambda: [self[name] for name in STAGES[stage].inputs],
            )
        return artifact

    def inputs(self):
        """The model inputs: the selection, the rest loaded on access."""
        from repro.core.model import ModelInputs  # circular at import time

        return ModelInputs(self["clustering"], self.__getitem__)

    def _trace(self, config):
        return compute_trace(self.kernel_name, self.pipeline.scale, config)

    def _cache_sim(self, config, trace):
        result = simulate_caches(trace, config)
        self.pipeline._record_cache_metrics(result)
        return result

    def _latency_table(self, config, trace, cache_result):
        return build_latency_table(trace, cache_result, config)

    def _interval_profiles(self, config, trace, latency_table):
        return build_interval_profiles(trace, latency_table)

    def _clustering(self, config, trace, profiles, latency_table):
        selection = select_representative(profiles, self.strategy)
        selection.single_warp_stack = single_warp_stack(
            selection.profile, latency_table
        )
        # The rest of what a prediction reads, so it reads nothing else.
        selection.kernel_name = trace.kernel_name
        selection.n_blocks = trace.n_blocks
        selection.warps_per_block = trace.warps_per_block
        selection.avg_miss_latency = latency_table.avg_miss_latency
        return selection
