"""Observability through the pipeline: stage spans, merged worker
metrics (serial == parallel), and oracle timeline sampling."""

import os

import pytest

from repro.config import GPUConfig
from repro.harness.reporting import render_stage_table
from repro.obs import MetricsRegistry, Tracer
from repro.pipeline import EvalRequest, Pipeline
from repro.workloads import Scale

#: Disjoint-kernel sweep: no two points share an intermediate artifact,
#: so parallel execution computes exactly what serial does (shared
#: artifacts may legitimately execute once per worker).
SWEEP = ("vectoradd", "strided_deg8", "transpose_naive")


@pytest.fixture
def config():
    return GPUConfig.small(n_cores=2, warps_per_core=8)


def _requests():
    return [EvalRequest(kernel=k, warps_per_core=4) for k in SWEEP]


def _stage_runs(metrics):
    """Stage execution counts — the schedule-independent invariant.

    Hit counts are *not* comparable across schedules: the parallel path
    warms shared traces in the parent, so a worker's first trace lookup
    is a store hit where the serial run's was the execution itself.
    """
    return dict(metrics.labeled_values("pipeline.stage_executions", "stage"))


class TestStageMetrics:
    def test_counters_hits_timings_are_registry_views(self, config):
        pipeline = Pipeline(config, scale=Scale.tiny())
        pipeline.evaluate("vectoradd", warps_per_core=4)
        assert pipeline.counters == dict(
            pipeline.metrics.labeled_values(
                "pipeline.stage_executions", "stage"
            )
        )
        assert pipeline.counters["trace"] == 1
        assert pipeline.timings["oracle"] > 0.0
        # Second evaluation is served from the store.
        pipeline.evaluate("vectoradd", warps_per_core=4)
        assert pipeline.hits["trace"] >= 1
        assert pipeline.counters["trace"] == 1

    def test_cache_and_oracle_metrics_recorded(self, config):
        pipeline = Pipeline(config, scale=Scale.tiny())
        pipeline.evaluate("vectoradd", warps_per_core=4)
        metrics = pipeline.metrics
        assert metrics.counter_value("cache_sim.runs") == 1
        assert metrics.counter_value("oracle.runs") == 1
        assert metrics.counter_value("oracle.insts_issued") > 0
        per_core = metrics.labeled_values("oracle.core_insts", "core")
        assert sum(per_core.values()) == (
            metrics.counter_value("oracle.insts_issued")
        )
        histogram = metrics.histogram("cache_sim.l1_miss_rate")
        assert histogram.count == 1

    def test_stage_table_renders(self, config):
        pipeline = Pipeline(config, scale=Scale.tiny())
        assert render_stage_table(pipeline.metrics) is None  # nothing ran
        pipeline.evaluate("vectoradd", warps_per_core=4)
        table = render_stage_table(pipeline.metrics)
        assert "trace" in table and "oracle" in table
        assert "p95 ms" in table

    def test_backend_recorded_on_hot_path_stages(self, config, monkeypatch):
        from repro.backend import BACKEND_STAGES

        pipeline = Pipeline(config, scale=Scale.tiny())
        pipeline.evaluate("vectoradd", warps_per_core=4)
        metrics = pipeline.metrics
        for stage in BACKEND_STAGES:
            assert metrics.counter_value(
                "pipeline.backend_executions",
                stage=stage, backend="vectorized",
            ) == 1
            assert metrics.counter_value(
                "pipeline.backend_seconds",
                stage=stage, backend="vectorized",
            ) > 0.0
        # Non-switched stages carry no backend counter.
        assert metrics.counter_value(
            "pipeline.backend_executions",
            stage="oracle", backend="vectorized",
        ) == 0
        assert "vectorized" in render_stage_table(metrics)
        # A scalar re-run of the same stages renders as mixed.
        monkeypatch.setenv("REPRO_SCALAR", "1")
        pipeline.evaluate("strided_deg8", warps_per_core=4)
        assert "mixed" in render_stage_table(pipeline.metrics)

    def test_backend_span_arg(self, config, monkeypatch):
        monkeypatch.setenv("REPRO_SCALAR", "1")
        tracer = Tracer()
        pipeline = Pipeline(config, scale=Scale.tiny(), tracer=tracer)
        pipeline.evaluate("vectoradd", warps_per_core=4)
        by_name = {
            s["name"]: s for s in tracer.spans() if s["cat"] == "stage"
        }
        assert by_name["trace"]["args"]["trace.backend"] == "scalar"
        assert by_name["cache_sim"]["args"]["trace.backend"] == "scalar"
        assert "trace.backend" not in by_name["oracle"]["args"]


class TestStageSpans:
    def test_stage_spans_recorded_when_enabled(self, config):
        tracer = Tracer()
        pipeline = Pipeline(config, scale=Scale.tiny(), tracer=tracer)
        pipeline.evaluate("vectoradd", warps_per_core=4)
        spans = tracer.spans()
        names = {s["name"] for s in spans if s["cat"] == "stage"}
        assert {"trace", "cache_sim", "oracle", "predict"} <= names
        evaluate = [s for s in spans if s["name"] == "evaluate"]
        assert evaluate and evaluate[0]["args"]["kernel"] == "vectoradd"
        # Stage spans nest under the evaluate span.
        stage = next(s for s in spans if s["name"] == "oracle")
        assert stage["parent"] == evaluate[0]["id"]

    def test_disabled_tracer_records_nothing(self, config):
        tracer = Tracer(enabled=False)
        pipeline = Pipeline(config, scale=Scale.tiny(), tracer=tracer)
        pipeline.evaluate("vectoradd", warps_per_core=4)
        assert tracer.n_spans == 0

    def test_cache_hits_do_not_emit_stage_spans(self, config):
        tracer = Tracer()
        pipeline = Pipeline(config, scale=Scale.tiny(), tracer=tracer)
        pipeline.evaluate("vectoradd", warps_per_core=4)
        before = sum(1 for s in tracer.spans() if s["cat"] == "stage")
        pipeline.evaluate("vectoradd", warps_per_core=4)
        after = sum(1 for s in tracer.spans() if s["cat"] == "stage")
        assert after == before


class TestParallelMerge:
    def _run(self, config, jobs):
        pipeline = Pipeline(config, scale=Scale.tiny(), jobs=jobs,
                            metrics=MetricsRegistry())
        results = pipeline.evaluate_many(_requests())
        return results, pipeline.metrics

    def test_parallel_counters_match_serial(self, config):
        serial_results, serial_metrics = self._run(config, jobs=1)
        parallel_results, parallel_metrics = self._run(config, jobs=2)
        assert [r.oracle_cpi for r in parallel_results] == [
            r.oracle_cpi for r in serial_results
        ]
        assert _stage_runs(parallel_metrics) == _stage_runs(serial_metrics)
        # The satellite regression: stage activity that happened inside
        # pool workers must not be lost.
        runs = _stage_runs(parallel_metrics)
        assert runs["oracle"] == len(SWEEP)
        assert runs["trace"] == len(SWEEP)
        # Worker wall-clock reaches the parent's timing view too.
        timings = dict(
            parallel_metrics.labeled_values("pipeline.stage_seconds", "stage")
        )
        assert timings["oracle"] > 0.0

    def test_parallel_counters_match_serial_under_spawn(
        self, config, monkeypatch
    ):
        monkeypatch.setenv("REPRO_START_METHOD", "spawn")
        _, parallel_metrics = self._run(config, jobs=2)
        monkeypatch.delenv("REPRO_START_METHOD")
        _, serial_metrics = self._run(config, jobs=1)
        assert _stage_runs(parallel_metrics) == _stage_runs(serial_metrics)

    def test_worker_spans_merged_with_child_pids(self, config):
        tracer = Tracer()
        pipeline = Pipeline(config, scale=Scale.tiny(), jobs=2, tracer=tracer)
        pipeline.evaluate_many(_requests())
        spans = tracer.spans()
        worker_pids = {s["pid"] for s in spans} - {os.getpid()}
        assert worker_pids  # spans shipped home from pool workers
        worker_stages = {s["name"] for s in spans
                         if s["pid"] != os.getpid() and s["cat"] == "stage"}
        assert "oracle" in worker_stages

    def test_parallel_histograms_merge(self, config):
        _, serial_metrics = self._run(config, jobs=1)
        _, parallel_metrics = self._run(config, jobs=2)
        name = "pipeline.stage_ms"
        serial = serial_metrics.histogram(name, stage="oracle")
        parallel = parallel_metrics.histogram(name, stage="oracle")
        assert parallel.count == serial.count == len(SWEEP)


class TestTimelineThroughPipeline:
    def test_oracle_timeline_populated(self, config):
        pipeline = Pipeline(config, scale=Scale.tiny(),
                            timeline_interval=32.0)
        stats = pipeline.simulate("vectoradd", warps_per_core=4)
        assert stats.timeline is not None
        assert stats.timeline.n_samples > 0

    def test_timeline_key_does_not_collide_with_plain_oracle(self, config):
        plain = Pipeline(config, scale=Scale.tiny())
        plain_stats = plain.simulate("vectoradd", warps_per_core=4)
        assert plain_stats.timeline is None
        sampled = Pipeline(config, scale=Scale.tiny(), store=plain.store,
                           timeline_interval=32.0)
        stats = sampled.simulate("vectoradd", warps_per_core=4)
        # The cached plain-oracle artifact must not satisfy the sampled
        # request (its key differs), so the timeline is present.
        assert stats.timeline is not None
        assert stats.total_cycles == plain_stats.total_cycles

    def test_timeline_survives_parallel_workers(self, config):
        pipeline = Pipeline(config, scale=Scale.tiny(), jobs=2,
                            timeline_interval=32.0)
        results = pipeline.evaluate_many(_requests())
        for result in results:
            assert result.oracle.timeline is not None
            assert result.oracle.timeline.n_samples > 0
