"""Tests for the staged artifact pipeline (fingerprints, invalidation,
parallel equivalence, on-disk reuse)."""

import copy
import hashlib
import math
import pickle
from collections import Counter
from types import SimpleNamespace

import numpy as np
import pytest

from repro.config import ALL_FIELDS, HARDWARE_FIELDS, TRACE_FIELDS, GPUConfig
from repro.core.interval import Interval, IntervalProfiles
from repro.core.model import GPUMech, ModelInputs, resident_warps_per_core
from repro.harness import experiments as ex
from repro.harness.runner import KernelResult, nanmean
from repro.memory.hierarchy import MissEvent
from repro.obs.tracer import Tracer
from repro.pipeline import (
    DiskStore,
    EvalRequest,
    MemoryStore,
    Pipeline,
    STAGES,
    TieredStore,
    open_store,
)
from repro.pipeline.stages import stage_key, trace_digest
from repro.trace.trace_types import NO_DEP, KernelTrace
from repro.workloads import Scale


@pytest.fixture
def config():
    return GPUConfig.small(n_cores=2, warps_per_core=8)


@pytest.fixture
def pipeline(config):
    return Pipeline(config, scale=Scale.tiny())


class RecordingStore(MemoryStore):
    """A memory store that records the stage of every key read."""

    def __init__(self):
        super().__init__()
        self.reads = []

    def get(self, key):
        self.reads.append(key.partition(":")[0])
        return super().get(key)


class TestFingerprint:
    def test_field_split_covers_config(self):
        assert TRACE_FIELDS | HARDWARE_FIELDS == ALL_FIELDS
        assert not TRACE_FIELDS & HARDWARE_FIELDS

    def test_stable_across_with_round_trip(self, config):
        round_trip = config.with_(n_mshrs=64).with_(n_mshrs=config.n_mshrs)
        assert round_trip.fingerprint() == config.fingerprint()
        assert round_trip == config

    def test_changes_when_a_field_changes(self, config):
        assert config.with_(n_mshrs=64).fingerprint() != config.fingerprint()

    def test_subset_fingerprint_ignores_other_fields(self, config):
        hw_override = config.with_(n_mshrs=64, dram_bandwidth_gbps=96.0)
        assert hw_override.trace_fingerprint() == config.trace_fingerprint()
        assert hw_override.hardware_fingerprint() != config.hardware_fingerprint()

    def test_op_latency_dict_order_is_canonicalised(self, config):
        reordered = config.with_(
            op_latencies={"sfu": 40, "falu": 25, "ialu": 4}
        )
        assert reordered.fingerprint() == config.fingerprint()

    def test_two_instances_agree(self, config):
        assert GPUConfig.small(n_cores=2, warps_per_core=8).fingerprint() == (
            config.fingerprint()
        )


class TestStageDag:
    def test_stage_config_fields_are_real_fields(self):
        for spec in STAGES.values():
            assert spec.config_fields <= ALL_FIELDS, spec.name

    def test_stage_inputs_are_stages(self):
        for spec in STAGES.values():
            for upstream in spec.inputs:
                assert upstream in STAGES

    def test_stages_are_fig5_and_the_oracle(self):
        assert list(STAGES) == [
            "trace", "cache_sim", "latency_table", "interval_profiles",
            "clustering", "predict", "oracle",
        ]

    def test_stages_are_in_topological_order(self):
        # key_coverage folds each input's coverage in declaration order.
        order = list(STAGES)
        for name, spec in STAGES.items():
            for upstream in spec.inputs:
                assert order.index(upstream) < order.index(name), name

    def test_pipeline_imports_no_static_analysis(self):
        # Static results never enter the artifact store because the
        # pipeline cannot reach the code that makes them.
        import ast
        import pathlib

        import repro.pipeline

        for path in pathlib.Path(repro.pipeline.__file__).parent.glob("*.py"):
            for node in ast.walk(ast.parse(path.read_text())):
                if isinstance(node, ast.ImportFrom):
                    modules = [node.module or ""]
                elif isinstance(node, ast.Import):
                    modules = [alias.name for alias in node.names]
                else:
                    continue
                for module in modules:
                    assert not module.startswith("repro.staticcheck"), (
                        path.name, module
                    )


class TestInvalidation:
    def test_hardware_override_does_not_re_emulate(self, pipeline):
        pipeline.evaluate("vectoradd")
        assert pipeline.counters["trace"] == 1
        # MSHR count touches neither the trace nor the functional cache
        # replay: only the oracle and the analytical model re-run.
        pipeline.evaluate(
            "vectoradd", config=pipeline.config.with_(n_mshrs=64)
        )
        assert pipeline.counters["trace"] == 1
        assert pipeline.counters["cache_sim"] == 1
        assert pipeline.counters["interval_profiles"] == 1
        assert pipeline.counters["oracle"] == 2
        assert pipeline.counters["predict"] == 2

    def test_warm_evaluate_hits_each_stage_once(self, pipeline):
        """A warm evaluation reads each artifact it uses once, and no
        other: the oracle, the prediction, and the selection, which
        carries the launch geometry and the representative the
        baselines take.  It never reads the trace."""
        pipeline.evaluate("vectoradd")
        executions, hits = pipeline.counters, pipeline.hits
        pipeline.evaluate("vectoradd")
        assert pipeline.counters == executions
        assert pipeline.hits - hits == Counter(
            dict.fromkeys(("oracle", "clustering", "predict"), 1)
        )

    def test_warm_evaluate_from_disk_reads_only_what_it_uses(
        self, config, tmp_path, monkeypatch
    ):
        """A fresh process on a filled disk store unpickles the oracle,
        the prediction and the selection, once each; never the trace,
        the cache result, the latency table or the profiles."""
        cache_dir = str(tmp_path)
        Pipeline(config, scale=Scale.tiny(), cache_dir=cache_dir).evaluate(
            "vectoradd"
        )
        reads = []
        get = DiskStore.get

        def counted(store, key):
            reads.append(key.partition(":")[0])
            return get(store, key)

        monkeypatch.setattr(DiskStore, "get", counted)
        warm = Pipeline(config, scale=Scale.tiny(), cache_dir=cache_dir)
        warm.evaluate("vectoradd")
        assert sorted(reads) == ["clustering", "oracle", "predict"]
        assert not warm.counters

    def test_warm_predict_reads_clustering_and_predict(self, config):
        """A repeated design point reads the selection, for its resident
        warps, and its prediction: never the trace."""
        store = RecordingStore()
        pipeline = Pipeline(config, scale=Scale.tiny(), store=store)
        want = pickle.dumps(pipeline.predict("vectoradd"))
        store.reads.clear()
        assert pickle.dumps(pipeline.predict("vectoradd")) == want
        assert sorted(store.reads) == ["clustering", "predict"]

    def test_warm_simulate_reads_the_oracle_alone(self, config):
        store = RecordingStore()
        pipeline = Pipeline(config, scale=Scale.tiny(), store=store)
        want = pickle.dumps(pipeline.simulate("vectoradd"))
        store.reads.clear()
        assert pickle.dumps(pipeline.simulate("vectoradd")) == want
        assert store.reads == ["oracle"]

    def test_model_predict_never_loads_the_trace(self, config):
        """``GPUMech.predict`` with ``n_warps=None`` takes the resident
        warps, like everything else, from the selection: it loads no
        artifact, the trace included."""
        store = RecordingStore()
        want = Pipeline(config, scale=Scale.tiny(), store=store).predict(
            "vectoradd"
        )
        # A fresh pipeline's walk holds no artifact but the selection.
        inputs = Pipeline(config, scale=Scale.tiny(), store=store
                          ).model_inputs("vectoradd")
        store.reads.clear()
        got = GPUMech(config).predict(inputs)
        assert store.reads == []
        assert pickle.dumps(got) == pickle.dumps(want)
        assert got.n_warps == resident_warps_per_core(inputs.trace, config)
        assert store.reads == ["trace"]

    def test_stage_spans_never_nest(self, config):
        """A miss materializes its inputs before its span opens, so each
        stage's span (and its seconds) covers its own compute alone."""
        tracer = Tracer(enabled=True)
        pipeline = Pipeline(config, scale=Scale.tiny(), tracer=tracer)
        pipeline.evaluate("vectoradd")
        stages = {s["id"]: s for s in tracer.drain() if s["cat"] == "stage"}
        assert sorted(s["name"] for s in stages.values()) == sorted(
            ("trace", "cache_sim", "latency_table", "interval_profiles",
             "clustering", "predict", "oracle")
        )
        assert not [s for s in stages.values() if s["parent"] in stages]

    def test_cache_geometry_override_re_runs_cache_sim(self, pipeline):
        pipeline.evaluate("vectoradd")
        pipeline.evaluate(
            "vectoradd", config=pipeline.config.with_(l1_size=64 * 1024)
        )
        assert pipeline.counters["trace"] == 1
        assert pipeline.counters["cache_sim"] == 2

    def test_repeated_sweep_runs_nothing(self, config):
        pipeline = Pipeline(config, scale=Scale.tiny())
        kernels = ("vectoradd", "strided_deg8")
        ex.run_figure13(pipeline, kernels=kernels, warp_counts=(4, 8))
        first = dict(pipeline.counters)
        ex.run_figure13(pipeline, kernels=kernels, warp_counts=(4, 8))
        assert dict(pipeline.counters) == first

    def test_scale_is_part_of_the_trace_key(self, config):
        store = MemoryStore()
        tiny = Pipeline(config, scale=Scale.tiny(), store=store)
        small = Pipeline(config, scale=Scale.small(), store=store)
        a = tiny.trace("vectoradd")
        b = small.trace("vectoradd")
        assert small.counters["trace"] == 1  # no stale cross-scale hit
        assert a.n_warps != b.n_warps


class TestParallel:
    def test_parallel_matches_serial_bitwise(self, config):
        kernels = ("vectoradd", "strided_deg8")
        serial = ex.run_figure13(
            Pipeline(config, scale=Scale.tiny()),
            kernels=kernels, warp_counts=(4, 8),
        )
        parallel = ex.run_figure13(
            Pipeline(config, scale=Scale.tiny(), jobs=2),
            kernels=kernels, warp_counts=(4, 8),
        )
        assert parallel.text == serial.text
        assert parallel.data["series"] == serial.data["series"]

    def test_evaluate_many_preserves_request_order(self, config):
        four = config.with_(max_threads_per_core=4 * config.warp_size)
        requests = [
            EvalRequest(kernel="strided_deg8", config=four),
            EvalRequest(kernel="vectoradd", config=config),
            EvalRequest(kernel="vectoradd", config=four),
        ]
        results = Pipeline(config, scale=Scale.tiny(),
                           jobs=2).evaluate_many(requests)
        assert [(r.kernel, r.n_warps <= 8) for r in results] == [
            ("strided_deg8", True),
            ("vectoradd", True),
            ("vectoradd", True),
        ]


class TestDiskStore:
    def test_reuse_across_pipeline_instances(self, config, tmp_path):
        first = Pipeline(config, scale=Scale.tiny(), cache_dir=str(tmp_path))
        first.evaluate("vectoradd")
        assert first.counters["trace"] == 1
        second = Pipeline(config, scale=Scale.tiny(), cache_dir=str(tmp_path))
        result = second.evaluate("vectoradd")
        assert result.oracle_cpi > 0
        assert dict(second.counters) == {}  # everything came off disk

    def test_disk_artifacts_match_fresh_compute(self, config, tmp_path):
        warm = Pipeline(config, scale=Scale.tiny(), cache_dir=str(tmp_path))
        fresh = Pipeline(config, scale=Scale.tiny())
        a = warm.evaluate("strided_deg8")
        b = Pipeline(
            config, scale=Scale.tiny(), cache_dir=str(tmp_path)
        ).evaluate("strided_deg8")
        c = fresh.evaluate("strided_deg8")
        assert a.model_cpis == b.model_cpis == c.model_cpis
        assert a.oracle_cpi == b.oracle_cpi == c.oracle_cpi

    def test_corrupt_artifact_is_a_miss(self, config, tmp_path):
        store = DiskStore(str(tmp_path))
        store.put("trace:deadbeef", {"x": 1})
        path = store._path("trace:deadbeef")
        # Different garbage bytes make pickle raise different exception
        # types (UnpicklingError, ValueError via the GET opcode, ...);
        # every one of them must read as a miss.
        for garbage in (b"not a pickle", b"garbage\n", b""):
            with open(path, "wb") as handle:
                handle.write(garbage)
            assert store.get("trace:deadbeef") is None

    def test_tiered_store_backfills_memory(self, tmp_path):
        memory = MemoryStore()
        disk = DiskStore(str(tmp_path))
        disk.put("oracle:cafe", [1, 2, 3])
        tiered = TieredStore([memory, disk])
        assert tiered.get("oracle:cafe") == [1, 2, 3]
        assert memory.get("oracle:cafe") == [1, 2, 3]

    def test_open_store_defaults_to_memory(self):
        assert isinstance(open_store(), MemoryStore)
        assert "open" not in repr(open_store())  # smoke: constructible


def legacy_key(stage, config, *parts):
    """``stage_key`` as it was before artifact-layout versions."""
    fingerprint = config.fingerprint(STAGES[stage].config_fields)
    payload = repr((fingerprint,) + parts).encode("utf-8")
    return "%s:%s" % (stage, hashlib.sha256(payload).hexdigest()[:24])


def layout_key(stage, layout, config, *parts):
    """``stage_key`` as it was at artifact layout ``layout``."""
    head = (config.fingerprint(STAGES[stage].config_fields),
            ("layout", layout))
    payload = repr(head + parts).encode("utf-8")
    return "%s:%s" % (stage, hashlib.sha256(payload).hexdigest()[:24])


#: What a layout-3 selection carries beyond a layout-2 one.
LAUNCH_FIELDS = ("kernel_name", "n_blocks", "warps_per_block",
                 "avg_miss_latency")


class TestArtifactLayout:
    def test_every_key_is_versioned(self, config):
        for stage in STAGES:
            assert stage_key(stage, config, "k", 3) != legacy_key(
                stage, config, "k", 3
            ), stage

    def test_columnar_stages_are_versioned(self):
        # clustering needs no bump of its own: its key hashes the
        # profiles key, which the profiles' layout version changes.
        for stage in ("interval_profiles", "predict"):
            assert STAGES[stage].layout >= 2, stage

    def test_legacy_profiles_on_disk_are_recomputed(self, config, tmp_path):
        """A store filled before the columnar layout holds list-of-rows
        profiles under the old keys; they must miss, not be returned."""
        kernel = "vectoradd"
        pipeline = Pipeline(config, scale=Scale.tiny(), cache_dir=str(tmp_path))
        cache_key = stage_key("cache_sim", config, pipeline.trace_key(kernel))
        latency_key = stage_key("latency_table", config, cache_key)
        profiles_key = legacy_key("interval_profiles", config, latency_key)
        clustering_key = legacy_key("clustering", config, profiles_key,
                                    "clustering")
        legacy = [SimpleNamespace(warp_id=0, issue_rate=1.0,
                                  intervals=[Interval(n_insts=3)])]
        disk = DiskStore(str(tmp_path))
        disk.put(profiles_key, legacy)
        disk.put(clustering_key, SimpleNamespace(index=0, profile=legacy[0]))
        assert disk.get(profiles_key) is not None

        inputs = pipeline.model_inputs(kernel)
        assert pipeline.counters["interval_profiles"] == 1
        assert pipeline.counters["clustering"] == 1
        assert isinstance(inputs.profiles, IntervalProfiles)

        # A prediction stored under the legacy (trace-keyed) predict
        # key is never read: predict now keys on the clustering key.
        n_warps = resident_warps_per_core(inputs.trace, config)
        predict_key = legacy_key("predict", config, pipeline.trace_key(kernel),
                                 None, n_warps, "clustering", "probabilistic")
        disk.put(predict_key, SimpleNamespace(cpi=-1.0))
        assert pipeline.predict(kernel).cpi > 0
        assert pipeline.counters["predict"] == 1

    def test_legacy_latency_table_and_clustering_on_disk_are_recomputed(
        self, config, tmp_path
    ):
        """A latency table stored without its average miss latency, or a
        selection without its single-warp stack, sits under the layout-1
        key; neither may be served."""
        kernel = "vectoradd"
        want = Pipeline(config, scale=Scale.tiny()).predict(kernel)
        pipeline = Pipeline(config, scale=Scale.tiny(), cache_dir=str(tmp_path))
        cache_key = stage_key("cache_sim", config, pipeline.trace_key(kernel))
        profiles_key = stage_key(
            "interval_profiles", config,
            stage_key("latency_table", config, cache_key),
        )
        disk = DiskStore(str(tmp_path))
        disk.put(legacy_key("latency_table", config, cache_key),
                 SimpleNamespace(pc_stats={}))
        disk.put(legacy_key("clustering", config, profiles_key, "clustering"),
                 SimpleNamespace(index=0))
        got = pipeline.predict(kernel)
        assert pipeline.counters["latency_table"] == 1
        assert pipeline.counters["clustering"] == 1
        assert pickle.dumps(got) == pickle.dumps(want)

    def test_layout_2_clustering_on_disk_is_recomputed(self, config,
                                                        tmp_path):
        """A selection stored at layout 2 lacks the kernel name, the
        launch geometry and the average miss latency; it sits under the
        layout-2 key and must be recomputed, never served."""
        kernel = "vectoradd"
        fresh = Pipeline(config, scale=Scale.tiny())
        want = fresh.predict(kernel)
        old = copy.deepcopy(fresh.model_inputs(kernel).selection)
        for name in LAUNCH_FIELDS:
            delattr(old, name)
        pipeline = Pipeline(config, scale=Scale.tiny(), cache_dir=str(tmp_path))
        cache_key = stage_key("cache_sim", config, pipeline.trace_key(kernel))
        parts = (
            stage_key("interval_profiles", config,
                      stage_key("latency_table", config, cache_key)),
            "clustering",
        )
        assert stage_key("clustering", config, *parts) == layout_key(
            "clustering", STAGES["clustering"].layout, config, *parts
        )
        DiskStore(str(tmp_path)).put(
            layout_key("clustering", 2, config, *parts), old
        )
        got = pipeline.predict(kernel)
        assert pipeline.counters["clustering"] == 1
        assert pickle.dumps(got) == pickle.dumps(want)

    @pytest.mark.parametrize("field", LAUNCH_FIELDS)
    def test_selection_without_a_launch_field_raises(self, pipeline, field):
        """A selection missing a field has no default to fall back on:
        without ``n_blocks`` the resident warps would silently be 1."""
        inputs = pipeline.model_inputs("vectoradd")
        old = pickle.loads(pickle.dumps(inputs.selection))
        delattr(old, field)

        def load(stage):
            pytest.fail("predict loaded %s" % stage)

        with pytest.raises(AttributeError, match=field):
            GPUMech(pipeline.config).predict(ModelInputs(old, load))

    def test_legacy_cache_sim_on_disk_is_recomputed(self, config, tmp_path):
        """A cache replay stored before layout 2 sits under the layout-1
        key, its per-PC stats also holding per-occurrence miss events; it
        must be recomputed, never served."""
        kernel = "vectoradd"
        fresh = Pipeline(config, scale=Scale.tiny())
        want = fresh.predict(kernel)
        legacy = copy.deepcopy(fresh.model_inputs(kernel).cache_result)
        for stats in legacy.per_pc.values():
            # Served, these counts would move the prediction.
            stats.inst_events = {event: 0 for event in stats.inst_events}
            stats.inst_events[MissEvent.L1_HIT] = stats.n_insts
            stats.occurrence_events = [{MissEvent.L1_HIT: stats.n_insts}]
        pipeline = Pipeline(config, scale=Scale.tiny(), cache_dir=str(tmp_path))
        DiskStore(str(tmp_path)).put(
            legacy_key("cache_sim", config, pipeline.trace_key(kernel), None),
            legacy,
        )
        got = pipeline.predict(kernel)
        assert pipeline.counters["cache_sim"] == 1
        assert pickle.dumps(got) == pickle.dumps(want)

    def test_legacy_oracle_stats_on_disk_are_recomputed(self, config,
                                                         tmp_path):
        """Oracle stats stored before cycle skipping charged the skipped
        cycles hold undercounted stall counters; they must miss."""
        kernel = "vectoradd"
        pipeline = Pipeline(config, scale=Scale.tiny(), cache_dir=str(tmp_path))
        oracle_key = legacy_key("oracle", config, pipeline.trace_key(kernel),
                                None)
        DiskStore(str(tmp_path)).put(oracle_key, SimpleNamespace(cpi=-1.0))
        assert pipeline.simulate(kernel).cpi > 0
        assert pipeline.counters["oracle"] == 1

    def test_legacy_traces_on_disk_are_recomputed(self, config, tmp_path):
        """Traces stored before the columnar layout hold a list of
        per-warp traces under the layout-1 key; they must miss."""
        kernel = "vectoradd"
        scale = Scale.tiny()
        pipeline = Pipeline(config, scale=scale, cache_dir=str(tmp_path))
        trace_key = legacy_key(
            "trace", config, kernel,
            (scale.n_blocks, scale.block_size, scale.iters),
        )
        DiskStore(str(tmp_path)).put(trace_key, SimpleNamespace(warps=[]))
        trace = pipeline.trace(kernel)
        assert isinstance(trace, KernelTrace)
        assert trace.n_warps > 0
        assert pipeline.counters["trace"] == 1


class TestTraceDigest:
    """The content key of an externally supplied trace covers all of it."""

    def test_dependencies_key_the_model_inputs(self, config, pipeline):
        """Two supplied traces that differ only in their producer
        indices must not share model inputs through a shared store."""
        from repro.core.model import GPUMech

        trace = pipeline.trace("vectoradd")
        changed = copy.deepcopy(trace)
        for warp in changed.warps:
            warp.deps[:] = NO_DEP
        shared = GPUMech(config, pipeline=pipeline)
        original = shared.predict(shared.prepare(trace=trace))
        fresh = GPUMech(config)
        want = fresh.predict(fresh.prepare(trace=changed))
        got = shared.predict(shared.prepare(trace=changed))
        assert want.cpi != original.cpi
        assert got.cpi == want.cpi

    @pytest.mark.parametrize(
        "field",
        KernelTrace.COLUMNS
        + ("kernel_name", "warp_size", "line_size", "n_blocks"),
    )
    def test_every_field_changes_the_digest(self, pipeline, field):
        trace = pipeline.trace("vectoradd")
        changed = copy.deepcopy(trace)
        value = getattr(changed, field)
        if isinstance(value, np.ndarray):
            value[-1] += 1
        elif isinstance(value, str):
            setattr(changed, field, value + "_")
        else:
            setattr(changed, field, value + 1)
        assert trace_digest(changed) != trace_digest(trace)


class TestGPUMechThroughPipeline:
    def test_prepare_is_cached_per_model(self, config):
        from repro.core.model import GPUMech
        from repro.workloads import get_kernel

        kernel, memory = get_kernel("vectoradd", Scale.tiny())
        model = GPUMech(config)
        first = model.prepare(kernel, memory=memory)
        trace = first.trace
        second = model.prepare(trace=trace)
        # Same content → same artifacts, no recomputation.
        assert model.pipeline.counters["cache_sim"] == 1
        assert second.cache_result is first.cache_result

    def test_shared_pipeline_shares_store(self, config):
        from repro.core.model import GPUMech

        pipeline = Pipeline(config, scale=Scale.tiny())
        model_a = GPUMech(config, pipeline=pipeline)
        model_b = GPUMech(config, pipeline=pipeline)
        trace = pipeline.trace("vectoradd")
        model_a.prepare(trace=trace)
        model_b.prepare(trace=trace)
        assert pipeline.counters["cache_sim"] == 1


class TestNanErrors:
    def _degenerate(self):
        return KernelResult(
            kernel="k", policy="rr", n_warps=8,
            oracle_cpi=0.0,
            model_cpis={m: 1.0 for m in ("naive", "mt_mshr_band")},
            oracle=None, prediction=None,
        )

    def test_degenerate_oracle_reports_nan_not_zero(self):
        result = self._degenerate()
        assert math.isnan(result.error("mt_mshr_band"))

    def test_nanmean_skips_nans(self):
        assert nanmean([0.1, float("nan"), 0.3]) == pytest.approx(0.2)
        assert math.isnan(nanmean([float("nan")]))
        assert math.isnan(nanmean([]))

    def test_validation_excludes_degenerate_results(self, config):
        from repro.harness.validation import validate_model

        good = Pipeline(config, scale=Scale.tiny()).evaluate("vectoradd")
        validation = validate_model([good, self._degenerate()], "mt_mshr_band")
        assert validation.n == 1
        assert not math.isnan(validation.mean_error)
