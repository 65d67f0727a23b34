"""Tests for the staged artifact pipeline (fingerprints, invalidation,
parallel equivalence, on-disk reuse)."""

import hashlib
import math
from types import SimpleNamespace

import pytest

from repro.config import ALL_FIELDS, HARDWARE_FIELDS, TRACE_FIELDS, GPUConfig
from repro.core.interval import Interval, IntervalProfiles
from repro.core.model import resident_warps_per_core
from repro.harness import experiments as ex
from repro.harness.runner import KernelResult, nanmean
from repro.pipeline import (
    DiskStore,
    EvalRequest,
    MemoryStore,
    Pipeline,
    STAGES,
    TieredStore,
    open_store,
)
from repro.pipeline.stages import stage_key
from repro.workloads import Scale


@pytest.fixture
def config():
    return GPUConfig.small(n_cores=2, warps_per_core=8)


@pytest.fixture
def pipeline(config):
    return Pipeline(config, scale=Scale.tiny())


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
        requests = [
            EvalRequest(kernel="strided_deg8", warps_per_core=4),
            EvalRequest(kernel="vectoradd", warps_per_core=8),
            EvalRequest(kernel="vectoradd", warps_per_core=4),
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


class TestArtifactLayout:
    def test_layout_one_stages_keep_their_keys(self, config):
        for stage, spec in STAGES.items():
            same = stage_key(stage, config, "k", 3) == legacy_key(
                stage, config, "k", 3
            )
            assert same == (spec.layout == 1), stage

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
        cache_key = stage_key("cache_sim", config, pipeline.trace_key(kernel),
                              None)
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
                                 None, n_warps, "clustering", pipeline.rr_mode)
        disk.put(predict_key, SimpleNamespace(cpi=-1.0))
        assert pipeline.predict(kernel).cpi > 0
        assert pipeline.counters["predict"] == 1

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


class TestLintStage:
    def _broken_spec(self):
        from repro.isa import Imm, Instruction, Kernel, Reg
        from repro.workloads.suite import KernelSpec

        program = (
            Instruction("iadd", dst=Reg(1), srcs=(Reg(0), Imm(1))),
            Instruction("st", srcs=(Imm(0), Reg(1))),
            Instruction("exit"),
        )
        kernel = Kernel("broken", program, n_threads=32, block_size=32)
        return KernelSpec(
            name="broken", suite="test", tags=frozenset(),
            description="uninitialized read",
            _factory=lambda scale: (kernel, None),
        )

    def test_lint_runs_before_trace_and_is_cached(self, config):
        pipeline = Pipeline(config, scale=Scale.tiny(), lint=True)
        pipeline.trace("vectoradd")
        assert pipeline.counters["lint"] == 1
        assert pipeline.counters["trace"] == 1
        assert pipeline.timings["lint"] > 0
        pipeline.trace("vectoradd")
        assert pipeline.counters["lint"] == 1  # second call is a store hit
        assert pipeline.hits["lint"] == 1

    def test_lint_off_by_default(self, pipeline):
        pipeline.trace("vectoradd")
        assert pipeline.counters["lint"] == 0

    def test_lint_error_blocks_the_trace(self, config, monkeypatch):
        from repro.staticcheck import StaticCheckError
        from repro.workloads.suite import SUITE

        monkeypatch.setitem(SUITE, "broken", self._broken_spec())
        pipeline = Pipeline(config, scale=Scale.tiny(), lint=True)
        with pytest.raises(StaticCheckError) as excinfo:
            pipeline.trace("broken")
        assert excinfo.value.report.by_check("uninit-read")
        # No trace artifact was built (or cached) for the bad kernel.
        assert pipeline.counters["trace"] == 0

    def test_verify_returns_the_report(self, config):
        pipeline = Pipeline(config, scale=Scale.tiny())
        report = pipeline.verify("vectoradd")
        assert report.kernel == "vectoradd"
        assert not report.has_errors
