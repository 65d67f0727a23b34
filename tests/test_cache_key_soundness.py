"""Cache-key soundness by construction: stages compute on config views.

Every stage computes on a view of the config holding only the fields
its key covers (``repro.pipeline.stages.config_view``), so a stage that
reads a field its key misses fails instead of caching a result that
goes stale under an override of that field.  These tests pin

* the view itself (covered reads pass through, others raise);
* coverage through the input-key chain (``predict`` keys on the
  clustering key, so upstream-covered fields stay readable);
* a seeded bug: a withheld declaration fails the first evaluation and
  leaves nothing in the store;
* the converse: every declared field is read on some kernel and arch,
  so no declaration invalidates artifacts for nothing;
* arch dispatch: ``subcore`` predictions run the multithreading model
  per issue slot and ``subcore`` traces interleave divergent paths,
  unlike the paper model's.
"""

import pytest

import repro.pipeline.stages as stages
from repro.config import ALL_FIELDS, GPUConfig
from repro.core.model import resident_warps_per_core
from repro.core.multithreading import model_multithreading
from repro.isa import KernelBuilder
from repro.pipeline import STAGES, MemoryStore, Pipeline
from repro.pipeline.stages import (
    PREDICT_FIELDS,
    UndeclaredConfigRead,
    config_view,
    key_coverage,
    view_class,
)
from repro.trace import emulate
from repro.workloads import Scale
from repro.workloads.suite import SUITE, KernelSpec
from tests.test_shared_memory import staging_kernel

SCALE = Scale.tiny()
CONFIG = GPUConfig.small(n_cores=2, warps_per_core=8)
SUBCORE = CONFIG.with_(arch="subcore")

#: No suite kernel uses the scratchpad, so the field-read sweep adds a
#: bank-conflicting staging kernel under this name.
SMEM_KERNEL = "smem_staging"
SMEM_SPEC = KernelSpec(
    name=SMEM_KERNEL,
    suite="test",
    tags=frozenset({"smem"}),
    description="global load staged through shared memory, 32-way "
    "bank conflicts",
    _factory=lambda scale: (staging_kernel(stride_words=32), None),
)


def raises_on(field):
    return pytest.raises(UndeclaredConfigRead, match=r"config\.%s\b" % field)


def exercise(pipeline, kernel):
    """Run every stage that reads the config on ``kernel``."""
    pipeline.evaluate(kernel)


class TestConfigView:
    def test_covered_fields_and_properties_read_through(self):
        view = config_view("cache_sim", CONFIG)
        assert view.l1_size == CONFIG.l1_size
        assert view.max_warps_per_core == CONFIG.max_warps_per_core
        latency = config_view("latency_table", CONFIG)
        assert latency.miss_event_latency("l2_miss") == (
            CONFIG.l2_miss_latency
        )

    def test_uncovered_field_raises_naming_it(self):
        view = config_view("trace", CONFIG)
        with raises_on("n_mshrs") as excinfo:
            view.n_mshrs
        assert isinstance(excinfo.value, AttributeError)
        assert "'trace'" in str(excinfo.value)

    def test_property_over_an_uncovered_field_raises(self):
        # sfu_service_cycles = warp_size (covered) / n_sfu_units (not).
        with raises_on("n_sfu_units"):
            config_view("cache_sim", CONFIG).sfu_service_cycles

    def test_view_covers_exactly_the_key_coverage(self):
        for stage, covered in key_coverage(STAGES).items():
            view = config_view(stage, SUBCORE)
            for name in covered:
                assert getattr(view, name) == getattr(SUBCORE, name)
            for name in ALL_FIELDS - covered:
                with raises_on(name):
                    getattr(view, name)


class TestKeyCoverage:
    def test_every_field_is_covered_by_some_stage(self):
        # With TestDeclaredFieldsAreRead (every declared field is read),
        # a config field that no stage reads fails here: the machine
        # description holds no field that selects nothing.
        covered = frozenset().union(*key_coverage(STAGES).values())
        assert covered == ALL_FIELDS

    def test_predict_coverage_reaches_through_its_inputs(self):
        # predict declares only what it adds; everything else arrives
        # through the clustering key chain, ending at the trace key.
        covered = key_coverage(STAGES)["predict"]
        assert covered == ALL_FIELDS
        assert PREDICT_FIELDS < covered

    def test_upstream_covered_field_stays_readable(self):
        # predict depends on l2_latency through the latency table's
        # avg_miss_latency, which only the latency_table key covers.
        assert "l2_latency" not in STAGES["predict"].config_fields
        pipeline = Pipeline(CONFIG, scale=SCALE)
        base = pipeline.predict("vectoradd")
        slower = pipeline.predict(
            "vectoradd", config=CONFIG.with_(l2_latency=400)
        )
        assert pipeline.counters["predict"] == 2
        assert slower.cpi > base.cpi


class TestSeededUndeclaredRead:
    @pytest.mark.parametrize(
        "stage, field", [("oracle", "n_mshrs"), ("predict", "n_mshrs")]
    )
    def test_withheld_field_raises_before_anything_is_stored(
        self, stage, field, monkeypatch
    ):
        spec = STAGES[stage]
        narrowed = stages.StageSpec(
            spec.name,
            inputs=spec.inputs,
            config_fields=spec.config_fields - {field},
            description=spec.description,
            layout=spec.layout,
        )
        monkeypatch.setitem(stages.STAGES, stage, narrowed)
        # The view follows the (narrowed) declarations, as at import.
        covered = key_coverage(stages.STAGES)[stage]
        assert field not in covered
        monkeypatch.setitem(stages.VIEWS, stage, view_class(stage, covered))
        pipeline = Pipeline(CONFIG, scale=SCALE)
        with raises_on(field):
            pipeline.evaluate("vectoradd")
        stored = [key for key in pipeline.store.keys()
                  if key.startswith(stage + ":")]
        assert stored == []
        assert pipeline.counters[stage] == 0


@pytest.fixture(scope="module")
def warm_stores():
    """(config, kernel, fully evaluated store) for both archs, with the
    scratchpad kernel registered for as long as the module runs."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setitem(SUITE, SMEM_KERNEL, SMEM_SPEC)
        warm = []
        for config in (CONFIG, SUBCORE):
            for kernel in ("vectoradd", SMEM_KERNEL):
                pipeline = Pipeline(config, scale=SCALE)
                exercise(pipeline, kernel)
                warm.append((config, kernel, pipeline.store))
        yield warm


def _store_without(store, stage):
    """A copy of ``store`` holding every artifact except ``stage``'s."""
    copy = MemoryStore()
    for key in store.keys():
        if not key.startswith(stage + ":"):
            copy.put(key, store.get(key))
    return copy


#: A warm evaluation reads no artifact it does not use, so these stages
#: run only on a read of the ``ModelInputs`` field that needs them.
FIELD_OF = {
    "trace": "trace",
    "cache_sim": "cache_result",
    "latency_table": "latency_table",
    "interval_profiles": "profiles",
}


def _reads(stage, field, warm_stores, monkeypatch):
    """Whether ``stage`` reads ``field`` on any warm (arch, kernel)."""
    covered = key_coverage(STAGES)[stage] - {field}
    monkeypatch.setitem(stages.VIEWS, stage, view_class(stage, covered))
    for config, kernel, store in warm_stores:
        pipeline = Pipeline(
            config, scale=SCALE, store=_store_without(store, stage)
        )
        try:
            exercise(pipeline, kernel)
            if stage in FIELD_OF:
                getattr(pipeline.model_inputs(kernel), FIELD_OF[stage])
        except UndeclaredConfigRead as exc:
            assert "config.%s," % field in str(exc)
            return True
    return False


class TestDeclaredFieldsAreRead:
    @pytest.mark.parametrize(
        "stage", [name for name, spec in STAGES.items() if spec.config_fields]
    )
    def test_every_declared_field_is_read(
        self, stage, warm_stores, monkeypatch
    ):
        # Only the stage under test misses the store, so it alone runs
        # on the narrowed view.
        unread = [
            field for field in sorted(STAGES[stage].config_fields)
            if not _reads(stage, field, warm_stores, monkeypatch)
        ]
        assert unread == [], (
            "%s declares fields it never reads: %s" % (stage, unread)
        )


class TestArchDispatchPin:
    @pytest.mark.parametrize(
        "kernel",
        ["vectoradd", "sgemm_tile", "mandelbrot", "quasirandom",
         "binomial_options", "reduction_k1"],
    )
    def test_subcore_multithreading_goes_through_the_backend(self, kernel):
        pipeline = Pipeline(SUBCORE, scale=SCALE)
        prediction = pipeline.predict(kernel)
        inputs = pipeline.model_inputs(kernel)
        profile = inputs.representative
        n_warps = resident_warps_per_core(inputs.trace, SUBCORE)
        subcore = model_multithreading(
            profile, n_warps, SUBCORE.scheduler,
            n_schedulers=SUBCORE.schedulers_per_core,
        )
        paper = model_multithreading(profile, n_warps, SUBCORE.scheduler)
        assert SUBCORE.schedulers_per_core == SUBCORE.n_schedulers > 1
        assert prediction.cpi_multithreading == subcore.cpi
        assert prediction.cpi_multithreading != paper.cpi

    def test_subcore_trace_uses_the_backend_reconvergence(self):
        # The taken side is laid out before the branch, so the stack
        # runs the fall-through side first and min-PC interleaving runs
        # the taken side first: same work, different order.
        b = KernelBuilder("taken_side_first")
        b.bra("branch")
        b.label("taken")
        b.fmul(b.fadd(b.mov(1.0), 2.0), 3.0)
        b.bra("join")
        b.label("branch")
        b.bra("taken", pred=b.setp_lt(b.lane(), 16), reconv="join")
        b.fmul(b.fadd(b.mov(4.0), 5.0), 6.0)
        b.label("join")
        b.exit()
        kernel = b.build(n_threads=32, block_size=32)
        stack = emulate(kernel, CONFIG).warps[0].pcs.tolist()
        interleaved = emulate(kernel, SUBCORE).warps[0].pcs.tolist()
        assert sorted(stack) == sorted(interleaved)
        assert stack != interleaved
