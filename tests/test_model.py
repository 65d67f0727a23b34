"""Integration tests for the GPUMech facade (trace -> prediction)."""

import pytest

from repro.config import GPUConfig
from repro.core.model import GPUMech, resident_warps_per_core
from repro.core.cpi_stack import StallType
from repro.pipeline import Pipeline
from repro.trace import emulate
from repro.workloads import Scale
from repro.workloads.suite import SUITE

from tests.conftest import build_divergent_load, build_fp_chain, build_saxpy


@pytest.fixture
def config():
    return GPUConfig.small(n_cores=2, warps_per_core=8)


class TestPrepare:
    def test_prepare_from_kernel(self, config):
        model = GPUMech(config)
        inputs = model.prepare(build_saxpy())
        assert inputs.trace.kernel_name == "saxpy"
        assert len(inputs.profiles) == inputs.trace.n_warps
        assert inputs.representative in inputs.profiles

    def test_prepare_from_trace(self, config):
        trace = emulate(build_saxpy(), config)
        inputs = GPUMech(config).prepare(trace=trace)
        assert inputs.trace is trace

    def test_prepare_requires_input(self, config):
        with pytest.raises(ValueError):
            GPUMech(config).prepare()

    def test_selection_strategy_forwarded(self, config):
        model = GPUMech(config, selection_strategy="max")
        inputs = model.prepare(build_saxpy())
        assert inputs.selection.strategy == "max"


class TestPredict:
    def test_eq3_composition(self, config):
        model = GPUMech(config)
        prediction = model.predict_kernel(build_divergent_load())
        assert prediction.cpi == pytest.approx(
            prediction.cpi_multithreading + prediction.cpi_mshr
            + prediction.cpi_queue
        )
        assert prediction.cpi_contention == pytest.approx(
            prediction.cpi_mshr + prediction.cpi_queue
        )
        assert prediction.ipc == pytest.approx(1 / prediction.cpi)

    def test_stack_total_equals_cpi(self, config):
        prediction = GPUMech(config).predict_kernel(build_divergent_load())
        assert prediction.cpi_stack.total == pytest.approx(prediction.cpi)

    def test_policy_from_config(self, config):
        inputs = GPUMech(config).prepare(build_saxpy())
        rr = GPUMech(config.with_(scheduler="rr")).predict(inputs)
        gto = GPUMech(config.with_(scheduler="gto")).predict(inputs)
        assert rr.policy == "rr" and gto.policy == "gto"

    def test_n_warps_override(self, config):
        model = GPUMech(config)
        inputs = model.prepare(build_fp_chain(length=8, n_threads=512,
                                              block_size=64))
        one = model.predict(inputs, n_warps=1)
        eight = model.predict(inputs, n_warps=8)
        assert eight.cpi < one.cpi  # multithreading hides stalls
        assert one.cpi == pytest.approx(one.single_warp_cpi)

    def test_compute_kernel_has_no_contention(self, config):
        prediction = GPUMech(config).predict_kernel(
            build_fp_chain(length=8, n_threads=512, block_size=64)
        )
        assert prediction.cpi_mshr == 0.0
        assert prediction.cpi_queue == 0.0
        assert prediction.cpi_stack[StallType.DEP] > 0.0

    def test_divergent_kernel_has_mshr_pressure(self, config):
        prediction = GPUMech(config).predict_kernel(
            build_divergent_load(n_threads=512, block_size=64)
        )
        assert prediction.cpi_mshr > 0.0

    def test_summary_text(self, config):
        prediction = GPUMech(config).predict_kernel(build_saxpy())
        text = prediction.summary()
        assert "saxpy" in text and "CPI" in text

    def test_separately_computed_predictions_compare_equal(self, config):
        kernel = build_divergent_load(n_threads=512, block_size=64)
        first = GPUMech(config).predict_kernel(kernel)
        second = GPUMech(config).predict_kernel(kernel)
        # Per-interval results are arrays; several intervals each.
        assert len(first.contention.per_interval_mshr) > 1
        assert first.contention.per_interval_mshr is not (
            second.contention.per_interval_mshr
        )
        assert first.contention == second.contention
        assert first.multithreading == second.multithreading
        assert first == second
        # A difference in a single interval still makes them unequal.
        changed = second.multithreading.per_interval_nonoverlapped.copy()
        changed[-1] += 1.0
        second.multithreading.per_interval_nonoverlapped = changed
        assert first.multithreading != second.multithreading
        assert first != second


class TestResidentWarps:
    def test_limited_by_warp_slots(self, config):
        # 8 blocks of 2 warps on 2 cores with 8 slots: 4 blocks resident.
        trace = emulate(build_saxpy(n_threads=512, block_size=64), config)
        assert resident_warps_per_core(trace, config) == 8

    def test_limited_by_available_blocks(self, config):
        # 2 blocks of 2 warps on 2 cores: one block (2 warps) per core.
        trace = emulate(build_saxpy(n_threads=128, block_size=64), config)
        assert resident_warps_per_core(trace, config) == 2

    def test_limited_by_fewer_warp_slots(self, config):
        # 4 slots: 2 of the 8 2-warp blocks resident.
        trace = emulate(build_saxpy(n_threads=512, block_size=64), config)
        assert resident_warps_per_core(trace, limited(config, 4)) == 4

    def test_block_granularity(self, config):
        # 3-warp blocks with an 8-slot core: only 2 blocks (6 warps) fit.
        trace = emulate(build_saxpy(n_threads=576, block_size=96), config)
        assert resident_warps_per_core(trace, config) == 6


#: Machines and residency limits the residency property crosses (None:
#: the machine's own limit).
N_CORES = (1, 2, 16)
WARPS_PER_CORE = (None, 1, 4, 8, 48)


def limited(config, warps):
    """``config`` with ``warps`` resident warps per core (None: as is)."""
    if warps is None:
        return config
    return config.with_(max_threads_per_core=warps * config.warp_size)


def limits(config):
    """The limits of :data:`WARPS_PER_CORE` a machine can take: the
    sub-core schedulers must divide the resident warps."""
    return [
        warps for warps in WARPS_PER_CORE
        if warps is None or config.arch != "subcore"
        or warps % config.n_schedulers == 0
    ]


#: Sub-core kernels checked at ``Scale.small``: all 40 cost ~40 s of
#: per-warp emulation there, and every suite kernel shares one launch
#: geometry per scale, so the cheapest few stand for the suite.
SUBCORE_SMALL = ("saxpy", "strided_deg8", "transpose_naive", "vectoradd")


class TestResidencyFromSelection:
    """A prediction derives its resident warps from the ``clustering``
    artifact, which copies the trace's launch geometry; the count must be
    the trace's on every kernel, machine and residency limit."""

    @pytest.mark.parametrize("scale", ["tiny", "small"])
    @pytest.mark.parametrize("arch", ["gpumech2014", "subcore"])
    def test_selections_carry_the_trace_residency(
        self, scale, arch, request
    ):
        """One selection per kernel: its launch fields depend neither on
        the cores nor on the limit (the cache replay the selection also
        rests on does)."""
        kernels = sorted(SUITE)
        if (scale, arch) == ("small", "gpumech2014"):
            pipeline = request.getfixturevalue("paper_pipeline")
        else:
            pipeline = Pipeline(GPUConfig(n_cores=2, arch=arch),
                                scale=getattr(Scale, scale)())
            if scale == "small":
                kernels = SUBCORE_SMALL
        wrong = []
        for kernel in kernels:
            inputs = pipeline.model_inputs(kernel)
            selection, trace = inputs.selection, inputs.trace
            assert selection.kernel_name == trace.kernel_name == kernel
            for n_cores in N_CORES:
                config = pipeline.config.with_(n_cores=n_cores)
                for limit in limits(config):
                    machine = limited(config, limit)
                    got = resident_warps_per_core(selection, machine)
                    want = resident_warps_per_core(trace, machine)
                    if got != want:
                        wrong.append((kernel, n_cores, limit, got, want))
        assert wrong == []

    @pytest.mark.parametrize("arch", ["gpumech2014", "subcore"])
    def test_pipeline_predictions_use_the_trace_residency(self, arch):
        """Through ``Pipeline.predict``, each (cores, limit) point on its
        own artifact."""
        pipeline = Pipeline(GPUConfig(n_cores=2, arch=arch),
                            scale=Scale.tiny())
        trace = pipeline.trace("vectoradd")
        for n_cores in N_CORES:
            config = pipeline.config.with_(n_cores=n_cores)
            for limit in limits(config):
                machine = limited(config, limit)
                got = pipeline.predict("vectoradd", machine)
                assert got.n_warps == resident_warps_per_core(
                    trace, machine
                ), (n_cores, limit)

    @pytest.mark.parametrize(
        "n_threads, block_size", [(512, 64), (128, 64), (576, 96)]
    )
    def test_hand_built_launches(self, config, n_threads, block_size):
        """Launch shapes the suite does not have: few blocks, 3-warp
        blocks."""
        trace = emulate(build_saxpy(n_threads, block_size), config)
        for limit in limits(config):
            model = GPUMech(limited(config, limit))
            inputs = model.prepare(trace=trace)
            assert model.predict(inputs).n_warps == (
                resident_warps_per_core(trace, model.config)
            )
