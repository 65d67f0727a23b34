"""Integration tests for the GPUMech facade (trace -> prediction)."""

import pytest

from repro.config import GPUConfig
from repro.core.model import GPUMech, resident_warps_per_core
from repro.core.cpi_stack import StallType
from repro.trace import emulate

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

    def test_policy_override(self, config):
        model = GPUMech(config)
        inputs = model.prepare(build_saxpy())
        rr = model.predict(inputs, policy="rr")
        gto = model.predict(inputs, policy="gto")
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

    def test_explicit_override(self, config):
        trace = emulate(build_saxpy(n_threads=512, block_size=64), config)
        assert resident_warps_per_core(trace, config, warps_per_core=4) == 4

    def test_block_granularity(self, config):
        # 3-warp blocks with an 8-slot core: only 2 blocks (6 warps) fit.
        trace = emulate(build_saxpy(n_threads=576, block_size=96), config)
        assert resident_warps_per_core(trace, config) == 6
