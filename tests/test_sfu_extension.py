"""Tests for the SFU-contention extension (the paper's Sec. IV-B1
'generalisation to other contended components', left as future work)."""

import pytest

from repro.config import ConfigError, GPUConfig
from repro.core.contention import model_contention
from repro.core.cpi_stack import StallType
from repro.core.interval import Interval, IntervalProfile
from repro.core.model import GPUMech
from repro.isa import KernelBuilder
from repro.timing import TimingSimulator
from repro.trace import emulate


def sfu_kernel(n_sfu_insts=8, n_threads=256, block_size=64):
    """Independent SFU instructions: throughput-, not latency-, bound."""
    b = KernelBuilder("sfuheavy")
    for i in range(n_sfu_insts):
        b.fsqrt(1.0 + i)
    b.exit()
    return b.build(n_threads=n_threads, block_size=block_size)


class TestConfig:
    def test_default_is_balanced(self):
        config = GPUConfig()
        assert config.n_sfu_units == config.warp_size
        assert config.sfu_service_cycles == 1.0

    def test_service_cycles(self):
        config = GPUConfig().with_(n_sfu_units=4)
        assert config.sfu_service_cycles == 8.0

    @pytest.mark.parametrize("bad", [0, 33, -1])
    def test_bounds_validated(self, bad):
        with pytest.raises(ConfigError):
            GPUConfig(n_sfu_units=bad)


class TestOracle:
    def base_config(self, n_sfu):
        return GPUConfig.small(n_cores=1, warps_per_core=8).with_(
            n_sfu_units=n_sfu
        )

    def test_balanced_design_unaffected(self):
        kernel = sfu_kernel()
        balanced = self.base_config(32)
        stats = TimingSimulator(balanced).run(emulate(kernel, balanced))
        assert all(c.sfu_stall_cycles == 0 for c in stats.cores)

    def test_narrow_sfu_slows_sfu_kernel(self):
        kernel = sfu_kernel()
        wide = self.base_config(32)
        narrow = self.base_config(4)
        fast = TimingSimulator(wide).run(emulate(kernel, wide))
        slow = TimingSimulator(narrow).run(emulate(kernel, narrow))
        assert slow.total_cycles > fast.total_cycles
        assert any(c.sfu_stall_cycles > 0 for c in slow.cores)

    def test_occupancy_throughput_exact(self):
        """8 warps x 8 independent SFU insts on a 4-lane SFU: each issue
        occupies the unit 8 cycles -> ~64 * 8 cycles total."""
        kernel = sfu_kernel(n_sfu_insts=8, n_threads=256, block_size=256)
        narrow = self.base_config(4)
        stats = TimingSimulator(narrow).run(emulate(kernel, narrow))
        sfu_issues = 8 * 8
        # Total dominated by SFU occupancy; exits tack on a few cycles.
        assert stats.total_cycles >= sfu_issues * 8 - 8
        assert stats.total_cycles <= sfu_issues * 8 + 3 * 8

    def test_non_sfu_work_fills_occupancy_gaps(self):
        """IALU work from other warps issues while the SFU pipe is busy."""
        b = KernelBuilder("mixed")
        for i in range(4):
            b.fsqrt(1.0 + i)
        for i in range(16):
            b.iadd(i, 1)
        b.exit()
        kernel = b.build(n_threads=256, block_size=256)
        narrow = self.base_config(4)
        stats = TimingSimulator(narrow).run(emulate(kernel, narrow))
        # SFU occupancy alone is 8 warps * 4 sfu * 8 = 256 cycles; full
        # serialisation of everything would be 256 + 136 = 392.  Some of
        # the 128 IALU + 8 exits must hide inside the occupancy windows.
        sfu_occupancy = 8 * 4 * 8
        full_serial = sfu_occupancy + 8 * (16 + 1)
        assert sfu_occupancy <= stats.total_cycles < full_serial

    def test_cycle_skipping_equivalence_with_sfu(self):
        kernel = sfu_kernel()
        narrow = self.base_config(4)
        trace = emulate(kernel, narrow)
        fast = TimingSimulator(narrow, cycle_skipping=True).run(trace)
        slow = TimingSimulator(narrow, cycle_skipping=False).run(trace)
        assert fast.total_cycles == slow.total_cycles


class TestModel:
    def profile_with_sfu(self, n_sfu, n_insts=20):
        return IntervalProfile.from_intervals(
            0, [Interval(n_insts=n_insts, stall_cycles=10.0, n_sfu=n_sfu)]
        )

    def test_balanced_design_no_charge(self):
        result = model_contention(
            self.profile_with_sfu(10), 8, GPUConfig(), 420.0
        )
        assert result.cpi_sfu_floor == 0.0

    def test_floor_is_occupancy_throughput(self):
        config = GPUConfig().with_(n_sfu_units=4)  # service = 8 cycles
        result = model_contention(
            self.profile_with_sfu(n_sfu=10, n_insts=20), 8, config, 420.0
        )
        assert result.cpi_sfu_floor == pytest.approx(8.0 * 10 / 20)

    def test_prediction_tracks_oracle_direction(self):
        kernel = sfu_kernel(n_sfu_insts=12, n_threads=512, block_size=64)
        wide = GPUConfig.small(n_cores=1, warps_per_core=8)
        narrow = wide.with_(n_sfu_units=4)
        wide_pred = GPUMech(wide).predict_kernel(kernel)
        narrow_pred = GPUMech(narrow).predict_kernel(kernel)
        assert narrow_pred.cpi > wide_pred.cpi
        assert narrow_pred.cpi_sfu > 0.0
        assert wide_pred.cpi_sfu == 0.0
        assert narrow_pred.cpi_stack[StallType.SFU] == pytest.approx(
            narrow_pred.cpi_sfu
        )

    def test_model_matches_oracle_on_sfu_bound_kernel(self):
        kernel = sfu_kernel(n_sfu_insts=12, n_threads=512, block_size=64)
        narrow = GPUConfig.small(n_cores=1, warps_per_core=8).with_(
            n_sfu_units=4
        )
        trace = emulate(kernel, narrow)
        oracle = TimingSimulator(narrow).run(trace)
        prediction = GPUMech(narrow).predict_kernel(kernel)
        error = abs(prediction.cpi - oracle.cpi) / oracle.cpi
        assert error < 0.25
