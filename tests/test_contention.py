"""Unit tests for the contention models (Sec. IV-B, Eq. 18-23)."""

import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.config import GPUConfig
from repro.core.contention import (
    _mean_wave,
    dram_queuing_delay,
    model_contention,
    mshr_queuing_delay,
)
from repro.core.interval import Interval, IntervalProfile


class TestMeanWave:
    @given(st.integers(1, 500), st.integers(1, 64))
    def test_matches_bruteforce(self, n, m):
        brute = sum(math.ceil(j / m) for j in range(1, n + 1)) / n
        assert _mean_wave(n, m) == pytest.approx(brute)

    def test_zero_requests(self):
        assert _mean_wave(0, 32) == 1.0


class TestMSHRQueuing:
    def test_no_delay_under_capacity(self):
        # Eq. 20: no queuing when requests fit in the MSHRs.
        assert mshr_queuing_delay(32, 32, 420.0) == 0.0
        assert mshr_queuing_delay(10, 32, 420.0) == 0.0

    def test_paper_example_two_waves(self):
        # 64 requests over 32 MSHRs: waves are 1,1,...,2,2 -> mean 1.5;
        # queuing delay = 420 * 0.5 = 210 (Eq. 19 example structure).
        assert mshr_queuing_delay(64, 32, 420.0) == pytest.approx(210.0)

    def test_monotone_in_requests(self):
        delays = [mshr_queuing_delay(n, 32, 420.0) for n in (33, 64, 128, 256)]
        assert delays == sorted(delays)

    def test_more_mshrs_less_delay(self):
        assert mshr_queuing_delay(128, 64, 420.0) < mshr_queuing_delay(
            128, 32, 420.0
        )


class TestDRAMQueuing:
    def config(self, n_cores=2):
        return GPUConfig.small(n_cores=n_cores)

    def test_zero_requests(self):
        assert dram_queuing_delay(0.0, 100.0, self.config()) == 0.0

    def test_md1_formula_low_load(self):
        config = self.config()
        s = config.dram_service_cycles
        core_reqs, cycles = 10.0, 1000.0
        lam = core_reqs * config.n_cores / cycles
        rho = lam * s
        expected = lam * s * s / (2 * (1 - rho))
        assert dram_queuing_delay(core_reqs, cycles, config) == pytest.approx(
            expected
        )

    def test_saturation_capped(self):
        # Eq. 21: rho >= 1 falls back to half the max backlog.
        config = self.config()
        s = config.dram_service_cycles
        core_reqs, cycles = 10_000.0, 10.0
        expected_cap = s * core_reqs * config.n_cores / 2
        assert dram_queuing_delay(core_reqs, cycles, config) == pytest.approx(
            expected_cap
        )

    def test_monotone_in_load(self):
        config = self.config()
        delays = [
            dram_queuing_delay(n, 1000.0, config) for n in (1, 10, 100, 1000)
        ]
        assert delays == sorted(delays)

    def test_higher_bandwidth_less_delay(self):
        slow = GPUConfig.small().with_(dram_bandwidth_gbps=64.0)
        fast = GPUConfig.small().with_(dram_bandwidth_gbps=256.0)
        assert dram_queuing_delay(50, 500.0, fast) < dram_queuing_delay(
            50, 500.0, slow
        )


def profile_with(interval):
    return IntervalProfile.from_intervals(0, [interval])


class TestModelContention:
    def test_no_memory_no_contention(self):
        profile = profile_with(Interval(n_insts=10, stall_cycles=5.0))
        result = model_contention(profile, 32, GPUConfig(), 420.0)
        assert result.cpi == 0.0
        assert result.cpi_mshr_floor == 0.0
        assert result.cpi_bandwidth_floor == 0.0

    def test_mshr_contention_appears_with_divergence(self):
        interval = Interval(
            n_insts=10,
            stall_cycles=420.0,
            n_loads=1,
            load_reqs=32,
            exp_mshr_reqs=32.0,
            exp_mshr_loads=1.0,
        )
        few = model_contention(profile_with(interval), 1, GPUConfig(), 420.0)
        many = model_contention(profile_with(interval), 32, GPUConfig(), 420.0)
        assert few.cpi_mshr_model == 0.0  # 32 requests fit
        assert many.cpi_mshr_model > 0.0

    def test_floor_grows_with_traffic(self):
        def result(reqs):
            interval = Interval(
                n_insts=10, stall_cycles=100.0, n_loads=1,
                load_reqs=reqs, exp_mshr_reqs=float(reqs),
                exp_dram_read_reqs=float(reqs), exp_mshr_loads=1.0,
                exp_dram_loads=1.0,
            )
            return model_contention(
                profile_with(interval), 8, GPUConfig(), 420.0
            )

        assert result(32).cpi_mshr_floor > result(4).cpi_mshr_floor
        assert result(32).cpi_bandwidth_floor > result(4).cpi_bandwidth_floor

    def test_write_traffic_drives_bandwidth_floor_only(self):
        interval = Interval(
            n_insts=10, stall_cycles=10.0, n_stores=4, store_reqs=128
        )
        result = model_contention(profile_with(interval), 8, GPUConfig(), 420.0)
        assert result.cpi_mshr_floor == 0.0  # stores never occupy MSHRs
        assert result.cpi_bandwidth_floor > 0.0

    def test_effective_components_respect_floors(self):
        interval = Interval(
            n_insts=10, stall_cycles=10.0, n_stores=4, store_reqs=256
        )
        result = model_contention(profile_with(interval), 8, GPUConfig(), 420.0)
        mshr, sfu, smem, queue = result.effective_components(
            cpi_multithreading=1.0
        )
        assert 1.0 + mshr + sfu + smem + queue == pytest.approx(
            max(1.0 + result.cpi, result.cpi_mshr_floor,
                result.cpi_bandwidth_floor)
        )

    def test_effective_components_noop_when_floors_below(self):
        interval = Interval(
            n_insts=100, stall_cycles=10.0, n_loads=1, load_reqs=1,
            exp_mshr_reqs=0.1, exp_dram_read_reqs=0.1, exp_mshr_loads=0.1,
            exp_dram_loads=0.1,
        )
        result = model_contention(profile_with(interval), 2, GPUConfig(), 420.0)
        mshr, sfu, smem, queue = result.effective_components(
            cpi_multithreading=5.0
        )
        assert mshr == pytest.approx(result.cpi_mshr_model)
        assert sfu == 0.0 and smem == 0.0
        assert queue == pytest.approx(result.cpi_queue_model)

    def test_per_interval_lists_align(self):
        profile = IntervalProfile.from_intervals(
            0, [Interval(n_insts=5, stall_cycles=1.0)] * 3
        )
        result = model_contention(profile, 4, GPUConfig(), 420.0)
        assert len(result.per_interval_mshr) == 3
        assert len(result.per_interval_queue) == 3
