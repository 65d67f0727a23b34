"""Unit tests for the machine configuration (Table I)."""

import math

import numpy as np
import pytest

from repro.config import INT_FIELDS, ConfigError, GPUConfig


class TestDefaults:
    def test_paper_baseline_matches_table1(self):
        cfg = GPUConfig.paper_baseline()
        assert cfg.n_cores == 16
        assert cfg.warp_size == 32
        assert cfg.max_warps_per_core == 32
        assert cfg.l1_size == 32 * 1024
        assert cfg.l1_latency == 25
        assert cfg.l2_size == 768 * 1024
        assert cfg.l2_latency == 120
        assert cfg.n_mshrs == 32
        assert cfg.dram_latency == 300
        assert cfg.dram_bandwidth_gbps == 192.0
        assert cfg.line_size == 128
        assert cfg.op_latencies["falu"] == 25

    def test_small_preset(self):
        cfg = GPUConfig.small(n_cores=2, warps_per_core=8)
        assert cfg.n_cores == 2
        assert cfg.max_warps_per_core == 8


class TestDerived:
    def test_dram_service_cycles_eq22(self):
        cfg = GPUConfig()
        # s = freq * L / B = 1 GHz * 128 B / 192 GB/s = 2/3 cycle
        assert cfg.dram_service_cycles == pytest.approx(128.0 / 192.0)

    def test_dram_service_scales_with_clock(self):
        slow = GPUConfig().with_(core_clock_ghz=2.0)
        assert slow.dram_service_cycles == pytest.approx(2 * 128.0 / 192.0)

    def test_l2_miss_latency_is_additive(self):
        cfg = GPUConfig()
        assert cfg.l2_miss_latency == 120 + 300

    def test_miss_event_latency(self):
        cfg = GPUConfig()
        assert cfg.miss_event_latency("l1_hit") == 25
        assert cfg.miss_event_latency("l2_hit") == 120
        assert cfg.miss_event_latency("l2_miss") == 420

    def test_miss_event_latency_rejects_unknown(self):
        with pytest.raises(ConfigError):
            GPUConfig().miss_event_latency("l3_hit")


class TestWith:
    def test_with_returns_modified_copy(self):
        base = GPUConfig()
        swept = base.with_(n_mshrs=64)
        assert swept.n_mshrs == 64
        assert base.n_mshrs == 32

    def test_with_revalidates(self):
        with pytest.raises(ConfigError):
            GPUConfig().with_(n_mshrs=0)


class TestValidation:
    @pytest.mark.parametrize(
        "field,value",
        [
            ("n_cores", 0),
            ("warp_size", 0),
            ("scheduler", "fifo"),
            ("n_mshrs", 0),
            ("dram_bandwidth_gbps", 0.0),
            ("core_clock_ghz", -1.0),
            # Non-finite rates pass a bare "<= 0" check, then yield NaN
            # CPIs or stall the oracle.
            ("dram_bandwidth_gbps", math.nan),
            ("dram_bandwidth_gbps", math.inf),
            ("core_clock_ghz", math.nan),
            ("core_clock_ghz", math.inf),
            # Fewer threads per core than one warp.
            ("max_threads_per_core", 0),
            ("max_threads_per_core", -32),
            # Line sizes that are not a positive power of two.
            ("line_size", 96),
            ("line_size", 0),
            # Associativity below 1 (checked before the divisibility
            # test, which would divide by it).
            ("l1_assoc", 0),
            ("l2_assoc", 0),
            # A cache smaller than one set.
            ("l1_size", 0),
            # Negative latencies.
            ("l1_latency", -5),
            ("l2_latency", -1),
            ("dram_latency", -300),
            ("op_latencies", {"ialu": 4, "falu": -1, "sfu": 40}),
            # Scratchpad accesses take at least a cycle, over at least
            # one bank.
            ("smem_latency", 0),
            ("smem_banks", 0),
            # Counts that are not integers: a fraction, a bool (one
            # MSHR), and floats that crash the oracle's integer maths.
            ("n_mshrs", 32.5),
            ("n_mshrs", True),
            ("n_dram_channels", 2.0),
            ("n_cores", 2.0),
            ("op_latencies", {"ialu": 4, "falu": 25.0, "sfu": 40}),
        ],
    )
    def test_invalid_fields_rejected(self, field, value):
        with pytest.raises(ConfigError):
            GPUConfig(**{field: value})

    @pytest.mark.parametrize("field", sorted(INT_FIELDS))
    def test_counts_must_be_integers(self, field):
        value = getattr(GPUConfig(), field)
        for bad in (float(value), bool(value)):
            with pytest.raises(ConfigError, match="must be an integer"):
                GPUConfig(**{field: bad})

    def test_numpy_integers_are_integers(self):
        assert GPUConfig(n_mshrs=np.int64(16)).n_mshrs == 16

    def test_line_size_must_be_power_of_two(self):
        # Cache sizes divisible by line_size*assoc, so only the line
        # size itself is wrong.
        with pytest.raises(ConfigError, match="power of two"):
            GPUConfig(line_size=96, l1_size=96 * 8 * 32,
                      l2_size=96 * 8 * 1024)

    def test_max_threads_must_be_warp_multiple(self):
        with pytest.raises(ConfigError):
            GPUConfig(max_threads_per_core=1000)

    def test_cache_geometry_must_divide(self):
        with pytest.raises(ConfigError):
            GPUConfig(l1_size=1000)

    def test_missing_op_latency_class(self):
        with pytest.raises(ConfigError):
            GPUConfig(op_latencies={"ialu": 4})


class TestTheConfigIsTheMachine:
    """Residency, the scheduler and the issue rate have one home, the
    config: no entry point takes them as a per-call override."""

    @staticmethod
    def _entry_points():
        from repro.baselines.markov import markov_chain_cpi
        from repro.baselines.naive import naive_interval_cpi
        from repro.core import interval, interval_vec
        from repro.core.model import GPUMech, resident_warps_per_core
        from repro.core.multithreading import nonoverlapped_gto
        from repro.memory.cache_sim_vec import simulate_caches_vectorized
        from repro.memory.cache_simulator import (
            _resident_waves,
            simulate_caches,
        )
        from repro.pipeline.pipeline import EvalRequest, Pipeline
        from repro.pipeline.stages import compute_oracle
        from repro.timing.core_model import CoreModel
        from repro.timing.simulator import TimingSimulator, simulate_kernel

        return [
            Pipeline.model_inputs, Pipeline.model_inputs_from_trace,
            Pipeline.simulate, Pipeline.predict, Pipeline.evaluate,
            Pipeline._chain, EvalRequest, compute_oracle,
            TimingSimulator, CoreModel, simulate_kernel,
            simulate_caches, simulate_caches_vectorized, _resident_waves,
            resident_warps_per_core, GPUMech.prepare, GPUMech.predict,
            interval.build_interval_profile,
            interval.build_interval_profiles,
            interval_vec.build_interval_profiles, interval.issue_stalls,
            interval.IntervalProfile, interval.IntervalProfile.from_intervals,
            interval.IntervalProfiles.from_profiles, nonoverlapped_gto,
            markov_chain_cpi, naive_interval_cpi,
        ]

    @pytest.mark.parametrize(
        "override", ["warps_per_core", "policy", "issue_rate"]
    )
    def test_no_entry_point_takes_the_override(self, override):
        import inspect

        taking = [
            entry.__qualname__ for entry in self._entry_points()
            if override in inspect.signature(entry).parameters
        ]
        assert taking == []

    def test_the_preset_builds_the_residency_into_the_config(self):
        # GPUConfig.small is the one place a warp count is a parameter:
        # it sets the config's field, which every reader reads.
        config = GPUConfig.small(n_cores=2, warps_per_core=4)
        assert config.max_warps_per_core == 4
        assert config == GPUConfig.small(n_cores=2).with_(
            max_threads_per_core=4 * config.warp_size
        )
