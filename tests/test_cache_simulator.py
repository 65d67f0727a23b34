"""Unit tests for the functional cache simulator (per-PC distributions)."""

import pickle

import pytest

from repro.backend import SCALAR_ENV
from repro.config import GPUConfig
from repro.isa import KernelBuilder
from repro.memory import MissEvent, simulate_caches
from repro.memory.cache_simulator import core_of_block
from repro.memory.hierarchy import MemoryHierarchy
from repro.trace import emulate


def run(build_fn, n_threads=256, block_size=64, config=None):
    config = config or GPUConfig.small(n_cores=2, warps_per_core=8)
    b = KernelBuilder("k")
    build_fn(b)
    b.exit()
    kernel = b.build(n_threads=n_threads, block_size=block_size)
    trace = emulate(kernel, config)
    return simulate_caches(trace, config), config


def streaming_load(b):
    """Every warp loads its own line once."""
    b.fadd(b.ld(b.iadd(b.imul(b.tid(), 4), 0x100000)), 1.0)


def shared_line_load(b):
    """Every warp loads the same line."""
    b.fadd(b.ld(b.mov(0x100000)), 1.0)


def uneven_trip_loads(b):
    """Warp ``w`` of a block reaches the loop's load ``w + 1`` times, at a
    new line each trip."""
    base = b.iadd(b.imul(b.tid(), 4), 0x100000)
    trips = b.iadd(b.warpid(), 1)
    counter = b.mov(0)
    head = b.loop_begin()
    b.ld(b.iadd(base, b.imul(counter, 0x10000)))
    counter = b.iadd(counter, 1, dst=counter)
    b.loop_end(head, b.setp_lt(counter, trips))


def compute_only(b):
    acc = b.mov(1.0)
    for _ in range(4):
        acc = b.fmul(acc, 1.5, dst=acc)


class TestHierarchy:
    def test_event_ordering_by_latency(self):
        assert MissEvent.L1_HIT < MissEvent.L2_HIT < MissEvent.L2_MISS

    def test_event_latency_keys(self):
        config = GPUConfig()
        hierarchy = MemoryHierarchy(config)
        assert hierarchy.event_latency(MissEvent.L1_HIT) == 25
        assert hierarchy.event_latency(MissEvent.L2_MISS) == 420

    def test_l1_private_l2_shared(self):
        config = GPUConfig.small(n_cores=2)
        hierarchy = MemoryHierarchy(config)
        assert hierarchy.access(0, 0x1000) is MissEvent.L2_MISS
        # Other core: misses its own L1 but hits the shared L2.
        assert hierarchy.access(1, 0x1000) is MissEvent.L2_HIT
        # Same core again: L1 hit.
        assert hierarchy.access(0, 0x1000) is MissEvent.L1_HIT

    def test_core_bounds_checked(self):
        hierarchy = MemoryHierarchy(GPUConfig.small(n_cores=2))
        with pytest.raises(IndexError):
            hierarchy.access(2, 0)


class TestCoreAssignment:
    def test_round_robin_blocks(self):
        assert [core_of_block(b, 4) for b in range(8)] == [0, 1, 2, 3, 0, 1, 2, 3]


class TestPerPCStats:
    def test_streaming_load_all_l2_misses(self):
        def build(b):
            b.ld(b.iadd(b.imul(b.tid(), 4), 0x100000))

        result, config = run(build)
        (pc,) = result.load_pcs()
        stats = result.stats_for(pc)
        assert stats.inst_event_fraction(MissEvent.L2_MISS) == 1.0
        assert stats.amat(config) == config.l2_miss_latency

    def test_repeated_load_hits_l1(self):
        def build(b):
            addr = b.iadd(b.imul(b.tid(), 4), 0x100000)
            b.ld(addr)
            b.ld(addr)

        result, config = run(build)
        first, second = result.load_pcs()
        assert result.stats_for(second).inst_event_fraction(
            MissEvent.L1_HIT
        ) == 1.0
        assert result.stats_for(second).amat(config) == config.l1_latency

    def test_mixed_distribution_amat(self):
        # One load whose two dynamic executions differ: cold miss then hit.
        def build(b):
            addr = b.imul(b.imod(b.tid(), 32), 4)  # same line set per warp
            counter = b.mov(0)
            head = b.loop_begin()
            b.ld(addr)
            counter = b.iadd(counter, 1, dst=counter)
            pred = b.setp_lt(counter, 2)
            b.loop_end(head, pred)

        result, config = run(build, n_threads=32, block_size=32)
        (pc,) = result.load_pcs()
        stats = result.stats_for(pc)
        assert stats.n_insts == 2
        expected = 0.5 * config.l2_miss_latency + 0.5 * config.l1_latency
        assert stats.amat(config) == pytest.approx(expected)

    def test_divergent_instruction_event_is_worst_request(self):
        # First load warms one line; second load touches the warm line and
        # a cold line -> instruction event must be the slower (L2 miss).
        def build(b):
            lane = b.lane()
            b.ld(b.mov(0x100000))  # warm line for all lanes
            addr = b.iadd(b.imul(lane, 0x100000), 0x100000)
            pred = b.setp_lt(lane, 2)
            with b.if_(pred):
                b.ld(addr)  # lane 0 warm, lane 1 cold

        result, _ = run(build, n_threads=32, block_size=32)
        pcs = result.load_pcs()
        stats = result.stats_for(pcs[-1])
        assert stats.inst_event_fraction(MissEvent.L2_MISS) == 1.0
        # Request-level distribution still sees the L1 hit.
        assert stats.req_events[MissEvent.L1_HIT] == 1

    def test_store_pcs_classified(self):
        def build(b):
            addr = b.iadd(b.imul(b.tid(), 4), 0x100000)
            b.st(addr, 1.0)

        result, _ = run(build)
        assert result.load_pcs() == []
        assert len(result.store_pcs()) == 1

    def test_shared_line_missed_once_per_core(self):
        # Two cores: each core's first warp to reach the line misses its
        # own L1 (core 0 then also misses the shared L2, core 1 hits it);
        # the other six warps hit their core's L1.
        result, _ = run(shared_line_load)
        (pc,) = result.load_pcs()
        stats = result.stats_for(pc)
        assert stats.n_insts == 8
        assert stats.inst_events == {
            MissEvent.L1_HIT: 6, MissEvent.L2_HIT: 1, MissEvent.L2_MISS: 1,
        }
        assert result.l1_miss_rate == 2 / 8
        assert result.l2_miss_rate == 1 / 2

    def test_compute_only_kernel_records_no_pcs(self):
        result, _ = run(compute_only)
        assert result.per_pc == {}
        assert result.l1_miss_rate == result.l2_miss_rate == 0.0

    def test_requests_per_inst_tracks_divergence(self):
        def build(b):
            b.ld(b.imul(b.tid(), 512))

        result, _ = run(build, n_threads=32, block_size=32)
        (pc,) = result.load_pcs()
        assert result.stats_for(pc).avg_requests_per_inst == 32.0


class TestAvgMissLatency:
    def test_all_dram_misses(self):
        def build(b):
            b.ld(b.iadd(b.imul(b.tid(), 4), 0x100000))

        result, config = run(build)
        assert result.avg_miss_latency(config) == config.l2_miss_latency

    def test_no_memory_instructions_defaults(self):
        def build(b):
            b.fadd(1.0, 2.0)

        result, config = run(build)
        assert result.avg_miss_latency(config) == config.l2_miss_latency


class TestReplayBackends:
    """The batched replay and the ``REPRO_SCALAR=1`` loop nest record the
    same per-PC counters, also when warps reach a PC a different number
    of times."""

    @pytest.mark.parametrize(
        "build_fn",
        [streaming_load, shared_line_load, uneven_trip_loads, compute_only],
        ids=lambda fn: fn.__name__,
    )
    def test_backends_agree(self, build_fn, monkeypatch):
        monkeypatch.setenv(SCALAR_ENV, "0")
        batched, _ = run(build_fn)
        monkeypatch.setenv(SCALAR_ENV, "1")
        scalar, _ = run(build_fn)
        assert pickle.dumps(batched) == pickle.dumps(scalar)
