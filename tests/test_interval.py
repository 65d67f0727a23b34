"""Unit tests for the interval algorithm (Sec. III-B, Fig. 6)."""

import io
import pickle

import numpy as np
import pytest

from repro.config import GPUConfig
from repro.core.interval import (
    Interval,
    IntervalColumns,
    IntervalProfile,
    IntervalProfiles,
    build_interval_profile,
    build_interval_profiles,
)
from repro.core.latency import LatencyTable, build_latency_table
from repro.memory.cache_simulator import simulate_caches
from repro.trace.emulator import emulate
from repro.trace.trace_types import MAX_DEPS, NO_DEP, OpCode, WarpTrace
from repro.workloads import Scale
from repro.workloads.suite import SUITE


def make_trace(rows, req_counts=None):
    """Build a WarpTrace from (pc, op, deps) rows."""
    n = len(rows)
    req_counts = req_counts or [0] * n
    deps = np.full((n, MAX_DEPS), NO_DEP, dtype=np.int32)
    for i, (_, _, row_deps) in enumerate(rows):
        for j, dep in enumerate(row_deps):
            deps[i, j] = dep
    offsets = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(req_counts, out=offsets[1:])
    return WarpTrace(
        warp_id=0,
        block_id=0,
        pcs=np.array([r[0] for r in rows], dtype=np.int32),
        ops=np.array([int(r[1]) for r in rows], dtype=np.int8),
        deps=deps,
        active=np.full(n, 32, dtype=np.int16),
        req_offsets=offsets,
        req_lines=np.arange(int(offsets[-1]), dtype=np.int64) * 128,
    )


def make_latency_table(latencies):
    """LatencyTable with explicit per-PC latencies and no cache stats."""
    return LatencyTable(
        np.asarray(latencies, dtype=np.float64), {}, GPUConfig()
    )


class TestIntervalAlgorithm:
    def test_no_dependencies_single_interval(self):
        rows = [(pc, OpCode.IALU, []) for pc in range(5)]
        profile = build_interval_profile(
            make_trace(rows), make_latency_table([4.0] * 5)
        )
        assert profile.n_intervals == 1
        assert profile.intervals[0].n_insts == 5
        assert profile.intervals[0].stall_cycles == 0.0
        assert profile.total_cycles == 5.0

    def test_dependency_creates_stall(self):
        # i0 (latency 10); i1 depends on i0: issue(i1) = max(1, 0+10) = 10.
        rows = [(0, OpCode.FALU, []), (1, OpCode.FALU, [0])]
        profile = build_interval_profile(
            make_trace(rows), make_latency_table([10.0, 10.0])
        )
        assert profile.n_intervals == 2
        first = profile.intervals[0]
        assert first.n_insts == 1
        assert first.stall_cycles == 9.0
        assert first.cause_pc == 0
        assert profile.total_cycles == 2.0 + 9.0

    def test_paper_figure6_shape(self):
        """Fig. 6: i5 depends on i3 (long latency) -> interval boundary at
        i5; independent instructions in between do not stall."""
        lat = [1.0, 1.0, 1.0, 100.0, 1.0, 1.0, 1.0]
        rows = [
            (0, OpCode.IALU, []),
            (1, OpCode.IALU, []),
            (2, OpCode.IALU, []),
            (3, OpCode.LOAD, []),  # long-latency producer
            (4, OpCode.IALU, []),
            (5, OpCode.IALU, [3]),  # consumer of the load
            (6, OpCode.IALU, []),
        ]
        profile = build_interval_profile(
            make_trace(rows, req_counts=[0, 0, 0, 1, 0, 0, 0]),
            make_latency_table(lat),
        )
        assert profile.n_intervals == 2
        first, second = profile.intervals
        assert first.n_insts == 5  # i0..i4
        # issue(i5) = max(4+1, 3+100) = 103; earliest was 5 -> stall 98.
        assert first.stall_cycles == 98.0
        assert first.cause_pc == 3
        assert first.cause_is_memory
        assert second.n_insts == 2

    def test_cause_is_max_contributor(self):
        # Two producers; the slower one is the cause.
        lat = [5.0, 50.0, 1.0]
        rows = [
            (0, OpCode.IALU, []),
            (1, OpCode.FALU, []),
            (2, OpCode.IALU, [0, 1]),
        ]
        profile = build_interval_profile(
            make_trace(rows), make_latency_table(lat)
        )
        assert profile.intervals[0].cause_pc == 1

    def test_issue_rate_scales_base_cycles(self):
        rows = [(pc, OpCode.IALU, []) for pc in range(4)]
        profile = build_interval_profile(
            make_trace(rows), make_latency_table([1.0] * 4), issue_rate=2.0
        )
        assert profile.total_cycles == pytest.approx(2.0)

    def test_empty_trace(self):
        trace = make_trace([(0, OpCode.EXIT, [])])[0:0] if False else None
        # Build an actually empty trace via slicing machinery is awkward;
        # exercise via profile of a minimal single-exit trace instead.
        profile = build_interval_profile(
            make_trace([(0, OpCode.EXIT, [])]), make_latency_table([1.0])
        )
        assert profile.n_insts == 1


class TestIntervalAccounting:
    def test_memory_footprint_counted(self):
        rows = [
            (0, OpCode.LOAD, []),
            (1, OpCode.STORE, []),
            (2, OpCode.IALU, []),
        ]
        profile = build_interval_profile(
            make_trace(rows, req_counts=[4, 2, 0]),
            make_latency_table([25.0, 1.0, 4.0]),
        )
        interval = profile.intervals[0]
        assert interval.n_loads == 1
        assert interval.n_stores == 1
        assert interval.load_reqs == 4
        assert interval.store_reqs == 2
        assert interval.n_mem_insts == 2

    def test_dram_reqs_includes_stores(self):
        interval = Interval(store_reqs=3, exp_dram_read_reqs=2.5)
        assert interval.dram_reqs == 5.5

    def test_interval_cycles(self):
        interval = Interval(n_insts=4, stall_cycles=6.0)
        assert interval.cycles(1.0) == 10.0
        assert interval.cycles(2.0) == 8.0


class TestProfileAggregates:
    def test_eq5_warp_perf(self):
        profile = IntervalProfile.from_intervals(
            0,
            [Interval(n_insts=1, stall_cycles=10.0),
             Interval(n_insts=4, stall_cycles=10.0)],
            issue_rate=1.0,
        )
        # Eq. 5: 5 insts / (5 + 20) cycles.
        assert profile.warp_perf == pytest.approx(5 / 25)
        assert profile.issue_prob == profile.warp_perf
        assert profile.single_warp_cpi == pytest.approx(5.0)
        assert profile.avg_interval_insts == pytest.approx(2.5)

    def test_totals_partition_the_trace(self):
        rows = [
            (0, OpCode.FALU, []),
            (1, OpCode.FALU, [0]),
            (2, OpCode.FALU, [1]),
        ]
        profile = build_interval_profile(
            make_trace(rows), make_latency_table([10.0, 10.0, 10.0])
        )
        assert profile.n_insts == 3
        assert sum(i.n_insts for i in profile.intervals) == 3

    def test_aggregates_computed_once(self):
        # n_insts / total_stall_cycles sit inside per-cycle model loops;
        # they must be cached on first access, not re-summed per call.
        profile = IntervalProfile.from_intervals(
            0, [Interval(n_insts=2, stall_cycles=5.0)]
        )
        assert profile.n_insts == 2
        assert profile.total_stall_cycles == 5.0
        # Were the properties re-summing, swapping in more intervals
        # would change them.
        profile.columns = IntervalColumns.from_rows(
            [Interval(n_insts=2, stall_cycles=5.0),
             Interval(n_insts=7, stall_cycles=9.0)]
        )
        assert profile.n_insts == 2
        assert profile.total_stall_cycles == 5.0
        # The cache is per-instance state, not class state.
        other = IntervalProfile.from_intervals(
            1, [Interval(n_insts=1, stall_cycles=1.0)]
        )
        assert other.n_insts == 1
        assert other.total_stall_cycles == 1.0


def pickled_objects(value):
    """Types of every object pickling ``value`` writes, with counts."""
    counts = {}

    class Recorder(pickle.Pickler):
        def persistent_id(self, obj):
            counts[type(obj)] = counts.get(type(obj), 0) + 1
            return None

    Recorder(io.BytesIO(), protocol=pickle.HIGHEST_PROTOCOL).dump(value)
    return counts


def suite_profiles(name, scale):
    config = GPUConfig.small(n_cores=2, warps_per_core=8)
    kernel, memory = SUITE[name].build(scale)
    trace = emulate(kernel, config, memory=memory)
    table = build_latency_table(trace, simulate_caches(trace, config), config)
    return build_interval_profiles(trace.warps, table, config.issue_rate)


class TestProfilesArtifact:
    def test_pickles_as_a_fixed_number_of_arrays(self):
        small = suite_profiles("vectoradd", Scale.tiny())
        large = suite_profiles("sgemm_tile", Scale.small())
        assert len(large) > len(small)
        assert len(large.columns.n_insts) > 10 * len(small.columns.n_insts)
        for profiles in (small, large):
            counts = pickled_objects(profiles)
            # 15 columns + offsets + warp ids, nothing per warp or row.
            assert counts[np.ndarray] == 17
            assert Interval not in counts
            assert IntervalProfile not in counts

    def test_views_slice_the_launch_columns(self):
        profiles = suite_profiles("kmeans_invert_mapping", Scale.tiny())
        assert isinstance(profiles, IntervalProfiles)
        offsets = profiles.offsets
        for index, profile in enumerate(profiles):
            assert profile is profiles[index]  # one view per warp
            assert profile.warp_id == profiles.warp_ids[index]
            assert profile.n_intervals == offsets[index + 1] - offsets[index]
            assert np.shares_memory(profile.columns.stall_cycles,
                                    profiles.columns.stall_cycles) or (
                profile.n_intervals == 0
            )

    def test_a_pickled_view_carries_only_its_rows(self):
        profiles = suite_profiles("kmeans_invert_mapping", Scale.tiny())
        view = profiles[1]
        n_insts = view.n_insts  # now cached
        copy = pickle.loads(pickle.dumps(view))
        assert copy == view
        assert len(copy.columns.n_insts) == view.n_intervals
        assert "n_insts" not in vars(copy)
        assert copy.n_insts == n_insts
