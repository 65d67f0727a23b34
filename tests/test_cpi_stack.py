"""Unit tests for CPI-stack construction (Sec. VII, Table III)."""

import numpy as np
import pytest

from repro.config import GPUConfig
from repro.core.contention import model_contention
from repro.core.cpi_stack import (
    CPIStack,
    StallType,
    build_cpi_stack,
    single_warp_stack,
)
from repro.core.interval import Interval, IntervalProfile
from repro.core.latency import LatencyTable
from repro.core.multithreading import model_multithreading
from repro.memory.cache_simulator import PCStats
from repro.memory.hierarchy import MissEvent


def latency_table_with(pc_stats):
    return LatencyTable(np.ones(16), pc_stats, GPUConfig())


def memory_pc_stats(pc, l1=0.0, l2=0.0, dram=1.0, n=10):
    stats = PCStats(pc=pc, is_store=False)
    stats.n_insts = n
    stats.n_requests = n
    stats.inst_events = {
        MissEvent.L1_HIT: int(round(l1 * n)),
        MissEvent.L2_HIT: int(round(l2 * n)),
        MissEvent.L2_MISS: int(round(dram * n)),
    }
    stats.req_events = dict(stats.inst_events)
    return stats


class TestCPIStackType:
    def test_total_sums_components(self):
        stack = CPIStack()
        stack.components[StallType.BASE] = 1.0
        stack.components[StallType.DEP] = 2.0
        assert stack.total == 3.0

    def test_scaled(self):
        stack = CPIStack()
        stack.components[StallType.BASE] = 2.0
        scaled = stack.scaled(0.5)
        assert scaled[StallType.BASE] == 1.0
        assert stack[StallType.BASE] == 2.0  # original untouched

    def test_render_contains_all_categories(self):
        text = CPIStack().render()
        for t in StallType:
            assert t.value in text

    def test_as_dict(self):
        d = CPIStack().as_dict()
        assert set(d) == {t.value for t in StallType}


class TestSingleWarpStack:
    def test_compute_stall_goes_to_dep(self):
        profile = IntervalProfile.from_intervals(0, [
            Interval(n_insts=2, stall_cycles=8.0, cause_pc=0,
                     cause_is_memory=False)
        ])
        stack = single_warp_stack(profile, latency_table_with({}))
        assert stack[StallType.BASE] == 1.0
        assert stack[StallType.DEP] == pytest.approx(4.0)
        assert stack.total == pytest.approx(profile.single_warp_cpi)

    def test_memory_stall_split_by_distribution(self):
        stats = memory_pc_stats(3, l1=0.1, l2=0.2, dram=0.7)
        profile = IntervalProfile.from_intervals(0, [
            Interval(n_insts=10, stall_cycles=100.0, cause_pc=3,
                     cause_is_memory=True)
        ])
        stack = single_warp_stack(profile, latency_table_with({3: stats}))
        assert stack[StallType.L1] == pytest.approx(1.0)
        assert stack[StallType.L2] == pytest.approx(2.0)
        assert stack[StallType.DRAM] == pytest.approx(7.0)
        assert stack.total == pytest.approx(profile.single_warp_cpi)

    def test_memory_cause_without_stats_falls_back_to_dep(self):
        profile = IntervalProfile.from_intervals(0, [
            Interval(n_insts=2, stall_cycles=6.0, cause_pc=9,
                     cause_is_memory=True)
        ])
        stack = single_warp_stack(profile, latency_table_with({}))
        assert stack[StallType.DEP] == pytest.approx(3.0)

    def test_empty_profile(self):
        stack = single_warp_stack(
            IntervalProfile(warp_id=0), latency_table_with({})
        )
        assert stack.total == 0.0


class TestFullStack:
    def build(self, n_warps=4):
        stats = memory_pc_stats(3, dram=1.0)
        profile = IntervalProfile.from_intervals(0, [
            Interval(
                n_insts=10, stall_cycles=420.0, cause_pc=3,
                cause_is_memory=True, n_loads=1, load_reqs=32,
                exp_mshr_reqs=32.0, exp_dram_read_reqs=32.0,
                exp_mshr_loads=1.0, exp_dram_loads=1.0,
            )
        ])
        config = GPUConfig()
        table = latency_table_with({3: stats})
        mt = model_multithreading(profile, n_warps, "rr")
        rc = model_contention(profile, n_warps, config, 420.0)
        return build_cpi_stack(profile, table, mt, rc, config), mt, rc

    def test_stack_total_equals_final_cpi(self):
        stack, mt, rc = self.build(n_warps=32)
        mshr, sfu, smem, queue = rc.effective_components(mt.cpi)
        assert stack.total == pytest.approx(
            mt.cpi + mshr + sfu + smem + queue
        )

    def test_shrink_preserves_relative_importance(self):
        stack, mt, _ = self.build(n_warps=4)
        # Without MSHR/QUEUE, remaining categories sum to CPI_mt.
        partial = sum(
            stack[t] for t in (StallType.BASE, StallType.DEP, StallType.L1,
                               StallType.L2, StallType.DRAM)
        )
        assert partial == pytest.approx(mt.cpi)

    def test_contention_categories_present_under_pressure(self):
        stack, _, _ = self.build(n_warps=32)
        assert stack[StallType.MSHR] > 0.0


class TestRenderStacks:
    def test_side_by_side(self):
        from repro.core.cpi_stack import render_stacks

        a = CPIStack()
        a.components[StallType.BASE] = 1.0
        a.components[StallType.DRAM] = 2.0
        b = CPIStack()
        b.components[StallType.QUEUE] = 3.0
        text = render_stacks({"one": a, "two": b})
        lines = text.splitlines()
        assert len(lines) == 3
        assert "3.000" in lines[1] and "3.000" in lines[2]
        assert "M" in lines[1]  # DRAM glyph
        assert "Q" in lines[2]  # QUEUE glyph

    def test_normalisation(self):
        from repro.core.cpi_stack import render_stacks

        a = CPIStack()
        a.components[StallType.BASE] = 4.0
        text = render_stacks({"x": a}, normalise_to=4.0)
        assert "1.000" in text

    def test_empty_stack(self):
        from repro.core.cpi_stack import render_stacks

        assert "0.000" in render_stacks({"zero": CPIStack()})
