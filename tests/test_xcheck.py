"""Tests for the dynamic-vs-static cross-validation sanitizer.

The clean half pins the whole workload suite: every dynamic collector
must agree with every statically proven fact.  The fault-injection half
is the real point — each check must *detect* a deliberately corrupted
collector, so a future regression in the coalescer, the SIMT stack or
the emulator trips the sanitizer instead of silently skewing results.
"""

import copy

import numpy as np
import pytest

from repro.config import GPUConfig
from repro.staticcheck import analyze_kernel, crosscheck_kernel
from repro.trace.emulator import emulate
from repro.trace.trace_types import OpCode
from repro.workloads.generators import Scale, matmul_smem_tiled
from repro.workloads.suite import SUITE, kernel_names


def _build_and_trace(name, scale=None, config=None):
    scale = scale or Scale.tiny()
    config = config or GPUConfig()
    kernel, memory = SUITE[name].build(scale)
    trace = emulate(kernel, config, memory=memory)
    return kernel, trace


def _checks(report):
    return {d.check_id for d in report.errors}


class TestCleanSuite:
    @pytest.mark.parametrize("name", kernel_names())
    def test_no_mismatch_on_suite(self, name):
        kernel, trace = _build_and_trace(name)
        report = crosscheck_kernel(kernel, trace)
        assert not report.errors, "\n".join(
            str(d) for d in report.errors
        )

    @pytest.mark.parametrize("stride_words", [1, 2, 32])
    def test_no_mismatch_on_shared_memory(self, stride_words):
        config = GPUConfig()
        kernel, memory = matmul_smem_tiled(
            "smem_cs%d" % stride_words, Scale.tiny(),
            conflict_stride_words=stride_words,
        )
        trace = emulate(kernel, config, memory=memory)
        report = crosscheck_kernel(kernel, trace)
        assert not report.errors

    def test_clean_report_shape(self):
        kernel, trace = _build_and_trace("vectoradd")
        report = crosscheck_kernel(kernel, trace)
        assert report.kernel == "vectoradd"
        assert not report.has_errors


class TestFaultInjection:
    """Each dynamic collector is corrupted in isolation; the matching
    check must fire (and name the corrupted pc)."""

    def test_coalescer_fault_detected(self):
        # Regression guard for the acceptance criterion: split one
        # coalesced request in two, as a buggy coalescer would.
        config = GPUConfig()
        kernel, trace = _build_and_trace("vectoradd", config=config)
        cost = analyze_kernel(kernel, config)
        exact_pcs = {
            a.pc for a in cost.accesses
            if a.space == "global" and a.phase_known
            and not a.under_divergent_control
        }
        warp = trace.warps[0]
        target = next(
            i for i, pc in enumerate(warp.pcs)
            if int(pc) in exact_pcs
            and int(warp.active[i]) == config.warp_size
        )
        start = int(warp.req_offsets[target])
        warp.req_lines = np.insert(
            warp.req_lines, start, warp.req_lines[start] + 1
        )
        warp.req_offsets = warp.req_offsets.copy()
        warp.req_offsets[target + 1:] += 1

        report = crosscheck_kernel(kernel, trace, cost=cost, config=config)
        assert "xcheck-coalescing" in _checks(report)
        assert any(
            d.pc == int(warp.pcs[target]) for d in report.errors
        )

    def test_trip_count_fault_detected(self):
        # Cost model from an iters=3 build, trace from an iters=2 run:
        # same program shape, different loop bound — the exact trip
        # count must catch the divergence.
        config = GPUConfig()
        kernel3, _ = SUITE["vectoradd"].build(
            Scale(n_blocks=4, block_size=64, iters=3)
        )
        _, trace2 = _build_and_trace("vectoradd", config=config)
        cost3 = analyze_kernel(kernel3, config)
        report = crosscheck_kernel(kernel3, trace2, cost=cost3, config=config)
        assert "xcheck-trip-count" in _checks(report)

    def test_divergence_fault_detected(self):
        # Drop one lane at a pc no divergent branch region covers, the
        # signature of a SIMT-stack reconvergence bug.
        kernel, trace = _build_and_trace("vectoradd")
        cost = analyze_kernel(kernel)
        warp = trace.warps[0]
        target = next(
            i for i in range(1, len(warp.pcs))
            if int(warp.pcs[i]) not in cost.divergent_masked
        )
        warp.active = warp.active.copy()
        warp.active[target] -= 1
        report = crosscheck_kernel(kernel, trace, cost=cost)
        assert "xcheck-divergence" in _checks(report)

    def test_bank_conflict_fault_detected(self):
        config = GPUConfig()
        kernel, memory = matmul_smem_tiled(
            "smem_fault", Scale.tiny(), conflict_stride_words=1
        )
        trace = emulate(kernel, config, memory=memory)
        cost = analyze_kernel(kernel, config)
        shared_pcs = {a.pc for a in cost.accesses if a.space == "shared"}
        warp = trace.warps[0]
        target = next(
            i for i, pc in enumerate(warp.pcs) if int(pc) in shared_pcs
        )
        warp.conflict = warp.conflict.copy()
        warp.conflict[target] = 5  # conflict-free layout, degree must be 1
        report = crosscheck_kernel(kernel, trace, cost=cost, config=config)
        assert "xcheck-bank-conflict" in _checks(report)

    def test_structure_fault_wrong_opclass_detected(self):
        kernel, trace = _build_and_trace("vectoradd")
        warp = trace.warps[0]
        warp.ops = warp.ops.copy()
        # Claim the first instruction was an SFU op; the program says not.
        warp.ops[0] = OpCode.SFU.value
        report = crosscheck_kernel(kernel, trace)
        assert "xcheck-structure" in _checks(report)

    def test_structure_fault_out_of_range_pc_detected(self):
        kernel, trace = _build_and_trace("vectoradd")
        warp = trace.warps[0]
        warp.pcs = warp.pcs.copy()
        warp.pcs[0] = len(kernel.program) + 7
        report = crosscheck_kernel(kernel, trace)
        assert "xcheck-structure" in _checks(report)

    def test_mismatches_aggregate_per_pc(self):
        # Corrupting every occurrence of one pc yields one diagnostic
        # with an instance count, not one diagnostic per instruction.
        kernel, trace = _build_and_trace("vectoradd")
        cost = analyze_kernel(kernel)
        warp = trace.warps[0]
        uniform = [
            i for i in range(1, len(warp.pcs))
            if int(warp.pcs[i]) not in cost.divergent_masked
            and int(warp.pcs[i]) == int(warp.pcs[1])
        ]
        warp.active = warp.active.copy()
        for i in uniform:
            warp.active[i] -= 1
        report = crosscheck_kernel(kernel, trace, cost=cost)
        div = [d for d in report.errors if d.check_id == "xcheck-divergence"]
        assert len(div) == 1
        if len(uniform) > 1:
            assert "more instance(s)" in div[0].message

    def test_fault_does_not_leak_between_traces(self):
        # Sanity: a deep-copied trace can be corrupted without
        # invalidating the pristine one.
        kernel, trace = _build_and_trace("vectoradd")
        corrupted = copy.deepcopy(trace)
        corrupted.warps[0].active[1] -= 1
        assert not crosscheck_kernel(kernel, trace).has_errors
        assert crosscheck_kernel(kernel, corrupted).has_errors
