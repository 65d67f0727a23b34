"""Tests for the static kernel verifier: CFG, dataflow, and the checks."""

import json

import pytest

from repro.config import GPUConfig
from repro.isa import CmpOp, Imm, Instruction, Kernel, KernelBuilder, Reg, Special
from repro.isa.kernel import KernelValidationError
from repro.staticcheck import (
    CHECKS,
    ControlFlowGraph,
    Severity,
    lint_kernel,
    lint_program,
    reconvergence_errors,
    reports_to_json,
)
from repro.staticcheck.dataflow import (
    LANE,
    TID,
    UNINIT,
    DivergenceSources,
    LiveRegisters,
    ReachingDefinitions,
    register_tags,
    solve,
)
from repro.trace.emulator import emulate
from repro.workloads.generators import Scale
from repro.workloads.suite import SUITE, kernel_names


def setp_lane_lt(dst, bound):
    """``setp dst, lane < bound`` — the canonical divergent predicate."""
    return Instruction(
        "setp", dst=dst, srcs=(Special.LANE, Imm(bound)), cmp_op=CmpOp.LT
    )


#: A diamond: pc1 branches around pc2, both sides rejoin at pc3.
DIAMOND = (
    setp_lane_lt(Reg(0), 8),
    Instruction("bra", target=3, reconv=3, pred=Reg(0)),
    Instruction("mov", dst=Reg(1), srcs=(Imm(1),)),
    Instruction("st", srcs=(Imm(0), Reg(0))),
    Instruction("exit"),
)


class TestCFG:
    def test_successors_shapes(self):
        cfg = ControlFlowGraph(DIAMOND)
        assert cfg.succs[0] == (1,)
        assert cfg.succs[1] == (2, 3)  # fall-through first, then target
        assert cfg.succs[2] == (3,)
        assert cfg.succs[4] == ()
        assert cfg.preds[3] == (1, 2)

    def test_basic_blocks(self):
        cfg = ControlFlowGraph(DIAMOND)
        # [0,1] branch block, [2] guarded block, [3,4] join block.
        assert [(b.start, b.end) for b in cfg.blocks] == [(0, 2), (2, 3), (3, 5)]
        assert cfg.block_of[1] == 0 and cfg.block_of[4] == 2
        assert cfg.block_successors(cfg.blocks[0]) == (1, 2)

    def test_dominators(self):
        idom = ControlFlowGraph(DIAMOND).immediate_dominators()
        assert idom[0] is None  # entry
        assert idom[2] == 1
        # The join is dominated by the branch, not by either side.
        assert idom[3] == 1

    def test_postdominators(self):
        cfg = ControlFlowGraph(DIAMOND)
        ipdom = cfg.immediate_postdominators()
        # The branch's immediate post-dominator is the join.
        assert ipdom[1] == 3
        assert ipdom[4] is None  # exit is post-dominated only virtually
        assert cfg.postdominates(3, 1)
        assert not cfg.postdominates(2, 1)

    def test_unreachable_ranges(self):
        program = (
            Instruction("bra", target=3),
            Instruction("mov", dst=Reg(0), srcs=(Imm(1),)),
            Instruction("mov", dst=Reg(1), srcs=(Imm(2),)),
            Instruction("exit"),
        )
        cfg = ControlFlowGraph(program)
        assert cfg.reachable == frozenset({0, 3})
        assert cfg.unreachable_ranges() == [(1, 2)]

    def test_empty_program_rejected(self):
        with pytest.raises(ValueError):
            ControlFlowGraph(())

    def test_reconvergence_errors_clean_on_diamond(self):
        assert reconvergence_errors(DIAMOND) == []


class TestDataflow:
    def test_reaching_definitions(self):
        program = (
            Instruction("mov", dst=Reg(0), srcs=(Imm(1),)),
            Instruction("iadd", dst=Reg(1), srcs=(Reg(0), Reg(2))),
            Instruction("exit"),
        )
        in_facts, _ = solve(ControlFlowGraph(program), ReachingDefinitions())
        # At pc 1: r0's write at 0 killed the synthetic entry def, r2
        # has only the synthetic def.
        assert (0, 0) in in_facts[1] and (0, UNINIT) not in in_facts[1]
        assert (2, UNINIT) in in_facts[1]

    def test_liveness_backward(self):
        program = (
            Instruction("mov", dst=Reg(0), srcs=(Imm(1),)),
            Instruction("mov", dst=Reg(1), srcs=(Imm(2),)),
            Instruction("st", srcs=(Imm(0), Reg(0))),
            Instruction("exit"),
        )
        _, live_out = solve(ControlFlowGraph(program), LiveRegisters())
        assert 0 in live_out[0]  # r0 read by the store
        assert 1 not in live_out[1]  # r1 never read

    def test_divergence_taint(self):
        program = (
            Instruction("mov", dst=Reg(0), srcs=(Special.TID,)),
            Instruction("mov", dst=Reg(1), srcs=(Special.CTAID,)),
            Instruction("iadd", dst=Reg(2), srcs=(Reg(0), Reg(1))),
            Instruction("ld", dst=Reg(3), srcs=(Reg(2),)),
            Instruction("exit"),
        )
        _, out = solve(ControlFlowGraph(program), DivergenceSources())
        assert register_tags(out[0], Reg(0)) == frozenset({TID})
        assert register_tags(out[1], Reg(1)) == frozenset()  # ctaid uniform
        assert register_tags(out[2], Reg(2)) == frozenset({TID})
        # A load inherits its address taint.
        assert register_tags(out[3], Reg(3)) == frozenset({TID})

    def test_taint_survives_a_join(self):
        in_facts, _ = solve(ControlFlowGraph(DIAMOND), DivergenceSources())
        assert LANE in register_tags(in_facts[3], Reg(0))


def diagnostics_of(report, check_id):
    return [(d.pc, d.severity) for d in report.by_check(check_id)]


class TestChecks:
    """One deliberately broken kernel per check, exact check id and pc."""

    def test_uninit_read_error(self):
        program = (
            Instruction("iadd", dst=Reg(1), srcs=(Reg(0), Imm(1))),
            Instruction("st", srcs=(Imm(0), Reg(1))),
            Instruction("exit"),
        )
        report = lint_program(program)
        assert diagnostics_of(report, "uninit-read") == [(0, Severity.ERROR)]
        assert report.has_errors

    def test_uninit_read_warning_on_partial_path(self):
        # r1 is written only on the taken side of the diamond, then read
        # at the join: initialized on some paths only.
        program = (
            setp_lane_lt(Reg(0), 8),
            Instruction("bra", target=3, reconv=3, pred=Reg(0)),
            Instruction("mov", dst=Reg(1), srcs=(Imm(1),)),
            Instruction("st", srcs=(Imm(0), Reg(1))),
            Instruction("exit"),
        )
        report = lint_program(program)
        assert diagnostics_of(report, "uninit-read") == [(3, Severity.WARNING)]
        assert not report.has_errors

    def test_dead_write(self):
        program = (
            Instruction("mov", dst=Reg(0), srcs=(Imm(1),)),
            Instruction("exit"),
        )
        report = lint_program(program)
        assert diagnostics_of(report, "dead-write") == [(0, Severity.WARNING)]

    def test_unreachable_code(self):
        program = (
            Instruction("bra", target=3),
            Instruction("mov", dst=Reg(0), srcs=(Imm(1),)),
            Instruction("mov", dst=Reg(1), srcs=(Imm(2),)),
            Instruction("exit"),
        )
        report = lint_program(program)
        # One diagnostic for the whole maximal range, anchored at its start.
        assert diagnostics_of(report, "unreachable-code") == [
            (1, Severity.WARNING)
        ]

    def test_bad_reconvergence(self):
        program = (
            setp_lane_lt(Reg(0), 8),
            Instruction("bra", target=3, reconv=2, pred=Reg(0)),
            Instruction("mov", dst=Reg(1), srcs=(Imm(1),)),
            Instruction("st", srcs=(Imm(0), Reg(0))),
            Instruction("exit"),
        )
        report = lint_program(program)
        [(pc, severity)] = diagnostics_of(report, "bad-reconvergence")
        assert (pc, severity) == (1, Severity.ERROR)
        [diag] = report.by_check("bad-reconvergence")
        assert "expected 3" in diag.message

    def test_barrier_divergence(self):
        b = KernelBuilder("bardiv")
        pred = b.setp_lt(b.lane(), 8)
        with b.if_(pred):
            b.bar()
        b.exit()
        kernel = b.build(64, 64)
        report = lint_kernel(kernel)
        bar_pc = next(
            pc for pc, i in enumerate(kernel.program) if i.opcode == "bar"
        )
        assert diagnostics_of(report, "barrier-divergence") == [
            (bar_pc, Severity.ERROR)
        ]

    def test_uniform_branch_may_guard_a_barrier(self):
        # A ctaid predicate cannot split a warp: no diagnostic.
        b = KernelBuilder("uniform_bar")
        pred = b.setp_lt(b.ctaid(), 1)
        with b.if_(pred):
            b.bar()
        b.exit()
        report = lint_kernel(b.build(64, 64))
        assert report.by_check("barrier-divergence") == ()

    def _race_builder(self, with_bar):
        b = KernelBuilder("race")
        slot = b.imul(b.lane(), 4)  # lane-indexed: collides across warps
        b.sts(slot, 1.5)
        if with_bar:
            b.bar()
        val = b.lds(slot)
        b.st(b.imul(b.tid(), 4), val)
        b.exit()
        return b.build(n_threads=64, block_size=64)  # 2 warps per block

    def test_smem_race(self):
        kernel = self._race_builder(with_bar=False)
        report = lint_kernel(kernel)
        lds_pc = next(
            pc for pc, i in enumerate(kernel.program) if i.opcode == "lds"
        )
        assert diagnostics_of(report, "smem-race") == [(lds_pc, Severity.ERROR)]

    def test_smem_race_fixed_by_barrier(self):
        report = lint_kernel(self._race_builder(with_bar=True))
        assert report.by_check("smem-race") == ()

    def test_smem_race_needs_multiple_warps(self):
        b = KernelBuilder("race1w")
        slot = b.imul(b.lane(), 4)
        b.sts(slot, 1.5)
        b.st(b.imul(b.tid(), 4), b.lds(slot))
        b.exit()
        # One warp per block: lanes run in lockstep, no inter-warp race.
        report = lint_kernel(b.build(n_threads=32, block_size=32))
        assert report.by_check("smem-race") == ()

    def test_tid_private_smem_is_not_a_race(self):
        b = KernelBuilder("private")
        slot = b.imul(b.tid(), 4)  # thread-private slots
        b.sts(slot, 1.5)
        b.st(slot, b.lds(slot))
        b.exit()
        report = lint_kernel(b.build(n_threads=64, block_size=64))
        assert report.by_check("smem-race") == ()

    def test_every_check_is_registered(self):
        assert set(CHECKS) == {
            "uninit-read", "dead-write", "unreachable-code",
            "bad-reconvergence", "barrier-divergence", "smem-race",
        }


class TestReports:
    def test_render_and_json(self):
        program = (
            Instruction("mov", dst=Reg(0), srcs=(Imm(1),)),
            Instruction("exit"),
        )
        report = lint_program(program, name="demo")
        text = report.render_text()
        assert "demo" in text and "dead-write" in text
        payload = json.loads(reports_to_json([report]))
        assert payload["n_errors"] == 0 and payload["n_warnings"] == 1
        assert payload["kernels"][0]["kernel"] == "demo"
        assert payload["kernels"][0]["diagnostics"][0]["check_id"] == (
            "dead-write"
        )

    def test_clean_report(self):
        report = lint_program(
            (Instruction("exit"),), name="empty"
        )
        assert not report.diagnostics
        assert report.render_text() == "empty: clean"


class TestSuiteClean:
    def test_whole_suite_lints_clean(self):
        for name in kernel_names():
            kernel, _ = SUITE[name].build(Scale.tiny())
            report = lint_kernel(kernel)
            assert not report.has_errors, report.render_text()
            # The shipped suite is also warning-free; keep it that way.
            assert not report.diagnostics, report.render_text()


class TestReconvergenceRegression:
    """Programs where the old positional heuristic got it wrong."""

    def test_positionally_plausible_but_wrong_reconv_rejected(self):
        # reconv (2) is after the branch pc (1) and before the target
        # (3), which the old `reconv <= pc and reconv <= target` check
        # accepted — but pc 2 is on the taken-around side, not the join.
        program = (
            setp_lane_lt(Reg(0), 8),
            Instruction("bra", target=3, reconv=2, pred=Reg(0)),
            Instruction("mov", dst=Reg(1), srcs=(Imm(1),)),
            Instruction("st", srcs=(Imm(0), Reg(0))),
            Instruction("exit"),
        )
        with pytest.raises(KernelValidationError, match="post-dominator"):
            Kernel("bad", program, n_threads=32, block_size=32)

    def test_backward_join_accepted_and_runs(self):
        # The join (pc 2) sits *before* the conditional branch (pc 4)
        # and equals its target: the old positional check rejected this
        # layout outright even though reconv == immediate post-dominator.
        program = (
            setp_lane_lt(Reg(0), 8),
            Instruction("bra", target=4),
            Instruction("mov", dst=Reg(1), srcs=(Imm(1),)),  # join
            Instruction("bra", target=6),
            Instruction("bra", target=2, reconv=2, pred=Reg(0)),
            Instruction("bra", target=2),
            Instruction("exit"),
        )
        kernel = Kernel("backjoin", program, n_threads=64, block_size=64)
        assert lint_kernel(kernel).by_check("bad-reconvergence") == ()
        trace = emulate(kernel, GPUConfig.small(n_cores=1, warps_per_core=4))
        assert trace.total_insts == 14  # 7 dynamic instructions x 2 warps


class TestDegenerateCFGs:
    """Regression tests: the worklist solver must stay total and sound on
    pathological control flow (empty inputs, self-loops, dead code,
    programs that never reach an exit)."""

    def test_solve_handles_empty_program(self):
        class EmptyCFG:
            program = ()
            reachable = frozenset()
            succs = {}
            preds = {}

        for analysis in (ReachingDefinitions(), LiveRegisters(),
                         DivergenceSources()):
            in_facts, out_facts = solve(EmptyCFG(), analysis)
            assert in_facts == {} and out_facts == {}

    def test_conditional_self_loop_converges(self):
        # A one-instruction loop body: the branch is its own latch.
        program = (
            setp_lane_lt(Reg(0), 8),
            Instruction("bra", target=1, reconv=2, pred=Reg(0)),
            Instruction("exit"),
        )
        cfg = ControlFlowGraph(program)
        in_facts, _ = solve(cfg, ReachingDefinitions())
        assert (0, 0) in in_facts[1]
        live_in, _ = solve(cfg, LiveRegisters())
        assert 0 in live_in[1]

    def test_unconditional_self_loop_no_reachable_exit(self):
        # An infinite loop: no exit is reachable, so a backward analysis
        # has no live boundary — it must terminate with empty facts, not
        # spin.
        program = (
            Instruction("mov", dst=Reg(0), srcs=(Imm(1),)),
            Instruction("bra", target=1),
            Instruction("exit"),  # unreachable
        )
        cfg = ControlFlowGraph(program)
        assert 2 not in cfg.reachable
        live_in, live_out = solve(cfg, LiveRegisters())
        assert live_in[1] == frozenset()
        rdef_in, _ = solve(cfg, ReachingDefinitions())
        assert (0, 0) in rdef_in[1]

    def test_unreachable_defs_do_not_leak(self):
        # pc 3 writes Reg(7) but is dead code: its definition must not
        # reach any reachable pc through the join identity.
        program = (
            Instruction("mov", dst=Reg(0), srcs=(Imm(1),)),
            Instruction("bra", target=4),
            Instruction("mov", dst=Reg(7), srcs=(Imm(9),)),  # dead
            Instruction("st", srcs=(Imm(0), Reg(7))),  # dead
            Instruction("exit"),
        )
        cfg = ControlFlowGraph(program)
        rdef_in, _ = solve(cfg, ReachingDefinitions())
        for pc in cfg.reachable:
            # The UNINIT boundary def is fine; the dead store's actual
            # definition (def pc >= 0) must never reach live code.
            assert all(
                not (reg == 7 and def_pc >= 0)
                for reg, def_pc in rdef_in[pc]
            )

    def test_cost_model_total_on_infinite_loop(self):
        # The static analyzer itself (loops + affine + trips) must stay
        # total on a program that never terminates.
        from repro.staticcheck import analyze_program
        from repro.staticcheck.costmodel import Interval

        program = (
            Instruction("mov", dst=Reg(0), srcs=(Imm(1),)),
            Instruction("bra", target=1),
            Instruction("exit"),
        )
        cost = analyze_program(program)
        assert len(cost.loops) == 1
        assert cost.loops[0].trip == Interval(1, None)
        assert cost.insts_per_warp.hi is None

    def test_cost_model_total_on_empty_program(self):
        from repro.staticcheck import analyze_program

        cost = analyze_program(())
        assert cost.n_static_insts == 0
        assert cost.skeleton == ()

    def test_empty_program_floor_counts_every_scheduler(self):
        from repro.staticcheck import analyze_program

        for config, floor in (
            (GPUConfig(), 1.0),
            (GPUConfig(arch="subcore", n_schedulers=2), 0.5),
            (GPUConfig(arch="subcore", n_schedulers=4), 0.25),
        ):
            cost = analyze_program((), config=config)
            assert cost.cpi_lower_bound == floor, config.arch


class TestReportRoundTrip:
    """JSON serialisation must round-trip losslessly in both directions
    (the CI artifact is consumed by external tooling)."""

    def test_reports_round_trip_through_json(self):
        from repro.staticcheck import reports_from_json

        dirty = (
            Instruction("mov", dst=Reg(0), srcs=(Imm(1),)),  # dead write
            Instruction("mov", dst=Reg(0), srcs=(Imm(2),)),
            Instruction("st", srcs=(Imm(0), Reg(0))),
            Instruction("exit"),
        )
        reports = [
            lint_program(dirty, name="dirty"),
            lint_program(DIAMOND, name="clean"),
        ]
        assert reports[0].diagnostics  # fixture must be non-trivial
        text = reports_to_json(reports)
        recovered = reports_from_json(text)
        assert recovered == reports
        # A second encode of the decoded reports is byte-identical.
        assert reports_to_json(recovered) == text

    def test_round_trip_preserves_severity_split(self):
        from repro.staticcheck import reports_from_json

        dirty = (
            Instruction("st", srcs=(Imm(0), Reg(3))),  # uninitialized read
            Instruction("exit"),
        )
        (report,) = reports_from_json(
            reports_to_json([lint_program(dirty, name="uninit")])
        )
        assert len(report.errors) == len(
            lint_program(dirty, name="uninit").errors
        )
        assert all(
            isinstance(d.severity, Severity) for d in report.diagnostics
        )
