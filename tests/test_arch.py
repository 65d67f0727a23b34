"""What ``GPUConfig.arch`` changes, tested where it is read.

``subcore`` differs from the paper's ``gpumech2014`` core in exactly two
places, both read straight from the config:

* **Reconvergence** — ``repro.trace.emulator.emulate`` runs ITS-style
  interleaving (``InterleavedStack``) under ``subcore``, the post-
  dominator stack otherwise.
* **Issue slots** — ``GPUConfig.schedulers_per_core`` is
  ``n_schedulers`` under ``subcore`` and 1 otherwise; the oracle builds
  that many scheduler partitions per core and the multithreading model
  runs per partition.

Pinned here: validation of the two fields, cache-key discipline (two
arches never collide in the store), the default arch's predictions
equal direct composition of the ``repro.core`` functions, and
``subcore`` with one scheduler is the paper machine on every kernel.
"""

import pickle

import numpy as np
import pytest

from repro.config import (
    ALL_FIELDS,
    KNOWN_ARCHES,
    TRACE_FIELDS,
    ConfigError,
    GPUConfig,
)
from repro.core.interval import Interval, IntervalProfile
from repro.core.multithreading import model_multithreading
from repro.pipeline import Pipeline
from repro.trace.trace_types import KernelTrace
from repro.workloads.generators import Scale
from repro.workloads.suite import SUITE, kernel_names

CONFIG = GPUConfig.small(n_cores=2, warps_per_core=8)
SUBCORE = CONFIG.with_(arch="subcore", n_schedulers=2)
#: Sub-core dispatch with a single issue slot: the paper's machine.
ONE_SLOT = CONFIG.with_(arch="subcore", n_schedulers=1)


class TestIssueSlots:
    def test_schedulers_per_core(self):
        assert SUBCORE.schedulers_per_core == 2
        # gpumech2014 has one scheduler whatever n_schedulers says.
        assert SUBCORE.with_(arch="gpumech2014").schedulers_per_core == 1
        # The model never runs more slots than there are warps: at one
        # warp four slots are one slot.
        profile = IntervalProfile.from_intervals(
            0, [Interval(n_insts=3, stall_cycles=6.0)]
        )
        clamped = model_multithreading(profile, 1, "rr", n_schedulers=4)
        single = model_multithreading(profile, 1, "rr")
        assert pickle.dumps(clamped) == pickle.dumps(single)


class TestConfigValidation:
    def test_unknown_arch_rejected(self):
        with pytest.raises(ConfigError, match="unknown arch"):
            GPUConfig(arch="volta")

    def test_n_schedulers_must_be_positive(self):
        with pytest.raises(ConfigError, match="n_schedulers"):
            GPUConfig(n_schedulers=0)

    def test_subcore_partition_must_divide_residency(self):
        # 8 warps/core cannot be split over 3 schedulers.
        with pytest.raises(ConfigError, match="must divide"):
            GPUConfig.small(warps_per_core=8).with_(
                arch="subcore", n_schedulers=3
            )

    def test_gpumech2014_ignores_partitioning(self):
        # The divisibility rule binds only under sub-core dispatch.
        GPUConfig.small(warps_per_core=8).with_(n_schedulers=3)


class TestCacheKeys:
    def test_fingerprint_changes_with_arch(self):
        assert CONFIG.fingerprint(ALL_FIELDS) != SUBCORE.fingerprint(
            ALL_FIELDS
        )
        # The trace stage re-runs too: reconvergence is an arch hook.
        assert CONFIG.trace_fingerprint() != SUBCORE.trace_fingerprint()

    def test_fingerprint_changes_with_n_schedulers(self):
        assert SUBCORE.fingerprint(ALL_FIELDS) != SUBCORE.with_(
            n_schedulers=4
        ).fingerprint(ALL_FIELDS)
        # ...but the trace does not depend on the partition count.
        assert TRACE_FIELDS == frozenset(
            {"warp_size", "line_size", "smem_banks", "arch"}
        )

    def test_fingerprint_ignores_compute_backend(self, monkeypatch):
        base = CONFIG.fingerprint(ALL_FIELDS)
        monkeypatch.setenv("REPRO_SCALAR", "1")
        assert CONFIG.fingerprint(ALL_FIELDS) == base

    def test_archs_never_collide_on_disk(self, tmp_path):
        """Predictions cached by one arch are invisible to the other."""
        kernel = "vectoradd"
        first = Pipeline(
            CONFIG, scale=Scale.tiny(), cache_dir=str(tmp_path)
        ).predict(kernel)
        second = Pipeline(
            SUBCORE, scale=Scale.tiny(), cache_dir=str(tmp_path)
        ).predict(kernel)
        assert first.arch == "gpumech2014"
        assert second.arch == "subcore"
        # Round-trip through the same store: each arch hits its own
        # artifact, bitwise.
        again = Pipeline(
            CONFIG, scale=Scale.tiny(), cache_dir=str(tmp_path)
        ).predict(kernel)
        assert pickle.dumps(again) == pickle.dumps(first)
        again_sub = Pipeline(
            SUBCORE, scale=Scale.tiny(), cache_dir=str(tmp_path)
        ).predict(kernel)
        assert pickle.dumps(again_sub) == pickle.dumps(second)


class TestDefaultArchBitwiseIdentity:
    def test_dispatch_equals_direct_composition(self):
        """gpumech2014 == composing the repro.core functions, whole
        suite."""
        from repro.core.contention import model_contention
        from repro.core.cpi_stack import build_cpi_stack, single_warp_stack
        from repro.core.model import resident_warps_per_core
        from repro.core.multithreading import model_multithreading

        pipeline = Pipeline(CONFIG, scale=Scale.tiny())
        for name in kernel_names():
            prediction = pipeline.predict(name)
            inputs = pipeline.model_inputs(name)
            profile = inputs.representative
            n_warps = resident_warps_per_core(inputs.trace, CONFIG)
            multithreading = model_multithreading(
                profile, n_warps, CONFIG.scheduler
            )
            contention = model_contention(
                profile, n_warps, CONFIG,
                inputs.cache_result.avg_miss_latency(CONFIG),
            )
            stack = build_cpi_stack(
                single_warp_stack(profile, inputs.latency_table),
                multithreading, contention,
            )
            assert pickle.dumps(prediction.multithreading) == pickle.dumps(
                multithreading
            ), name
            assert pickle.dumps(prediction.contention) == pickle.dumps(
                contention
            ), name
            assert pickle.dumps(prediction.cpi_stack) == pickle.dumps(
                stack
            ), name
            assert prediction.arch == "gpumech2014"


@pytest.fixture(scope="module")
def paper_and_one_slot():
    """Pipelines of the paper machine and of one-slot ``subcore``."""
    return (
        Pipeline(CONFIG, scale=Scale.tiny()),
        Pipeline(ONE_SLOT, scale=Scale.tiny()),
    )


class TestOneSchedulerSubcoreIsThePaperMachine:
    """At ``n_schedulers=1`` only the reconvergence policy differs from
    ``gpumech2014``, and on the suite's structured control flow it
    executes in stack order: every trace, prediction and oracle count
    must match the paper machine's exactly."""

    @pytest.mark.parametrize("name", kernel_names())
    def test_same_trace_prediction_and_oracle(self, name, paper_and_one_slot):
        paper, one_slot = paper_and_one_slot
        a, b = paper.trace(name), one_slot.trace(name)
        for column in KernelTrace.COLUMNS:
            assert np.array_equal(getattr(a, column), getattr(b, column)), (
                name, column,
            )
        for policy in ("rr", "gto"):
            want = paper.predict(
                name, paper.config.with_(scheduler=policy)
            )
            got = one_slot.predict(
                name, one_slot.config.with_(scheduler=policy)
            )
            assert got.cpi == want.cpi, (name, policy)
            assert got.cpi_multithreading == want.cpi_multithreading, (
                name, policy,
            )
            assert pickle.dumps(got.cpi_stack) == pickle.dumps(
                want.cpi_stack
            ), (name, policy)
        want, got = paper.simulate(name), one_slot.simulate(name)
        assert got.total_cycles == want.total_cycles, name
        assert got.total_insts == want.total_insts, name


class TestInterleavedTraces:
    def _traces(self, name, config):
        from repro.trace.emulator import emulate

        kernel, memory = SUITE[name].build(Scale.tiny())
        return emulate(kernel, config, memory=memory)

    def test_nondivergent_traces_identical_across_archs(self):
        """Without divergence the two reconvergence policies coincide."""
        base = self._traces("vectoradd", CONFIG)
        its = self._traces("vectoradd", SUBCORE)
        for a, b in zip(base.warps, its.warps):
            assert np.array_equal(a.pcs, b.pcs)
            assert np.array_equal(a.ops, b.ops)
            assert np.array_equal(a.active, b.active)

    def test_divergent_traces_same_work(self):
        """ITS executes the same per-warp work as the stack.

        On *structured* control flow (every then-block laid out before
        its else-target, reconvergence at the immediate post-dominator —
        all suite kernels) min-PC scheduling provably coincides with
        stack order, so the traces match exactly; the policies only
        reorder when branch targets overlap (see
        ``TestInterleavedStackUnit.test_min_pc_interleaves_overlap``).
        """
        base = self._traces("mandelbrot", CONFIG)
        its = self._traces("mandelbrot", SUBCORE)
        assert its.total_insts > 0
        for a, b in zip(base.warps, its.warps):
            assert sorted(a.pcs.tolist()) == sorted(b.pcs.tolist())

    def test_interleaved_policy_reaches_whole_suite(self):
        """Every suite kernel emulates cleanly under ITS reconvergence."""
        for name in kernel_names():
            trace = self._traces(name, SUBCORE)
            assert trace.total_insts > 0, name


class TestInterleavedStackUnit:
    def _drive(self, stack, stop_pc):
        """Step the stack to quiescence, recording the executed PCs."""
        order = []
        while True:
            if stack.pop_reconverged():
                continue
            group = stack.top
            if group.pc >= stop_pc and stack.depth == 1:
                return order
            order.append(group.pc)
            stack.advance()

    def test_min_pc_interleaves_overlapping_sides(self):
        """Where the two sides' PC ranges overlap, ITS alternates.

        Branch at pc 0: taken side starts at 10, fallthrough at 1, both
        reconverging at 20.  The post-dominator stack runs the whole
        fallthrough side (1..19) before the taken side (10..19); min-PC
        scheduling runs fallthrough alone only while it is strictly
        below the taken side's PC, then alternates the two sides in
        lockstep — the producer→consumer spacing the subcore backend
        models.
        """
        from repro.trace.reconvergence import InterleavedStack

        stack = InterleavedStack(np.ones(4, dtype=bool))
        assert not stack.pop_reconverged()
        taken = np.array([True, True, False, False])
        stack.branch(taken, target=10, reconv=20)
        order = self._drive(stack, stop_pc=20)
        expected = list(range(1, 10))
        for pc in range(10, 20):
            expected += [pc, pc]
        assert order == expected
        # After the merge the warp is whole again.
        assert stack.depth == 1
        assert stack.top.pc == 20
        assert stack.top.n_active == 4

    def test_structured_if_else_matches_stack_order(self):
        """Non-overlapping sides (then at 1..4 ending in a jump to the
        reconvergence point, else at 5..8) do not interleave: the min-PC
        rule degenerates to stack order."""
        from repro.trace.reconvergence import InterleavedStack

        stack = InterleavedStack(np.ones(2, dtype=bool))
        assert not stack.pop_reconverged()
        stack.branch(np.array([False, True]), target=5, reconv=9)
        order = []
        while True:
            if stack.pop_reconverged():
                continue
            group = stack.top
            if group.pc >= 9 and stack.depth == 1:
                break
            order.append(group.pc)
            if group.pc == 4:  # then-block tail: bra -> reconv
                stack.jump(9)
            else:
                stack.advance()
        assert order == [1, 2, 3, 4, 5, 6, 7, 8]

    def test_uniform_branches_never_split(self):
        from repro.trace.reconvergence import InterleavedStack

        stack = InterleavedStack(np.ones(2, dtype=bool))
        stack.branch(np.zeros(2, dtype=bool), target=7, reconv=None)
        assert stack.depth == 1 and stack.top.pc == 1
        stack.branch(np.ones(2, dtype=bool), target=7, reconv=None)
        assert stack.depth == 1 and stack.top.pc == 7

    def test_divergent_branch_requires_reconv(self):
        from repro.trace.reconvergence import InterleavedStack
        from repro.trace.simt_stack import SimtStackError

        stack = InterleavedStack(np.ones(2, dtype=bool))
        with pytest.raises(SimtStackError):
            stack.branch(np.array([True, False]), target=5, reconv=None)

    def test_empty_mask_rejected(self):
        from repro.trace.reconvergence import InterleavedStack
        from repro.trace.simt_stack import SimtStackError

        with pytest.raises(SimtStackError):
            InterleavedStack(np.zeros(4, dtype=bool))


class TestSubcoreEndToEnd:
    def test_full_pipeline_runs(self):
        pipeline = Pipeline(SUBCORE, scale=Scale.tiny())
        prediction = pipeline.predict("bfs_kernel1")
        stats = pipeline.simulate("bfs_kernel1")
        assert prediction.arch == "subcore"
        assert stats.arch == "subcore"
        assert prediction.cpi > 0 and stats.cpi > 0

    def test_subcore_multithreading_floor(self):
        """Two issue slots halve the CPI floor on issue-bound kernels."""
        from repro.core.interval import build_interval_profiles
        from repro.core.latency import build_latency_table
        from repro.memory.cache_simulator import simulate_caches
        from repro.trace.emulator import emulate

        kernel, memory = SUITE["vectoradd"].build(Scale.tiny())
        trace = emulate(kernel, SUBCORE, memory=memory)
        cache = simulate_caches(trace, SUBCORE)
        table = build_latency_table(trace, cache, SUBCORE)
        profile = build_interval_profiles(trace, table)[0]
        sub = model_multithreading(
            profile, 8, "rr", n_schedulers=SUBCORE.schedulers_per_core
        )
        assert sub.n_warps == 8
        assert sub.cpi >= 1.0 / 2

    def test_arch_comparison_report(self):
        from repro.analysis import (
            compare_architectures,
            render_arch_comparison,
        )

        results = compare_architectures(
            scale=Scale.tiny(), kernels=["vectoradd"], config=CONFIG
        )
        assert set(results) == {"vectoradd"}
        assert list(results["vectoradd"]) == list(KNOWN_ARCHES)
        report = render_arch_comparison(results)
        assert "vectoradd" in report
        assert "gpumech2014" in report and "subcore" in report
