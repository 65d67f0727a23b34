"""Tests for the static cost model: affine domain, trip counts, accesses."""

import pytest

from repro.config import GPUConfig
from repro.isa import Imm, KernelBuilder, Special
from repro.staticcheck import ControlFlowGraph, analyze_kernel, analyze_program
from repro.staticcheck.costmodel import (
    AccessClass,
    Affine,
    Interval,
    affine_environments,
    classify_accesses,
    find_loops,
    infer_trip_counts,
)
from repro.trace.emulator import emulate
from repro.workloads.generators import Scale, matmul_smem_tiled
from repro.workloads.suite import SUITE, kernel_names

#: Suite kernels whose loop bounds are data-dependent (loaded from
#: memory or escape-time), so their trips can only be bounded [1, inf).
DATA_DEPENDENT = {"bfs_kernel1", "bfs_parboil", "mandelbrot", "spmv_jds"}


class TestAffine:
    def test_normalisation_drops_zero_coefficients(self):
        a = Affine.symbol("tid", 4)
        b = Affine.symbol("tid", -4)
        assert (a + b) == Affine.constant(0)
        assert Affine.symbol("tid", 0) == Affine.constant(0)

    def test_structural_equality_is_semantic(self):
        a = Affine.constant(3) + Affine.symbol("tid", 2)
        b = Affine.symbol("tid", 2) + Affine.constant(3)
        assert a == b
        assert a.coeff("tid") == 2
        assert a.coeff("lane") == 0

    def test_arithmetic(self):
        a = Affine.constant(1) + Affine.symbol("tid", 4)
        b = Affine.constant(2) + Affine.symbol("warp", 3)
        total = a + b
        assert total.const == 3
        assert total.coeff("tid") == 4
        assert total.coeff("warp") == 3
        assert (a - a) == Affine.constant(0)
        assert (-a).coeff("tid") == -4
        assert a.scale(3).coeff("tid") == 12
        assert a.scale(0) == Affine.constant(0)

    def test_substitute(self):
        a = Affine.constant(5) + Affine.symbol("ntid", 2)
        assert a.substitute("ntid", Affine.constant(64)) == Affine.constant(133)
        # Substituting an absent symbol is the identity.
        assert a.substitute("tid", Affine.constant(9)) == a
        # Affine-for-symbol substitution distributes the coefficient.
        sub = a.substitute("ntid", Affine.symbol("tid", 1) + Affine.constant(1))
        assert sub.const == 7
        assert sub.coeff("tid") == 2

    def test_render(self):
        assert Affine.constant(0).render() == "0"
        assert (Affine.constant(2) + Affine.symbol("tid", 4)).render() == "2 + 4*tid"
        assert Affine.symbol("lane").render() == "lane"


class TestInterval:
    def test_exact(self):
        assert Interval.exact(3).is_exact
        assert not Interval(1, 4).is_exact
        assert not Interval(1, None).is_exact

    def test_contains(self):
        assert Interval(2, 5).contains(2)
        assert Interval(2, 5).contains(5)
        assert not Interval(2, 5).contains(6)
        assert Interval(2, None).contains(10**9)
        assert not Interval(2, None).contains(1)

    def test_arithmetic_and_union(self):
        assert Interval(1, 2) + Interval(3, 4) == Interval(4, 6)
        assert Interval(1, 2) + Interval(3, None) == Interval(4, None)
        assert Interval(2, 3) * Interval(4, 5) == Interval(8, 15)
        assert Interval(1, 2).union(Interval(5, None)) == Interval(1, None)
        assert Interval(1, 2).union(Interval(0, 9)) == Interval(0, 9)

    def test_render(self):
        assert Interval.exact(7).render() == "7"
        assert Interval(1, None).render() == "[1, inf]"
        assert Interval(0, 4).render() == "[0, 4]"


def _counted_loop(cmp_method, bound, step=1, start=0):
    """A do-while loop counting ``start`` upward by ``step`` while
    ``cmp(counter, bound)`` holds; stores the counter each iteration."""
    kb = KernelBuilder("loop")
    counter = kb.mov(start)
    head = kb.loop_begin()
    kb.st(Imm(4096), counter)
    kb.iadd(counter, step, dst=counter)
    pred = getattr(kb, cmp_method)(counter, bound)
    kb.loop_end(head, pred)
    kb.exit()
    return kb.build(n_threads=32, block_size=32)


def _analyzed_loops(kernel):
    cfg = ControlFlowGraph(kernel.program)
    loops = find_loops(cfg)
    envs = affine_environments(cfg, loops)
    return infer_trip_counts(cfg, loops, envs)


class TestTripCounts:
    @pytest.mark.parametrize(
        "cmp_method,bound,expected",
        [
            ("setp_lt", 10, 10),  # i=1..; continue while i < 10
            ("setp_le", 10, 11),
            ("setp_ne", 5, 5),
            ("setp_gt", 0, 1),  # 1 > 0 holds... counts up, never fails?
        ],
    )
    def test_closed_forms(self, cmp_method, bound, expected):
        if cmp_method == "setp_gt":
            # Counting upward while i > 0 never terminates statically:
            # the bound degrades to unbounded, not a wrong exact value.
            loops = _analyzed_loops(_counted_loop(cmp_method, bound))
            assert loops[0].trip == Interval(1, None)
            return
        loops = _analyzed_loops(_counted_loop(cmp_method, bound))
        assert len(loops) == 1
        assert loops[0].trip == Interval.exact(expected)

    def test_downward_gt_loop(self):
        # Count 10 downward while i > 0: exactly 10 body executions.
        loops = _analyzed_loops(
            _counted_loop("setp_gt", 0, step=-1, start=10)
        )
        assert loops[0].trip == Interval.exact(10)

    def test_ge_downward(self):
        loops = _analyzed_loops(
            _counted_loop("setp_ge", 0, step=-1, start=10)
        )
        assert loops[0].trip == Interval.exact(11)

    def test_strided_step(self):
        # 0, 3, 6, ... while i < 10 -> i after increment: 3,6,9,12.
        # Fails at 12 (4th body execution): trip 4.
        loops = _analyzed_loops(_counted_loop("setp_lt", 10, step=3))
        assert loops[0].trip == Interval.exact(4)

    def test_data_dependent_bound_is_unbounded(self):
        kb = KernelBuilder("dyn")
        bound = kb.ld(Imm(0))
        counter = kb.mov(0)
        head = kb.loop_begin()
        kb.iadd(counter, 1, dst=counter)
        pred = kb.setp_lt(counter, bound)
        kb.loop_end(head, pred)
        kb.exit()
        loops = _analyzed_loops(kb.build(n_threads=32, block_size=32))
        assert len(loops) == 1
        assert loops[0].trip == Interval(1, None)

    def test_tid_dependent_bound_is_unbounded_and_divergent(self):
        kb = KernelBuilder("perthread")
        counter = kb.mov(0)
        head = kb.loop_begin()
        kb.iadd(counter, 1, dst=counter)
        pred = kb.setp_lt(counter, Special.TID)
        kb.loop_end(head, pred)
        kb.exit()
        loops = _analyzed_loops(kb.build(n_threads=32, block_size=32))
        assert loops[0].trip == Interval(1, None)
        assert loops[0].divergent

    def test_uniform_loop_not_divergent(self):
        loops = _analyzed_loops(_counted_loop("setp_lt", 8))
        assert not loops[0].divergent

    def test_ntid_substitution(self):
        # Bound expressed via the ntid special: exact once the block
        # size is substituted in by analyze_kernel.
        kb = KernelBuilder("ntid_loop")
        counter = kb.mov(0)
        head = kb.loop_begin()
        kb.iadd(counter, 32, dst=counter)
        pred = kb.setp_lt(counter, kb.ntid())
        kb.loop_end(head, pred)
        kb.exit()
        kernel = kb.build(n_threads=128, block_size=128)
        cost = analyze_kernel(kernel)
        assert cost.loops[0].trip == Interval.exact(4)

    def test_nested_loops(self):
        kb = KernelBuilder("nested")
        i = kb.mov(0)
        outer = kb.loop_begin()
        j = kb.mov(0)
        inner = kb.loop_begin()
        kb.iadd(j, 1, dst=j)
        kb.loop_end(inner, kb.setp_lt(j, 3))
        kb.iadd(i, 1, dst=i)
        kb.loop_end(outer, kb.setp_lt(i, 5))
        kb.exit()
        loops = _analyzed_loops(kb.build(n_threads=32, block_size=32))
        trips = {loop.head: loop.trip for loop in loops}
        assert sorted(trips.values(), key=lambda t: t.lo) == [
            Interval.exact(3), Interval.exact(5),
        ]

    def test_execution_counts_multiply_across_nesting(self):
        kb = KernelBuilder("nested_counts")
        i = kb.mov(0)
        outer = kb.loop_begin()
        j = kb.mov(0)
        inner = kb.loop_begin()
        store_pc = kb.pc
        kb.st(Imm(4096), j)
        kb.iadd(j, 1, dst=j)
        kb.loop_end(inner, kb.setp_lt(j, 3))
        kb.iadd(i, 1, dst=i)
        kb.loop_end(outer, kb.setp_lt(i, 5))
        kb.exit()
        cost = analyze_kernel(kb.build(n_threads=32, block_size=32))
        assert cost.counts[store_pc] == Interval.exact(15)

    def test_if_region_gets_zero_floor(self):
        kb = KernelBuilder("guarded")
        pred = kb.setp_lt(kb.lane(), 8)
        with kb.if_(pred):
            store_pc = kb.pc
            kb.st(Imm(4096), pred)
        kb.exit()
        cost = analyze_kernel(kb.build(n_threads=32, block_size=32))
        assert cost.counts[store_pc].lo == 0


class TestAccessClassification:
    def _accesses(self, kernel, config=None):
        config = config or GPUConfig()
        cfg = ControlFlowGraph(kernel.program)
        loops = find_loops(cfg)
        envs = affine_environments(cfg, loops)
        return classify_accesses(cfg, envs, config)

    def test_unit_stride_is_coalesced(self):
        kb = KernelBuilder("coal")
        addr = kb.imul(kb.tid(), 4)
        kb.ld(kb.iadd(addr, 8192))
        kb.exit()
        (access,) = self._accesses(kb.build(n_threads=64, block_size=64))
        assert access.access_class is AccessClass.COALESCED
        assert access.phase_known
        assert access.transactions == Interval.exact(1)

    def test_broadcast_is_coalesced(self):
        kb = KernelBuilder("bcast")
        kb.ld(Imm(8192))
        kb.exit()
        (access,) = self._accesses(kb.build(n_threads=32, block_size=32))
        assert access.access_class is AccessClass.COALESCED
        assert access.lane_stride == 0
        assert access.transactions == Interval.exact(1)

    @pytest.mark.parametrize("stride_words,expected_tx", [(2, 2), (8, 8), (32, 32)])
    def test_strided(self, stride_words, expected_tx):
        kb = KernelBuilder("strided")
        addr = kb.imul(kb.tid(), 4 * stride_words)
        kb.ld(kb.iadd(addr, 8192))
        kb.exit()
        (access,) = self._accesses(kb.build(n_threads=32, block_size=32))
        assert access.access_class is AccessClass.STRIDED
        assert access.transactions == Interval.exact(expected_tx)
        assert access.label == "strided-%d" % expected_tx

    def test_loaded_index_is_divergent(self):
        kb = KernelBuilder("gather")
        index = kb.ld(kb.iadd(kb.imul(kb.tid(), 4), 8192))
        kb.ld(kb.iadd(kb.imul(index, 4), 16384))
        kb.exit()
        accesses = self._accesses(kb.build(n_threads=32, block_size=32))
        gather = accesses[1]
        assert gather.access_class is AccessClass.DIVERGENT
        assert gather.affine is None
        assert not gather.phase_known
        assert gather.transactions == Interval(1, GPUConfig().warp_size)

    def test_unknown_phase_still_bounds(self):
        # A warp-dependent offset that is not a multiple of the line size
        # leaves the phase unknown, but a unit lane stride can straddle
        # at most two lines whatever the phase.
        kb = KernelBuilder("phased")
        addr = kb.iadd(kb.imul(kb.tid(), 4), kb.imul(kb.warpid(), 36))
        kb.ld(kb.iadd(addr, 8192))
        kb.exit()
        (access,) = self._accesses(kb.build(n_threads=64, block_size=64))
        assert not access.phase_known
        assert access.transactions == Interval(1, 2)
        assert access.access_class is AccessClass.COALESCED

    def test_store_flag(self):
        kb = KernelBuilder("st")
        kb.st(kb.iadd(kb.imul(kb.tid(), 4), 8192), Imm(0))
        kb.exit()
        (access,) = self._accesses(kb.build(n_threads=32, block_size=32))
        assert access.is_store


class TestBankConflicts:
    @pytest.mark.parametrize("stride_words,degree", [(1, 1), (2, 2), (32, 32)])
    def test_static_matches_dynamic(self, stride_words, degree):
        config = GPUConfig()
        kernel, memory = matmul_smem_tiled(
            "smem_cs%d" % stride_words, Scale.tiny(),
            conflict_stride_words=stride_words,
        )
        cost = analyze_kernel(kernel, config)
        shared = [a for a in cost.accesses if a.space == "shared"]
        assert shared, "tiled matmul must have shared-memory accesses"
        static_max = max(a.bank_conflict.hi for a in shared)
        assert static_max == degree

        trace = emulate(kernel, config, memory=memory)
        dynamic_max = max(
            int(warp.conflict.max()) for warp in trace.warps
        )
        assert dynamic_max == degree

        # Every per-instruction measurement falls inside its prediction.
        pcs = {a.pc: a for a in shared}
        for warp in trace.warps:
            for i, pc in enumerate(warp.pcs):
                access = pcs.get(int(pc))
                if access is None:
                    continue
                measured = int(warp.conflict[i])
                if (access.phase_known
                        and int(warp.active[i]) == config.warp_size):
                    assert access.bank_conflict.contains(measured)


class TestSuiteAgreement:
    """Satellite: the static classifier against the dynamic coalescer,
    kernel by kernel over the whole workload suite."""

    @pytest.mark.parametrize("name", kernel_names())
    def test_transactions_match_dynamic_coalescer(self, name):
        config = GPUConfig()
        kernel, memory = SUITE[name].build(Scale.tiny())
        cost = analyze_kernel(kernel, config)
        trace = emulate(kernel, config, memory=memory)
        accesses = {a.pc: a for a in cost.accesses if a.space == "global"}
        checked = 0
        for warp in trace.warps:
            requests = warp.requests_per_inst
            for i, pc in enumerate(warp.pcs):
                access = accesses.get(int(pc))
                if access is None:
                    continue
                measured = int(requests[i])
                exactable = (
                    access.phase_known
                    and not access.under_divergent_control
                    and int(warp.active[i]) == config.warp_size
                )
                if exactable:
                    # Proven phase + full mask: the static class must
                    # match the measured transaction count exactly.
                    assert access.transactions.is_exact
                    assert measured == access.transactions.lo, (
                        "%s pc %d: measured %d, predicted %s (%s)"
                        % (name, pc, measured,
                           access.transactions.render(), access.label)
                    )
                else:
                    hi = access.transactions.hi
                    hi = config.warp_size if hi is None else hi
                    assert 1 <= measured <= hi
                checked += 1
        if accesses:
            assert checked > 0

    @pytest.mark.parametrize("name", kernel_names())
    def test_affine_loop_trips_are_exact(self, name):
        kernel, _ = SUITE[name].build(Scale.tiny())
        cost = analyze_kernel(kernel)
        if name in DATA_DEPENDENT:
            assert any(not loop.trip.is_exact for loop in cost.loops)
        else:
            for loop in cost.loops:
                assert loop.trip.is_exact, (
                    "%s loop @%d: trip %s not exact"
                    % (name, loop.head, loop.trip.render())
                )


class TestKernelCostModel:
    def test_vectoradd_shape(self):
        kernel, _ = SUITE["vectoradd"].build(Scale.tiny())
        cost = analyze_kernel(kernel)
        assert cost.kernel == "vectoradd"
        assert cost.n_static_insts == len(kernel.program)
        assert len(cost.exact_loops) == len(cost.loops) == 1
        assert not cost.divergent_branches
        assert all(
            a.access_class is AccessClass.COALESCED for a in cost.accesses
        )
        assert cost.insts_per_warp.is_exact
        assert cost.cpi_lower_bound >= 1.0  # one issue slot per core

    def test_occupancy(self):
        kernel, _ = SUITE["vectoradd"].build(Scale.tiny())
        config = GPUConfig()
        cost = analyze_kernel(kernel, config)
        blocks = config.max_threads_per_core // kernel.block_size
        warps = min(
            blocks * kernel.warps_per_block, config.max_warps_per_core
        )
        assert cost.resident_blocks_per_core == blocks
        assert cost.resident_warps_per_core == warps
        assert cost.occupancy == warps / config.max_warps_per_core

    def test_to_dict_roundtrips_through_json(self):
        import json

        kernel, _ = SUITE["strided_deg8"].build(Scale.tiny())
        cost = analyze_kernel(kernel)
        payload = json.loads(json.dumps(cost.to_dict()))
        assert payload["kernel"] == "strided_deg8"
        assert payload["loops"][0]["exact"]
        assert any(
            a["class"].startswith("strided-") for a in payload["accesses"]
        )

    def test_render_text_mentions_core_facts(self):
        kernel, _ = SUITE["vectoradd"].build(Scale.tiny())
        text = analyze_kernel(kernel).render_text()
        assert "cost model: vectoradd" in text
        assert "loop @" in text
        assert "coalesced" in text

    def test_empty_program(self):
        cost = analyze_program(())
        assert cost.n_static_insts == 0
        assert cost.insts_per_warp == Interval.exact(0)
        assert cost.loops == ()

    def test_skeleton_covers_reachable(self):
        kernel, _ = SUITE["vectoradd"].build(Scale.tiny())
        cost = analyze_kernel(kernel)
        assert len(cost.skeleton) == cost.n_reachable
        classes = {entry.stall_class for entry in cost.skeleton}
        assert classes <= {"ialu", "falu", "sfu", "mem", "smem", "sync"}

    def test_line_size_changes_the_transactions(self):
        kernel, _ = SUITE["vectoradd"].build(Scale.tiny())
        base = analyze_kernel(kernel, GPUConfig())
        narrow = analyze_kernel(kernel, GPUConfig(line_size=32))
        assert (base.accesses[0].transactions
                != narrow.accesses[0].transactions)


@pytest.fixture(scope="module")
def tiny_pipeline():
    from repro.pipeline import Pipeline

    return Pipeline(GPUConfig(n_cores=2), scale=Scale.tiny())


@pytest.fixture(scope="module")
def subcore_pipeline():
    from repro.pipeline import Pipeline

    return Pipeline(GPUConfig(n_cores=2, arch="subcore"), scale=Scale.small())


class TestCPILowerBound:
    #: A narrow DRAM bus (16 core cycles a line), so that any priced
    #: line traffic of the small kernels below lifts the floor above the
    #: issue floor.
    NARROW = GPUConfig(dram_bandwidth_gbps=8)

    def cost_of(self, build_fn):
        b = KernelBuilder("k")
        addr = b.iadd(b.imul(b.tid(), 4), 0x100000)  # one line per warp
        build_fn(b, addr)
        b.exit()
        kernel = b.build(n_threads=256, block_size=64)
        cost = analyze_kernel(kernel, self.NARROW)
        assert self.NARROW.dram_service_cycles == 16.0
        assert cost.insts_per_warp.is_exact
        return cost

    def store_floor(self, cost, store_transactions):
        n_cores_used = min(self.NARROW.n_cores, 256 // 64)
        return (
            n_cores_used * store_transactions
            * self.NARROW.dram_service_cycles / cost.insts_per_warp.hi
        )

    def test_load_traffic_leaves_the_issue_floor(self):
        cost = self.cost_of(lambda b, addr: b.fadd(b.ld(addr), 1.0))
        # The load's line is still reported, but not priced: it may hit.
        assert cost.transactions_per_warp == Interval.exact(1)
        assert cost.cpi_lower_bound == 1.0

    def test_store_traffic_sets_the_dram_floor(self):
        cost = self.cost_of(lambda b, addr: b.st(addr, 1.0))
        assert cost.transactions_per_warp == Interval.exact(1)
        assert cost.cpi_lower_bound == self.store_floor(cost, 1)
        assert cost.cpi_lower_bound > 1.0

    def test_mixed_kernel_prices_only_its_stores(self):
        cost = self.cost_of(lambda b, addr: b.st(addr, b.ld(addr)))
        assert cost.transactions_per_warp == Interval.exact(2)
        assert cost.cpi_lower_bound == self.store_floor(cost, 1)

    def test_issue_floor_counts_every_scheduler(self):
        b = KernelBuilder("k")
        b.fmul(b.fadd(b.mov(1.0), 2.0), 3.0)
        b.exit()
        kernel = b.build(n_threads=256, block_size=64)
        subcore = GPUConfig(arch="subcore", n_schedulers=4)
        assert analyze_kernel(kernel, subcore).cpi_lower_bound == 0.25
        assert analyze_kernel(kernel, GPUConfig()).cpi_lower_bound == 1.0

    #: The kernels whose model CPI under ``subcore`` at ``Scale.small``
    #: lies below 1.0 (0.25-0.83), where a one-slot issue floor would
    #: exceed it.  The whole suite costs ~60 s of sub-core emulation.
    SUBCORE_KERNELS = (
        "binomial_options", "blackscholes", "convolution_sep",
        "heartwall_track", "leukocyte_find", "quasirandom",
    )

    @pytest.mark.parametrize("policy", ["rr", "gto"])
    @pytest.mark.parametrize(
        "pipeline_fixture",
        ["tiny_pipeline", "paper_pipeline", "subcore_pipeline"],
    )
    def test_bound_never_exceeds_predicted_cpi(
        self, pipeline_fixture, policy, request
    ):
        """The DRAM floor prices store traffic only: a load can hit in L1
        or L2, and pricing loads too puts the bound above the model on
        write-heavy kernels such as ``kmeans_invert_mapping``.  A
        sub-core SM issues from one slot per scheduler, so its issue
        floor is ``1 / schedulers_per_core``;
        ``quasirandom`` sits on it."""
        pipeline = request.getfixturevalue(pipeline_fixture)
        names = (
            self.SUBCORE_KERNELS if pipeline.config.arch == "subcore"
            else kernel_names()
        )
        over = {}
        for name in names:
            kernel, _ = SUITE[name].build(pipeline.scale)
            bound = analyze_kernel(kernel, pipeline.config).cpi_lower_bound
            config = pipeline.config.with_(scheduler=policy)
            cpi = pipeline.predict(name, config).cpi
            if bound > cpi:
                over[name] = (bound, cpi)
        assert over == {}
