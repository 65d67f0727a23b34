"""Unit and integration tests for the cycle-level timing oracle."""

import pytest

from repro.config import GPUConfig
from repro.isa import KernelBuilder
from repro.memory.mshr import MSHRError
from repro.pipeline import Pipeline
from repro.timing import TimingSimulator, simulate_kernel
from repro.timing.core_model import CoreModel
from repro.trace import emulate
from repro.workloads import Scale
from repro.workloads.suite import SUITE

from tests.conftest import build_divergent_load, build_fp_chain, build_saxpy


def one_core(warps=8, **overrides):
    return GPUConfig.small(n_cores=1, warps_per_core=warps).with_(**overrides)


def run(kernel, config, **kwargs):
    return TimingSimulator(config, **kwargs).run(emulate(kernel, config))


class TestExactCycles:
    def test_independent_alu_single_warp(self):
        """n independent IALU ops issue back to back: cycles = n."""
        b = KernelBuilder("alu")
        for _ in range(10):
            b.iadd(1, 2)
        b.exit()
        kernel = b.build(32, 32)
        stats = run(kernel, one_core())
        # 10 iadds + exit issue in consecutive cycles 0..10.
        assert stats.total_cycles == 11.0
        assert stats.cpi == 1.0

    def test_dependent_chain_single_warp(self):
        """A dependent FP chain stalls `latency` cycles per link."""
        config = one_core()
        kernel = build_fp_chain(length=4, n_threads=32, block_size=32)
        stats = run(kernel, config)
        falu = config.op_latencies["falu"]
        ialu = config.op_latencies["ialu"]
        # mov@0 (ialu 4cy); fmuls chain at 4, 29, 54, 79; exit @80 -> 81.
        assert stats.total_cycles == ialu + 3 * falu + 2

    def test_two_warps_hide_dependency_stalls(self):
        config = one_core(warps=2)
        kernel = build_fp_chain(length=4, n_threads=64, block_size=64)
        single = run(build_fp_chain(4, 32, 32), config).total_cycles
        double = run(kernel, config).total_cycles
        # The second warp interleaves into the first's stalls: far less
        # than 2x, at most a few extra cycles.
        assert double < 1.2 * single

    def test_coalesced_load_latency(self):
        config = one_core()
        b = KernelBuilder("ld")
        value = b.ld(b.iadd(b.imul(b.tid(), 4), 0x10000))
        b.fadd(value, 1.0)
        b.exit()
        stats = run(b.build(32, 32), config)
        # Address chain (ialu 4cy each): mov@0, imul@4, iadd@8, ld@12;
        # fadd waits L2 latency + DRAM bus transfer + DRAM latency
        # (120 + 2/3 + 300), issuing on the next integer cycle: 433.
        import math

        fadd_issue = math.ceil(12 + 120 + config.dram_service_cycles + 300)
        assert stats.total_cycles == fadd_issue + 2


class TestSchedulers:
    def test_rr_rotates_issue(self):
        config = one_core(warps=4)
        kernel = build_fp_chain(length=8, n_threads=128, block_size=128)
        stats = run(kernel, config)
        assert stats.total_insts == 4 * 10

    def test_gto_and_rr_same_work(self):
        kernel = build_saxpy(n_threads=256, block_size=64)
        rr = run(kernel, one_core(warps=8))
        gto = run(kernel, one_core(warps=8, scheduler="gto"))
        assert rr.total_insts == gto.total_insts
        assert rr.scheduler == "rr" and gto.scheduler == "gto"

    def test_rr_interleaves_vs_gto_greedy(self):
        """With independent work, GTO drains one warp before switching
        while RR alternates — both finish, cycle counts may differ."""
        b = KernelBuilder("indep")
        for _ in range(6):
            b.iadd(1, 2)
        b.exit()
        kernel = b.build(64, 64)
        rr = run(kernel, one_core(warps=2))
        gto = run(kernel, one_core(warps=2, scheduler="gto"))
        # Issue-bound either way: 14 instructions on one core.
        assert rr.total_cycles == gto.total_cycles == 14.0


class TestMemorySystem:
    def test_mshr_structural_stall(self):
        """More outstanding divergent misses than MSHRs serialises loads."""
        few_mshrs = one_core(warps=8).with_(n_mshrs=32)
        kernel = build_divergent_load(n_threads=256, block_size=256)
        stats = run(kernel, few_mshrs)
        assert any(c.mshr_stall_cycles > 0 for c in stats.cores)
        # 8 warps x 32 divergent misses = 256 requests over 32 MSHRs:
        # at least 8 service waves of 420 cycles each.
        assert stats.total_cycles > 8 * 420

    def test_more_mshrs_never_slower(self):
        kernel = build_divergent_load(n_threads=256, block_size=256)
        small = run(kernel, one_core(warps=8).with_(n_mshrs=32))
        large = run(kernel, one_core(warps=8).with_(n_mshrs=256))
        assert large.total_cycles <= small.total_cycles

    def test_mshr_merging_on_shared_lines(self):
        b = KernelBuilder("shared")
        value = b.ld(b.mov(0x10000))  # all lanes same line
        b.fadd(value, 1.0)
        b.exit()
        kernel = b.build(128, 128)  # 4 warps load the same line
        stats = run(kernel, one_core(warps=4))
        # A single miss serves all four warps: warp 1 allocates the MSHR,
        # warps 2..4 see a pending hit on the freshly installed tag.
        assert stats.mshr_allocations == 1
        # Everyone waits on the same fill, not four serialised misses.
        assert stats.total_cycles < 2 * 420

    def test_write_traffic_consumes_bandwidth(self):
        """Store-heavy kernels slow loads via the shared DRAM queue."""
        def build(n_stores):
            b = KernelBuilder("wr%d" % n_stores)
            tid = b.tid()
            offset = b.imul(tid, 128)
            for i in range(n_stores):
                b.st(b.iadd(offset, (i + 1) << 22), 1.0)
            value = b.ld(b.iadd(b.imul(tid, 4), 1 << 30))
            b.fadd(value, 1.0)
            b.exit()
            return b.build(256, 64)

        quiet = run(build(0), one_core(warps=8))
        noisy = run(build(8), one_core(warps=8))
        assert noisy.dram_mean_queue_delay > quiet.dram_mean_queue_delay
        assert noisy.total_cycles > quiet.total_cycles

    def test_stores_do_not_block_warps(self):
        """A store never creates a dependence stall."""
        b = KernelBuilder("st")
        offset = b.imul(b.tid(), 128)
        for i in range(4):
            b.st(b.iadd(offset, (i + 1) << 22), 2.0)
        b.exit()
        kernel = b.build(32, 32)
        stats = run(kernel, one_core())
        # Stores never allocate MSHRs and complete in one cycle; the only
        # stalls are the in-order address-computation (ialu) dependences:
        # mov@0, imul@4, then (iadd@t, st@t+4) pairs -> 29 cycles total.
        assert stats.mshr_allocations == 0
        assert stats.total_cycles == 29.0

    def test_load_wider_than_mshr_file_raises(self):
        """One load needing more entries than the whole file can never
        issue: the oracle fails loudly instead of deadlocking."""
        kernel = build_divergent_load(n_threads=256, block_size=256)
        with pytest.raises(
            MSHRError,
            match="needs 32 MSHR entries but the file only has 8",
        ):
            run(kernel, one_core(warps=8).with_(n_mshrs=8))

    def test_dram_utilization_reported(self):
        kernel = build_divergent_load(n_threads=256, block_size=256)
        stats = run(kernel, one_core(warps=8))
        assert 0.0 < stats.dram_utilization <= 1.0
        assert stats.dram_requests > 0


class TestMultiCore:
    def test_blocks_distributed_round_robin(self):
        config = GPUConfig.small(n_cores=2, warps_per_core=8)
        kernel = build_saxpy(n_threads=512, block_size=64)  # 8 blocks
        stats = run(kernel, config)
        assert stats.n_cores_used == 2
        insts = [c.insts_issued for c in stats.cores]
        assert insts[0] == insts[1]  # symmetric

    def test_unused_cores_dont_count(self):
        config = GPUConfig.small(n_cores=4, warps_per_core=8)
        kernel = build_saxpy(n_threads=64, block_size=64)  # 1 block
        stats = run(kernel, config)
        assert stats.n_cores_used == 1

    def test_warps_per_core_limit(self):
        kernel = build_fp_chain(length=8, n_threads=512, block_size=64)
        fewer = run(kernel, one_core(warps=2))
        more = run(kernel, one_core(warps=16))
        assert more.total_cycles < fewer.total_cycles

    def test_block_larger_than_the_warp_limit_runs_alone(self):
        # vectoradd's blocks hold 2 warps; a 1-warp core runs each one
        # alone, exactly as a 2-warp core does (one block at a time).
        # A core that refused such a block never finished: the small
        # max_cycles turns that into a SimulationError, not a hang.
        pipeline = Pipeline(GPUConfig.small(n_cores=2, warps_per_core=1),
                            scale=Scale.tiny())
        trace = pipeline.trace("vectoradd")
        assert trace.warps_per_block == 2
        alone = TimingSimulator(pipeline.config, max_cycles=1e5).run(trace)
        paired = TimingSimulator(
            GPUConfig.small(n_cores=2, warps_per_core=2)
        ).run(trace)
        assert alone == paired
        assert alone.cpi == 28.140625


#: Machines of the suite-wide equivalence check, all at the ledger's
#: configuration (2 cores, 4 warps per core).
SKIP_CONFIGS = {
    "rr": {},
    "gto": {"scheduler": "gto"},
    "subcore": {"arch": "subcore"},
    "sfu4": {"n_sfu_units": 4},
}


@pytest.fixture(scope="module")
def tiny_pipeline():
    return Pipeline(
        GPUConfig.small(n_cores=2, warps_per_core=4), scale=Scale.tiny()
    )


class TestCycleSkippingEquivalence:
    """Cycle skipping must reproduce the naive one-cycle-at-a-time loop's
    whole ``SimStats``: every ``CoreStats`` counter, including the stall
    cycles the skipped stretches charge."""

    @pytest.mark.parametrize("scheduler", ["rr", "gto"])
    @pytest.mark.parametrize(
        "builder",
        [
            lambda: build_saxpy(256, 64),
            lambda: build_divergent_load(256, 64),
            lambda: build_fp_chain(6, 128, 64),
        ],
    )
    def test_skipping_matches_naive_loop(self, scheduler, builder):
        config = GPUConfig.small(n_cores=2, warps_per_core=4).with_(
            scheduler=scheduler
        )
        trace = emulate(builder(), config)
        fast = TimingSimulator(config, cycle_skipping=True).run(trace)
        slow = TimingSimulator(config, cycle_skipping=False).run(trace)
        assert fast == slow

    @pytest.mark.parametrize("kernel", sorted(SUITE))
    @pytest.mark.parametrize("machine", sorted(SKIP_CONFIGS))
    def test_suite_skipping_matches_naive_loop(
        self, tiny_pipeline, machine, kernel
    ):
        config = tiny_pipeline.config.with_(**SKIP_CONFIGS[machine])
        trace = tiny_pipeline.trace(kernel, config)
        fast = TimingSimulator(config, cycle_skipping=True).run(trace)
        slow = TimingSimulator(config, cycle_skipping=False).run(trace)
        assert fast == slow


#: Machines of the memo check: small L1s and MSHR files, so installs,
#: evictions and releases all invalidate MSHR-need memos often.
MEMO_CONFIGS = {
    "l1_4k_2way": GPUConfig(n_cores=2, l1_size=4096, l1_assoc=2),
    "l1_8k_4way_48mshr": GPUConfig(
        n_cores=2, l1_size=8192, l1_assoc=4, n_mshrs=48
    ),
    "l1_4k_direct_gto_1core": GPUConfig(
        n_cores=1, l1_size=4096, l1_assoc=1, scheduler="gto"
    ),
}
MEMO_KERNELS = (
    "strided_deg16", "kmeans_point", "histo_main", "spmv_jds",
    "bfs_kernel1", "mri_gridding", "streamcluster_dist", "cfd_compute_flux",
)

#: Upper bounds on the oracle's work at ``Scale.small`` on
#: ``GPUConfig(n_cores=2)``, RR: ``(MSHR-need computations,
#: _issue_check calls)``.  The counts are deterministic, so any increase
#: is a change to the issue loop's work, guarded with zero tolerance.
WORK_BOUNDS = {
    "strided_deg16": (1148, 1152),
    "kmeans_point": (3478, 4669),
}


@pytest.fixture(scope="module")
def memo_pipeline():
    return Pipeline(GPUConfig(n_cores=2), scale=Scale.tiny())


class TestMSHRNeedMemo:
    """The per-warp MSHR-need memo, invalidated by line, must never
    change a result: a run that drops every memo before each core step
    matches the shipped run's whole ``SimStats``."""

    @pytest.mark.parametrize("warps", [8, 32])
    @pytest.mark.parametrize("machine", sorted(MEMO_CONFIGS))
    @pytest.mark.parametrize("kernel", MEMO_KERNELS)
    def test_memo_matches_no_memo(
        self, memo_pipeline, monkeypatch, kernel, machine, warps
    ):
        config = MEMO_CONFIGS[machine].with_(
            max_threads_per_core=warps * 32
        )
        trace = memo_pipeline.trace(kernel, config)
        shipped = TimingSimulator(config).run(trace)

        step = CoreModel.step

        def step_without_memo(core, now):
            for run in core._resident:
                run.need_idx = -1
            return step(core, now)

        monkeypatch.setattr(CoreModel, "step", step_without_memo)
        bare = TimingSimulator(config).run(trace)
        assert shipped == bare

    @pytest.mark.parametrize("kernel", sorted(WORK_BOUNDS))
    def test_issue_work_bounded(self, paper_pipeline, monkeypatch, kernel):
        counts = {"_compute_need": 0, "_issue_check": 0}
        for name in counts:
            method = getattr(CoreModel, name)

            def counted(core, *args, _name=name, _method=method):
                counts[_name] += 1
                return _method(core, *args)

            monkeypatch.setattr(CoreModel, name, counted)
        TimingSimulator(paper_pipeline.config).run(
            paper_pipeline.trace(kernel)
        )
        needs, checks = WORK_BOUNDS[kernel]
        assert counts["_compute_need"] <= needs
        assert counts["_issue_check"] <= checks


#: Upper bounds on the Python-level calls into ``repro`` of one oracle
#: run at ``Scale.small`` on ``GPUConfig(n_cores=2)``, RR.  The counts are
#: deterministic, so any increase is new per-instruction or per-request
#: call overhead, guarded with zero tolerance.
CALL_BOUNDS = {
    "histo_main": 301_678,
    "mri_q": 215_466,
}


def count_repro_calls(fn):
    """Call ``fn()``, counting the calls of named functions whose code
    lives in the ``repro`` package.

    Comprehension and generator-expression frames are not counted
    (nor lambdas): Python 3.12 inlines comprehensions, so without them
    the count is the same on every supported Python.
    """
    import os
    import sys

    import repro

    root = os.path.dirname(repro.__file__) + os.sep
    calls = 0

    def profile(frame, event, arg):
        nonlocal calls
        if event == "call":
            code = frame.f_code
            if (code.co_filename.startswith(root)
                    and not code.co_name.startswith("<")):
                calls += 1

    sys.setprofile(profile)
    try:
        result = fn()
    finally:
        sys.setprofile(None)
    return result, calls


class TestOracleCallWork:
    """The oracle's cost is Python calls, so count them: ``step`` picks
    and issues inline, and each memory level takes a request group in
    one call."""

    @pytest.mark.parametrize("kernel", sorted(CALL_BOUNDS))
    def test_calls_per_oracle_run_bounded(self, paper_pipeline, kernel):
        trace = paper_pipeline.trace(kernel)
        simulator = TimingSimulator(paper_pipeline.config)
        stats, calls = count_repro_calls(lambda: simulator.run(trace))
        assert stats.total_insts == trace.total_insts
        assert calls <= CALL_BOUNDS[kernel]


class TestStats:
    def test_cpi_definition(self):
        kernel = build_saxpy(128, 64)
        config = GPUConfig.small(n_cores=2, warps_per_core=8)
        stats = run(kernel, config)
        assert stats.cpi == pytest.approx(
            stats.total_cycles * stats.n_cores_used / stats.total_insts
        )
        assert stats.ipc == pytest.approx(1 / stats.cpi)

    def test_summary_mentions_kernel(self):
        stats = run(build_saxpy(128, 64), one_core())
        assert "saxpy" in stats.summary()

    def test_convenience_wrapper(self):
        config = one_core()
        trace = emulate(build_saxpy(128, 64), config)
        assert simulate_kernel(trace, config).total_insts == trace.total_insts
