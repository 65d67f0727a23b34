"""Behavioural tests of the RR and GTO warp schedulers in the oracle."""


from repro.config import GPUConfig
from repro.isa import KernelBuilder
from repro.timing import TimingSimulator
from repro.trace import emulate


def run_with_issue_log(kernel, config):
    """Run core 0 of the oracle while recording (cycle, warp_id) issue order.

    A step issues at most one instruction per scheduler partition, in
    partition order, so the log diffs every warp's ``next_idx`` around
    each step and lists the warps that advanced by partition.
    """
    import math
    from collections import defaultdict

    from repro.memory.cache import Cache
    from repro.memory.dram import DRAMSystem
    from repro.timing.core_model import CoreModel

    trace = emulate(kernel, config)
    blocks = defaultdict(list)
    for warp, block_id in enumerate(trace.block_ids.tolist()):
        blocks[block_id].append(warp)
    per_core = [[] for _ in range(config.n_cores)]
    for block_id in sorted(blocks):
        per_core[block_id % config.n_cores].append(blocks[block_id])
    l2 = Cache(config.l2_size, config.l2_assoc, config.line_size)
    dram = DRAMSystem(config.dram_service_cycles, 1, config.line_size)
    core = CoreModel(0, config, l2, dram, trace, per_core[0])
    n_partitions = config.schedulers_per_core

    issue_log = []
    now = 0.0
    while not core.finished:
        before = {run: run.next_idx for run in core._resident}
        issued = core.step(now)
        # A warp activated during the step (its block replaced a retired
        # one) may issue in a later partition of the same step.
        runs = list(before) + [
            run for run in core._resident if run not in before
        ]
        advanced = sorted(
            (run for run in runs if run.next_idx > before.get(run, 0)),
            key=lambda run: run.age % n_partitions,
        )
        assert issued == bool(advanced)
        issue_log.extend((now, run.warp_id) for run in advanced)
        if not issued:
            wake = core.next_event_after(now)
            now = max(now + 1.0, math.ceil(wake))
        else:
            now += 1.0
    return issue_log


def independent_work_kernel(n_insts=6, n_threads=128, block_size=128):
    b = KernelBuilder("indep")
    for i in range(n_insts):
        b.iadd(i, 1)
    b.exit()
    return b.build(n_threads=n_threads, block_size=block_size)


class TestRoundRobin:
    def test_rr_rotates_across_warps(self):
        config = GPUConfig.small(n_cores=1, warps_per_core=4)
        log = run_with_issue_log(independent_work_kernel(), config)
        first_four = [warp for _, warp in log[:4]]
        assert sorted(first_four) == [0, 1, 2, 3]  # each warp issues once

    def test_rr_no_starvation(self):
        config = GPUConfig.small(n_cores=1, warps_per_core=4)
        log = run_with_issue_log(independent_work_kernel(), config)
        issues_per_warp = {w: 0 for w in range(4)}
        for _, warp in log:
            issues_per_warp[warp] += 1
        counts = set(issues_per_warp.values())
        assert len(counts) == 1  # perfectly fair on independent work


class TestGreedyThenOldest:
    def test_gto_drains_one_warp_first(self):
        config = GPUConfig.small(n_cores=1, warps_per_core=4).with_(
            scheduler="gto"
        )
        log = run_with_issue_log(independent_work_kernel(), config)
        # The first 7 issues (6 iadds + exit) all come from the same warp.
        first_warp = log[0][1]
        assert all(warp == first_warp for _, warp in log[:7])

    def test_gto_switches_to_oldest_on_stall(self):
        config = GPUConfig.small(n_cores=1, warps_per_core=4).with_(
            scheduler="gto"
        )
        b = KernelBuilder("chain")
        acc = b.mov(1.0)
        b.fmul(acc, 2.0)  # stalls 4 cycles behind the mov
        b.exit()
        kernel = b.build(n_threads=128, block_size=128)
        log = run_with_issue_log(kernel, config)
        # Warp 0 issues its mov, stalls; the scheduler moves to warp 1
        # (the oldest ready), and so on.
        first_four = [warp for _, warp in log[:4]]
        assert first_four == [0, 1, 2, 3]


class TestResidencyEdges:
    """Issue-order goldens at the residency extremes, both schedulers."""

    def test_rr_single_warp(self):
        config = GPUConfig.small(n_cores=1, warps_per_core=4)
        log = run_with_issue_log(
            independent_work_kernel(n_threads=32, block_size=32), config
        )
        # 6 iadds + exit from the only warp, one per cycle.
        assert log == [(float(c), 0) for c in range(7)]

    def test_gto_single_warp(self):
        config = GPUConfig.small(n_cores=1, warps_per_core=4).with_(
            scheduler="gto"
        )
        log = run_with_issue_log(
            independent_work_kernel(n_threads=32, block_size=32), config
        )
        assert log == [(float(c), 0) for c in range(7)]

    def test_rr_exactly_full_residency(self):
        config = GPUConfig.small(n_cores=1, warps_per_core=4)
        log = run_with_issue_log(independent_work_kernel(), config)
        # One issue slot: warps rotate 0,1,2,3 every four cycles.
        golden = [(float(c), c % 4) for c in range(16)]
        assert log[:16] == golden


class TestSubcoreDispatch:
    """Sub-core partitions: one issue slot per scheduler per cycle."""

    def test_two_partitions_dual_issue(self):
        config = GPUConfig.small(n_cores=1, warps_per_core=4).with_(
            arch="subcore", n_schedulers=2
        )
        log = run_with_issue_log(independent_work_kernel(), config)
        # Warp -> partition by age % 2: {0,2} and {1,3}.  Both
        # partitions issue every cycle, RR rotating within each.
        assert log[:8] == [
            (0.0, 0), (0.0, 1),
            (1.0, 2), (1.0, 3),
            (2.0, 0), (2.0, 1),
            (3.0, 2), (3.0, 3),
        ]

    def test_gto_greedy_per_partition(self):
        config = GPUConfig.small(n_cores=1, warps_per_core=4).with_(
            arch="subcore", n_schedulers=2, scheduler="gto"
        )
        log = run_with_issue_log(independent_work_kernel(), config)
        # Each partition drains its own greedy warp first: 0 and 1
        # issue together for all 7 instructions, then 2 and 3.
        assert log[:14] == [
            (float(c), w) for c in range(7) for w in (0, 1)
        ]
        assert log[14:] == [
            (float(c), w) for c in range(7, 14) for w in (2, 3)
        ]

    def test_one_warp_fills_one_partition(self):
        config = GPUConfig.small(n_cores=1, warps_per_core=4).with_(
            arch="subcore", n_schedulers=4
        )
        log = run_with_issue_log(
            independent_work_kernel(n_threads=32, block_size=32), config
        )
        # Three partitions are empty; throughput equals a single slot.
        assert log == [(float(c), 0) for c in range(7)]

    def test_full_residency_one_warp_per_partition(self):
        config = GPUConfig.small(n_cores=1, warps_per_core=4).with_(
            arch="subcore", n_schedulers=4
        )
        log = run_with_issue_log(independent_work_kernel(), config)
        # Four partitions, one warp each: all four issue every cycle.
        assert log[:8] == [
            (0.0, 0), (0.0, 1), (0.0, 2), (0.0, 3),
            (1.0, 0), (1.0, 1), (1.0, 2), (1.0, 3),
        ]

    def test_uneven_partition_sizes(self):
        config = GPUConfig.small(n_cores=1, warps_per_core=8).with_(
            arch="subcore", n_schedulers=2
        )
        # Six single-warp blocks over two partitions: {0,2,4} and
        # {1,3,5} — both slots busy, rotation independent per side.
        log = run_with_issue_log(
            independent_work_kernel(n_threads=192, block_size=32), config
        )
        assert log[:6] == [
            (0.0, 0), (0.0, 1),
            (1.0, 2), (1.0, 3),
            (2.0, 4), (2.0, 5),
        ]

    def test_subcore_and_paper_issue_same_instructions(self):
        base = GPUConfig.small(n_cores=1, warps_per_core=4)
        sub = base.with_(arch="subcore", n_schedulers=2)
        kernel = independent_work_kernel()
        log_a = run_with_issue_log(kernel, base)
        log_b = run_with_issue_log(kernel, sub)
        assert len(log_a) == len(log_b)
        # Dual issue strictly shortens the schedule on issue-bound work.
        assert log_b[-1][0] < log_a[-1][0]


class TestPolicyDivergence:
    def test_policies_differ_on_stall_heavy_kernels(self):
        """RR and GTO produce different cycle counts under latency stalls
        (the premise of modeling them separately, Sec. IV-A)."""
        b = KernelBuilder("latency")
        tid = b.tid()
        acc = b.ld(b.iadd(b.imul(tid, 4), 0x100000))
        for _ in range(4):
            acc = b.ffma(acc, 1.1, 0.1, dst=acc)
        b.st(b.iadd(b.imul(tid, 4), 0x900000), acc)
        b.exit()
        kernel = b.build(n_threads=512, block_size=64)
        config = GPUConfig.small(n_cores=1, warps_per_core=8)
        trace = emulate(kernel, config)
        rr = TimingSimulator(config).run(trace)
        gto = TimingSimulator(config.with_(scheduler="gto")).run(trace)
        assert rr.total_insts == gto.total_insts
        assert rr.total_cycles != gto.total_cycles
