"""Cross-cutting property tests: random programs through the whole stack.

A hypothesis strategy generates arbitrary (but well-formed) kernels in the
mini ISA; the invariants below must hold for *every* such kernel:

* the emulator records one trace row per issued instruction, dependencies
  point backwards, coalesced request counts are bounded by the warp size;
* the interval profile partitions the trace and reproduces the Eq. 4
  issue-cycle total;
* the timing oracle issues exactly the traced instructions, never beats
  the issue-bandwidth bound, and is invariant to cycle skipping;
* GPUMech's prediction is positive, finite, and the CPI stack sums to it.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config import GPUConfig
from repro.core.interval import build_interval_profile
from repro.core.latency import build_latency_table
from repro.core.model import GPUMech
from repro.isa import KernelBuilder
from repro.memory import simulate_caches
from repro.timing import TimingSimulator
from repro.trace import emulate
from repro.trace.trace_types import NO_DEP

CONFIG = GPUConfig.small(n_cores=2, warps_per_core=4)


@st.composite
def random_kernels(draw):
    """A random straight-line-plus-one-loop kernel."""
    b = KernelBuilder("prop")
    tid = b.tid()
    values = [tid, b.mov(1.5)]
    n_ops = draw(st.integers(1, 12))
    for i in range(n_ops):
        kind = draw(st.sampled_from(["alu", "falu", "sfu", "ld", "st"]))
        operand = values[draw(st.integers(0, len(values) - 1))]
        if kind == "alu":
            values.append(b.iadd(operand, draw(st.integers(0, 100))))
        elif kind == "falu":
            values.append(b.ffma(operand, 1.25, 0.5))
        elif kind == "sfu":
            values.append(b.fsqrt(operand))
        elif kind == "ld":
            stride = draw(st.sampled_from([4, 64, 512]))
            addr = b.iadd(b.imul(tid, stride), (i + 1) << 22)
            values.append(b.ld(addr))
        else:
            stride = draw(st.sampled_from([4, 512]))
            addr = b.iadd(b.imul(tid, stride), (i + 17) << 22)
            b.st(addr, operand)
    if draw(st.booleans()):  # optional divergent if-block
        pred = b.setp_lt(b.lane(), draw(st.integers(1, 31)))
        with b.if_(pred):
            b.fadd(values[-1] if values else 1.0, 2.0)
    if draw(st.booleans()):  # optional uniform short loop
        counter = b.mov(0)
        head = b.loop_begin()
        b.iadd(counter, 1, dst=counter)
        pred = b.setp_lt(counter, draw(st.integers(1, 3)))
        b.loop_end(head, pred)
    b.exit()
    n_warps = draw(st.integers(1, 4))
    return b.build(n_threads=n_warps * 64, block_size=64)


@settings(deadline=None, max_examples=25)
@given(random_kernels())
def test_trace_invariants(kernel):
    trace = emulate(kernel, CONFIG)
    assert trace.n_warps == kernel.n_warps
    for warp in trace.warps:
        n = len(warp)
        assert n > 0
        # Dependencies always point strictly backwards.
        for k in range(n):
            for dep in warp.deps[k]:
                assert dep == NO_DEP or 0 <= dep < k
        # Coalescing is bounded by the warp size and only on memory ops.
        reqs = warp.requests_per_inst
        assert (reqs <= CONFIG.warp_size).all()
        assert (reqs[~warp.is_memory] == 0).all()
        # Active counts are within [1, warp_size].
        assert (np.asarray(warp.active) >= 1).all()
        assert (np.asarray(warp.active) <= CONFIG.warp_size).all()


@settings(deadline=None, max_examples=25)
@given(random_kernels())
def test_interval_profile_invariants(kernel):
    trace = emulate(kernel, CONFIG)
    cache = simulate_caches(trace, CONFIG)
    table = build_latency_table(trace, cache, CONFIG)
    for warp in trace.warps:
        profile = build_interval_profile(warp, table)
        # Partition: interval instruction counts sum to the trace length.
        assert sum(i.n_insts for i in profile.intervals) == len(warp)
        # Non-negative stalls; all-but-last interval stalls are positive.
        for interval in profile.intervals[:-1]:
            assert interval.stall_cycles > 0.0
        assert profile.intervals[-1].stall_cycles == 0.0
        # Eq. 5 consistency: one issue cycle per instruction at best.
        assert profile.total_cycles >= len(warp)
        assert 0.0 < profile.warp_perf <= 1.0


#: The oracle's machines: the paper's one scheduler per core, and
#: sub-core dispatch with 2 and 4 schedulers, each under RR and GTO.
ORACLE_MACHINES = {
    "%s-%s" % (name, policy): config.with_(scheduler=policy)
    for name, config in (
        ("gpumech2014", CONFIG),
        ("subcore2", CONFIG.with_(arch="subcore", n_schedulers=2)),
        ("subcore4", CONFIG.with_(arch="subcore", n_schedulers=4)),
    )
    for policy in ("rr", "gto")
}


@pytest.mark.parametrize("machine", sorted(ORACLE_MACHINES))
@settings(deadline=None, max_examples=15)
@given(kernel=random_kernels())
def test_oracle_invariants(machine, kernel):
    config = ORACLE_MACHINES[machine]
    slots = config.schedulers_per_core
    trace = emulate(kernel, config)
    stats = TimingSimulator(config).run(trace)
    assert stats.total_insts == trace.total_insts
    # Issue bandwidth bound: cycles >= insts / (cores * issue slots).
    assert stats.total_cycles >= trace.total_insts / (
        stats.n_cores_used * slots
    )
    assert stats.cpi >= 1.0 / slots
    # Each issue cycle issues at least one instruction and at most one
    # per scheduler: insts_issued counts issues, not cycles.
    for core in stats.cores:
        assert core.issue_cycles <= core.insts_issued
        assert core.insts_issued <= core.issue_cycles * slots


@settings(deadline=None, max_examples=8)
@given(random_kernels())
def test_oracle_cycle_skipping_equivalence(kernel):
    trace = emulate(kernel, CONFIG)
    fast = TimingSimulator(CONFIG, cycle_skipping=True).run(trace)
    slow = TimingSimulator(CONFIG, cycle_skipping=False).run(trace)
    assert fast.total_cycles == slow.total_cycles


@settings(deadline=None, max_examples=15)
@given(random_kernels(), st.sampled_from(["rr", "gto"]))
def test_model_invariants(kernel, policy):
    model = GPUMech(CONFIG.with_(scheduler=policy))
    inputs = model.prepare(kernel)
    prediction = model.predict(inputs)
    assert np.isfinite(prediction.cpi)
    assert prediction.cpi >= 1.0  # issue-bandwidth floor
    assert prediction.cpi_mshr >= 0.0 and prediction.cpi_queue >= 0.0
    assert prediction.cpi_stack.total == pytest.approx(prediction.cpi)
    # Monotone model ladder.
    assert prediction.cpi >= prediction.cpi_multithreading - 1e-12
