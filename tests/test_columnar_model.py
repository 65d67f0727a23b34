"""The columnar model against the per-interval loops it replaced.

The analytical model computes on interval columns.  The reference below
is the per-interval code it replaced: a dataclass profile holding a
list of :class:`Interval` rows, and one Python loop per model.  It is
kept verbatim except for its float sums, which :func:`ref_sum` writes
as an explicit loop: the builtin ``sum`` adds floats left to right only
up to Python 3.11 and compensates them from 3.12 on, while the model's
left-to-right order (:func:`repro.core.interval.ordered_sum`) is the
same on every interpreter.
Hypothesis feeds both the same random profiles and machines, and every
output must agree *bit for bit* — including the edge cases the 40 suite
kernels never reach: empty and single-interval profiles, profiles that
never stall, request counts exactly at the MSHR capacity, and a
saturated DRAM bus (rho >= 1).
"""

import math
from dataclasses import dataclass, field, fields
from functools import cached_property
from typing import List

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.baselines.markov import markov_chain_cpi
from repro.baselines.naive import naive_interval_cpi
from repro.config import GPUConfig
from repro.core.contention import ContentionResult, model_contention
from repro.core.cpi_stack import CPIStack, StallType, single_warp_stack
from repro.core.interval import (
    INTERVAL_DTYPES,
    Interval,
    IntervalColumns,
    IntervalProfile,
)
from repro.core.latency import LatencyTable
from repro.core.multithreading import model_multithreading
from repro.core.representative import feature_vectors
from repro.memory.cache_simulator import PCStats
from repro.memory.hierarchy import MissEvent

# ---------------------------------------------------------------------------
# Reference: the per-interval implementation
# ---------------------------------------------------------------------------


def ref_sum(values):
    """``0 + v[0] + v[1] + ...``, left to right on every interpreter."""
    total = 0
    for value in values:
        total += value
    return total


@dataclass
class RefProfile:
    """A warp's collection of intervals (Eq. 2) plus aggregates."""

    warp_id: int
    intervals: List[Interval] = field(default_factory=list)
    issue_rate: float = 1.0

    @property
    def n_intervals(self) -> int:
        return len(self.intervals)

    @cached_property
    def n_insts(self) -> int:
        return sum(i.n_insts for i in self.intervals)

    @cached_property
    def total_stall_cycles(self) -> float:
        return ref_sum(i.stall_cycles for i in self.intervals)

    @property
    def total_cycles(self) -> float:
        return self.n_insts / self.issue_rate + self.total_stall_cycles

    @property
    def warp_perf(self) -> float:
        cycles = self.total_cycles
        return self.n_insts / cycles if cycles else 0.0

    @property
    def single_warp_cpi(self) -> float:
        return 1.0 / self.warp_perf if self.n_insts else 0.0

    @property
    def avg_interval_insts(self) -> float:
        return self.n_insts / self.n_intervals if self.n_intervals else 0.0

    @property
    def issue_prob(self) -> float:
        return self.warp_perf


def ref_mean_wave(n_requests: float, n_mshrs: int) -> float:
    n = int(n_requests)
    if n <= 0:
        return 1.0
    full = n // n_mshrs
    total = n_mshrs * full * (full + 1) // 2 + (n - full * n_mshrs) * (full + 1)
    return total / n


def ref_mshr_queuing_delay(
    core_reqs: float, n_mshrs: int, avg_miss_latency: float
) -> float:
    if core_reqs <= n_mshrs:
        return 0.0
    return avg_miss_latency * (ref_mean_wave(core_reqs, n_mshrs) - 1.0)


def ref_md1_wait(
    total_reqs: float, interval_cycles: float, service: float
) -> float:
    if total_reqs <= 0.0 or interval_cycles <= 0.0:
        return 0.0
    arrival_rate = total_reqs / interval_cycles  # Eq. 23
    rho = arrival_rate * service  # Eq. 22
    cap = service * total_reqs / 2.0  # Eq. 21's backlog cap
    if rho >= 1.0:
        return cap
    wait = arrival_rate * service * service / (2.0 * (1.0 - rho))
    return min(wait, cap)


def ref_dram_queuing_delay(core_reqs, interval_cycles, config) -> float:
    channels = config.n_dram_channels
    return ref_md1_wait(
        core_reqs * config.n_cores / channels,
        interval_cycles,
        config.dram_service_cycles * channels,
    )


def ref_model_contention(profile, n_warps, config, avg_miss_latency):
    per_mshr: List[float] = []
    per_queue: List[float] = []
    issue_rate = profile.issue_rate
    sfu_limited = config.n_sfu_units < config.warp_size
    sfu_service = config.sfu_service_cycles

    for interval in profile.intervals:
        # --- MSHRs (reads only) ------------------------------------------
        core_mshr_reqs = interval.exp_mshr_reqs * n_warps  # Eq. 18
        delay = ref_mshr_queuing_delay(core_mshr_reqs, config.n_mshrs,
                                       avg_miss_latency)
        # Charged per memory instruction that occupies MSHRs (Eq. 20).
        per_mshr.append(delay * interval.exp_mshr_loads)

        # --- DRAM bandwidth (reads that miss L2 + write-through stores) --
        core_dram_reqs = interval.dram_reqs * n_warps
        wait = ref_dram_queuing_delay(
            core_dram_reqs, interval.cycles(issue_rate), config
        )
        per_queue.append(wait * interval.exp_dram_loads)

    total_insts = n_warps * profile.n_insts
    cpi_mshr = ref_sum(per_mshr) / total_insts if total_insts else 0.0
    cpi_queue = ref_sum(per_queue) / total_insts if total_insts else 0.0

    rep_insts = profile.n_insts
    mshr_reqs = ref_sum(i.exp_mshr_reqs for i in profile.intervals)
    dram_reqs = ref_sum(i.dram_reqs for i in profile.intervals)
    sfu_insts = sum(i.n_sfu for i in profile.intervals)
    smem_slots = sum(i.smem_slots for i in profile.intervals)
    mshr_floor = 0.0
    bandwidth_floor = 0.0
    sfu_floor = 0.0
    smem_floor = 0.0
    if rep_insts:
        mshr_floor = (
            avg_miss_latency * (mshr_reqs / rep_insts) / config.n_mshrs
        )
        bandwidth_floor = (
            config.dram_service_cycles * config.n_cores * dram_reqs / rep_insts
        )
        if smem_slots:
            smem_floor = smem_slots / rep_insts
        if sfu_limited and sfu_insts:
            sfu_floor = sfu_service * sfu_insts / rep_insts
    return ContentionResult(
        cpi_mshr_model=cpi_mshr,
        cpi_queue_model=cpi_queue,
        cpi_mshr_floor=mshr_floor,
        cpi_bandwidth_floor=bandwidth_floor,
        per_interval_mshr=per_mshr,
        per_interval_queue=per_queue,
        avg_miss_latency=avg_miss_latency,
        cpi_sfu_model=0.0,
        cpi_sfu_floor=sfu_floor,
        cpi_smem_floor=smem_floor,
    )


def ref_nonoverlapped_rr(interval, issue_prob, n_warps):
    waiting_slots = max(interval.n_insts - 1, 0)
    return issue_prob * (n_warps - 1) * waiting_slots


def ref_nonoverlapped_rr_lockstep(interval, n_warps):
    trailing_overlap = min(interval.stall_cycles, float(n_warps - 1))
    return (n_warps - 1) * interval.n_insts - trailing_overlap


def ref_nonoverlapped_gto(
    interval, issue_prob, n_warps, avg_interval_insts, issue_rate
):
    issue_prob_in_stall = min(issue_prob * interval.stall_cycles, 1.0)
    issue_warps_in_stall = issue_prob_in_stall * (n_warps - 1)
    issued_in_stall = avg_interval_insts * issue_warps_in_stall
    return max(issued_in_stall - interval.stall_cycles * issue_rate, 0.0)


def ref_model_multithreading(
    profile, n_warps, policy, rr_mode="probabilistic", alignment=1.0
):
    """(cpi, total_nonoverlapped, per_interval, rep_total_cycles)."""
    issue_rate = profile.issue_rate
    issue_prob = profile.issue_prob
    avg_insts = profile.avg_interval_insts

    per_interval: List[float] = []
    if n_warps == 1:
        per_interval = [0.0] * profile.n_intervals
    elif policy == "rr":
        weight = {
            "lockstep": 1.0,
            "probabilistic": 0.0,
            "blended": min(max(alignment, 0.0), 1.0),
        }[rr_mode]
        for interval in profile.intervals:
            lockstep = ref_nonoverlapped_rr_lockstep(interval, n_warps)
            random = ref_nonoverlapped_rr(interval, issue_prob, n_warps)
            per_interval.append(weight * lockstep + (1.0 - weight) * random)
    else:
        per_interval = [
            ref_nonoverlapped_gto(
                i, issue_prob, n_warps, avg_insts, issue_rate
            )
            for i in profile.intervals
        ]

    total_nonoverlapped = ref_sum(per_interval)  # Eq. 8
    rep_insts = profile.n_insts
    rep_cycles = profile.total_cycles
    total_insts = n_warps * rep_insts
    cycles = rep_cycles + total_nonoverlapped / issue_rate
    cpi = cycles / total_insts if total_insts else 0.0
    cpi = max(cpi, 1.0 / issue_rate)
    return cpi, total_nonoverlapped, per_interval, rep_cycles


_EVENT_CATEGORY = {
    MissEvent.L1_HIT: StallType.L1,
    MissEvent.L2_HIT: StallType.L2,
    MissEvent.L2_MISS: StallType.DRAM,
}


def ref_single_warp_stack(profile, latency_table):
    stack = CPIStack()
    n_insts = profile.n_insts
    if not n_insts:
        return stack
    components = stack.components
    components[StallType.BASE] = 1.0 / profile.issue_rate
    for interval in profile.intervals:
        stall = interval.stall_cycles
        if stall <= 0.0:
            continue
        if not interval.cause_is_memory:
            components[StallType.DEP] += stall / n_insts
            continue
        stats = latency_table.stats_for(interval.cause_pc)
        if stats is None or not stats.n_insts:
            components[StallType.DEP] += stall / n_insts
            continue
        for event, category in _EVENT_CATEGORY.items():
            fraction = stats.inst_event_fraction(event)
            components[category] += stall * fraction / n_insts
    return stack


def ref_markov_chain_cpi(profile, n_warps):
    n_insts = profile.n_insts
    if not n_insts:
        return 0.0
    stall = profile.total_stall_cycles
    stalling_intervals = sum(
        1 for i in profile.intervals if i.stall_cycles > 0.0
    )
    if not stalling_intervals or stall <= 0.0:
        return 1.0 / profile.issue_rate  # never stalls: issue-bound
    p = stalling_intervals / n_insts
    m = stall / stalling_intervals
    activation = 1.0 / (1.0 + p * m)
    ipc = (1.0 - (1.0 - activation) ** n_warps) * profile.issue_rate
    return 1.0 / ipc


def ref_naive_interval_cpi(profile, n_warps, cap_at_issue_rate=True):
    if not profile.n_insts:
        return 0.0
    cpi = profile.total_cycles / (n_warps * profile.n_insts)
    if cap_at_issue_rate:
        cpi = max(cpi, 1.0 / profile.issue_rate)
    return cpi


def ref_feature_vectors(profiles):
    perf = np.array([p.warp_perf for p in profiles], dtype=np.float64)
    insts = np.array([p.n_insts for p in profiles], dtype=np.float64)
    avg_perf = perf.mean() if perf.mean() else 1.0
    avg_insts = insts.mean() if insts.mean() else 1.0
    return np.column_stack([perf / avg_perf, insts / avg_insts])


# ---------------------------------------------------------------------------
# Bitwise comparison
# ---------------------------------------------------------------------------


def bits(value) -> bytes:
    """IEEE-754 bytes of a number or of a sequence of numbers."""
    return np.asarray(value, dtype=np.float64).tobytes()


def assert_same_bits(got, want, what):
    assert bits(got) == bits(want), (what, got, want)


def assert_same_stack(got: CPIStack, want: CPIStack):
    for category in StallType:
        assert_same_bits(got[category], want[category], category)


# ---------------------------------------------------------------------------
# Inputs
# ---------------------------------------------------------------------------

#: PCs stall causes are drawn from; the latency table knows a subset.
PCS = range(-1, 8)


def floats(hi, integral=False):
    values = st.floats(0.0, hi, allow_nan=False, allow_infinity=False)
    if integral:
        values = st.one_of(values, st.integers(0, int(hi)).map(float))
    return values


@st.composite
def intervals(draw):
    return Interval(
        n_insts=draw(st.integers(0, 200)),
        stall_cycles=draw(st.one_of(st.just(0.0), floats(5000.0, True))),
        cause_pc=draw(st.sampled_from(PCS)),
        cause_is_memory=draw(st.booleans()),
        n_loads=draw(st.integers(0, 8)),
        n_stores=draw(st.integers(0, 8)),
        load_reqs=draw(st.integers(0, 256)),
        store_reqs=draw(st.integers(0, 256)),
        n_sfu=draw(st.integers(0, 8)),
        n_smem=draw(st.integers(0, 8)),
        smem_slots=draw(st.integers(0, 64)),
        exp_mshr_reqs=draw(floats(64.0, True)),
        exp_dram_read_reqs=draw(floats(64.0, True)),
        exp_mshr_loads=draw(floats(8.0, True)),
        exp_dram_loads=draw(floats(8.0, True)),
    )


profiles = st.tuples(
    st.lists(intervals(), max_size=40), st.sampled_from([1.0, 2.0])
)


@st.composite
def machines(draw):
    return GPUConfig(
        n_cores=draw(st.integers(1, 16)),
        n_mshrs=draw(st.integers(1, 64)),
        dram_bandwidth_gbps=draw(st.floats(1.0, 512.0)),
        n_dram_channels=draw(st.sampled_from([1, 2, 4])),
        n_sfu_units=draw(st.sampled_from([4, 8, 32])),
    )


@st.composite
def latency_tables(draw):
    """Cache statistics for a random subset of :data:`PCS`, some of them
    without instructions (which the stack must treat as absent)."""
    pc_stats = {}
    for pc in draw(st.sets(st.sampled_from(PCS))):
        stats = PCStats(pc=pc, is_store=False)
        events = draw(st.lists(st.integers(0, 50), min_size=3, max_size=3))
        stats.inst_events = dict(zip(_EVENT_CATEGORY, events))
        stats.n_insts = sum(events)
        pc_stats[pc] = stats
    return LatencyTable(np.ones(8), pc_stats, GPUConfig())


def both(rows, issue_rate=1.0, warp_id=0):
    """The same intervals as a columnar profile and as a reference one."""
    return (
        IntervalProfile.from_intervals(warp_id, rows, issue_rate),
        RefProfile(warp_id, list(rows), issue_rate),
    )


# ---------------------------------------------------------------------------
# Checks
# ---------------------------------------------------------------------------


def check_contention(rows, issue_rate, n_warps, config, avg_miss_latency):
    profile, ref = both(rows, issue_rate)
    got = model_contention(profile, n_warps, config, avg_miss_latency)
    want = ref_model_contention(ref, n_warps, config, avg_miss_latency)
    for spec in fields(ContentionResult):
        assert_same_bits(
            getattr(got, spec.name), getattr(want, spec.name), spec.name
        )


def check_multithreading(rows, issue_rate, n_warps, alignment):
    profile, ref = both(rows, issue_rate)
    runs = [("rr", mode) for mode in ("probabilistic", "lockstep", "blended")]
    for policy, rr_mode in runs + [("gto", "probabilistic")]:
        got = model_multithreading(
            profile, n_warps, policy, rr_mode=rr_mode, alignment=alignment
        )
        cpi, total, per_interval, rep_cycles = ref_model_multithreading(
            ref, n_warps, policy, rr_mode=rr_mode, alignment=alignment
        )
        what = (policy, rr_mode)
        assert_same_bits(got.cpi, cpi, what)
        assert_same_bits(got.total_nonoverlapped, total, what)
        assert_same_bits(got.per_interval_nonoverlapped, per_interval, what)
        assert_same_bits(got.rep_total_cycles, rep_cycles, what)
        assert got.rep_insts == ref.n_insts


def check_baselines(rows, issue_rate, n_warps):
    profile, ref = both(rows, issue_rate)
    assert_same_bits(
        markov_chain_cpi(profile, n_warps),
        ref_markov_chain_cpi(ref, n_warps),
        "markov",
    )
    for cap in (True, False):
        assert_same_bits(
            naive_interval_cpi(profile, n_warps, cap),
            ref_naive_interval_cpi(ref, n_warps, cap),
            "naive",
        )


def check_aggregates(rows, issue_rate):
    profile, ref = both(rows, issue_rate)
    for name in ("n_intervals", "n_insts", "total_stall_cycles",
                 "total_cycles", "warp_perf", "single_warp_cpi",
                 "avg_interval_insts", "issue_prob"):
        assert_same_bits(getattr(profile, name), getattr(ref, name), name)
    assert list(profile.intervals) == ref.intervals


# ---------------------------------------------------------------------------
# Properties
# ---------------------------------------------------------------------------


@settings(deadline=None, max_examples=50)
@given(profiles, st.integers(1, 64), machines(), floats(1000.0))
def test_contention_matches_reference(profile, n_warps, config, latency):
    rows, issue_rate = profile
    check_contention(rows, issue_rate, n_warps, config, latency)


@settings(deadline=None, max_examples=50)
@given(profiles, st.integers(1, 64), st.floats(-0.5, 1.5))
def test_multithreading_matches_reference(profile, n_warps, alignment):
    rows, issue_rate = profile
    check_multithreading(rows, issue_rate, n_warps, alignment)


@settings(deadline=None, max_examples=50)
@given(profiles, latency_tables())
def test_single_warp_stack_matches_reference(profile, table):
    rows, issue_rate = profile
    got, ref = both(rows, issue_rate)
    assert_same_stack(
        single_warp_stack(got, table), ref_single_warp_stack(ref, table)
    )


@settings(deadline=None, max_examples=50)
@given(profiles, st.integers(1, 64))
def test_baselines_and_aggregates_match_reference(profile, n_warps):
    rows, issue_rate = profile
    check_baselines(rows, issue_rate, n_warps)
    check_aggregates(rows, issue_rate)


#: Only instruction counts and stalls enter the clustering features.
timing_rows = st.builds(
    Interval,
    n_insts=st.integers(0, 200),
    stall_cycles=st.one_of(st.just(0.0), floats(5000.0, True)),
)


@settings(deadline=None, max_examples=50)
@given(
    st.lists(st.lists(timing_rows, max_size=12), min_size=1, max_size=8),
    st.sampled_from([1.0, 2.0]),
)
def test_feature_vectors_match_reference(warps, issue_rate):
    pairs = [both(rows, issue_rate, warp_id) for warp_id, rows in
             enumerate(warps)]
    assert_same_bits(
        feature_vectors([got for got, _ in pairs]),
        ref_feature_vectors([ref for _, ref in pairs]),
        "features",
    )


# ---------------------------------------------------------------------------
# Edge cases the suite kernels do not reach
# ---------------------------------------------------------------------------

STALLED = Interval(
    n_insts=4, stall_cycles=300.0, cause_pc=2, cause_is_memory=True,
    n_loads=2, load_reqs=16, n_stores=1, store_reqs=8, n_sfu=1, n_smem=1,
    smem_slots=4, exp_mshr_reqs=2.0, exp_dram_read_reqs=1.5,
    exp_mshr_loads=1.0, exp_dram_loads=0.5,
)

EDGE_PROFILES = {
    "empty": [],
    "single_interval": [STALLED],
    "never_stalls": [Interval(n_insts=9), Interval(n_insts=3, n_loads=1,
                                                   exp_mshr_reqs=4.0)],
    "unstalled_trailing": [STALLED, Interval(n_insts=2)],
    # Zero instructions: zero-cycle intervals and an empty warp total.
    "no_instructions": [Interval(stall_cycles=0.0, store_reqs=5),
                        Interval(stall_cycles=7.0)],
}


@pytest.mark.parametrize("name", sorted(EDGE_PROFILES))
@pytest.mark.parametrize("n_warps", [1, 16])
def test_edge_profiles_match_reference(name, n_warps):
    rows = EDGE_PROFILES[name]
    config = GPUConfig()
    table = LatencyTable(np.ones(8), {}, GPUConfig())
    check_contention(rows, 1.0, n_warps, config, 420.0)
    check_multithreading(rows, 1.0, n_warps, 0.5)
    check_baselines(rows, 1.0, n_warps)
    check_aggregates(rows, 1.0)
    got, ref = both(rows)
    assert_same_stack(
        single_warp_stack(got, table), ref_single_warp_stack(ref, table)
    )


def test_requests_exactly_at_mshr_capacity():
    # 2.0 expected L1-missing requests x 16 warps = the 32 MSHRs: no wait;
    # one more interval just over capacity waits a second wave.
    at = Interval(n_insts=4, stall_cycles=50.0, exp_mshr_reqs=2.0,
                  exp_mshr_loads=1.0)
    over = Interval(n_insts=4, stall_cycles=50.0, exp_mshr_reqs=2.0625,
                    exp_mshr_loads=1.0)
    config = GPUConfig(n_mshrs=32)
    check_contention([at, over], 1.0, 16, config, 420.0)
    result = model_contention(both([at, over])[0], 16, config, 420.0)
    assert result.per_interval_mshr[0] == 0.0
    assert result.per_interval_mshr[1] > 0.0


def test_saturated_dram_bus():
    # Heavy write traffic over a short interval: rho >= 1, so the wait
    # is the backlog cap; a lighter interval stays below saturation.
    heavy = Interval(n_insts=1, stall_cycles=1.0, store_reqs=4096,
                     exp_dram_read_reqs=64.0, exp_dram_loads=1.0)
    light = Interval(n_insts=200, stall_cycles=4000.0, store_reqs=1,
                     exp_dram_read_reqs=0.5, exp_dram_loads=1.0)
    config = GPUConfig(dram_bandwidth_gbps=32.0)
    for n_warps in (1, 32):
        check_contention([heavy, light], 1.0, n_warps, config, 420.0)
    traffic = heavy.dram_reqs * 32 * config.n_cores
    rho = traffic / heavy.cycles(1.0) * config.dram_service_cycles
    assert rho >= 1.0
    result = model_contention(both([heavy, light])[0], 32, config, 420.0)
    cap = config.dram_service_cycles * traffic / 2.0
    assert result.per_interval_queue[0] == cap * heavy.exp_dram_loads


def test_wait_capped_below_saturation():
    # rho = 0.9, yet the M/D/1 wait exceeds half the backlog: the cap
    # binds without the bus being saturated.
    config = GPUConfig(n_cores=2)
    service = config.dram_service_cycles
    traffic = 1 * config.n_cores  # one DRAM request from one warp
    capped = Interval(n_insts=1, stall_cycles=traffic * service / 0.9 - 1.0,
                      store_reqs=1, exp_dram_loads=1.0)
    rho = traffic / capped.cycles(1.0) * service
    assert rho < 1.0
    assert rho * service / (2.0 * (1.0 - rho)) > service * traffic / 2.0
    check_contention([capped], 1.0, 1, config, 420.0)


# ---------------------------------------------------------------------------
# Layout
# ---------------------------------------------------------------------------


def test_columns_mirror_interval_fields():
    names = [spec.name for spec in fields(Interval)]
    assert list(INTERVAL_DTYPES) == names
    assert list(IntervalColumns._fields) == names


def test_rows_round_trip_through_columns():
    rows = list(EDGE_PROFILES["unstalled_trailing"])
    columns = IntervalColumns.from_rows(rows)
    for column, dtype in zip(columns, INTERVAL_DTYPES.values()):
        assert column.dtype == dtype
    profile = IntervalProfile(3, columns, 1.0)
    assert list(profile.intervals) == rows
    assert len(profile.intervals) == 2
    assert math.isclose(profile.total_cycles, 6.0 + 300.0)
    with pytest.raises(AttributeError):
        profile.intervals.append(Interval())
