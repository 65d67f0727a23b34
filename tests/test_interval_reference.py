"""Differential tests: the interval algorithm vs. a brute-force reference.

The production implementation (single pass, incremental interval
bookkeeping) is checked against an independent, obviously-correct
reference that first computes every issue cycle from Eq. 4, then derives
the interval structure from the issue-cycle gaps.  Hypothesis feeds both
with random dependency structures and latencies.
"""

from typing import List, Tuple

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.interval import build_interval_profile
from repro.core.latency import LatencyTable
from repro.trace.trace_types import MAX_DEPS, NO_DEP, OpCode, WarpTrace


def reference_issue_cycles(deps: List[List[int]], lat: List[float]):
    """Eq. 4, written as directly as possible."""
    issue = []
    for k in range(len(deps)):
        earliest = issue[k - 1] + 1.0 if k else 0.0
        ready = earliest
        for dep in deps[k]:
            if dep != NO_DEP:
                ready = max(ready, issue[dep] + lat[dep])
        issue.append(ready)
    return issue


def reference_intervals(issue: List[float]) -> List[Tuple[int, float]]:
    """(n_insts, stall) pairs derived from issue-cycle gaps."""
    intervals = []
    count = 0
    for k in range(len(issue)):
        count += 1
        nxt = issue[k + 1] if k + 1 < len(issue) else None
        if nxt is None:
            intervals.append((count, 0.0))
        elif nxt > issue[k] + 1.0:
            intervals.append((count, nxt - issue[k] - 1.0))
            count = 0
    return intervals


@st.composite
def random_dep_traces(draw):
    """A random trace: each instruction depends on up to 3 earlier ones."""
    n = draw(st.integers(2, 60))
    deps = []
    lats = []
    for k in range(n):
        row = []
        if k:
            n_deps = draw(st.integers(0, min(3, k)))
            producers = draw(
                st.lists(st.integers(0, k - 1), min_size=n_deps,
                         max_size=n_deps, unique=True)
            )
            row = producers
        deps.append(row + [NO_DEP] * (MAX_DEPS - len(row)))
        lats.append(float(draw(st.sampled_from([1, 4, 25, 40, 120, 420]))))
    return deps, lats


def build_trace_and_table(deps, lats):
    n = len(deps)
    trace = WarpTrace(
        warp_id=0,
        block_id=0,
        pcs=np.arange(n, dtype=np.int32),  # one static pc per dynamic inst
        ops=np.full(n, int(OpCode.IALU), dtype=np.int8),
        deps=np.asarray(deps, dtype=np.int32),
        active=np.full(n, 32, dtype=np.int16),
        req_offsets=np.zeros(n + 1, dtype=np.int64),
        req_lines=np.empty(0, dtype=np.int64),
    )
    table = LatencyTable(np.asarray(lats, dtype=np.float64), {}, 420.0)
    return trace, table


@settings(deadline=None, max_examples=200)
@given(random_dep_traces())
def test_interval_structure_matches_reference(data):
    deps, lats = data
    trace, table = build_trace_and_table(deps, lats)
    profile = build_interval_profile(trace, table)

    issue = reference_issue_cycles(deps, lats)
    expected = reference_intervals(issue)

    got = [(i.n_insts, i.stall_cycles) for i in profile.intervals]
    assert got == pytest.approx(expected)


@settings(deadline=None, max_examples=200)
@given(random_dep_traces())
def test_total_cycles_matches_reference(data):
    deps, lats = data
    trace, table = build_trace_and_table(deps, lats)
    profile = build_interval_profile(trace, table)
    issue = reference_issue_cycles(deps, lats)
    # Total cycles = last issue + 1 (one cycle to issue the last inst).
    assert profile.total_cycles == pytest.approx(issue[-1] + 1.0)


@settings(deadline=None, max_examples=100)
@given(random_dep_traces())
def test_cause_attribution_is_a_max_contributor(data):
    deps, lats = data
    trace, table = build_trace_and_table(deps, lats)
    profile = build_interval_profile(trace, table)
    issue = reference_issue_cycles(deps, lats)

    # Walk the boundaries: each closed interval's cause pc must be a
    # producer achieving the delayed issue cycle of the next instruction.
    boundary = -1
    for interval in profile.intervals[:-1]:
        boundary += interval.n_insts
        consumer = boundary + 1
        cause = interval.cause_pc  # pc == dynamic index in this trace
        assert cause != -1
        assert issue[cause] + lats[cause] == pytest.approx(issue[consumer])
