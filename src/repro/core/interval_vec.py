"""Batched interval construction: Eq. 4 once per warp class.

The scalar :func:`~repro.core.interval.build_interval_profile` walks one
warp's trace in Python, one dynamic instruction per iteration.  This
backend builds every warp's profile of a launch at once, from the
trace's warp-major :class:`~repro.trace.trace_types.KernelTrace`
columns.

Eq. 4's issue-cycle recurrence is sequential (issue(k) depends on
issue(k-1)), and its stall and cause columns depend on nothing but a
warp's ``pcs`` and ``deps`` rows (the latencies are per PC).  So warps
with equal rows, a *warp class*, get equal columns.  Warps are grouped
by those rows, :func:`~repro.core.interval.issue_stalls` (the very loop
the scalar builder runs) runs once per class in Python floats, and its
stall and cause columns are copied into every member, causes lifted to
the member's offset.  Most suite kernels are one class at
``Scale.small``; the most divergent, ``mandelbrot``, has 48 of 192
warps.  There is no vectorized fallback for launches with many classes:
a launch whose warps all differ costs what the scalar reference costs.

Interval segmentation then happens on the trace's warp-major position
axis (warp boundaries forced as segment starts): integer per-interval
counts come from exact ``np.add.reduceat`` sums (integer reduction
order cannot change the result), while the float expected-footprint
accumulators (``exp_mshr_reqs`` & co.) are summed left-to-right over
load instructions only — ``reduceat``'s pairwise summation is *not*
bitwise-compatible with the scalar loop's sequential adds, and bitwise
equality with the scalar backend is the contract
(``tests/test_vectorized_equivalence.py``).

The per-interval arrays *are* the artifact: they become the launch-wide
:class:`~repro.core.interval.IntervalColumns` of an
:class:`~repro.core.interval.IntervalProfiles` as they are, with per-warp
offsets — no per-interval Python object is ever built.
"""

from __future__ import annotations

import numpy as np

from repro.core.interval import (
    IntervalColumns,
    IntervalProfiles,
    issue_stalls,
)
from repro.core.latency import LatencyTable
from repro.memory.hierarchy import MissEvent
from repro.trace.trace_types import KernelTrace, OpCode


def _issue_stalls_by_class(
    trace: KernelTrace, lat_by_pc: np.ndarray
) -> "tuple[np.ndarray, np.ndarray]":
    """Eq. 4 over the launch: flat per-instruction ``(stall, cause)``.

    Warps with equal ``pcs`` and ``deps`` rows (a *warp class*) get equal
    stall and cause columns, so :func:`~repro.core.interval.issue_stalls`
    runs once per class and its result is copied into every member,
    causes lifted to the member's offset on the flat axis (garbage where
    the cause is -1; the caller masks those out).
    """
    starts = trace.warp_offsets.tolist()
    pcs, deps = trace.pcs, trace.deps
    classes = {}
    for w in range(trace.n_warps):
        lo, hi = starts[w], starts[w + 1]
        key = (pcs[lo:hi].tobytes(), deps[lo:hi].tobytes())
        classes.setdefault(key, []).append(w)
    stall = np.empty(starts[-1], dtype=np.float64)
    cause = np.empty(starts[-1], dtype=np.int64)
    for members in classes.values():
        lo, hi = starts[members[0]], starts[members[0] + 1]
        class_stall, class_cause = issue_stalls(
            deps[lo:hi].tolist(), lat_by_pc[pcs[lo:hi]].tolist()
        )
        class_stall = np.array(class_stall, dtype=np.float64)
        class_cause = np.array(class_cause, dtype=np.int64)
        for w in members:
            lo, hi = starts[w], starts[w + 1]
            stall[lo:hi] = class_stall
            cause[lo:hi] = class_cause + lo
    return stall, cause


def build_interval_profiles(
    trace: KernelTrace, latency_table: LatencyTable
) -> IntervalProfiles:
    """Vectorized counterpart of per-warp ``build_interval_profile``."""
    n_warps = trace.n_warps
    warp_ids = trace.warp_ids.copy()  # the profiles own theirs
    warp_starts = trace.warp_offsets
    lengths = np.diff(warp_starts)
    max_len = int(lengths.max()) if n_warps else 0
    if not max_len:
        return IntervalProfiles(
            IntervalColumns.from_rows(()),
            np.zeros(n_warps + 1, dtype=np.int64),
            warp_ids,
        )

    stall_flat, cause_flat = _issue_stalls_by_class(
        trace, latency_table.as_array
    )
    total = int(warp_starts[-1])

    # Per-load expected-footprint fractions, as plain Python floats so
    # the per-interval accumulation below is the scalar loop verbatim.
    frac_by_pc = {}
    for pc, stats in latency_table.pc_stats.items():
        if stats.n_requests:
            frac_by_pc[pc] = (
                stats.req_l1_miss_fraction,
                stats.req_l2_miss_fraction,
                1.0 - stats.inst_event_fraction(MissEvent.L1_HIT),
                stats.inst_event_fraction(MissEvent.L2_MISS),
            )

    # ------------------------------------------------------------------
    # Flattened segmentation on the trace's warp-major position axis, so
    # the cut/sum/gather machinery below runs once for the whole launch
    # instead of once per warp.  Warp boundaries are forced segment
    # starts, which is exactly the scalar semantics (each warp opens a
    # fresh interval and its first instruction never closes one).
    # ------------------------------------------------------------------
    ops_flat = trace.ops
    pcs_flat = trace.pcs
    nreqs_flat = np.diff(trace.req_offsets)
    conflict_flat = trace.conflict

    # An interval closes at every stalled position except a warp's first
    # instruction (the open interval is never empty past k=0).
    boundary = stall_flat > 0.0
    nonempty_starts = warp_starts[:-1][lengths > 0]
    boundary[nonempty_starts] = False
    cuts = np.flatnonzero(boundary)
    starts = np.sort(np.concatenate((nonempty_starts, cuts)))
    n_seg = len(starts)
    ends = np.append(starts[1:], total)

    is_load = ops_flat == OpCode.LOAD
    is_store = ops_flat == OpCode.STORE

    seg_insts = ends - starts
    seg_loads = _seg_sum(is_load.astype(np.int64), starts)
    seg_stores = _seg_sum(is_store.astype(np.int64), starts)
    seg_load_reqs = _seg_sum(np.where(is_load, nreqs_flat, 0), starts)
    seg_store_reqs = _seg_sum(np.where(is_store, nreqs_flat, 0), starts)
    seg_sfu = _seg_sum((ops_flat == OpCode.SFU).astype(np.int64), starts)
    is_smem = (ops_flat == OpCode.SMEM_LOAD) | (
        ops_flat == OpCode.SMEM_STORE
    )
    seg_smem = _seg_sum(is_smem.astype(np.int64), starts)
    seg_slots = _seg_sum(
        np.where(is_smem, np.maximum(conflict_flat, 1).astype(np.int64), 0),
        starts,
    )

    # A segment is closed by a stall iff its end position is a cut; the
    # last segment of each warp ends at the next warp's start (or the
    # end of the flat axis) and carries no stall/cause.
    end_pos = np.minimum(ends, total - 1)
    closing = (ends < total) & boundary[end_pos]
    stall_seg = np.where(closing, stall_flat[end_pos], 0.0)
    cause_idx = np.clip(cause_flat[end_pos], 0, total - 1)
    cause_pc_seg = np.where(closing, pcs_flat[cause_idx], -1)
    cause_mem_seg = closing & (ops_flat[cause_idx] == OpCode.LOAD)

    # Float accumulators via ``np.add.at``: unbuffered, so repeated
    # segment indices accumulate sequentially in load order — the exact
    # left-to-right `+=` ordering of the scalar loop (a pairwise
    # ``reduceat`` would not be bitwise-compatible).  PCs without stats
    # contribute +0.0, which is exact for these non-negative sums.
    e0 = np.zeros(n_seg)
    e1 = np.zeros(n_seg)
    e2 = np.zeros(n_seg)
    e3 = np.zeros(n_seg)
    load_idx = np.flatnonzero(is_load)
    if load_idx.size:
        pc_span = int(pcs_flat.max()) + 1
        fracs = np.zeros((4, pc_span))
        for pc, fr in frac_by_pc.items():
            if pc < pc_span:
                fracs[:, pc] = fr
        seg_of = np.searchsorted(starts, load_idx, side="right") - 1
        load_pcs = pcs_flat[load_idx]
        load_reqs = nreqs_flat[load_idx].astype(np.float64)
        np.add.at(e0, seg_of, load_reqs * fracs[0][load_pcs])
        np.add.at(e1, seg_of, load_reqs * fracs[1][load_pcs])
        np.add.at(e2, seg_of, fracs[2][load_pcs])
        np.add.at(e3, seg_of, fracs[3][load_pcs])

    # Each warp owns a contiguous run of segments.
    seg_warp = np.searchsorted(warp_starts[1:], starts, side="right")
    offsets = np.zeros(n_warps + 1, dtype=np.int64)
    np.cumsum(np.bincount(seg_warp, minlength=n_warps), out=offsets[1:])
    columns = IntervalColumns.of(
        seg_insts,
        stall_seg,
        cause_pc_seg,
        cause_mem_seg,
        seg_loads,
        seg_stores,
        seg_load_reqs,
        seg_store_reqs,
        seg_sfu,
        seg_smem,
        seg_slots,
        e0,
        e1,
        e2,
        e3,
    )
    return IntervalProfiles(columns, offsets, warp_ids)


def _seg_sum(values: np.ndarray, starts: np.ndarray) -> np.ndarray:
    """Exact per-segment integer sums (reduceat on int64)."""
    return np.add.reduceat(values, starts)
