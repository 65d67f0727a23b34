"""Batched interval construction: all warps' Eq. 4 scans in one pass.

The scalar :func:`~repro.core.interval.build_interval_profile` walks one
warp's trace in Python, one dynamic instruction per iteration.  This
backend propagates producer latencies for *every* warp simultaneously:
the issue-cycle recurrence still marches over instruction positions
sequentially (issue(k) depends on issue(k-1)), but each step is a
vectorized ``np.maximum``-style update across the whole warp axis — a
gather of the (at most ``MAX_DEPS``) producer completion times followed
by an ordered strict-greater update chain that reproduces the scalar
cause-selection tie-breaking exactly (first producer wins ties).

Interval segmentation then happens on a single *flattened* position
axis (every warp's trace concatenated, warp boundaries forced as
segment starts): integer per-interval counts come from exact
``np.add.reduceat`` sums (integer reduction order cannot change the
result), while the float expected-footprint accumulators
(``exp_mshr_reqs`` & co.) are summed left-to-right over load
instructions only — ``reduceat``'s pairwise summation is *not*
bitwise-compatible with the scalar loop's sequential adds, and bitwise
equality with the scalar backend is the contract
(``tests/test_vectorized_equivalence.py``).

The per-interval arrays *are* the artifact: they become the launch-wide
:class:`~repro.core.interval.IntervalColumns` of an
:class:`~repro.core.interval.IntervalProfiles` as they are, with per-warp
offsets — no per-interval Python object is ever built.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.core.interval import IntervalColumns, IntervalProfiles
from repro.core.latency import LatencyTable
from repro.memory.hierarchy import MissEvent
from repro.trace.trace_types import MAX_DEPS, OpCode, WarpTrace


def _issue_clocks(
    deps: np.ndarray,
    lat: np.ndarray,
    step: float,
) -> "tuple[np.ndarray, np.ndarray]":
    """Run the Eq. 4 recurrence over ``(n_warps, max_len)`` columns.

    Returns per-position ``(stall, cause)`` arrays; positions past a
    warp's length hold garbage and are sliced off by the caller (their
    deps are padded to -1, so they cannot perturb live positions).
    """
    n_warps, max_len = lat.shape
    issue = np.zeros((n_warps, max_len), dtype=np.float64)
    stall = np.zeros((n_warps, max_len), dtype=np.float64)
    cause = np.full((n_warps, max_len), -1, dtype=np.int32)
    rows = np.arange(n_warps)
    prev = np.full(n_warps, -step, dtype=np.float64)
    for k in range(max_len):
        earliest = prev + step
        ready = earliest.copy()
        best = np.full(n_warps, -1, dtype=np.int32)
        for j in range(MAX_DEPS):
            dep = deps[:, k, j]
            valid = dep >= 0
            if not valid.any():
                continue
            clipped = np.where(valid, dep, 0)
            done = issue[rows, clipped] + lat[rows, clipped]
            # Strict > keeps the scalar first-wins tie-breaking.
            update = valid & (done > ready)
            ready = np.where(update, done, ready)
            best = np.where(update, dep, best)
        issue[:, k] = ready
        stall[:, k] = ready - earliest
        cause[:, k] = best
        prev = ready
    return stall, cause


def build_interval_profiles(
    warps: Sequence[WarpTrace],
    latency_table: LatencyTable,
    issue_rate: float = 1.0,
) -> IntervalProfiles:
    """Vectorized counterpart of per-warp ``build_interval_profile``."""
    n_warps = len(warps)
    warp_ids = np.array([w.warp_id for w in warps], dtype=np.int64)
    lengths = np.array([len(w) for w in warps], dtype=np.int64)
    max_len = int(lengths.max()) if n_warps else 0
    if not max_len:
        return IntervalProfiles(
            IntervalColumns.from_rows(()),
            np.zeros(n_warps + 1, dtype=np.int64),
            warp_ids,
            issue_rate,
        )

    lat_by_pc = latency_table.as_array
    step = 1.0 / issue_rate
    warp_starts = np.zeros(n_warps + 1, dtype=np.int64)
    np.cumsum(lengths, out=warp_starts[1:])
    total = int(warp_starts[-1])

    # Run the recurrence in warp chunks so the padded (chunk, max_len)
    # working set stays cache/RAM friendly at large launches (warps are
    # independent, so chunking cannot change any value).
    chunk = max(1, 4_000_000 // max_len)
    stall_parts = []
    cause_parts = []
    for lo in range(0, n_warps, chunk):
        sub = warps[lo : lo + chunk]
        sub_len = lengths[lo : lo + chunk]
        m = int(sub_len.max())
        if not m:
            continue
        deps = np.full((len(sub), m, MAX_DEPS), -1, dtype=np.int32)
        lat = np.zeros((len(sub), m), dtype=np.float64)
        for i, warp in enumerate(sub):
            n = len(warp)
            deps[i, :n] = warp.deps
            lat[i, :n] = lat_by_pc[warp.pcs]
        stall_c, cause_c = _issue_clocks(deps, lat, step)
        valid_c = np.arange(m) < sub_len[:, None]
        stall_parts.append(stall_c[valid_c])
        # Stall causes are per-warp instruction indices; lift them to
        # the flat axis (garbage where cause is -1, masked out below).
        cause_parts.append(
            (cause_c + warp_starts[lo : lo + len(sub), None])[valid_c]
        )
    stall_flat = np.concatenate(stall_parts)
    cause_flat = np.concatenate(cause_parts)

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
    # Flattened segmentation: every warp's trace concatenated into one
    # position axis, so the cut/sum/gather machinery below runs once for
    # the whole launch instead of once per warp.  Warp boundaries are
    # forced segment starts, which is exactly the scalar semantics (each
    # warp opens a fresh interval and its first instruction never closes
    # one).
    # ------------------------------------------------------------------
    ops_flat = np.concatenate([w.ops for w in warps])
    pcs_flat = np.concatenate([w.pcs for w in warps])
    nreqs_flat = np.concatenate(
        [np.diff(w.req_offsets) for w in warps]
    )
    conflict_flat = np.concatenate([w.conflict for w in warps])

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
    return IntervalProfiles(columns, offsets, warp_ids, issue_rate)


def _seg_sum(values: np.ndarray, starts: np.ndarray) -> np.ndarray:
    """Exact per-segment integer sums (reduceat on int64)."""
    return np.add.reduceat(values, starts)
