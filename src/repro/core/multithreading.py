"""Multithreading model: non-overlapped instructions (Sec. IV-A).

Given the representative warp's interval profile and the number of
concurrently resident warps, predict the core's CPI under a scheduling
policy, *without* resource contention (that is layered on separately).

The key quantity is the number of **non-overlapped instructions**: the
instructions of the remaining warps that do *not* hide the representative
warp's stall cycles and therefore extend the core's execution time.

Round-robin (Eq. 10-11)
    Within an interval with ``m`` instructions there are ``m - 1``
    "waiting slots" between consecutive schedulings of the representative
    warp.  In each slot every remaining warp gets scheduled once and
    issues with probability ``issue_prob`` — those issues land *between*
    the representative warp's instructions, not inside its stall, so they
    are non-overlapped.

Greedy-then-oldest (Eq. 12-16)
    During the stall of an interval, each remaining warp that gets
    scheduled greedily issues about one interval's worth of instructions
    (``avg_interval_insts``).  Whatever the remaining warps issue beyond
    the stall's length is non-overlapped: the oldest-first rotation
    forces the representative warp to wait for it even when ready.

Two printed equations contain evident typos, which we correct (and
document here; the unit tests pin the corrected behaviour):

* Eq. 15 reads ``max(issue_prob * stall, 1)`` but describes a
  *probability* that a remaining warp issues during the stall — the
  bound must be an upper cap: ``min(issue_prob * stall, 1)``.
* Eq. 16 reads ``min(issued - stall, 0)`` which is never positive; the
  accompanying text ("non-overlapped instructions are incurred if the
  number of issued instructions is more than the stall cycles") requires
  ``max(issued - stall * issue_rate, 0)``.

Eq. 7 as printed is instructions/cycles (an IPC); we return its
reciprocal so ``cpi`` is cycles per core-instruction, directly comparable
with the oracle's ``total_cycles * n_cores / total_insts``.

The per-interval counts are elementwise: given an
:class:`~repro.core.interval.Interval` they return one count, given a
profile's :class:`~repro.core.interval.IntervalColumns` one count per
interval, which is how :func:`model_multithreading` evaluates them.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.interval import ArrayFieldsEq, IntervalProfile, ordered_sum


@dataclass(eq=False)
class MultithreadingResult(ArrayFieldsEq):
    """CPI prediction of the multithreading model (no contention)."""

    policy: str
    n_warps: int
    cpi: float  # cycles per core-instruction
    ipc_core: float
    total_nonoverlapped: float
    per_interval_nonoverlapped: np.ndarray
    rep_total_cycles: float
    rep_insts: int

    @property
    def stretch(self) -> float:
        """CPI_multithreading / single-warp CPI — the Sec. VII shrink
        factor applied to the representative warp's CPI stack."""
        single = self.rep_total_cycles / self.rep_insts if self.rep_insts else 0.0
        return self.cpi / single if single else 0.0


def nonoverlapped_rr(interval, issue_prob: float, n_warps: int):
    """Eq. 10-11: non-overlapped instructions of one interval under RR,
    assuming *randomly interleaved* warps (the paper's probabilistic
    counting)."""
    waiting_slots = np.maximum(0, interval.n_insts - 1)
    return issue_prob * (n_warps - 1) * waiting_slots


def nonoverlapped_rr_lockstep(interval, n_warps: int):
    """Non-overlapped instructions under RR with *aligned* warps.

    Round-robin keeps homogeneous warps in lockstep: when the
    representative warp has issued k instructions of an interval, so has
    every other warp, so during the representative's stall the remaining
    warps have only their final instruction of the round left — exactly
    the counting of the paper's Fig. 8(a), where 4 aligned warps with a
    (3 instructions, 6 stalls) interval incur **6** non-overlapped
    instructions (the probabilistic Eq. 11 predicts 2 for that figure).

    Derivation: the interval's duration with n aligned warps is
    ``n * m_i + max(stall_i - (n - 1), 0)`` (all warps' issue rounds,
    plus whatever stall the (n-1) trailing same-round instructions cannot
    hide), so the extra cycles over the single-warp interval are
    ``(n - 1) * m_i - min(stall_i, n - 1)``.  This also reproduces the
    paper's Fig. 2 example exactly (interval of 1 instruction + 10
    stalls, 3 warps -> core IPC 3/11).
    """
    trailing_overlap = np.minimum(float(n_warps - 1), interval.stall_cycles)
    return (n_warps - 1) * interval.n_insts - trailing_overlap


def nonoverlapped_gto(
    interval,
    issue_prob: float,
    n_warps: int,
    avg_interval_insts: float,
    issue_rate: float,
):
    """Eq. 12-16 (with the min/max corrections): one interval under GTO."""
    issue_prob_in_stall = np.minimum(1.0, issue_prob * interval.stall_cycles)
    issue_warps_in_stall = issue_prob_in_stall * (n_warps - 1)
    issued_in_stall = avg_interval_insts * issue_warps_in_stall
    return np.maximum(0.0, issued_in_stall - interval.stall_cycles * issue_rate)


def kernel_alignment(warp_trace, latency_table) -> float:
    """Probability that two warps stay in lockstep for the whole kernel.

    Round-robin keeps homogeneous warps aligned only while every stall
    they take is identical: any load whose outcome *differs across warps
    at the same point of execution* (independent cache luck on gathers,
    first-toucher asymmetry on shared data) staggers the warps, and RR
    never re-aligns them.  The kernel-level alignment is the product over
    the distinct load PCs the representative warp executes of their
    cross-warp same-occurrence collision probabilities (see
    :meth:`~repro.memory.cache_simulator.PCStats.cross_warp_collision`):
    1.0 for streaming kernels where every warp misses identically, ~0
    once any frequently executed load behaves differently per warp.
    """
    from repro.trace.trace_types import OpCode

    alignment = 1.0
    pc_stats = latency_table.pc_stats
    seen = set()
    for pc, op in zip(warp_trace.pcs.tolist(), warp_trace.ops.tolist()):
        if op != OpCode.LOAD or pc in seen:
            continue
        seen.add(pc)
        stats = pc_stats.get(pc)
        if stats is None or not stats.n_insts:
            continue
        alignment *= stats.cross_warp_collision()
        if alignment < 1e-6:
            return 0.0
    return alignment


def model_multithreading(
    profile: IntervalProfile,
    n_warps: int,
    policy: str,
    rr_mode: str = "probabilistic",
    alignment: float = 1.0,
) -> MultithreadingResult:
    """Predict multithreaded CPI from the representative warp's profile.

    ``rr_mode`` selects the RR non-overlap counting:

    * ``"probabilistic"`` (default) — the literal Eq. 10-11
      random-interleave form; the paper's published model, and the best
      single choice against our oracle across the whole suite.
    * ``"lockstep"`` — aligned warps; matches the paper's Fig. 2/8 worked
      examples and real RR behaviour on kernels whose stalls are
      deterministic (streaming kernels, where it is substantially more
      accurate than the probabilistic form), but overestimates kernels
      whose variable memory latencies stagger the warps.
    * ``"blended"`` — mixes the two per the kernel-level ``alignment``
      probability (see :func:`kernel_alignment`), an experimental signal
      derived from cross-warp miss-event agreement.
    """
    if n_warps < 1:
        raise ValueError("n_warps must be >= 1")
    if policy not in ("rr", "gto"):
        raise ValueError("policy must be 'rr' or 'gto'")
    if rr_mode not in ("lockstep", "probabilistic", "blended"):
        raise ValueError(
            "rr_mode must be 'lockstep', 'probabilistic' or 'blended'"
        )

    issue_rate = profile.issue_rate
    issue_prob = profile.issue_prob
    avg_insts = profile.avg_interval_insts

    intervals = profile.columns
    if n_warps == 1:
        per_interval = np.zeros(profile.n_intervals)
    elif policy == "rr":
        weight = {
            "lockstep": 1.0,
            "probabilistic": 0.0,
            "blended": min(max(alignment, 0.0), 1.0),
        }[rr_mode]
        lockstep = nonoverlapped_rr_lockstep(intervals, n_warps)
        random = nonoverlapped_rr(intervals, issue_prob, n_warps)
        per_interval = weight * lockstep + (1.0 - weight) * random
    else:
        per_interval = nonoverlapped_gto(
            intervals, issue_prob, n_warps, avg_insts, issue_rate
        )

    total_nonoverlapped = ordered_sum(per_interval)  # Eq. 8
    rep_insts = profile.n_insts
    rep_cycles = profile.total_cycles
    # Eq. 7 (inverted to CPI): the non-overlapped instructions add issue
    # cycles on top of the representative warp's execution time, and the
    # core retires n_warps x rep_insts instructions in that time.
    total_insts = n_warps * rep_insts
    cycles = rep_cycles + total_nonoverlapped / issue_rate
    cpi = cycles / total_insts if total_insts else 0.0
    # Physical issue-bandwidth bound: a core cannot retire more than
    # issue_rate instructions per cycle, so per-core-instruction CPI can
    # never drop below 1/issue_rate.  (The probabilistic overlap count
    # can otherwise become optimistic for heavily saturated cores.)
    cpi = max(cpi, 1.0 / issue_rate)
    return MultithreadingResult(
        policy=policy,
        n_warps=n_warps,
        cpi=cpi,
        ipc_core=1.0 / cpi if cpi else 0.0,
        total_nonoverlapped=total_nonoverlapped,
        per_interval_nonoverlapped=per_interval,
        rep_total_cycles=rep_cycles,
        rep_insts=rep_insts,
    )


def naive_multithreading_cpi(profile: IntervalProfile, n_warps: int) -> float:
    """Eq. 1: the naive model — all remaining-warp work hides in stalls."""
    if n_warps < 1:
        raise ValueError("n_warps must be >= 1")
    rep_insts = profile.n_insts
    if not rep_insts:
        return 0.0
    return profile.total_cycles / (n_warps * rep_insts)
