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
  ``max(issued - stall, 0)``.

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


def nonoverlapped_gto(
    interval,
    issue_prob: float,
    n_warps: int,
    avg_interval_insts: float,
):
    """Eq. 12-16 (with the min/max corrections): one interval under GTO."""
    issue_prob_in_stall = np.minimum(1.0, issue_prob * interval.stall_cycles)
    issue_warps_in_stall = issue_prob_in_stall * (n_warps - 1)
    issued_in_stall = avg_interval_insts * issue_warps_in_stall
    return np.maximum(0.0, issued_in_stall - interval.stall_cycles)


def model_multithreading(
    profile: IntervalProfile,
    n_warps: int,
    policy: str,
    n_schedulers: int = 1,
) -> MultithreadingResult:
    """Predict multithreaded CPI from the representative warp's profile.

    ``n_schedulers`` is the core's issue slots
    (``GPUConfig.schedulers_per_core``), each arbitrating a static
    partition of the warps.  With ``S = min(n_schedulers, n_warps)``
    slots the representative warp's stalls are hidden (and its issue
    slot contended) only by its own partition's ``ceil(n_warps / S)``
    warps, while the core still retires all ``n_warps`` warps'
    instructions over the busiest partition's span, and the CPI floor is
    ``1 / S``.  At ``S = 1`` (the paper's core) this is
    Eq. 7-16 as printed.
    """
    if n_warps < 1:
        raise ValueError("n_warps must be >= 1")
    if policy not in ("rr", "gto"):
        raise ValueError("policy must be 'rr' or 'gto'")

    issue_prob = profile.issue_prob
    avg_insts = profile.avg_interval_insts
    n_slots = max(1, min(n_schedulers, n_warps))
    peers = -(-n_warps // n_slots)  # warps in the busiest partition

    intervals = profile.columns
    if peers == 1:
        per_interval = np.zeros(profile.n_intervals)
    elif policy == "rr":
        per_interval = nonoverlapped_rr(intervals, issue_prob, peers)
    else:
        per_interval = nonoverlapped_gto(
            intervals, issue_prob, peers, avg_insts
        )

    total_nonoverlapped = ordered_sum(per_interval)  # Eq. 8
    rep_insts = profile.n_insts
    rep_cycles = profile.total_cycles
    # Eq. 7 (inverted to CPI): the non-overlapped instructions add issue
    # cycles on top of the representative warp's execution time, and the
    # core retires n_warps x rep_insts instructions in that time.
    total_insts = n_warps * rep_insts
    cycles = rep_cycles + total_nonoverlapped
    cpi = cycles / total_insts if total_insts else 0.0
    # Physical issue-bandwidth bound: a core cannot retire more than one
    # instruction per issue slot and cycle, so per-core-instruction CPI
    # can never drop below 1/n_slots.  (The probabilistic overlap count
    # can otherwise become optimistic for heavily saturated cores.)
    cpi = max(cpi, 1.0 / n_slots)
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

