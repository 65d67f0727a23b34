"""Naive_Interval baseline (Eq. 1, Sec. II-B).

The naive extension of CPU interval analysis to a multithreaded core:
assume every instruction of every remaining warp hides inside the
representative warp's stall cycles, so

    IPC_core = IPC_single_warp * n_warps.

It ignores non-overlapped instructions and all resource contention, so it
is systematically optimistic — the paper's motivating strawman.
"""

from __future__ import annotations

from repro.core.interval import IntervalProfile


def naive_interval_cpi(profile: IntervalProfile, n_warps: int) -> float:
    """Eq. 1, returned as CPI per core-instruction.

    The predicted IPC is capped at the core's issue bandwidth: a
    single-issue core retires at most one instruction per cycle, so the
    CPI is at least 1.0.
    """
    if n_warps < 1:
        raise ValueError("n_warps must be >= 1")
    if not profile.n_insts:
        return 0.0
    return max(profile.total_cycles / (n_warps * profile.n_insts), 1.0)
