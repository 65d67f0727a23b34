"""Markov_Chain baseline: Chen & Aamodt's first-order throughput model.

Sec. VIII-A of the paper summarises the model [Chen & Aamodt, HPCA'09]:
each warp is a two-state Markov process — *activated* (can issue) or
*suspended* (stalled).  An activated warp suspends with probability ``p``
after issuing; a suspended warp stays suspended for ``M`` cycles on
average.  In steady state a warp is activated with probability

    a = 1 / (1 + p * M)

(one issue cycle buys ``p * M`` expected stall cycles), and the core
issues whenever at least one of the ``n`` independent warps is activated:

    IPC_core = 1 - (1 - a) ** n.

We derive ``p`` and ``M`` from the representative warp's interval
profile: an instruction ends an interval (triggers a stall) with
probability ``n_intervals / n_insts``, and the mean stall length is
``total_stall / n_intervals``.

The paper's two criticisms are inherent to the formulation and reproduce
here: the model assumes random interleaving (no scheduling policy) and at
most one outstanding memory request per warp (no queuing/contention), so
it is optimistic for memory-divergent kernels.
"""

from __future__ import annotations

import numpy as np

from repro.core.interval import IntervalProfile


def markov_warp_activation(p: float, m: float) -> float:
    """Steady-state probability that a single warp can issue."""
    return 1.0 / (1.0 + p * m)


def markov_chain_cpi(profile: IntervalProfile, n_warps: int) -> float:
    """Predicted CPI per core-instruction for ``n_warps`` resident warps."""
    if n_warps < 1:
        raise ValueError("n_warps must be >= 1")
    n_insts = profile.n_insts
    if not n_insts:
        return 0.0
    n_intervals = profile.n_intervals
    stall = profile.total_stall_cycles
    # A trailing interval without a stall should not count as a stall
    # trigger.
    stalling_intervals = int(
        np.count_nonzero(profile.columns.stall_cycles > 0.0)
    )
    if not stalling_intervals or stall <= 0.0:
        return 1.0  # never stalls: issue-bound
    p = stalling_intervals / n_insts
    m = stall / stalling_intervals
    activation = markov_warp_activation(p, m)
    ipc = 1.0 - (1.0 - activation) ** n_warps
    return 1.0 / ipc
