"""Per-PC instruction latencies (Sec. V-B of the paper).

Compute PCs have fixed latencies from the machine configuration; memory
PCs get the *average memory access time* of their miss-event distribution
as collected by the functional cache simulator.  (The paper's example: a
PC with 90% L2 hits at 120 cycles and 10% L2 misses at 420 cycles gets a
latency of 150 cycles.)

Stores are priced at one cycle: nothing ever depends on a store, so their
latency never appears on a dependence edge — consistent with both the
timing oracle and the paper's treatment of stores as off-critical-path.
"""

from __future__ import annotations

from typing import Dict, Optional

import numpy as np

from repro.config import GPUConfig
from repro.memory.cache_simulator import CacheSimResult, PCStats
from repro.trace.trace_types import KernelTrace, OpCode


class LatencyTable:
    """Latency (cycles) and miss statistics per static instruction.

    ``avg_miss_latency`` is the kernel's mean L2/DRAM service time of an
    L1-missing load request (Eq. 19,
    :meth:`CacheSimResult.avg_miss_latency`).  It depends only on the
    cache statistics and the latencies this table is keyed on, so it is
    computed once here rather than on every prediction.
    """

    def __init__(
        self,
        latencies: np.ndarray,
        pc_stats: Dict[int, PCStats],
        avg_miss_latency: float,
    ):
        self._latencies = latencies
        self.pc_stats = pc_stats
        self.avg_miss_latency = avg_miss_latency

    def latency(self, pc: int) -> float:
        """Latency (cycles) of the static instruction at ``pc``."""
        return float(self._latencies[pc])

    @property
    def as_array(self) -> np.ndarray:
        """Vector of latencies indexed by PC (for vectorised lookups)."""
        return self._latencies

    def stats_for(self, pc: int) -> Optional[PCStats]:
        """Cache statistics of a memory PC (None for compute PCs)."""
        return self.pc_stats.get(pc)


def build_latency_table(
    trace: KernelTrace,
    cache_result: CacheSimResult,
    config: GPUConfig,
) -> LatencyTable:
    """Assign a latency to every static PC observed in the trace."""
    pcs = trace.pcs
    ops = trace.ops
    max_pc = int(pcs.max())
    latencies = np.ones(max_pc + 1, dtype=np.float64)
    # Each PC is priced by the op of its first dynamic instance.
    seen_pcs, first = np.unique(pcs, return_index=True)
    for pc, op in zip(seen_pcs.tolist(), ops[first].tolist()):
        latencies[pc] = _latency_of(pc, OpCode(op), cache_result, config)
    # Shared-memory loads are priced by their mean bank-conflict degree:
    # latency + (degree - 1) serialised replays.  The degrees are small
    # integers, so their float sums are exact in any order.
    smem = (ops == OpCode.SMEM_LOAD) | (ops == OpCode.SMEM_STORE)
    if smem.any():
        smem_pcs = pcs[smem]
        conflict_sum = np.bincount(
            smem_pcs, weights=trace.conflict[smem], minlength=max_pc + 1
        )
        conflict_count = np.bincount(smem_pcs, minlength=max_pc + 1)
        for pc in np.flatnonzero(conflict_count).tolist():
            mean_degree = conflict_sum[pc] / conflict_count[pc]
            latencies[pc] += max(mean_degree - 1.0, 0.0)
    return LatencyTable(
        latencies, cache_result.per_pc, cache_result.avg_miss_latency(config)
    )


def _latency_of(
    pc: int, op: OpCode, cache_result: CacheSimResult, config: GPUConfig
) -> float:
    if op == OpCode.LOAD:
        stats = cache_result.per_pc.get(pc)
        if stats is None:  # load never replayed (defensive)
            return float(config.l1_latency)
        return stats.amat(config)
    if op in (OpCode.STORE, OpCode.SMEM_STORE):
        return 1.0
    if op == OpCode.SMEM_LOAD:
        # Base scratchpad latency; the conflict replays are added from
        # the trace's per-PC mean degree by build_latency_table.
        return float(config.smem_latency)
    if op in (OpCode.BRANCH, OpCode.EXIT, OpCode.BARRIER):
        # Barriers are invisible to the model (Sec. V-B: within-block
        # synchronisation overhead is typically low); they cost their
        # issue slot only.
        return 1.0
    return float(config.op_latencies[op.latency_class])
