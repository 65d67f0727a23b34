"""Statistics collected by the timing oracle."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional

from repro.obs.timeline import Timeline


@dataclass
class CoreStats:
    """Per-core counters."""

    core_id: int
    insts_issued: int = 0
    active_cycles: int = 0  # cycles with at least one resident warp
    issue_cycles: int = 0  # cycles in which an instruction issued
    mshr_stall_cycles: int = 0  # ready warp blocked only by a full MSHR file
    sfu_stall_cycles: int = 0  # ready warp blocked by SFU/scratchpad pipes
    barrier_stall_cycles: int = 0  # warp-cycles parked at block barriers
    dep_stall_cycles: int = 0  # no warp ready (dependency/latency stalls)
    finish_cycle: float = 0.0

    @property
    def ipc(self) -> float:
        """Issued instructions per active cycle."""
        return self.insts_issued / self.active_cycles if self.active_cycles else 0.0


@dataclass
class SimStats:
    """Whole-simulation results."""

    kernel_name: str
    scheduler: str
    #: Architecture backend the oracle modeled (``GPUConfig.arch``).
    arch: str = "gpumech2014"
    total_cycles: float = 0.0
    total_insts: int = 0
    n_cores_used: int = 0
    cores: List[CoreStats] = field(default_factory=list)
    dram_requests: int = 0
    dram_mean_queue_delay: float = 0.0
    dram_utilization: float = 0.0
    mshr_merges: int = 0
    mshr_allocations: int = 0
    #: Per-interval occupancy/issue/stall samples per core; populated
    #: only when the simulator ran with ``timeline_interval`` set.
    timeline: Optional[Timeline] = None

    @property
    def cpi(self) -> float:
        """Cycles per (core-)instruction: the paper's validation metric.

        With homogeneous cores this equals per-core cycles over per-core
        instructions; computed over *used* cores so kernels smaller than
        the machine are not artificially inflated.
        """
        if not self.total_insts:
            return 0.0
        return self.total_cycles * self.n_cores_used / self.total_insts

    @property
    def ipc(self) -> float:
        """Per-core instructions per cycle (reciprocal of CPI)."""
        return 1.0 / self.cpi if self.cpi else 0.0

    def summary(self) -> str:
        """One-line result description for logs and examples."""
        return (
            "%s [%s]: %d insts on %d cores in %.0f cycles -> CPI %.3f "
            "(DRAM util %.2f, mean queue delay %.1f)"
            % (
                self.kernel_name,
                self.scheduler,
                self.total_insts,
                self.n_cores_used,
                self.total_cycles,
                self.cpi,
                self.dram_utilization,
                self.dram_mean_queue_delay,
            )
        )
