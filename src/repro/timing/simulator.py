"""Top-level multi-core timing simulation with cycle skipping.

All cores share the L2 and the DRAM bandwidth queue and advance in
lockstep on a global cycle counter.  When *no* core can issue (all warps
dependency- or MSHR-stalled), the clock jumps directly to the earliest
cycle at which any core could wake.  A stalled core has no per-cycle
side effect except its stall counters, and it sleeps through every
skipped cycle (its next event is its ``sleep_until``), so the jump
charges each unfinished core the skipped cycles by its stall kind.  The
result is the naive single-step loop's ``SimStats``, every counter
included (verified by ``tests/test_timing.py``); only the optional
timeline samples at the cycles the loop visits.
"""

from __future__ import annotations

import math
from collections import defaultdict
from typing import Dict, List, Optional

from repro.config import GPUConfig
from repro.memory.cache import Cache
from repro.memory.cache_simulator import core_of_block
from repro.memory.dram import DRAMSystem
from repro.obs.timeline import Timeline
from repro.timing.core_model import CoreModel
from repro.timing.stats import SimStats
from repro.trace.trace_types import KernelTrace


class SimulationError(RuntimeError):
    """Raised when a simulation cannot make progress."""


class TimingSimulator:
    """Cycle-level oracle for one kernel launch.

    Parameters
    ----------
    config:
        Machine description (Table I); ``config.max_warps_per_core`` is
        the resident-warp limit of every core.
    cycle_skipping:
        Disable to force the naive one-cycle-at-a-time loop (used by the
        equivalence tests; dramatically slower).
    timeline_interval:
        When set, sample every core's occupancy and cumulative stall
        attribution every that-many cycles into ``SimStats.timeline``
        (see :mod:`repro.obs.timeline`); ``None`` (the default) records
        nothing and adds no per-cycle work.
    """

    def __init__(
        self,
        config: GPUConfig,
        cycle_skipping: bool = True,
        max_cycles: float = 5e8,
        timeline_interval: Optional[float] = None,
    ):
        self.config = config
        self.cycle_skipping = cycle_skipping
        self.max_cycles = max_cycles
        if timeline_interval is not None and timeline_interval <= 0:
            raise ValueError("timeline_interval must be positive")
        self.timeline_interval = timeline_interval

    def run(self, trace: KernelTrace) -> SimStats:
        """Simulate the kernel launch; returns aggregate statistics."""
        config = self.config
        # Each block's warps, as launch indices: the cores read the
        # launch columns, so the oracle builds no per-warp view.
        blocks: Dict[int, List[int]] = defaultdict(list)
        for warp, block_id in enumerate(trace.block_ids.tolist()):
            blocks[block_id].append(warp)
        per_core_blocks: List[List[List[int]]] = [
            [] for _ in range(config.n_cores)
        ]
        for block_id in sorted(blocks):
            per_core_blocks[core_of_block(block_id, config.n_cores)].append(
                blocks[block_id]
            )

        l2 = Cache(config.l2_size, config.l2_assoc, config.line_size)
        dram = DRAMSystem(
            config.dram_service_cycles, config.n_dram_channels,
            config.line_size,
        )
        cores = [
            CoreModel(
                core_id,
                config,
                l2,
                dram,
                trace,
                per_core_blocks[core_id],
            )
            for core_id in range(config.n_cores)
            if per_core_blocks[core_id]
        ]
        if not cores:
            raise SimulationError("kernel launch assigned no warps to any core")

        timeline: Optional[Timeline] = None
        next_sample = float("inf")
        if self.timeline_interval is not None:
            timeline = Timeline(self.timeline_interval)
            next_sample = self.timeline_interval

        cycle_skipping = self.cycle_skipping
        max_cycles = self.max_cycles
        now = 0.0
        while True:
            if now >= next_sample:
                self._sample(timeline, cores, now)
                while next_sample <= now:
                    next_sample += self.timeline_interval
            issued_any = False
            all_finished = True
            for core in cores:
                if core.finished:
                    continue
                all_finished = False
                if core.step(now):
                    issued_any = True
            if all_finished:
                break
            if issued_any or not cycle_skipping:
                now += 1.0
            else:
                # Every unfinished core failed to issue at ``now``, so each
                # holds its next event in sleep_until.
                unfinished = [core for core in cores if not core.finished]
                wake = min(core.sleep_until for core in unfinished)
                if wake == float("inf"):
                    raise SimulationError("deadlock: no core has a future event")
                # Completion events can be fractional (the DRAM service time
                # is not an integer number of cycles) but issue happens on
                # integer cycle boundaries only.
                wake = max(now + 1.0, math.ceil(wake))
                # Every core sleeps through the cycles skipped until then.
                skipped = int(wake - now) - 1
                if skipped:
                    for core in unfinished:
                        core.charge_sleep(skipped)
                now = wake
            if now > max_cycles:
                raise SimulationError(
                    "exceeded max_cycles=%g (runaway simulation)" % max_cycles
                )

        total_cycles = max(core.stats.finish_cycle for core in cores) + 1.0
        if timeline is not None:
            # Closing sample: the final cumulative counters of every core.
            self._sample(timeline, cores, total_cycles)
        stats = SimStats(
            kernel_name=trace.kernel_name,
            scheduler=config.scheduler,
            arch=config.arch,
            total_cycles=total_cycles,
            total_insts=sum(core.stats.insts_issued for core in cores),
            n_cores_used=len(cores),
            cores=[core.stats for core in cores],
            dram_requests=dram.n_requests,
            dram_mean_queue_delay=dram.mean_queue_delay,
            dram_utilization=dram.utilization(total_cycles),
            mshr_merges=sum(core.mshr.n_merges for core in cores),
            mshr_allocations=sum(core.mshr.n_allocations for core in cores),
            timeline=timeline,
        )
        return stats

    @staticmethod
    def _sample(timeline: Timeline, cores: List[CoreModel],
                now: float) -> None:
        """Record every core's cumulative counters at cycle ``now``."""
        for core in cores:
            stats = core.stats
            timeline.record(
                core.core_id,
                now,
                0 if core.finished else core.n_resident,
                insts_issued=stats.insts_issued,
                issue_cycles=stats.issue_cycles,
                mshr_stall_cycles=stats.mshr_stall_cycles,
                sfu_stall_cycles=stats.sfu_stall_cycles,
                barrier_stall_cycles=stats.barrier_stall_cycles,
                dep_stall_cycles=stats.dep_stall_cycles,
            )


def simulate_kernel(trace: KernelTrace, config: GPUConfig) -> SimStats:
    """Convenience wrapper: run the oracle on a kernel trace."""
    return TimingSimulator(config).run(trace)
