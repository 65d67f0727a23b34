"""Per-core issue logic of the timing oracle.

Each core holds a queue of thread blocks, keeps up to
``config.max_warps_per_core`` warps resident (block-granular residency,
like real GPUs; a block larger than that runs alone), and issues
through ``config.schedulers_per_core`` *scheduler partitions*.  The
paper's ``gpumech2014`` machine has a single partition holding every
resident warp; ``arch="subcore"`` builds ``n_schedulers`` partitions
(warp → partition by activation age, one issue slot each per cycle —
sub-core dispatch).
Within a partition the configured scheduler picks the issuing warp:

* **RR** (round-robin): priority rotates to the warp after the last
  issuer; the first ready warp in rotation order issues.
* **GTO** (greedy-then-oldest): keep issuing from the current warp until
  it stalls, then switch to the *oldest* resident warp that is ready
  (age = activation order) [Rogers et al., MICRO'12].

Dependency semantics match the interval algorithm (Eq. 4): a consumer may
issue ``latency`` cycles after its producer issued.  Loads walk the timed
L1/MSHR/L2/DRAM path built from :mod:`repro.memory`; stores are
write-through fire-and-forget traffic that consumes DRAM bandwidth but
never blocks the warp (and never occupies MSHRs) — the asymmetry behind
the paper's DRAM-bandwidth model.
"""

from __future__ import annotations

import enum
from collections import defaultdict
from typing import DefaultDict, List, Optional, Sequence, Tuple

from repro.config import GPUConfig
from repro.memory.cache import Cache
from repro.memory.dram import DRAMSystem
from repro.memory.mshr import MSHRError, MSHRFile
from repro.timing.stats import CoreStats
from repro.trace.trace_types import MAX_DEPS, NO_DEP, KernelTrace, OpCode


class StallKind(enum.Enum):
    """Why a core could not issue: the counter its stalled cycles go to.

    Barrier waits are counted apart, per warp and scanned cycle.
    """

    DEP = "dep"  # neither below: producers not complete, or barriers
    MSHR = "mshr"  # a ready load waits for free MSHR entries
    SFU = "sfu"  # a ready warp waits for the SFU or scratchpad pipe


_LOAD = int(OpCode.LOAD)
_STORE = int(OpCode.STORE)
_SFU = int(OpCode.SFU)
_SMEM_LOAD = int(OpCode.SMEM_LOAD)
_SMEM_STORE = int(OpCode.SMEM_STORE)
_BARRIER = int(OpCode.BARRIER)
_INF = float("inf")
# CoreModel.step unrolls the producer slots of an instruction.
assert MAX_DEPS == 3


class _WarpRun:
    """Runtime state of one resident warp.

    The warp's rows of the launch columns are converted to native Python
    lists on activation: the issue loop touches them once per
    instruction per scheduler scan, where numpy scalar boxing would
    dominate the simulation time.
    """

    __slots__ = (
        "warp_id",
        "start",
        "age",
        "next_idx",
        "done",
        "ready_at",
        "n_insts",
        "ops",
        "deps",
        "req_lines",
        "req_offsets",
        "conflict",
        "bar_count",
        "block_runs",
        "need",
        "need_idx",
    )

    def __init__(self, trace: KernelTrace, warp: int, age: int):
        self.warp_id = int(trace.warp_ids[warp])
        # The warp owns launch rows start:stop.
        start, stop = trace.warp_offsets[warp:warp + 2].tolist()
        self.start = start
        self.age = age
        self.next_idx = 0
        self.n_insts = stop - start
        self.ops = trace.ops[start:stop].tolist()
        # Producer indices, MAX_DEPS per instruction (flat: one list
        # instead of one per instruction).
        self.deps = trace.deps[start:stop].ravel().tolist()
        # Request offsets rebased to the warp's own lines.
        offsets = trace.req_offsets[start:stop + 1]
        first = offsets[0]
        self.req_lines = trace.req_lines[first:offsets[-1]].tolist()
        self.req_offsets = (offsets - first).tolist()
        self.conflict = trace.conflict[start:stop].tolist()
        self.bar_count = 0
        self.block_runs: List["_WarpRun"] = []
        # MSHR entries the load at instruction need_idx needs (-1: no
        # memo).  The core drops the memo when one of the load's request
        # lines is installed in or evicted from the L1 or released by the
        # MSHR file, the only events that change the need.
        self.need = 0
        self.need_idx = -1
        # Completion cycle of each issued dynamic instruction.
        self.done = [0.0] * self.n_insts
        # Earliest cycle the next instruction may issue (inf: finished).
        # The first instruction has no producers.
        self.ready_at = 0.0 if self.n_insts else _INF

    @property
    def finished(self) -> bool:
        """Whether every traced instruction has issued."""
        return self.next_idx >= self.n_insts

    def requests(self, index: int):
        """Request line addresses of one dynamic instruction (list slice)."""
        return self.req_lines[self.req_offsets[index]: self.req_offsets[index + 1]]


class _SchedulerPartition:
    """One issue slot: a warp subset with its own scheduler state.

    ``resident`` stays age-ordered (activation appends increasing ages,
    retirement preserves relative order), so GTO's oldest-first fallback
    is plain list order here just as it was core-wide.
    """

    __slots__ = ("resident", "rr_next", "gto_current")

    def __init__(self) -> None:
        self.resident: List[_WarpRun] = []
        self.rr_next = 0
        self.gto_current: Optional[_WarpRun] = None

    def on_retired(self) -> None:
        """Re-clamp priorities after warps left ``resident``."""
        if self.rr_next >= len(self.resident):
            self.rr_next = 0
        if self.gto_current is not None and self.gto_current.finished:
            self.gto_current = None


class CoreModel:
    """One in-order SIMT core with private L1 and MSHR file."""

    def __init__(
        self,
        core_id: int,
        config: GPUConfig,
        l2: Cache,
        dram: DRAMSystem,
        trace: KernelTrace,
        blocks: Sequence[Sequence[int]],
    ):
        """``blocks`` lists this core's thread blocks in dispatch order,
        each as the launch indices of its warps in ``trace``."""
        self.core_id = core_id
        self.config = config
        self.l1 = Cache(config.l1_size, config.l1_assoc, config.line_size)
        self.l2 = l2
        self.dram = dram
        self.mshr = MSHRFile(config.n_mshrs)
        self._max_warps = config.max_warps_per_core
        self.stats = CoreStats(core_id)
        # Fixed latency of each pipeline op, indexed by opcode (None for
        # the memory, scratchpad and barrier ops step handles apart).
        self._latency: List[Optional[float]] = [None] * len(OpCode)
        for op in (OpCode.IALU, OpCode.FALU, OpCode.SFU):
            self._latency[op] = float(config.op_latencies[op.latency_class])
        # Branches and exits occupy the issue slot for one cycle and have
        # no consumers.
        self._latency[OpCode.BRANCH] = 1.0
        self._latency[OpCode.EXIT] = 1.0

        self._trace = trace
        self._block_queue: List[List[int]] = [list(b) for b in blocks]
        self._resident_blocks: List[List[_WarpRun]] = []
        self._resident: List[_WarpRun] = []
        self._age_counter = 0
        # Scheduler partitions (sub-core dispatch): one per issue slot;
        # warps are statically assigned to partitions by activation age.
        self._partitions = [
            _SchedulerPartition() for _ in range(config.schedulers_per_core)
        ]
        # A core's issue eligibility only changes with its own events
        # (dependency completions, MSHR releases), so after a failed scan
        # it sleeps until the earliest such event instead of rescanning
        # every cycle; each cycle before sleep_until is a stalled cycle
        # of kind _sleep_kind.
        self.sleep_until = 0.0
        self._sleep_kind = StallKind.DEP
        # Entries the cheapest MSHR-stalled load of the last scan waits
        # for (0: none); lets next_event_after sleep until the k-th MSHR
        # release rather than waking on every single one.  The scan also
        # notes SFU/scratchpad stalls in _scan_sfu_stall.
        self._mshr_need = 0
        self._scan_sfu_stall = False
        # Line -> (warp, instruction index) of every MSHR-need memo taken
        # over that request line.  An L1 install or eviction of a line,
        # or an MSHR release of it, drops the memos registered under it
        # and only those: no other event changes whether the line is
        # L1-resident or in flight.  Entries of superseded memos stay
        # until their line next changes state, and keep their warp
        # alive until then (at the latest, until the kernel ends).
        self._waiters: DefaultDict[int, List[Tuple[_WarpRun, int]]] = (
            defaultdict(list)
        )
        # SFU pipeline occupancy (extension beyond Table I: with fewer
        # SFU lanes than the SIMT width, an SFU warp-instruction blocks
        # the unit for warp_size / n_sfu_units cycles).
        self._sfu_limited = config.n_sfu_units < config.warp_size
        self._sfu_free_at = 0.0
        # Scratchpad LSU occupancy: a bank-conflicted access replays for
        # its conflict degree, blocking other scratchpad accesses.
        self._smem_free_at = 0.0
        self._smem_latency = float(config.smem_latency)
        # Hoisted per-cycle/per-request config reads (step runs once per
        # cycle, _issue_load once per load).
        self._l1_latency = float(config.l1_latency)
        self._l2_latency = float(config.l2_latency)
        self._dram_latency = float(config.dram_latency)
        self._sfu_service_cycles = float(config.sfu_service_cycles)
        self._rr = config.scheduler == "rr"
        # Ops _issue_check may refuse; every other op issues once its
        # producers completed.
        self._checked_ops = frozenset(
            {_LOAD, _SMEM_LOAD, _SMEM_STORE, _BARRIER}
            | ({_SFU} if self._sfu_limited else set())
        )
        self._activate_blocks()

    # Residency -------------------------------------------------------------

    def _activate_blocks(self) -> None:
        """Bring queued blocks on-core while warp slots are available.

        A core with no resident warps admits the next block whatever its
        size, so a block larger than the warp limit runs alone (as in
        the cache replay and the model) instead of never running.
        """
        while self._block_queue:
            block = self._block_queue[0]
            resident = len(self._resident)
            if resident and resident + len(block) > self._max_warps:
                break
            self._block_queue.pop(0)
            runs = []
            for warp in block:
                run = _WarpRun(self._trace, warp, self._age_counter)
                self._age_counter += 1
                runs.append(run)
            for run in runs:
                run.block_runs = runs
            self._resident_blocks.append(runs)
            self._resident.extend(runs)
            n_partitions = len(self._partitions)
            for run in runs:
                self._partitions[run.age % n_partitions].resident.append(run)
        #: Whether all assigned blocks have completed.
        self.finished = not self._resident and not self._block_queue

    def _retire_blocks(self) -> None:
        """Release blocks whose warps all finished; admit new ones."""
        finished = [b for b in self._resident_blocks if all(w.finished for w in b)]
        if not finished:
            return
        n_partitions = len(self._partitions)
        for block in finished:
            self._resident_blocks.remove(block)
            for run in block:
                self._resident.remove(run)
                self._partitions[run.age % n_partitions].resident.remove(run)
                # Break the warp <-> block reference cycle, so reference
                # counting frees a retired warp's lists rather than a
                # later cyclic garbage collection.
                run.block_runs = []
        for partition in self._partitions:
            partition.on_retired()
        self._activate_blocks()

    @property
    def n_resident(self) -> int:
        """Warps currently resident on the core."""
        return len(self._resident)

    # Issue -----------------------------------------------------------------

    def _issue_check(self, run: _WarpRun, now: float) -> bool:
        """Whether ``run``, dependency-ready at ``now``, may issue.

        Only ops in ``_checked_ops`` can be refused.  A structural stall
        is recorded on the core's scan state (or, for a barrier, in the
        stall counters) before returning False.
        """
        index = run.next_idx
        op = run.ops[index]
        if op == _LOAD:
            mshr = self.mshr
            offsets = run.req_offsets
            # Cheap bound: the need never exceeds the request count.
            if offsets[index + 1] - offsets[index] <= mshr.free_entries:
                return True
            needed = self._compute_need(run, index)
            if needed > mshr.free_entries:
                if not self._mshr_need or needed < self._mshr_need:
                    self._mshr_need = needed
                return False
        elif op == _SFU:
            if self._sfu_free_at > now:
                self._scan_sfu_stall = True
                return False
        elif op == _SMEM_LOAD or op == _SMEM_STORE:
            if self._smem_free_at > now:
                self._scan_sfu_stall = True
                return False
        elif op == _BARRIER and not self._barrier_open(run):
            self.stats.barrier_stall_cycles += 1
            return False
        return True

    def _compute_need(self, run: _WarpRun, index: int) -> int:
        """MSHR entries the load at ``index`` of ``run`` would allocate now.

        Memoizes the result on the warp and registers the memo under each
        request line (see ``_waiters``).
        """
        lines = run.requests(index)
        probe = self.l1.probe
        mshr = self.mshr
        lookup = mshr.lookup
        needed = sum(
            1 for line in lines if not probe(line) and lookup(line) is None
        )
        if needed > mshr.n_entries:
            raise MSHRError(
                "load at pc %d needs %d MSHR entries but the file "
                "only has %d; configure n_mshrs >= warp_size"
                % (self._trace.pcs[run.start + index], needed,
                   mshr.n_entries)
            )
        run.need = needed
        run.need_idx = index
        memo = (run, index)
        waiters = self._waiters
        for line in lines:
            waiters[line].append(memo)
        return needed

    def _invalidate(self, lines: Sequence[int]) -> None:
        """Drop the MSHR-need memos registered under ``lines``."""
        pop = self._waiters.pop
        for line in lines:
            memos = pop(line, None)
            if memos is not None:
                for run, index in memos:
                    if run.need_idx == index:
                        run.need_idx = -1

    def _barrier_open(self, run: _WarpRun) -> bool:
        """Whether every block-mate has arrived at this warp's barrier.

        A mate has arrived when it already issued this barrier
        (``bar_count`` greater), is parked at it (next instruction is the
        same barrier), or has finished the kernel.
        """
        k = run.bar_count
        for mate in run.block_runs:
            if mate is run or mate.finished or mate.bar_count > k:
                continue
            if not (
                mate.bar_count == k
                and mate.ops[mate.next_idx] == _BARRIER
            ):
                return False
        return True

    def _issue_load(self, run: _WarpRun, index: int, now: float) -> float:
        """Walk every coalesced request through L1/MSHR/L2/DRAM.

        The L1 takes the whole request group in one call, then the MSHR,
        L2 and DRAM walk follows in line order.  Splitting the walk by
        level is exact even when the group repeats a line: no L1
        operation reads MSHR, L2 or DRAM state, and the rest of the walk
        never reads the L1.
        """
        offsets = run.req_offsets
        lines = run.req_lines[offsets[index]:offsets[index + 1]]
        # Lines whose L1 residency this load changes: each victim evicted
        # to make room (appended by the L1) and each line it installs.
        changed: List[int] = []
        hits = self.l1.read_group(lines, changed)
        completion = 0.0
        l2_access = self.l2.access
        mshr = self.mshr
        mshr_lookup = mshr.lookup
        l1_hit_at = now + self._l1_latency
        l2_hit_at = now + self._l2_latency
        for line, hit in zip(lines, hits):
            if hit:
                # Tag hit; if the line's fill is still in flight this is a
                # pending hit and completes when the original miss returns.
                t = l1_hit_at
                pending = mshr_lookup(line)
                if pending is not None and pending > t:
                    t = pending
            else:
                changed.append(line)
                merged = mshr_lookup(line)
                if merged is not None:
                    t = merged
                else:
                    # Known bug, kept bit for bit until a fix re-records
                    # the oracle pins and the ledger (see ROADMAP.md):
                    # each fresh miss's fill *overwrites* the running
                    # maximum, so the load completes when its last fresh
                    # miss returns rather than when its slowest request
                    # does.
                    if l2_access(line):
                        completion = l2_hit_at
                    else:
                        completion = (
                            self.dram.enqueue(l2_hit_at, line)
                            + self._dram_latency
                        )
                    try:
                        t = mshr.allocate(line, completion)
                    except MSHRError:
                        # The issue check counted this line as an L1 hit,
                        # but an earlier request of this same instruction
                        # evicted it.  Model a replay: the miss starts
                        # once the earliest in-flight entry releases.
                        free_at = mshr.next_completion() or now
                        t = completion + max(free_at - now, 0.0)
            if t > completion:
                completion = t
        if self._waiters:
            self._invalidate(changed)
        return completion

    # Scheduling --------------------------------------------------------------

    def step(self, now: float) -> bool:
        """Attempt to issue instructions at cycle ``now``.

        Every scheduler partition may issue at most one instruction
        (``gpumech2014`` has a single partition, so at most one per core
        — the paper's machine).  Returns True if anything issued;
        updates stall statistics otherwise.

        Each partition's scheduler picks the issuing warp with its own
        in-place scan, and one inline copy of the issue body issues it:
        the loop runs once per issued instruction, so it makes no call
        it can avoid.
        """
        if self.finished:
            return False
        if now < self.sleep_until:
            # Known-stalled: no event of this core can have fired yet.
            self.charge_sleep(1)
            return False
        mshr = self.mshr
        if now >= mshr.earliest:
            released = mshr.release_completed(now)
            if self._waiters:
                self._invalidate(released)
        self._mshr_need = 0
        self._scan_sfu_stall = False
        rr = self._rr
        checked = self._checked_ops
        issued_any = False
        for partition in self._partitions:
            resident = partition.resident
            n = len(resident)
            # Both scans run one candidate test, kept inline because it
            # runs for every ready warp of every scan: a warp not ready
            # yet (which covers finished warps) is skipped first; a load
            # whose memoized MSHR need exceeds the free entries is
            # skipped (its need noted for next_event_after) without
            # calling _issue_check, a memo within the free entries
            # issues, and only the ops in _checked_ops go to _issue_check
            # at all.  A scan that finds no warp leaves the partition
            # idle (for-else).
            if rr:
                # Round-robin: the first ready warp in rotation order.
                start = partition.rr_next % n if n else 0
                for pos in range(start, start + n):
                    if pos >= n:
                        pos -= n
                    run = resident[pos]
                    if run.ready_at > now:
                        continue
                    index = run.next_idx
                    if run.need_idx == index:
                        need = run.need
                        if need > mshr.free_entries:
                            if not self._mshr_need or need < self._mshr_need:
                                self._mshr_need = need
                            continue
                    elif run.ops[index] in checked and not self._issue_check(
                        run, now
                    ):
                        continue
                    break
                else:
                    continue
            else:
                # Greedy-then-oldest: the current warp if ready, else the
                # oldest ready one (position -1 tries the current warp).
                current = partition.gto_current
                for pos in range(0 if current is None else -1, n):
                    if pos < 0:
                        run = current
                    else:
                        run = resident[pos]
                        if run is current:
                            continue  # tried first
                    if run.ready_at > now:
                        continue
                    index = run.next_idx
                    if run.need_idx == index:
                        need = run.need
                        if need > mshr.free_entries:
                            if not self._mshr_need or need < self._mshr_need:
                                self._mshr_need = need
                            continue
                    elif run.ops[index] in checked and not self._issue_check(
                        run, now
                    ):
                        continue
                    break
                else:
                    continue

            # Issue instruction ``index`` of ``run``.
            op = run.ops[index]
            latency = self._latency[op]
            if latency is not None:
                completion = now + latency
                if op == _SFU and self._sfu_limited:
                    self._sfu_free_at = now + self._sfu_service_cycles
            elif op == _LOAD:
                completion = self._issue_load(run, index, now)
            elif op == _STORE:
                # Write-through store: probes both caches and always
                # consumes DRAM bus time, but never blocks the warp.  The
                # caches do not allocate on writes, so a store never
                # changes L1 residency (or any MSHR-need memo).
                offsets = run.req_offsets
                lines = run.req_lines[offsets[index]:offsets[index + 1]]
                self.l1.write_group(lines)
                self.l2.write_group(lines)
                self.dram.enqueue_group(now + self._l2_latency, lines)
                completion = now + 1.0
            elif op == _SMEM_LOAD:
                degree = max(run.conflict[index], 1)
                completion = now + self._smem_latency + (degree - 1)
                self._smem_free_at = now + degree
            elif op == _SMEM_STORE:
                degree = max(run.conflict[index], 1)
                completion = now + 1.0
                self._smem_free_at = now + degree
            else:  # _BARRIER
                completion = now + 1.0
                run.bar_count += 1
            done = run.done
            done[index] = completion
            index += 1
            run.next_idx = index
            self.stats.insts_issued += 1
            if index < run.n_insts:
                # The next instruction may issue once its producers
                # completed: the latest of its producer slots, unrolled.
                deps = run.deps
                base = index * MAX_DEPS
                ready = 0.0
                dep = deps[base]
                if dep != NO_DEP:
                    t = done[dep]
                    if t > ready:
                        ready = t
                dep = deps[base + 1]
                if dep != NO_DEP:
                    t = done[dep]
                    if t > ready:
                        ready = t
                dep = deps[base + 2]
                if dep != NO_DEP:
                    t = done[dep]
                    if t > ready:
                        ready = t
                run.ready_at = ready
                if rr:
                    partition.rr_next = (pos + 1) % n
                else:
                    partition.gto_current = run
            else:
                run.ready_at = _INF
                self._retire_blocks()
                if not rr:
                    partition.gto_current = None
                elif run in resident:
                    # The warp finished, which may have retired blocks
                    # and so reshuffled resident.
                    partition.rr_next = (resident.index(run) + 1) % len(
                        resident
                    )
            issued_any = True
        if issued_any:
            stats = self.stats
            stats.active_cycles += 1
            stats.issue_cycles += 1
            stats.finish_cycle = now
            return True
        if self._mshr_need:
            self._sleep_kind = StallKind.MSHR
        elif self._scan_sfu_stall:
            self._sleep_kind = StallKind.SFU
        else:
            self._sleep_kind = StallKind.DEP
        self.charge_sleep(1)
        self.sleep_until = self.next_event_after(now)
        return False

    def charge_sleep(self, cycles: int) -> None:
        """Charge ``cycles`` active cycles in which the core cannot issue
        to the stall counter of its ``_sleep_kind``."""
        stats = self.stats
        stats.active_cycles += cycles
        kind = self._sleep_kind
        if kind is StallKind.MSHR:
            stats.mshr_stall_cycles += cycles
        elif kind is StallKind.SFU:
            stats.sfu_stall_cycles += cycles
        else:
            stats.dep_stall_cycles += cycles

    def next_event_after(self, now: float) -> float:
        """Earliest future cycle at which this core could possibly issue.

        After a failed scan the core sleeps until then (``sleep_until``),
        which is also what the simulator's cycle skipping jumps to: the
        earliest dependency-ready time, MSHR release or pipe release.
        """
        if self.finished:
            return float("inf")
        best = float("inf")
        for run in self._resident:
            ready = run.ready_at
            if now < ready < best:
                best = ready
        k = 1
        if self._sleep_kind is StallKind.MSHR:
            k = max(1, self._mshr_need - self.mshr.free_entries)
        mshr_next = self.mshr.kth_completion(k)
        if mshr_next is not None and now < mshr_next < best:
            best = mshr_next
        if self._sfu_limited and now < self._sfu_free_at < best:
            best = self._sfu_free_at
        if now < self._smem_free_at < best:
            best = self._smem_free_at
        return best if best != float("inf") else now + 1.0
