"""Static occupancy, execution-count and interval-bound estimation.

This is the top of the cost model: it runs the loop finder, the affine
interpreter and the access classifier, then folds their facts into one
:class:`KernelCostModel` artifact:

* per-branch **divergence classification** (can this branch split a
  warp?) from the existing ``DivergenceSources`` taint analysis;
* per-PC **execution-count intervals** — the product of the enclosing
  loops' trip counts, with a zero lower bound inside forward-conditional
  regions (a do-while body runs at least once; an ``if`` body may not
  run at all);
* the **interval-profile skeleton**: every reachable PC with its stall
  class and count interval — the static shape of the interval profile
  GPUMech builds from dynamic traces;
* **static occupancy** (resident blocks/warps per core against the
  hardware limits) and a **CPI lower bound**: the issue floor (one
  instruction a cycle per scheduler) or the DRAM-bandwidth floor (predicted store line traffic, which always
  reaches DRAM, priced at ``dram_service_cycles``), whichever binds.
  The CPI convention matches the oracle's
  ``total_cycles · n_cores_used / total_insts``.

Entry points: :func:`analyze_kernel` for validated kernels and
:func:`analyze_program` for raw instruction sequences (degenerate inputs
included — an empty program yields an empty model rather than a crash).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, FrozenSet, List, Optional, Sequence, Tuple

from repro.config import GPUConfig
from repro.isa.instructions import Instruction, OpClass
from repro.isa.kernel import Kernel
from repro.staticcheck.cfg import ControlFlowGraph
from repro.staticcheck.costmodel.access import MemoryAccess, classify_accesses
from repro.staticcheck.costmodel.affine import Interval, affine_environments
from repro.staticcheck.costmodel.loops import (
    Loop,
    find_loops,
    infer_trip_counts,
)
from repro.staticcheck.dataflow import (
    DivergenceSources,
    may_diverge,
    register_tags,
    solve,
)


@dataclass(frozen=True)
class BranchSummary:
    """Static classification of one conditional branch."""

    pc: int
    divergent: bool  # predicate carries per-thread (tid/lane) taint
    backward: bool  # loop latch (target at or before the branch)
    reconv: Optional[int]

    def to_dict(self) -> Dict[str, object]:
        return {
            "pc": self.pc,
            "divergent": self.divergent,
            "backward": self.backward,
            "reconv": self.reconv,
        }


@dataclass(frozen=True)
class SkeletonEntry:
    """One PC of the interval-profile skeleton."""

    pc: int
    opcode: str
    stall_class: str  # ialu | falu | sfu | mem | smem | sync
    count: Interval

    def to_dict(self) -> Dict[str, object]:
        return {
            "pc": self.pc,
            "opcode": self.opcode,
            "stall_class": self.stall_class,
            "count": self.count.to_dict(),
        }


@dataclass(frozen=True)
class KernelCostModel:
    """Everything the cost model statically knows about one kernel."""

    kernel: str
    n_threads: int
    block_size: int
    warp_size: int
    n_static_insts: int
    n_reachable: int
    loops: Tuple[Loop, ...]
    branches: Tuple[BranchSummary, ...]
    accesses: Tuple[MemoryAccess, ...]
    skeleton: Tuple[SkeletonEntry, ...]
    divergent_masked: FrozenSet[int]
    insts_per_warp: Interval
    transactions_per_warp: Interval
    resident_blocks_per_core: int
    resident_warps_per_core: int
    occupancy: float
    cpi_lower_bound: float
    counts: Dict[int, Interval] = field(default_factory=dict, compare=False)

    @property
    def exact_loops(self) -> Tuple[Loop, ...]:
        return tuple(loop for loop in self.loops if loop.trip.is_exact)

    @property
    def divergent_branches(self) -> Tuple[BranchSummary, ...]:
        return tuple(b for b in self.branches if b.divergent)

    def to_dict(self) -> Dict[str, object]:
        return {
            "kernel": self.kernel,
            "n_threads": self.n_threads,
            "block_size": self.block_size,
            "warp_size": self.warp_size,
            "n_static_insts": self.n_static_insts,
            "n_reachable": self.n_reachable,
            "loops": [loop.to_dict() for loop in self.loops],
            "branches": [branch.to_dict() for branch in self.branches],
            "accesses": [access.to_dict() for access in self.accesses],
            "skeleton": [entry.to_dict() for entry in self.skeleton],
            "divergent_masked": sorted(self.divergent_masked),
            "insts_per_warp": self.insts_per_warp.to_dict(),
            "transactions_per_warp": self.transactions_per_warp.to_dict(),
            "resident_blocks_per_core": self.resident_blocks_per_core,
            "resident_warps_per_core": self.resident_warps_per_core,
            "occupancy": self.occupancy,
            "cpi_lower_bound": self.cpi_lower_bound,
        }

    def render_text(self) -> str:
        lines = [
            "cost model: %s" % self.kernel,
            "  static insts: %d (%d reachable), warp insts: %s"
            % (self.n_static_insts, self.n_reachable,
               self.insts_per_warp.render()),
            "  occupancy: %.2f (%d blocks, %d warps resident/core), "
            "cpi >= %.3f"
            % (self.occupancy, self.resident_blocks_per_core,
               self.resident_warps_per_core, self.cpi_lower_bound),
        ]
        for loop in self.loops:
            lines.append(
                "  loop @%d: trip %s%s%s"
                % (loop.head, loop.trip.render(),
                   " (exact)" if loop.trip.is_exact else "",
                   " divergent" if loop.divergent else "")
            )
        for branch in self.branches:
            lines.append(
                "  branch @%d: %s%s"
                % (branch.pc,
                   "divergent" if branch.divergent else "uniform",
                   " backward" if branch.backward else "")
            )
        for access in self.accesses:
            if access.space == "shared":
                detail = "bank conflict %s" % access.bank_conflict.render()
            else:
                detail = "%s tx/access" % access.transactions.render()
            lines.append(
                "  %s @%d: %s, %s%s"
                % (access.opcode, access.pc, access.label, detail,
                   "" if access.phase_known else " (phase unknown)")
            )
        return "\n".join(lines)


def _empty_model(name: str, n_threads: int, block_size: int,
                 config: GPUConfig) -> KernelCostModel:
    return KernelCostModel(
        kernel=name,
        n_threads=n_threads,
        block_size=block_size,
        warp_size=config.warp_size,
        n_static_insts=0,
        n_reachable=0,
        loops=(),
        branches=(),
        accesses=(),
        skeleton=(),
        divergent_masked=frozenset(),
        insts_per_warp=Interval.exact(0),
        transactions_per_warp=Interval.exact(0),
        resident_blocks_per_core=0,
        resident_warps_per_core=0,
        occupancy=0.0,
        cpi_lower_bound=1.0 / config.schedulers_per_core,
        counts={},
    )


def _branch_region(cfg: ControlFlowGraph, pc: int,
                   stop: Optional[int]) -> FrozenSet[int]:
    """PCs reachable from the branch's successors without entering
    ``stop`` (the reconvergence point) — the branch's masked region."""
    seen: set = set()
    stack = [succ for succ in cfg.succs[pc] if succ != stop]
    while stack:
        node = stack.pop()
        if node in seen:
            continue
        seen.add(node)
        stack.extend(
            succ for succ in cfg.succs[node]
            if succ != stop and succ not in seen
        )
    return frozenset(seen)


def _stall_class(inst: Instruction) -> str:
    opclass = inst.opclass
    if opclass.is_memory:
        return "mem"
    if opclass.is_shared_memory:
        return "smem"
    if opclass is OpClass.BARRIER:
        return "sync"
    return opclass.latency_class


def analyze_program(
    program: Sequence[Instruction],
    name: str = "<program>",
    n_threads: int = 32,
    block_size: int = 32,
    config: Optional[GPUConfig] = None,
) -> KernelCostModel:
    """Statically analyze a raw instruction sequence.

    Handles degenerate inputs gracefully: an empty program returns an
    empty model (the CFG layer itself refuses to build one).
    """
    config = config or GPUConfig()
    program = tuple(program)
    if not program:
        return _empty_model(name, n_threads, block_size, config)

    cfg = ControlFlowGraph(program)
    loops = find_loops(cfg)
    envs = affine_environments(cfg, loops)
    loops = infer_trip_counts(
        cfg, loops, envs, substitutions={"ntid": block_size}
    )
    div_in, _ = solve(cfg, DivergenceSources())

    # Branch classification and masked regions.
    branches: List[BranchSummary] = []
    masked: set = set()
    forward_conditional: set = set()
    for pc in sorted(cfg.reachable):
        inst = program[pc]
        if inst.opclass is not OpClass.BRANCH or inst.pred is None:
            continue
        divergent = may_diverge(
            register_tags(div_in.get(pc, frozenset()), inst.pred)
        )
        backward = inst.target is not None and inst.target <= pc
        branches.append(BranchSummary(
            pc=pc, divergent=divergent, backward=backward,
            reconv=inst.reconv,
        ))
        region = _branch_region(cfg, pc, inst.reconv)
        if divergent:
            masked |= region
        if not backward:
            forward_conditional |= region

    # Execution-count intervals: enclosing-loop trip products, with a
    # zero floor inside forward-conditional regions.
    counts: Dict[int, Interval] = {}
    for pc in sorted(cfg.reachable):
        count = Interval.exact(1)
        for loop in loops:
            if pc in loop.body:
                count = count * loop.trip
        if pc in forward_conditional:
            count = Interval(0, count.hi)
        counts[pc] = count

    accesses = classify_accesses(cfg, envs, config, frozenset(masked))

    skeleton = tuple(
        SkeletonEntry(
            pc=pc, opcode=program[pc].opcode,
            stall_class=_stall_class(program[pc]), count=counts[pc],
        )
        for pc in sorted(cfg.reachable)
    )

    insts = Interval.exact(0)
    for count in counts.values():
        insts = insts + count
    transactions = Interval.exact(0)
    store_transactions = Interval.exact(0)
    for access in accesses:
        if access.space == "global":
            traffic = counts[access.pc] * access.transactions
            transactions = transactions + traffic
            if access.is_store:
                store_transactions = store_transactions + traffic

    # Static occupancy against the core's residency limits.
    warps_per_block = (block_size + config.warp_size - 1) // config.warp_size
    resident_blocks = max(0, config.max_threads_per_core // block_size)
    resident_warps = min(
        resident_blocks * warps_per_block, config.max_warps_per_core
    )
    occupancy = resident_warps / config.max_warps_per_core

    # CPI lower bound (oracle convention: cycles · n_cores_used / insts).
    # Issue floor always holds; the DRAM floor needs a finite instruction
    # upper bound to be sound.  It prices store traffic only: a load can
    # hit in L1 or L2, but stores are write-through and no-write-allocate,
    # so every store transaction reaches DRAM.  A core issues one
    # instruction a cycle from each scheduler's slot.
    cpi_lb = 1.0 / config.schedulers_per_core
    n_blocks = max(1, n_threads // max(1, block_size))
    n_cores_used = min(config.n_cores, n_blocks)
    if insts.hi is not None and insts.hi > 0:
        mem_floor = (
            n_cores_used * store_transactions.lo * config.dram_service_cycles
            / insts.hi
        )
        cpi_lb = max(cpi_lb, mem_floor)

    return KernelCostModel(
        kernel=name,
        n_threads=n_threads,
        block_size=block_size,
        warp_size=config.warp_size,
        n_static_insts=len(program),
        n_reachable=len(cfg.reachable),
        loops=tuple(loops),
        branches=tuple(branches),
        accesses=tuple(accesses),
        skeleton=skeleton,
        divergent_masked=frozenset(masked),
        insts_per_warp=insts,
        transactions_per_warp=transactions,
        resident_blocks_per_core=resident_blocks,
        resident_warps_per_core=resident_warps,
        occupancy=occupancy,
        cpi_lower_bound=cpi_lb,
        counts=counts,
    )


def analyze_kernel(
    kernel: Kernel, config: Optional[GPUConfig] = None
) -> KernelCostModel:
    """Statically analyze a validated kernel (launch geometry included)."""
    return analyze_program(
        kernel.program,
        name=kernel.name,
        n_threads=kernel.n_threads,
        block_size=kernel.block_size,
        config=config,
    )
