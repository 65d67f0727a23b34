"""Vectorized SIMT emulator: all warps in lockstep over the static program.

The scalar emulator (:mod:`repro.trace.emulator`) runs one warp to
completion at a time, one dynamic instruction per Python iteration.
This backend instead advances *every* live warp by one instruction per
step, as one batched numpy operation over a ``(warps, warp_size)`` lane
block — registers, addresses, coalescing, bank-conflict degrees and
dependency compaction all vectorize across the warps.  Per-warp Python
survives only where SIMT state genuinely diverges: reconvergence-stack
pushes/pops and scratchpad dictionaries.

Uniform mode, then grouped mode
-------------------------------
A launch starts in *uniform mode*: every warp sits at one PC with the
same trace length, an undiverged stack and its initial lane mask, so
all warps share one ``(pcs, deps)`` history.  Each step then runs on
whole-array slices: the producer indices come from one writers row and
are broadcast, rows are appended at one scalar position, registers are
written back with ``np.copyto(..., where=mask)``, and the per-warp
active-lane counts are computed once.  There is nothing to regroup or
reconverge.  Most suite kernels finish in this mode.

The first conditional branch whose direction differs between warps or
within a warp ends uniform mode for good.  From there *grouped mode*
runs: before every step, live warps pop reconverged stack entries and
are grouped by top-of-stack PC, and each group executes under index
arrays.  Both modes run the same per-instruction code
(:meth:`_Launch.execute`); only control flow, producer lookup and row
positions differ.

Trace rows are emitted into preallocated 2-D SoA columns (one row per
warp, geometric growth along the instruction axis) and gathered into the
launch's warp-major :class:`~repro.trace.trace_types.KernelTrace`
columns at the end with one boolean mask — no per-instruction Python
lists, no per-warp slices.

Equivalence with the scalar backend
-----------------------------------
Every trace column is bitwise-identical to the scalar emulator's output
(asserted suite-wide by ``tests/test_vectorized_equivalence.py``): the
same ufuncs run on the same float64 values, and elementwise numpy ops
are shape-independent at the bit level.  The one semantic difference is
*invisible to traces*: stores from different warps land in the shared
:class:`~repro.trace.memory_image.MemoryImage` overlay in lockstep
order rather than warp-major order, so a kernel whose cross-warp
read-after-write *values* feed back into addresses or branch predicates
could diverge.  No suite kernel does (loaded RAW values only ever flow
into stored data), which the equivalence suite enforces.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.config import GPUConfig
from repro.isa.instructions import Imm, Instruction, Reg, Special
from repro.isa.kernel import Kernel
from repro.trace.emulator import (
    _ALU_OPS,
    _CMP_OPS,
    EmulatorError,
    _bad_address,
    _opcode_code,
    lane_addresses,
)
from repro.trace.memory_image import MemoryImage, _hash_unit
from repro.trace.simt_stack import SimtStackError
from repro.trace.trace_types import MAX_DEPS, NO_DEP, KernelTrace, OpCode

#: Sorts after every real line/word in row-wise unique extraction.
_SENT = np.iinfo(np.int64).max

#: The ``warps`` index of a uniform-mode step: every row, as a slice, so
#: register reads are views and write-backs land in place.
_ALL = slice(None)

_EXIT_DIVERGED = (
    "exit reached under divergence (stack depth %d); "
    "kernels must reconverge before exiting"
)
_BARRIER_DIVERGED = "barrier reached under divergence (stack depth %d)"

# Dispatch kinds (precomputed per static instruction).
_K_ALU = 0
_K_SETP = 1
_K_LD = 2
_K_ST = 3
_K_LDS = 4
_K_STS = 5
_K_BRA = 6
_K_BAR = 7
_K_EXIT = 8

_KINDS = {
    "ld": _K_LD,
    "st": _K_ST,
    "lds": _K_LDS,
    "sts": _K_STS,
    "bra": _K_BRA,
    "bar": _K_BAR,
    "exit": _K_EXIT,
    "setp": _K_SETP,
}


class _InstPlan:
    """Pre-resolved execution plan of one static instruction."""

    __slots__ = ("inst", "kind", "op_int", "dep_regs", "dst", "alu_fn")

    def __init__(self, inst: Instruction):
        self.inst = inst
        self.kind = _KINDS.get(inst.opcode, _K_ALU)
        self.dep_regs = tuple(r.index for r in inst.source_registers)
        self.dst = inst.dst.index if inst.dst is not None else -1
        if self.kind == _K_SETP:
            self.alu_fn = _CMP_OPS[inst.cmp_op]
            self.op_int = int(OpCode.IALU)
        elif self.kind == _K_ALU:
            self.alu_fn = _ALU_OPS[inst.opcode]
            self.op_int = _opcode_code(inst)
        else:
            self.alu_fn = None
            self.op_int = {
                _K_LD: int(OpCode.LOAD),
                _K_ST: int(OpCode.STORE),
                _K_LDS: int(OpCode.SMEM_LOAD),
                _K_STS: int(OpCode.SMEM_STORE),
                _K_BRA: int(OpCode.BRANCH),
                _K_BAR: int(OpCode.BARRIER),
                _K_EXIT: int(OpCode.EXIT),
            }[self.kind]


def _rowwise_unique(
    values: np.ndarray, mask: np.ndarray
) -> Tuple[np.ndarray, np.ndarray]:
    """Sorted distinct values per row over the masked lanes.

    Returns ``(sorted, keep)``: ``sorted[keep]`` flattens to each row's
    ascending distinct values back to back (exactly ``np.unique`` of the
    row's active lanes, batched).
    """
    filled = np.where(mask, values, _SENT)
    filled.sort(axis=1)
    keep = filled != _SENT
    if filled.shape[1] > 1:
        keep[:, 1:] &= filled[:, 1:] != filled[:, :-1]
    return filled, keep


def _conflict_degrees(
    addrs: np.ndarray, mask: np.ndarray, n_banks: int, word: int = 4
) -> np.ndarray:
    """Batched :func:`~repro.trace.emulator.bank_conflict_degree`."""
    g = addrs.shape[0]
    srt, keep = _rowwise_unique(addrs // word, mask)
    rows = np.nonzero(keep)[0]
    banks = srt[keep] % n_banks
    counts = np.bincount(rows * n_banks + banks, minlength=g * n_banks)
    return counts.reshape(g, n_banks).max(axis=1)


def _addresses_2d(base, offset: int, mask: np.ndarray, warps,
                  pc: int) -> np.ndarray:
    """Batched :func:`~repro.trace.emulator._addresses` over ``warps``
    (an index array, or :data:`_ALL`)."""
    addrs, bad, base = lane_addresses(base, offset, mask)
    if bad.any():
        row, lane = np.argwhere(bad)[0].tolist()
        warp = row if warps is _ALL else int(warps[row])
        raise EmulatorError(
            _bad_address(warp, pc, lane, float(base[row, lane]), offset)
        )
    return addrs


def _producers(reg_idxs: Tuple[int, ...], row: List[int]) -> List[int]:
    """One warp's dependency slots: the distinct producers of
    ``reg_idxs`` in its writers ``row``, in source order, padded."""
    out = [NO_DEP] * MAX_DEPS
    n = 0
    for r in reg_idxs:
        producer = row[r]
        if producer >= 0 and producer not in out:
            out[n] = producer
            n += 1
    return out


class _Launch:
    """Mutable lockstep execution state of a whole kernel launch."""

    def __init__(
        self,
        kernel: Kernel,
        config: GPUConfig,
        memory: MemoryImage,
        max_warp_insts: int,
    ):
        n_warps = kernel.n_warps
        warp_size = config.warp_size
        self.n_regs = max(kernel.max_register + 1, 1)
        self.n_warps = n_warps
        self.memory = memory
        self.max_warp_insts = max_warp_insts
        self.program = kernel.program
        self.plans: List[Optional[_InstPlan]] = [None] * len(kernel.program)
        self.line_shift = config.line_size.bit_length() - 1
        self.smem_banks = config.smem_banks

        lanes = np.arange(warp_size, dtype=np.int64)
        warp_ids = np.arange(n_warps, dtype=np.int64)
        self.warp_ids = warp_ids
        tids = warp_ids[:, None] * warp_size + lanes[None, :]
        init_mask = tids < kernel.n_threads
        empty = ~init_mask.any(axis=1)
        if empty.any():
            raise EmulatorError(
                "warp %d has no threads" % int(np.flatnonzero(empty)[0])
            )
        self.block_ids = (warp_ids * warp_size) // kernel.block_size

        self.specials = {
            Special.TID: tids.astype(np.float64),
            Special.LANE: np.broadcast_to(
                lanes.astype(np.float64), (n_warps, warp_size)
            ),
            Special.WARP: np.broadcast_to(
                warp_ids.astype(np.float64)[:, None], (n_warps, warp_size)
            ),
            Special.CTAID: np.broadcast_to(
                self.block_ids.astype(np.float64)[:, None],
                (n_warps, warp_size),
            ),
            Special.NTID: np.full(
                (n_warps, warp_size), float(kernel.block_size)
            ),
        }

        self.regs = np.zeros(
            (n_warps, self.n_regs, warp_size), dtype=np.float64
        )
        self.writers = np.full((n_warps, self.n_regs), -1, dtype=np.int64)
        self.smem: List[Dict[int, float]] = [{} for _ in range(n_warps)]

        # Top-of-stack state, struct-of-arrays; suspended entries (the
        # part of each warp's SIMT stack below the TOS) stay per-warp.
        self.cur_pc = np.zeros(n_warps, dtype=np.int64)
        self.cur_mask = init_mask.copy()
        self.cur_reconv = np.full(n_warps, -1, dtype=np.int64)  # -1: none
        self.depths = np.ones(n_warps, dtype=np.int64)
        self.suspended: List[List[Tuple[int, np.ndarray, int]]] = [
            [] for _ in range(n_warps)
        ]
        self.finished = np.zeros(n_warps, dtype=bool)

        # Preallocated SoA trace columns, one row per warp.
        cap = 64
        self.cap = cap
        self.lengths = np.zeros(n_warps, dtype=np.int64)
        self.pcs2d = np.zeros((n_warps, cap), dtype=np.int32)
        self.ops2d = np.zeros((n_warps, cap), dtype=np.int8)
        self.deps2d = np.full((n_warps, cap, MAX_DEPS), NO_DEP, dtype=np.int32)
        self.active2d = np.zeros((n_warps, cap), dtype=np.int16)
        self.conflict2d = np.zeros((n_warps, cap), dtype=np.int16)
        self.reqcount2d = np.zeros((n_warps, cap), dtype=np.int64)
        # One (warps, pos, req_counts, req_flat) chunk per memory step.
        self.req_groups: List[Tuple[np.ndarray, ...]] = []

    # -- trace columns ------------------------------------------------------

    def grow(self) -> None:
        """Double the capacity of every warp's columns."""
        new_cap = self.cap * 2
        n_warps = self.n_warps

        def grow(arr, fill, extra_shape=()):
            out = np.full(
                (n_warps, new_cap) + extra_shape, fill, dtype=arr.dtype
            )
            out[:, : self.cap] = arr
            return out

        self.pcs2d = grow(self.pcs2d, 0)
        self.ops2d = grow(self.ops2d, 0)
        self.deps2d = grow(self.deps2d, NO_DEP, (MAX_DEPS,))
        self.active2d = grow(self.active2d, 0)
        self.conflict2d = grow(self.conflict2d, 0)
        self.reqcount2d = grow(self.reqcount2d, 0)
        self.cap = new_cap

    def append(
        self,
        warps,
        pos,
        pc: int,
        op_int: int,
        deps,
        n_active: np.ndarray,
        req_counts: Optional[np.ndarray] = None,
        req_flat: Optional[np.ndarray] = None,
        conflict: Optional[np.ndarray] = None,
    ) -> None:
        """Record one dynamic instruction for every warp of ``warps`` at
        trace position ``pos`` (per warp, or one for all while uniform);
        ``pos`` is the producer index later dependencies point at."""
        self.pcs2d[warps, pos] = pc
        self.ops2d[warps, pos] = op_int
        self.deps2d[warps, pos] = deps
        self.active2d[warps, pos] = n_active
        if conflict is not None:
            self.conflict2d[warps, pos] = conflict
        if req_counts is not None:
            self.reqcount2d[warps, pos] = req_counts
            rows = self.warp_ids if warps is _ALL else warps
            self.req_groups.append((
                rows, np.broadcast_to(pos, rows.shape), req_counts, req_flat,
            ))

    def build_traces(self, kernel: Kernel, config: GPUConfig) -> KernelTrace:
        """Gather the SoA buffers into the launch's warp-major columns."""
        lengths = self.lengths
        # Row-major order of the (warp, position) mask is warp-major.
        mask = np.arange(self.cap) < lengths[:, None]
        warp_offsets = np.zeros(self.n_warps + 1, dtype=np.int64)
        np.cumsum(lengths, out=warp_offsets[1:])
        req_offsets = np.zeros(int(warp_offsets[-1]) + 1, dtype=np.int64)
        np.cumsum(self.reqcount2d[mask], out=req_offsets[1:])
        req_lines = np.empty(int(req_offsets[-1]), dtype=np.int64)
        if self.req_groups:
            warps, pos, counts, flat = (
                np.concatenate(part) for part in zip(*self.req_groups)
            )
            # Instruction i's lines sit at flat[f_i : f_i + counts[i]]
            # and go to req_lines[s_i : s_i + counts[i]].
            shift = req_offsets[warp_offsets[warps] + pos] - (
                np.cumsum(counts) - counts
            )
            req_lines[np.repeat(shift, counts) + np.arange(len(flat))] = flat
        return KernelTrace(
            kernel.name,
            config.warp_size,
            config.line_size,
            kernel.n_blocks,
            pcs=self.pcs2d[mask],
            ops=self.ops2d[mask],
            deps=self.deps2d[mask],
            active=self.active2d[mask],
            conflict=self.conflict2d[mask],
            req_offsets=req_offsets,
            req_lines=req_lines,
            warp_offsets=warp_offsets,
            warp_ids=self.warp_ids,
            block_ids=self.block_ids,
        )

    # -- one instruction ----------------------------------------------------

    def plan(self, pc: int) -> _InstPlan:
        plan = self.plans[pc]
        if plan is None:
            plan = self.plans[pc] = _InstPlan(self.program[pc])
        return plan

    def fetch(self, operand, warps):
        if isinstance(operand, Reg):
            return self.regs[warps, operand.index]
        if isinstance(operand, Imm):
            return np.float64(operand.value)
        return self.specials[operand][warps]

    def lane_values(self, operand, warps, mask: np.ndarray) -> np.ndarray:
        """``operand`` per lane, as a float64 ``mask``-shaped block."""
        return np.broadcast_to(
            np.asarray(self.fetch(operand, warps), dtype=np.float64),
            mask.shape,
        )

    def execute(
        self, plan: _InstPlan, pc: int, warps, mask: np.ndarray,
        n_active: np.ndarray, deps, pos,
    ) -> None:
        """Run one memory, scratchpad or ALU instruction for ``warps``
        (an index array, or :data:`_ALL`) and append its rows at ``pos``;
        the caller records ``pos`` as the writer of ``plan.dst``."""
        inst = plan.inst
        kind = plan.kind
        values = None
        if kind in (_K_LD, _K_ST, _K_LDS, _K_STS):
            addrs = _addresses_2d(
                self.fetch(inst.srcs[0], warps), inst.offset, mask, warps, pc
            )
        if kind in (_K_LD, _K_ST):
            srt, keep = _rowwise_unique(addrs >> self.line_shift, mask)
            req_flat = srt[keep] << self.line_shift
            req_counts = keep.sum(axis=1)
            if kind == _K_LD:
                values = self.memory.read(addrs)
            else:
                self.memory.write(
                    addrs, self.lane_values(inst.srcs[1], warps, mask), mask
                )
            self.append(
                warps, pos, pc, plan.op_int, deps, n_active,
                req_counts=req_counts, req_flat=req_flat,
            )
        elif kind in (_K_LDS, _K_STS):
            degrees = _conflict_degrees(addrs, mask, self.smem_banks)
            # Scratchpads are per warp: one Python loop over the rows.
            rows = range(self.n_warps) if warps is _ALL else warps.tolist()
            if kind == _K_LDS:
                values = _hash_unit(addrs)
                for i, w in enumerate(rows):
                    overlay = self.smem[w]
                    if overlay:
                        row = values[i]
                        for j, addr in enumerate(addrs[i].tolist()):
                            hit = overlay.get(addr)
                            if hit is not None:
                                row[j] = hit
            else:
                data = self.lane_values(inst.srcs[1], warps, mask)
                for i, w in enumerate(rows):
                    overlay = self.smem[w]
                    for addr, value, on in zip(
                        addrs[i].tolist(), data[i].tolist(), mask[i].tolist()
                    ):
                        if on:
                            overlay[addr] = value
            self.append(
                warps, pos, pc, plan.op_int, deps, n_active,
                conflict=degrees,
            )
        else:  # ALU / SETP
            if kind == _K_SETP:
                a = self.fetch(inst.srcs[0], warps)
                b = self.fetch(inst.srcs[1], warps)
                values = plan.alu_fn(a, b).astype(np.float64)
            else:
                values = plan.alu_fn(
                    *(self.fetch(s, warps) for s in inst.srcs)
                )
            values = np.asarray(values, dtype=np.float64)
            self.append(warps, pos, pc, plan.op_int, deps, n_active)
        if values is not None:
            dst = plan.dst
            if warps is _ALL:
                np.copyto(self.regs[:, dst], values, where=mask)
            else:
                self.regs[warps, dst] = np.where(
                    mask, values, self.regs[warps, dst]
                )

    def branch(
        self, pc: int, inst: Instruction, warps: np.ndarray,
        mask: np.ndarray, taken: np.ndarray,
    ) -> None:
        """Move ``warps`` (all at ``pc``) past a conditional branch,
        pushing a reconvergence entry for each warp whose lanes split."""
        cur_pc, cur_mask = self.cur_pc, self.cur_mask
        not_taken = mask & ~taken
        any_taken = taken.any(axis=1)
        any_nt = not_taken.any(axis=1)
        uniform_nt = ~any_taken
        uniform_t = any_taken & ~any_nt
        divergent = any_taken & any_nt
        if uniform_nt.any():
            cur_pc[warps[uniform_nt]] += 1
        if uniform_t.any():
            cur_pc[warps[uniform_t]] = inst.target
        if divergent.any():
            reconv = inst.reconv
            if reconv is None:
                raise SimtStackError(
                    "divergent branch without a reconvergence pc"
                )
            for i in np.flatnonzero(divergent).tolist():
                w = int(warps[i])
                # TOS becomes the join entry; taken side is suspended;
                # fall-through executes first.
                self.suspended[w].append(
                    (reconv, cur_mask[w].copy(), int(self.cur_reconv[w]))
                )
                self.suspended[w].append(
                    (inst.target, taken[i].copy(), reconv)
                )
                cur_pc[w] = pc + 1
                cur_mask[w] = not_taken[i]
                self.cur_reconv[w] = reconv
                self.depths[w] += 2

    # -- the two modes ------------------------------------------------------

    def _runaway(self, warp: int) -> EmulatorError:
        return EmulatorError(
            "warp %d exceeded %d dynamic instructions (runaway loop?)"
            % (warp, self.max_warp_insts)
        )

    def run_uniform(self) -> bool:
        """Step every warp at once while all share one history.

        Returns True once every warp has exited, or False after the
        first branch whose direction differs between warps or within a
        warp; the launch state is then synced for :meth:`run_grouped`.
        """
        if not self.n_warps:
            return True
        mask = self.cur_mask  # every warp's initial mask, never split here
        n_active = mask.sum(axis=1)
        row = [-1] * self.n_regs  # every warp's writers row
        n_prog = len(self.program)
        pc = length = 0
        while True:
            if length > self.max_warp_insts:
                raise self._runaway(0)
            if pc >= n_prog:
                raise EmulatorError(
                    "warp 0 fell off the end of the program"
                )
            if length == self.cap:
                self.grow()
            plan = self.plan(pc)
            kind = plan.kind
            deps = _producers(plan.dep_regs, row)
            if kind in (_K_EXIT, _K_BAR, _K_BRA):
                self.append(_ALL, length, pc, plan.op_int, deps, n_active)
                length += 1
                if kind == _K_EXIT:
                    self.finished[:] = True
                    self._sync(pc, length, row)
                    return True
                inst = plan.inst
                if kind == _K_BAR:
                    pc += 1
                elif inst.pred is None:
                    pc = inst.target
                else:
                    taken = (self.regs[:, inst.pred.index] != 0) & mask
                    if not taken.any():
                        pc += 1
                    elif (taken == mask).all():
                        pc = inst.target
                    else:
                        self._sync(pc, length, row)
                        self.branch(pc, inst, self.warp_ids, mask, taken)
                        return False
                continue
            self.execute(plan, pc, _ALL, mask, n_active, deps, length)
            if plan.dst >= 0:
                row[plan.dst] = length
            length += 1
            pc += 1

    def _sync(self, pc: int, length: int, row: List[int]) -> None:
        """Write uniform mode's shared scalars into the per-warp state."""
        self.cur_pc[:] = pc
        self.lengths[:] = length
        self.writers[:] = row

    def run_grouped(self) -> None:
        """Step live warps grouped by top-of-stack PC until all exit."""
        cur_pc = self.cur_pc
        cur_reconv = self.cur_reconv
        cur_mask = self.cur_mask
        depths = self.depths
        finished = self.finished
        suspended = self.suspended
        writers = self.writers
        lengths = self.lengths
        n_prog = len(self.program)

        while True:
            alive = ~finished
            if not alive.any():
                return

            over = alive & (lengths > self.max_warp_insts)
            if over.any():
                raise self._runaway(int(np.flatnonzero(over)[0]))

            # Pop reconverged TOS entries (cascading, like the scalar
            # loop).
            while True:
                pend = np.flatnonzero(
                    alive & (cur_reconv >= 0) & (cur_pc == cur_reconv)
                )
                if not pend.size:
                    break
                for w in pend.tolist():
                    pc, mask_w, reconv = suspended[w].pop()
                    cur_pc[w] = pc
                    cur_mask[w] = mask_w
                    cur_reconv[w] = reconv
                    depths[w] -= 1

            off = alive & (cur_pc >= n_prog)
            if off.any():
                raise EmulatorError(
                    "warp %d fell off the end of the program"
                    % int(np.flatnonzero(off)[0])
                )

            if int(lengths.max(initial=0)) >= self.cap:
                self.grow()

            # Group live warps by top-of-stack PC; execute groups in
            # ascending PC order (deterministic shared-memory-image
            # order).
            alive_idx = np.flatnonzero(alive)
            pcs_alive = cur_pc[alive_idx]
            first_pc = pcs_alive[0]
            if (pcs_alive == first_pc).all():  # common case: lockstep
                groups = [(int(first_pc), alive_idx)]
            else:
                order = np.argsort(pcs_alive, kind="stable")
                sorted_w = alive_idx[order]
                sorted_pc = pcs_alive[order]
                bounds = np.flatnonzero(np.diff(sorted_pc)) + 1
                starts = [0] + bounds.tolist() + [len(sorted_w)]
                groups = [
                    (int(sorted_pc[starts[i]]),
                     sorted_w[starts[i]: starts[i + 1]])
                    for i in range(len(starts) - 1)
                ]

            for pc, warps in groups:
                plan = self.plan(pc)
                inst = plan.inst
                kind = plan.kind
                mask = cur_mask[warps]
                n_active = mask.sum(axis=1)
                pos = lengths[warps]
                deps = self.deps_group(warps, plan.dep_regs)

                if kind in (_K_EXIT, _K_BAR):
                    deep = depths[warps] != 1
                    if deep.any():
                        raise EmulatorError(
                            (_EXIT_DIVERGED if kind == _K_EXIT
                             else _BARRIER_DIVERGED)
                            % int(depths[warps][deep][0])
                        )
                    self.append(warps, pos, pc, plan.op_int, deps, n_active)
                    if kind == _K_EXIT:
                        finished[warps] = True
                    else:
                        cur_pc[warps] += 1
                elif kind == _K_BRA:
                    self.append(warps, pos, pc, plan.op_int, deps, n_active)
                    if inst.pred is None:
                        cur_pc[warps] = inst.target
                    else:
                        taken = (
                            self.regs[warps, inst.pred.index] != 0
                        ) & mask
                        self.branch(pc, inst, warps, mask, taken)
                else:
                    self.execute(plan, pc, warps, mask, n_active, deps, pos)
                    if plan.dst >= 0:
                        writers[warps, plan.dst] = pos
                    cur_pc[warps] += 1
                lengths[warps] = pos + 1

    def deps_group(
        self, warps: np.ndarray, reg_idxs: Tuple[int, ...]
    ) -> np.ndarray:
        """Each warp's dependency slots (see :func:`_producers`)."""
        g = warps.shape[0]
        out = np.full((g, MAX_DEPS), NO_DEP, dtype=np.int32)
        if not reg_idxs:
            return out
        rows = np.arange(g)
        pos = np.zeros(g, dtype=np.int64)
        seen: List[np.ndarray] = []
        for r in reg_idxs:
            producer = self.writers[warps, r]
            valid = producer >= 0
            for prev in seen:
                valid &= producer != prev
            seen.append(producer)
            out[rows[valid], pos[valid]] = producer[valid]
            pos += valid
        return out


def emulate_vectorized(
    kernel: Kernel,
    config: GPUConfig,
    memory: MemoryImage,
    max_warp_insts: int,
) -> KernelTrace:
    """Lockstep-vectorized counterpart of scalar ``emulate``."""
    launch = _Launch(kernel, config, memory, max_warp_insts)
    if not launch.run_uniform():
        launch.run_grouped()
    return launch.build_traces(kernel, config)
