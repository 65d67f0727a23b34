"""Warp-level functional SIMT emulator (the input collector's front half).

Executes a kernel warp by warp, vectorising over the 32 lanes with numpy.
For every dynamic instruction it records a trace row: static PC, operation
class, the trace indices of its producers (dependencies), the active-lane
count, and — for loads/stores — the coalesced cache-line requests.

Design notes
------------
* Registers are a single ``(n_regs, warp_size)`` float64 bank; integer
  opcodes round-trip through int64.  float64 represents integers exactly
  up to 2**53, far beyond any address or counter the workloads use.
* Dependencies are resolved here (register → last-writer trace index) so
  downstream consumers never need a register model: the interval
  algorithm (Eq. 4) and the timing oracle both operate on producer
  indices directly.
* Stores record a dependency on their address/value producers but expose
  no destination, so nothing ever waits on a store — matching the paper's
  observation that stores are not on the critical path.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional

import numpy as np

from repro.config import GPUConfig
from repro.isa.instructions import CmpOp, Imm, Instruction, Reg, Special
from repro.isa.kernel import Kernel
from repro.trace.coalescer import coalesce
from repro.trace.memory_image import MemoryImage
from repro.trace.reconvergence import InterleavedStack
from repro.trace.simt_stack import SimtStack
from repro.trace.trace_types import KernelTrace, OpCode, WarpTraceBuilder


class EmulatorError(RuntimeError):
    """Raised when a kernel cannot be executed functionally."""


_EXP_CLIP = 60.0  # keep fexp finite
_EPS = 1e-12


def _binary_int(fn: Callable) -> Callable:
    def op(a: np.ndarray, b: np.ndarray) -> np.ndarray:
        return fn(a.astype(np.int64), b.astype(np.int64)).astype(np.float64)

    return op


def _safe_idiv(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    return np.where(b == 0, 0, a // np.where(b == 0, 1, b))


def _safe_imod(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    return np.where(b == 0, 0, a % np.where(b == 0, 1, b))


_ALU_OPS: Dict[str, Callable] = {
    "mov": lambda a: a,
    "iadd": _binary_int(np.add),
    "isub": _binary_int(np.subtract),
    "imul": _binary_int(np.multiply),
    "idiv": _binary_int(_safe_idiv),
    "imod": _binary_int(_safe_imod),
    "iand": _binary_int(np.bitwise_and),
    "ior": _binary_int(np.bitwise_or),
    "ishl": _binary_int(lambda a, b: a << np.clip(b, 0, 62)),
    "ishr": _binary_int(lambda a, b: a >> np.clip(b, 0, 62)),
    "imin": _binary_int(np.minimum),
    "imax": _binary_int(np.maximum),
    "fadd": np.add,
    "fsub": np.subtract,
    "fmul": np.multiply,
    "ffma": lambda a, b, c: a * b + c,
    "fmin": np.minimum,
    "fmax": np.maximum,
    "fneg": np.negative,
    "fabs": np.abs,
    "frcp": lambda a: 1.0 / np.where(np.abs(a) < _EPS, _EPS, a),
    "fsqrt": lambda a: np.sqrt(np.abs(a)),
    "frsqrt": lambda a: 1.0 / np.sqrt(np.maximum(np.abs(a), _EPS)),
    "fexp": lambda a: np.exp(np.clip(a, -_EXP_CLIP, _EXP_CLIP)),
    "flog": lambda a: np.log(np.maximum(np.abs(a), _EPS)),
    "fsin": np.sin,
}

_CMP_OPS: Dict[CmpOp, Callable] = {
    CmpOp.LT: np.less,
    CmpOp.LE: np.less_equal,
    CmpOp.GT: np.greater,
    CmpOp.GE: np.greater_equal,
    CmpOp.EQ: np.equal,
    CmpOp.NE: np.not_equal,
}


class _WarpContext:
    """Execution state of one warp."""

    def __init__(
        self,
        kernel: Kernel,
        warp_id: int,
        warp_size: int,
        n_regs: int,
        stack_factory: Callable,
    ):
        self.warp_id = warp_id
        base_thread = warp_id * warp_size
        lanes = np.arange(warp_size, dtype=np.int64)
        tids = base_thread + lanes
        active = tids < kernel.n_threads
        if not active.any():
            raise EmulatorError("warp %d has no threads" % warp_id)
        # The divergence structure: the classic SIMT stack, or ITS-style
        # interleaving under arch="subcore".
        self.stack = stack_factory(active)
        self.regs = np.zeros((max(n_regs, 1), warp_size), dtype=np.float64)
        self.writers = np.full(max(n_regs, 1), -1, dtype=np.int64)
        block_id = base_thread // kernel.block_size
        # Functional scratchpad contents (warp-local view; shared-memory
        # *timing* is what the model cares about, values only need to
        # support a warp reading back its own staging writes).
        self.smem: Dict[int, float] = {}
        self.specials = {
            Special.TID: tids.astype(np.float64),
            Special.LANE: lanes.astype(np.float64),
            Special.WARP: np.full(warp_size, float(warp_id)),
            Special.CTAID: np.full(warp_size, float(block_id)),
            Special.NTID: np.full(warp_size, float(kernel.block_size)),
        }
        self.block_id = int(block_id)
        self.builder = WarpTraceBuilder(warp_id, self.block_id)


def emulate(
    kernel: Kernel,
    config: Optional[GPUConfig] = None,
    memory: Optional[MemoryImage] = None,
    max_warp_insts: int = 2_000_000,
) -> KernelTrace:
    """Functionally execute ``kernel`` and return its per-warp traces.

    Parameters
    ----------
    kernel:
        The program plus launch geometry.
    config:
        Machine description; only ``warp_size`` and ``line_size`` matter
        here (coalescing granularity).  Defaults to :class:`GPUConfig`.
    memory:
        Synthetic memory contents; defaults to the hash-valued image.
    max_warp_insts:
        Safety bound on dynamic instructions per warp (runaway loops).

    ``config.arch`` picks the divergence structure: stack reconvergence
    for ``gpumech2014``, ITS-style interleaving
    (:class:`~repro.trace.reconvergence.InterleavedStack`) for
    ``subcore``.  For stack traces the batched lockstep backend
    (:mod:`repro.trace.emulator_vec`) runs by default and produces
    bitwise-identical traces; ``REPRO_SCALAR=1`` forces this module's
    per-warp reference loop.  ``subcore`` always runs the per-warp loop
    (lockstep batching assumes the stack), so the compute backend is
    trivially result-invariant there.
    """
    from repro.backend import use_scalar

    config = config if config is not None else GPUConfig()
    memory = memory if memory is not None else MemoryImage()
    interleaved = config.arch == "subcore"
    if not interleaved and not use_scalar():
        from repro.trace.emulator_vec import emulate_vectorized

        return emulate_vectorized(kernel, config, memory, max_warp_insts)
    stack_factory = InterleavedStack if interleaved else SimtStack
    n_regs = kernel.max_register + 1
    warps = []
    for warp_id in range(kernel.n_warps):
        ctx = _WarpContext(
            kernel, warp_id, config.warp_size, n_regs, stack_factory
        )
        _run_warp(kernel, ctx, config, memory, max_warp_insts)
        warps.append(ctx.builder.build())
    return KernelTrace.from_warps(
        kernel.name, config.warp_size, config.line_size, kernel.n_blocks,
        warps,
    )


def _run_warp(
    kernel: Kernel,
    ctx: _WarpContext,
    config: GPUConfig,
    memory: MemoryImage,
    max_warp_insts: int,
) -> None:
    program = kernel.program
    stack = ctx.stack
    regs = ctx.regs
    writers = ctx.writers
    builder = ctx.builder
    specials = ctx.specials

    def fetch(operand) -> np.ndarray:
        if isinstance(operand, Reg):
            return regs[operand.index]
        if isinstance(operand, Imm):
            return np.float64(operand.value)
        return specials[operand]

    def deps_of(inst: Instruction) -> List[int]:
        seen: List[int] = []
        for reg in inst.source_registers:
            producer = int(writers[reg.index])
            if producer >= 0 and producer not in seen:
                seen.append(producer)
        return seen

    while True:
        if len(builder) > max_warp_insts:
            raise EmulatorError(
                "warp %d exceeded %d dynamic instructions (runaway loop?)"
                % (ctx.warp_id, max_warp_insts)
            )
        if stack.pop_reconverged():
            continue
        entry = stack.top
        pc = entry.pc
        if pc >= len(program):
            raise EmulatorError(
                "warp %d fell off the end of the program" % ctx.warp_id
            )
        inst = program[pc]
        mask = entry.mask
        opcode = inst.opcode

        if opcode == "exit":
            if stack.depth != 1:
                raise EmulatorError(
                    "exit reached under divergence (stack depth %d); kernels "
                    "must reconverge before exiting" % stack.depth
                )
            builder.append(pc, OpCode.EXIT, (), entry.n_active)
            return

        if opcode == "bar":
            if stack.depth != 1:
                raise EmulatorError(
                    "barrier reached under divergence (stack depth %d)"
                    % stack.depth
                )
            builder.append(pc, OpCode.BARRIER, (), entry.n_active)
            stack.advance()
            continue

        if opcode == "bra":
            builder.append(pc, OpCode.BRANCH, deps_of(inst), entry.n_active)
            if inst.pred is None:
                stack.jump(inst.target)
            else:
                taken = (regs[inst.pred.index] != 0) & mask
                stack.branch(taken, inst.target, inst.reconv)
            continue

        if opcode == "ld":
            addrs = _addresses(
                fetch(inst.srcs[0]), inst.offset, mask, ctx.warp_id, pc
            )
            lines = coalesce(addrs[mask], config.line_size)
            values = memory.read(addrs)
            index = builder.append(
                pc, OpCode.LOAD, deps_of(inst), entry.n_active, lines
            )
            regs[inst.dst.index][mask] = values[mask]
            writers[inst.dst.index] = index
            stack.advance()
            continue

        if opcode == "st":
            addrs = _addresses(
                fetch(inst.srcs[0]), inst.offset, mask, ctx.warp_id, pc
            )
            lines = coalesce(addrs[mask], config.line_size)
            values = np.broadcast_to(
                np.asarray(fetch(inst.srcs[1]), dtype=np.float64),
                (config.warp_size,),
            )
            memory.write(addrs, values, mask)
            builder.append(pc, OpCode.STORE, deps_of(inst), entry.n_active, lines)
            stack.advance()
            continue

        if opcode == "lds":
            addrs = _addresses(
                fetch(inst.srcs[0]), inst.offset, mask, ctx.warp_id, pc
            )
            degree = bank_conflict_degree(addrs, mask, config.smem_banks)
            values = _smem_read(ctx.smem, addrs)
            index = builder.append(
                pc, OpCode.SMEM_LOAD, deps_of(inst), entry.n_active,
                conflict=degree,
            )
            regs[inst.dst.index][mask] = values[mask]
            writers[inst.dst.index] = index
            stack.advance()
            continue

        if opcode == "sts":
            addrs = _addresses(
                fetch(inst.srcs[0]), inst.offset, mask, ctx.warp_id, pc
            )
            degree = bank_conflict_degree(addrs, mask, config.smem_banks)
            values = np.broadcast_to(
                np.asarray(fetch(inst.srcs[1]), dtype=np.float64),
                (config.warp_size,),
            )
            for addr, value, on in zip(
                addrs.tolist(), values.tolist(), mask.tolist()
            ):
                if on:
                    ctx.smem[addr] = value
            builder.append(
                pc, OpCode.SMEM_STORE, deps_of(inst), entry.n_active,
                conflict=degree,
            )
            stack.advance()
            continue

        if opcode == "setp":
            a, b = (fetch(s) for s in inst.srcs)
            result = _CMP_OPS[inst.cmp_op](a, b).astype(np.float64)
        else:
            result = _ALU_OPS[opcode](*(fetch(s) for s in inst.srcs))
        result = np.broadcast_to(
            np.asarray(result, dtype=np.float64), (config.warp_size,)
        )
        index = builder.append(
            pc, OpCode(_opcode_code(inst)), deps_of(inst), entry.n_active
        )
        regs[inst.dst.index][mask] = result[mask]
        writers[inst.dst.index] = index
        stack.advance()


def bank_conflict_degree(
    addresses: np.ndarray, mask: np.ndarray, n_banks: int, word: int = 4
) -> int:
    """Serialised accesses of a shared-memory instruction.

    Lanes mapping to the same bank but *different words* serialise;
    lanes reading the same word broadcast (count once).  The degree is
    the maximum number of distinct words any bank must serve: 1 means
    conflict-free, ``warp_size`` is the worst case.
    """
    active = np.asarray(addresses, dtype=np.int64)[np.asarray(mask, dtype=bool)]
    if len(active) == 0:
        return 0
    words = np.unique(active // word)  # broadcast: same word counts once
    banks = words % n_banks
    _, counts = np.unique(banks, return_counts=True)
    return int(counts.max())


def _addresses(
    base: np.ndarray, offset: int, mask: np.ndarray, warp_id: int, pc: int
) -> np.ndarray:
    """Per-lane byte addresses; inactive lanes pinned to a safe address.

    An active lane whose base is not finite or whose address is negative
    raises :class:`EmulatorError` rather than touching some other byte.
    """
    addrs, bad, base = lane_addresses(base, offset, mask)
    if bad.any():
        lane = int(np.flatnonzero(bad)[0])
        raise EmulatorError(
            _bad_address(warp_id, pc, lane, float(base[lane]), offset)
        )
    return addrs


def lane_addresses(base, offset: int, mask: np.ndarray):
    """``(addrs, bad, base)`` for lanes shaped like ``mask``: the int64
    byte addresses ``base + offset`` (0 on inactive lanes), the active
    lanes with a non-finite base or a negative address, and ``base`` as
    a float64 block."""
    base = np.broadcast_to(np.asarray(base, dtype=np.float64), mask.shape)
    finite = np.isfinite(base)
    # Casting a non-finite float to int64 gives an arbitrary integer.
    whole = base if finite.all() else np.where(finite, base, 0.0)
    addrs = whole.astype(np.int64) + offset
    bad = (addrs < 0) | ~finite
    bad &= mask
    return np.where(mask, addrs, 0), bad, base


def _bad_address(warp: int, pc: int, lane: int, base: float,
                 offset: int) -> str:
    """Message for an active lane with no usable byte address."""
    return (
        "warp %d, pc %d, lane %d: base %r + offset %d is not a byte address"
        % (warp, pc, lane, base, offset)
    )


def _smem_read(smem: Dict[int, float], addrs: np.ndarray) -> np.ndarray:
    """Read the warp-local scratchpad; unwritten words hash like DRAM."""
    from repro.trace.memory_image import _hash_unit

    values = _hash_unit(np.asarray(addrs, dtype=np.int64))
    if smem:
        out = values.copy()
        for i, addr in enumerate(addrs.tolist()):
            hit = smem.get(addr)
            if hit is not None:
                out[i] = hit
        return out
    return values


def _opcode_code(inst: Instruction) -> int:
    cls = inst.opclass.value
    if cls == "ialu":
        return OpCode.IALU
    if cls == "falu":
        return OpCode.FALU
    if cls == "sfu":
        return OpCode.SFU
    raise EmulatorError("unexpected opcode class %r" % cls)
