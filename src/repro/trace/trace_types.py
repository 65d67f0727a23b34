"""Trace containers: the artifact the input collector produces.

A :class:`WarpTrace` is a column-oriented record of one warp's dynamic
instruction stream: static PC, operation class, up to three producer
indices (dependencies *within* the same warp trace, resolved from register
names at emulation time), the active-lane count, and the coalesced memory
request line addresses for loads/stores.

Column orientation (parallel numpy arrays rather than objects) keeps the
memory footprint small enough to trace whole kernels and makes the
interval algorithm and the timing simulator cache-friendly.  A
:class:`KernelTrace` stores the whole launch once, as warp-major columns
with per-warp offsets; its per-warp :class:`WarpTrace` objects are views
into those columns, built only for the consumers that walk one warp at a
time (the scalar reference loops, ``xcheck``, ``characterize``).
"""

from __future__ import annotations

import enum
from collections.abc import Sequence
from dataclasses import dataclass
from functools import cached_property
from typing import List, Optional

import numpy as np


class OpCode(enum.IntEnum):
    """Compact operation-class codes stored in trace columns."""

    IALU = 0
    FALU = 1
    SFU = 2
    LOAD = 3
    STORE = 4
    BRANCH = 5
    EXIT = 6
    SMEM_LOAD = 7  # software-managed (shared) memory
    SMEM_STORE = 8
    BARRIER = 9  # block-level __syncthreads()

    @property
    def is_memory(self) -> bool:
        """Whether this op accesses the global-memory hierarchy."""
        return self in (OpCode.LOAD, OpCode.STORE)

    @property
    def is_shared_memory(self) -> bool:
        """Whether this op accesses the software-managed scratchpad."""
        return self in (OpCode.SMEM_LOAD, OpCode.SMEM_STORE)

    @property
    def latency_class(self) -> str:
        """Latency-table key for non-memory operations."""
        if self in (OpCode.IALU, OpCode.BRANCH, OpCode.EXIT,
                    OpCode.BARRIER):
            return "ialu"
        if self is OpCode.FALU:
            return "falu"
        if self is OpCode.SFU:
            return "sfu"
        raise ValueError("%s is priced by the memory hierarchy" % self)


#: Maximum producer (dependency) slots recorded per dynamic instruction.
MAX_DEPS = 3

#: Sentinel for "no producer" in dependency columns.
NO_DEP = -1


@dataclass
class WarpTrace:
    """The dynamic instruction trace of a single warp.

    All arrays share the same length ``n`` (dynamic instruction count).
    Taken from :attr:`KernelTrace.warps`, a WarpTrace is a view: its
    arrays slice the launch columns, except ``req_offsets``, which is
    rebased to start at 0.

    Attributes
    ----------
    warp_id:
        Global warp index within the launch.
    block_id:
        Thread block this warp belongs to (unit of core assignment).
    pcs:
        Static instruction index per dynamic instruction.
    ops:
        :class:`OpCode` values (int8).
    deps:
        ``(n, MAX_DEPS)`` int32 array of producer indices into this same
        trace (``NO_DEP`` padding).  A dynamic instruction may issue only
        after all its producers have completed.
    active:
        Active-lane count per dynamic instruction (int16).
    req_offsets:
        ``(n + 1,)`` int64 prefix array into :attr:`req_lines`; dynamic
        instruction ``k`` issued ``req_offsets[k+1] - req_offsets[k]``
        coalesced memory requests.
    req_lines:
        Flat int64 array of cache-line base addresses, one per request.
    conflict:
        Shared-memory bank-conflict degree per dynamic instruction
        (int16): 0 for non-scratchpad instructions, otherwise the number
        of serialised bank accesses (1 = conflict-free).
    """

    warp_id: int
    block_id: int
    pcs: np.ndarray
    ops: np.ndarray
    deps: np.ndarray
    active: np.ndarray
    req_offsets: np.ndarray
    req_lines: np.ndarray
    conflict: np.ndarray = None

    def __post_init__(self) -> None:
        n = len(self.pcs)
        if self.conflict is None:
            self.conflict = np.zeros(n, dtype=np.int16)
        if len(self.conflict) != n:
            raise ValueError("conflict column length mismatch")
        if not (
            len(self.ops) == n
            and self.deps.shape == (n, MAX_DEPS)
            and len(self.active) == n
            and len(self.req_offsets) == n + 1
        ):
            raise ValueError("inconsistent trace column lengths")
        if n and self.req_offsets[-1] != len(self.req_lines):
            raise ValueError("request offsets do not cover req_lines")

    def __len__(self) -> int:
        return len(self.pcs)

    @property
    def n_insts(self) -> int:
        """Dynamic instruction count of this warp."""
        return len(self.pcs)

    def n_requests(self, index: int) -> int:
        """Number of coalesced memory requests of dynamic instruction."""
        return int(self.req_offsets[index + 1] - self.req_offsets[index])

    def requests(self, index: int) -> np.ndarray:
        """Cache-line base addresses requested by dynamic instruction."""
        return self.req_lines[self.req_offsets[index]: self.req_offsets[index + 1]]

    @property
    def is_load(self) -> np.ndarray:
        """Boolean mask of load instructions."""
        return self.ops == OpCode.LOAD

    @property
    def is_store(self) -> np.ndarray:
        """Boolean mask of store instructions."""
        return self.ops == OpCode.STORE

    @property
    def is_memory(self) -> np.ndarray:
        """Boolean mask of memory instructions."""
        return (self.ops == OpCode.LOAD) | (self.ops == OpCode.STORE)

    @property
    def is_shared_memory(self) -> np.ndarray:
        """Boolean mask of scratchpad instructions."""
        return (self.ops == OpCode.SMEM_LOAD) | (self.ops == OpCode.SMEM_STORE)

    @property
    def requests_per_inst(self) -> np.ndarray:
        """Vector of request counts (0 for non-memory instructions)."""
        return np.diff(self.req_offsets)


class WarpTraceBuilder:
    """Accumulates one warp's trace row by row, then freezes to arrays."""

    def __init__(self, warp_id: int, block_id: int):
        self.warp_id = warp_id
        self.block_id = block_id
        self._pcs: List[int] = []
        self._ops: List[int] = []
        self._deps: List[Sequence[int]] = []
        self._active: List[int] = []
        self._req_counts: List[int] = []
        self._req_lines: List[int] = []
        self._conflict: List[int] = []

    def append(
        self,
        pc: int,
        op: OpCode,
        deps: Sequence[int],
        active: int,
        request_lines: Sequence[int] = (),
        conflict: int = 0,
    ) -> int:
        """Record one dynamic instruction; returns its trace index."""
        index = len(self._pcs)
        self._pcs.append(pc)
        self._ops.append(int(op))
        padded = list(deps)[:MAX_DEPS]
        padded.extend([NO_DEP] * (MAX_DEPS - len(padded)))
        self._deps.append(padded)
        self._active.append(active)
        self._req_counts.append(len(request_lines))
        self._req_lines.extend(int(r) for r in request_lines)
        self._conflict.append(conflict)
        return index

    def __len__(self) -> int:
        return len(self._pcs)

    def build(self) -> WarpTrace:
        """Freeze the accumulated rows into an immutable WarpTrace."""
        n = len(self._pcs)
        offsets = np.zeros(n + 1, dtype=np.int64)
        if n:
            np.cumsum(self._req_counts, out=offsets[1:])
        return WarpTrace(
            warp_id=self.warp_id,
            block_id=self.block_id,
            pcs=np.asarray(self._pcs, dtype=np.int32),
            ops=np.asarray(self._ops, dtype=np.int8),
            deps=np.asarray(self._deps, dtype=np.int32).reshape(n, MAX_DEPS),
            active=np.asarray(self._active, dtype=np.int16),
            req_offsets=offsets,
            req_lines=np.asarray(self._req_lines, dtype=np.int64),
            conflict=np.asarray(self._conflict, dtype=np.int16),
        )


#: Canonical dtype of every per-instruction trace column (the dtypes
#: ``WarpTraceBuilder.build`` produces).  ``deps`` is additionally
#: shaped ``(n, MAX_DEPS)``.
COLUMN_DTYPES = {
    "pcs": np.dtype(np.int32),
    "ops": np.dtype(np.int8),
    "deps": np.dtype(np.int32),
    "active": np.dtype(np.int16),
    "req_offsets": np.dtype(np.int64),
    "req_lines": np.dtype(np.int64),
    "conflict": np.dtype(np.int16),
}


class KernelTrace:
    """All warp traces of one kernel launch, as warp-major columns.

    The instruction columns (``pcs``, ``ops``, ``deps``, ``active``,
    ``conflict``) hold all ``N`` dynamic instructions of the launch,
    warp after warp: warp ``i`` owns rows
    ``warp_offsets[i]:warp_offsets[i + 1]``.  Producer indices in
    ``deps`` stay warp-local.  ``req_offsets`` (``N + 1``, launch-wide)
    indexes the flat ``req_lines``; ``warp_ids`` and ``block_ids`` hold
    one entry per warp.

    :attr:`warps` yields each warp as a :class:`WarpTrace` view into
    these columns, made on first access and reused after.  Only the
    columns pickle, so a stored trace never carries copies of its views.
    """

    #: The array attributes, in constructor order.
    COLUMNS = (
        "pcs", "ops", "deps", "active", "conflict",
        "req_offsets", "req_lines", "warp_offsets", "warp_ids", "block_ids",
    )

    def __init__(
        self,
        kernel_name: str,
        warp_size: int,
        line_size: int,
        n_blocks: int,
        pcs: np.ndarray,
        ops: np.ndarray,
        deps: np.ndarray,
        active: np.ndarray,
        conflict: np.ndarray,
        req_offsets: np.ndarray,
        req_lines: np.ndarray,
        warp_offsets: np.ndarray,
        warp_ids: np.ndarray,
        block_ids: np.ndarray,
    ):
        self.kernel_name = kernel_name
        self.warp_size = warp_size
        self.line_size = line_size
        self.n_blocks = n_blocks
        self.pcs = np.asarray(pcs, dtype=COLUMN_DTYPES["pcs"])
        self.ops = np.asarray(ops, dtype=COLUMN_DTYPES["ops"])
        self.deps = np.asarray(deps, dtype=COLUMN_DTYPES["deps"])
        self.active = np.asarray(active, dtype=COLUMN_DTYPES["active"])
        self.conflict = np.asarray(conflict, dtype=COLUMN_DTYPES["conflict"])
        self.req_offsets = np.asarray(req_offsets, dtype=np.int64)
        self.req_lines = np.asarray(req_lines, dtype=np.int64)
        self.warp_offsets = np.asarray(warp_offsets, dtype=np.int64)
        self.warp_ids = np.asarray(warp_ids, dtype=np.int64)
        self.block_ids = np.asarray(block_ids, dtype=np.int64)
        n_warps = len(self.warp_offsets) - 1
        n = int(self.warp_offsets[-1])
        if not (
            len(self.pcs) == len(self.ops) == len(self.active)
            == len(self.conflict) == n
            and self.deps.shape == (n, MAX_DEPS)
            and len(self.req_offsets) == n + 1
            and len(self.warp_ids) == len(self.block_ids) == n_warps
        ):
            raise ValueError("inconsistent trace column lengths")
        if self.req_offsets[-1] != len(self.req_lines):
            raise ValueError("request offsets do not cover req_lines")
        self._views: List[Optional[WarpTrace]] = [None] * n_warps

    @classmethod
    def from_warps(
        cls,
        kernel_name: str,
        warp_size: int,
        line_size: int,
        n_blocks: int,
        warps: Sequence[WarpTrace],
    ) -> "KernelTrace":
        """Pack per-warp traces, in launch order, into columns."""
        warps = list(warps)

        def column(name: str) -> np.ndarray:
            dtype = COLUMN_DTYPES[name]
            if not warps:
                shape = (0, MAX_DEPS) if name == "deps" else (0,)
                return np.empty(shape, dtype=dtype)
            return np.concatenate(
                [getattr(w, name) for w in warps]
            ).astype(dtype, copy=False)

        warp_offsets = np.zeros(len(warps) + 1, dtype=np.int64)
        np.cumsum([len(w) for w in warps], out=warp_offsets[1:])
        line_starts = np.zeros(len(warps) + 1, dtype=np.int64)
        np.cumsum([len(w.req_lines) for w in warps], out=line_starts[1:])
        req_offsets = np.concatenate(
            [w.req_offsets[:-1] + base for w, base in zip(warps, line_starts)]
            + [line_starts[-1:]]
        )
        return cls(
            kernel_name, warp_size, line_size, n_blocks,
            pcs=column("pcs"),
            ops=column("ops"),
            deps=column("deps"),
            active=column("active"),
            conflict=column("conflict"),
            req_offsets=req_offsets,
            req_lines=column("req_lines"),
            warp_offsets=warp_offsets,
            warp_ids=[w.warp_id for w in warps],
            block_ids=[w.block_id for w in warps],
        )

    def __reduce__(self):
        # Columns only: numpy pickles a view by copying its data, so the
        # cached warp views would double a stored trace.
        return (
            KernelTrace,
            (self.kernel_name, self.warp_size, self.line_size, self.n_blocks)
            + tuple(getattr(self, name) for name in self.COLUMNS),
        )

    def __repr__(self) -> str:
        return "KernelTrace(%r, %d warps, %d insts)" % (
            self.kernel_name, self.n_warps, self.total_insts,
        )

    @property
    def warps(self) -> "WarpViews":
        """The warps, in launch order, as :class:`WarpTrace` views."""
        return WarpViews(self)

    def _view(self, index: int) -> WarpTrace:
        view = self._views[index]
        if view is None:
            start, stop = self.warp_offsets[index:index + 2].tolist()
            first = int(self.req_offsets[start])
            last = int(self.req_offsets[stop])
            view = WarpTrace(
                warp_id=int(self.warp_ids[index]),
                block_id=int(self.block_ids[index]),
                pcs=self.pcs[start:stop],
                ops=self.ops[start:stop],
                deps=self.deps[start:stop],
                active=self.active[start:stop],
                # Rebased to the warp's own lines.
                req_offsets=self.req_offsets[start:stop + 1] - first,
                req_lines=self.req_lines[first:last],
                conflict=self.conflict[start:stop],
            )
            self._views[index] = view
        return view

    @property
    def n_warps(self) -> int:
        """Number of warps in the launch."""
        return len(self.warp_offsets) - 1

    @property
    def total_insts(self) -> int:
        """Dynamic instructions across all warps."""
        return int(self.warp_offsets[-1])

    @property
    def total_requests(self) -> int:
        """Coalesced memory requests across all warps."""
        return int(self.req_offsets[-1])

    @cached_property
    def warps_per_block(self) -> int:
        """Warps of block 0, counted once: the multi-warp model's
        block-granular residency reads it on every prediction."""
        return int(np.count_nonzero(self.block_ids == 0))

    def summary(self) -> str:
        """One-line description for logs and examples."""
        return (
            "trace of %s: %d warps in %d blocks, %d dynamic insts, "
            "%d memory requests"
            % (
                self.kernel_name,
                self.n_warps,
                self.n_blocks,
                self.total_insts,
                self.total_requests,
            )
        )


class WarpViews(Sequence):
    """A trace's warps as :class:`WarpTrace` views (``KernelTrace.warps``).

    The views are cached on the trace, so ``trace.warps[i]`` is the same
    object on every access.
    """

    __slots__ = ("_trace",)

    def __init__(self, trace: KernelTrace):
        self._trace = trace

    def __len__(self) -> int:
        return self._trace.n_warps

    def __getitem__(self, index):
        if isinstance(index, slice):
            return [self[i] for i in range(*index.indices(len(self)))]
        n = len(self)
        if index < 0:
            index += n
        if not 0 <= index < n:
            raise IndexError("warp index out of range")
        return self._trace._view(index)

    def __iter__(self):
        return map(self._trace._view, range(len(self)))
