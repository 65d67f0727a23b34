"""The interval algorithm: a warp's trace → its interval profile.

Sec. III-B of the paper.  The algorithm replays a single warp's dynamic
instruction stream under an idealised in-order core issuing one
instruction per cycle, using the per-PC latencies from the input
collector.  The issue-cycle recurrence is Eq. 4:

    issue(k) = max(issue(k-1) + 1,  max over producers p of done(p))

with ``done(p) = issue(p) + latency(p)`` (a consumer may issue
``latency`` cycles after its producer — the same semantics the timing
oracle uses, so the single-warp model and the oracle agree exactly on an
uncontended warp).

An *interval* is a run of back-to-back issued instructions followed by
the stall that ends it (Fig. 6).  Alongside the paper's (instruction
count, stall cycles) pairs, each interval records what downstream stages
need: the stall's *cause* (the producer that pushed the issue cycle out —
a compute dependence or a memory PC, for CPI-stack attribution) and the
interval's expected memory-system footprint (MSHR-occupying read
requests, DRAM-bound read/write traffic) for the contention models.

Profiles are columnar.  :class:`IntervalColumns` holds one numpy array
per :class:`Interval` field, each with one canonical dtype
(:data:`INTERVAL_DTYPES`).  The ``interval_profiles`` stage artifact is
an :class:`IntervalProfiles`: every warp's intervals in one launch-wide
set of columns plus per-warp offsets, so it pickles as a fixed number of
arrays.  Indexing it yields per-warp :class:`IntervalProfile` views
(column slices, no copies), which the models read as arrays.
:class:`Interval` stays as the row type: ``profile.intervals`` builds
the rows on demand, and hand-written profiles are made from rows with
:meth:`IntervalProfile.from_intervals`.

Float reductions over the interval axis run left to right
(:func:`ordered_sum`; ``np.add.at`` in the builder), the order a
per-interval loop adds in, on every interpreter —
``tests/test_columnar_model.py`` keeps such loops as the reference.
``np.sum`` sums pairwise, and the builtin ``sum`` compensates floats
from Python 3.12 on; either would change the last bits of the
predictions.
"""

from __future__ import annotations

from collections import namedtuple
from collections.abc import Sequence
from dataclasses import dataclass, fields
from functools import cached_property
from typing import Iterable, List, Optional, Tuple

import numpy as np

from repro.core.latency import LatencyTable
from repro.memory.hierarchy import MissEvent
from repro.trace.trace_types import NO_DEP, KernelTrace, OpCode, WarpTrace

#: Canonical dtype of every interval column, in :class:`Interval` field
#: order.  Both interval builders produce exactly these dtypes, which
#: keeps their artifacts pickle-equal.
INTERVAL_DTYPES = {
    "n_insts": np.dtype(np.int64),
    "stall_cycles": np.dtype(np.float64),
    "cause_pc": np.dtype(np.int32),
    "cause_is_memory": np.dtype(np.bool_),
    "n_loads": np.dtype(np.int64),
    "n_stores": np.dtype(np.int64),
    "load_reqs": np.dtype(np.int64),
    "store_reqs": np.dtype(np.int64),
    "n_sfu": np.dtype(np.int64),
    "n_smem": np.dtype(np.int64),
    "smem_slots": np.dtype(np.int64),
    "exp_mshr_reqs": np.dtype(np.float64),
    "exp_dram_read_reqs": np.dtype(np.float64),
    "exp_mshr_loads": np.dtype(np.float64),
    "exp_dram_loads": np.dtype(np.float64),
}


def ordered_sum(values: np.ndarray) -> float:
    """Left-to-right sum of a float column, as a Python float.

    The exact value ``0.0 + v[0] + v[1] + ...`` a per-interval loop
    accumulates (``np.add.accumulate`` is sequential; ``np.sum`` is
    pairwise and not bitwise-compatible).
    """
    if not len(values):
        return 0.0
    # The trailing + 0.0 stands in for the loop's 0.0 start: it only
    # turns an all-negative-zero sum into +0.0.
    return float(np.add.accumulate(values)[-1]) + 0.0


class ArrayFieldsEq:
    """``==`` for a ``@dataclass(eq=False)`` with per-interval array fields.

    Compares field by field, as a generated ``__eq__`` does, but arrays
    by value: the generated one would ask an elementwise comparison for
    a single truth value, which raises for more than one interval.
    """

    def __eq__(self, other) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        for spec in fields(self):
            mine, theirs = getattr(self, spec.name), getattr(other, spec.name)
            if isinstance(mine, np.ndarray) or isinstance(theirs, np.ndarray):
                if not np.array_equal(mine, theirs):
                    return False
            elif mine != theirs:
                return False
        return True


class _IntervalQuantities:
    """Derived per-interval quantities, shared by a row (:class:`Interval`,
    Python numbers) and :class:`IntervalColumns` (numpy arrays)."""

    __slots__ = ()

    @property
    def n_mem_insts(self):
        """Memory instructions issued in the interval."""
        return self.n_loads + self.n_stores

    @property
    def dram_reqs(self):
        """Expected DRAM bus transfers: write-through stores + L2 misses."""
        return self.store_reqs + self.exp_dram_read_reqs

    @property
    def cycles(self):
        """Total cycles of the interval (one issue cycle per instruction
        plus the stall)."""
        return self.n_insts + self.stall_cycles


@dataclass
class Interval(_IntervalQuantities):
    """One interval: issued instructions followed by a stall."""

    n_insts: int = 0
    stall_cycles: float = 0.0
    cause_pc: int = -1  # PC of the producer that caused the stall
    cause_is_memory: bool = False
    # Memory footprint of the instructions *in* this interval:
    n_loads: int = 0
    n_stores: int = 0
    load_reqs: int = 0
    store_reqs: int = 0
    # SFU instructions in this interval (for the SFU-contention extension).
    n_sfu: int = 0
    # Scratchpad accesses: instruction count and total serialised bank
    # slots (sum of conflict degrees).
    n_smem: int = 0
    smem_slots: int = 0
    # Expected values under the cache simulator's miss distributions:
    exp_mshr_reqs: float = 0.0  # read requests that occupy MSHRs (L1 misses)
    exp_dram_read_reqs: float = 0.0  # read requests that reach DRAM
    exp_mshr_loads: float = 0.0  # load instructions with >= 1 L1 miss
    exp_dram_loads: float = 0.0  # load instructions stalled on DRAM


class IntervalColumns(
    namedtuple("IntervalColumns", tuple(INTERVAL_DTYPES)), _IntervalQuantities
):
    """One array per :class:`Interval` field, all of one length.

    Attribute names match :class:`Interval`'s, so per-interval formulas
    written against a row also run elementwise on columns.
    """

    __slots__ = ()

    @classmethod
    def of(cls, *columns) -> "IntervalColumns":
        """Columns cast to their canonical dtypes (no copy if already)."""
        return cls(*(
            np.asarray(column, dtype=dtype)
            for column, dtype in zip(columns, INTERVAL_DTYPES.values())
        ))

    @classmethod
    def from_rows(cls, rows: Iterable[Interval]) -> "IntervalColumns":
        """Pack :class:`Interval` rows into columns."""
        rows = list(rows)
        return cls(*(
            np.array([getattr(row, name) for row in rows], dtype=dtype)
            for name, dtype in INTERVAL_DTYPES.items()
        ))

    @classmethod
    def concatenate(cls, parts: List["IntervalColumns"]) -> "IntervalColumns":
        """The rows of ``parts``, back to back."""
        if not parts:
            return cls.from_rows(())
        return cls.of(*(np.concatenate(column) for column in zip(*parts)))

    def slice(self, start: int, stop: int) -> "IntervalColumns":
        """Rows ``start:stop`` as views into these columns."""
        return IntervalColumns(*(column[start:stop] for column in self))


class IntervalRows(Sequence):
    """Read-only :class:`Interval` rows over interval columns.

    ``len`` reads the columns; the row objects are built on first item
    access, all at once.
    """

    __slots__ = ("_columns", "_rows")

    def __init__(self, columns: IntervalColumns):
        self._columns = columns
        self._rows = None

    def _built(self) -> tuple:
        if self._rows is None:
            self._rows = tuple(map(
                Interval, *(column.tolist() for column in self._columns)
            ))
        return self._rows

    def __len__(self) -> int:
        return len(self._columns.n_insts)

    def __getitem__(self, index):
        return self._built()[index]

    def __iter__(self):
        return iter(self._built())


class IntervalProfile:
    """A warp's collection of intervals (Eq. 2) plus aggregates.

    ``columns`` holds the intervals; a profile taken from an
    :class:`IntervalProfiles` is a view into the launch-wide columns.
    Profiles are frozen: the aggregates are computed once, on first
    access.
    """

    def __init__(
        self,
        warp_id: int,
        columns: Optional[IntervalColumns] = None,
    ):
        self.warp_id = warp_id
        self.columns = (
            columns if columns is not None else IntervalColumns.from_rows(())
        )

    @classmethod
    def from_intervals(
        cls, warp_id: int, intervals: Iterable[Interval]
    ) -> "IntervalProfile":
        """A profile holding ``intervals`` (rows packed into columns)."""
        return cls(warp_id, IntervalColumns.from_rows(intervals))

    def __reduce__(self):
        # Only the warp's own rows travel; cached aggregates do not.
        return (IntervalProfile, (self.warp_id, self.columns))

    def __eq__(self, other) -> bool:
        if not isinstance(other, IntervalProfile):
            return NotImplemented
        return (
            self.warp_id == other.warp_id
            and all(
                mine.dtype == theirs.dtype and np.array_equal(mine, theirs)
                for mine, theirs in zip(self.columns, other.columns)
            )
        )

    __hash__ = None  # mutable-looking value type, like the dataclass was

    def __repr__(self) -> str:
        return "IntervalProfile(warp_id=%r, n_intervals=%d)" % (
            self.warp_id, self.n_intervals,
        )

    @cached_property
    def intervals(self) -> IntervalRows:
        """The intervals as read-only :class:`Interval` rows."""
        return IntervalRows(self.columns)

    @property
    def n_intervals(self) -> int:
        """Number of intervals in the profile."""
        return len(self.columns.n_insts)

    @cached_property
    def n_insts(self) -> int:
        """Total instructions across all intervals.

        Computed once on first access — the downstream models read this
        on every prediction.
        """
        return int(self.columns.n_insts.sum())

    @cached_property
    def total_stall_cycles(self) -> float:
        """Total stall cycles across all intervals (cached like
        :attr:`n_insts`)."""
        return ordered_sum(self.columns.stall_cycles)

    # What the contention model reads on every prediction and no
    # design point changes, cached like :attr:`n_insts`:

    @cached_property
    def interval_dram_reqs(self) -> np.ndarray:
        """Per-interval expected DRAM transfers (``dram_reqs`` column)."""
        return self.columns.dram_reqs

    @cached_property
    def interval_cycles(self) -> np.ndarray:
        """Per-interval cycles (issue + stall)."""
        return self.columns.cycles

    @cached_property
    def total_mshr_reqs(self) -> float:
        """Expected MSHR-occupying read requests, summed in order."""
        return ordered_sum(self.columns.exp_mshr_reqs)

    @cached_property
    def total_dram_reqs(self) -> float:
        """Expected DRAM transfers, summed in order."""
        return ordered_sum(self.interval_dram_reqs)

    @cached_property
    def total_sfu(self) -> int:
        """SFU instructions across all intervals."""
        return int(self.columns.n_sfu.sum())

    @cached_property
    def total_smem_slots(self) -> int:
        """Serialised scratchpad bank slots across all intervals."""
        return int(self.columns.smem_slots.sum())

    @property
    def total_cycles(self) -> float:
        """Single-warp execution time (issue cycles + stalls)."""
        return self.n_insts + self.total_stall_cycles

    @property
    def warp_perf(self) -> float:
        """Single-warp IPC (Eq. 5): the clustering feature."""
        cycles = self.total_cycles
        return self.n_insts / cycles if cycles else 0.0

    @property
    def single_warp_cpi(self) -> float:
        """CPI of the warp running alone (1 / warp_perf)."""
        return 1.0 / self.warp_perf if self.n_insts else 0.0

    @property
    def avg_interval_insts(self) -> float:
        """Mean instructions per interval (Eq. 13)."""
        return self.n_insts / self.n_intervals if self.n_intervals else 0.0

    @property
    def issue_prob(self) -> float:
        """Probability a lone warp can issue in a cycle (Eq. 9).

        Identical to :attr:`warp_perf` on a single-issue core; kept as
        its own name to mirror the paper's equations.
        """
        return self.warp_perf


class IntervalProfiles(Sequence):
    """Every warp's interval profile of one launch, as launch-wide columns.

    The ``interval_profiles`` stage artifact.  ``columns`` holds all
    warps' intervals back to back; warp ``i`` (launch-wide id
    ``warp_ids[i]``) owns rows ``offsets[i]:offsets[i + 1]``.  Indexing
    yields that warp's :class:`IntervalProfile`, a view made on first
    access and reused after.
    """

    def __init__(
        self,
        columns: IntervalColumns,
        offsets: np.ndarray,
        warp_ids: np.ndarray,
    ):
        self.columns = columns
        self.offsets = np.asarray(offsets, dtype=np.int64)
        self.warp_ids = np.asarray(warp_ids, dtype=np.int64)
        self._views: List[Optional[IntervalProfile]] = (
            [None] * len(self.warp_ids)
        )

    @classmethod
    def from_profiles(
        cls, profiles: Iterable[IntervalProfile]
    ) -> "IntervalProfiles":
        """Pack per-warp profiles into one set."""
        profiles = list(profiles)
        offsets = np.zeros(len(profiles) + 1, dtype=np.int64)
        np.cumsum([p.n_intervals for p in profiles], out=offsets[1:])
        return cls(
            IntervalColumns.concatenate([p.columns for p in profiles]),
            offsets,
            np.array([p.warp_id for p in profiles], dtype=np.int64),
        )

    def __reduce__(self):
        return (IntervalProfiles, (self.columns, self.offsets, self.warp_ids))

    def __len__(self) -> int:
        return len(self.warp_ids)

    def __getitem__(self, index):
        if isinstance(index, slice):
            return [self[i] for i in range(*index.indices(len(self)))]
        n = len(self)
        if index < 0:
            index += n
        if not 0 <= index < n:
            raise IndexError("warp index out of range")
        view = self._views[index]
        if view is None:
            start, stop = self.offsets[index:index + 2].tolist()
            view = IntervalProfile(
                int(self.warp_ids[index]), self.columns.slice(start, stop)
            )
            self._views[index] = view
        return view

    def __iter__(self):
        return (self[i] for i in range(len(self)))

    def __repr__(self) -> str:
        return "IntervalProfiles(%d warps, %d intervals)" % (
            len(self), len(self.columns.n_insts),
        )


def build_interval_profiles(
    trace: KernelTrace, latency_table: LatencyTable
) -> IntervalProfiles:
    """Interval profiles of every warp of a launch, in launch order.

    Dispatches to the batched numpy implementation
    (:mod:`repro.core.interval_vec`), which reads the trace's columns,
    unless ``REPRO_SCALAR=1`` selects the per-warp reference scan below
    over ``trace.warps``; both produce bitwise-identical profiles.
    """
    from repro.backend import use_scalar

    if use_scalar():
        return IntervalProfiles.from_profiles(
            build_interval_profile(warp, latency_table)
            for warp in trace.warps
        )
    from repro.core.interval_vec import build_interval_profiles as vec

    return vec(trace, latency_table)


def issue_stalls(
    deps: List[List[int]], lat: List[float]
) -> Tuple[List[float], List[int]]:
    """The Eq. 4 recurrence over one warp's instruction stream.

    ``deps`` are the trace's producer rows and ``lat`` the per-instruction
    latencies, as Python lists.  Returns per-instruction ``(stall, cause)``:
    the cycles instruction ``k`` waited past ``issue(k-1) + 1``, and
    the producer that pushed it out (-1 if none).  A producer replaces
    the running ready time only when it completes strictly later, so the
    first of tied producers is the cause.

    The result depends on nothing but ``deps`` and the latencies of the
    producers' PCs, so warps with equal ``(pcs, deps)`` rows share it.
    """
    n = len(lat)
    issue = [0.0] * n
    stall = [0.0] * n
    cause = [-1] * n
    prev_issue = -1.0
    for k in range(n):
        earliest = prev_issue + 1.0
        ready = earliest
        best = -1
        for dep in deps[k]:
            if dep == NO_DEP:
                continue
            done = issue[dep] + lat[dep]
            if done > ready:
                ready = done
                best = dep
        issue[k] = ready
        stall[k] = ready - earliest
        cause[k] = best
        prev_issue = ready
    return stall, cause


def build_interval_profile(
    warp: WarpTrace, latency_table: LatencyTable
) -> IntervalProfile:
    """Run the interval algorithm (Eq. 4) over one warp trace."""
    n = len(warp)
    if not n:
        return IntervalProfile(warp.warp_id)

    pcs = warp.pcs.tolist()
    ops = warp.ops.tolist()
    nreqs = warp.requests_per_inst.tolist()
    conflicts = warp.conflict.tolist()
    pc_stats = latency_table.pc_stats
    stalls, causes = issue_stalls(
        warp.deps.tolist(), latency_table.as_array[warp.pcs].tolist()
    )

    current = Interval()
    intervals: List[Interval] = []
    for k in range(n):
        stall = stalls[k]
        if stall > 0.0 and current.n_insts:
            # Close the current interval: its instructions are the ones
            # issued before this stall; the stall's cause is the producer
            # that pushed instruction k out.
            cause = causes[k]
            current.stall_cycles = stall
            current.cause_pc = pcs[cause]
            current.cause_is_memory = ops[cause] == OpCode.LOAD
            intervals.append(current)
            current = Interval()
        _account(current, k, ops, pcs, nreqs, conflicts, pc_stats)
        current.n_insts += 1

    intervals.append(current)  # trailing interval with no stall
    return IntervalProfile.from_intervals(warp.warp_id, intervals)


def _account(interval, k, ops, pcs, nreqs, conflicts, pc_stats) -> None:
    """Add instruction k's memory footprint to the open interval."""
    op = ops[k]
    if op == OpCode.LOAD:
        interval.n_loads += 1
        reqs = nreqs[k]
        interval.load_reqs += reqs
        stats = pc_stats.get(pcs[k])
        if stats is not None and stats.n_requests:
            interval.exp_mshr_reqs += reqs * stats.req_l1_miss_fraction
            interval.exp_dram_read_reqs += reqs * stats.req_l2_miss_fraction
            interval.exp_mshr_loads += 1.0 - stats.inst_event_fraction(
                MissEvent.L1_HIT
            )
            interval.exp_dram_loads += stats.inst_event_fraction(
                MissEvent.L2_MISS
            )
    elif op == OpCode.STORE:
        interval.n_stores += 1
        interval.store_reqs += nreqs[k]
    elif op == OpCode.SFU:
        interval.n_sfu += 1
    elif op in (OpCode.SMEM_LOAD, OpCode.SMEM_STORE):
        interval.n_smem += 1
        interval.smem_slots += max(conflicts[k], 1)
