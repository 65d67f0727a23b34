"""Miss Status Holding Register (MSHR) file with miss merging.

Used by the timing oracle: every load request that misses in the L1
occupies an MSHR entry from issue until its data returns.  Requests to a
line that is already in flight *merge* into the existing entry (a pending
hit) instead of allocating a new one.  When no entry is free, the issuing
warp stalls — the structural hazard whose queuing delay GPUMech's MSHR
model (Sec. IV-B1) predicts analytically.

Stores never allocate entries (write-through, no-allocate), which is why
the paper needs the separate DRAM-bandwidth model for write-heavy
divergent kernels like ``kmeans_invert_mapping``.
"""

from __future__ import annotations

import heapq
import math
from typing import Dict, Iterable, Optional, Sequence


class MSHRError(RuntimeError):
    """Raised on structurally invalid MSHR operations."""


class MSHRFile:
    """A fixed-capacity set of in-flight line addresses (one per core).

    ``version`` counts changes to the *set* of in-flight lines (a new
    allocation or a release; merges leave it alone), so a caller can
    memoize anything derived from which lines are in flight and
    recompute only when the version moves.
    """

    def __init__(self, n_entries: int):
        if n_entries < 1:
            raise ValueError("n_entries must be >= 1")
        self.n_entries = n_entries
        self._inflight: Dict[int, float] = {}  # line -> completion cycle
        # Earliest in-flight completion (inf when empty): lets
        # release_completed return at once when nothing is due.
        self._earliest = math.inf
        self.version = 0
        self.n_allocations = 0
        self.n_merges = 0
        self.stalled_allocation_attempts = 0

    def __len__(self) -> int:
        return len(self._inflight)

    @property
    def free_entries(self) -> int:
        """Unoccupied MSHR entries."""
        return self.n_entries - len(self._inflight)

    def entries_needed(self, lines: Sequence[int]) -> int:
        """How many *new* entries the given request lines would allocate."""
        return sum(1 for line in set(lines) if line not in self._inflight)

    def can_allocate(self, lines: Sequence[int]) -> bool:
        """Whether all the given lines fit (merges are free)."""
        return self.entries_needed(lines) <= self.free_entries

    def lookup(self, line: int) -> Optional[float]:
        """Completion cycle of an in-flight line, or None."""
        return self._inflight.get(line)

    def allocate(self, line: int, completion: float) -> float:
        """Allocate (or merge into) an entry; returns the completion cycle.

        Merged requests complete when the original miss returns, which may
        be earlier than a fresh miss issued now would.
        """
        existing = self._inflight.get(line)
        if existing is not None:
            self.n_merges += 1
            return existing
        if not self.free_entries:
            self.stalled_allocation_attempts += 1
            raise MSHRError("MSHR file full")
        self._inflight[line] = completion
        if completion < self._earliest:
            self._earliest = completion
        self.version += 1
        self.n_allocations += 1
        return completion

    def release_completed(self, now: float) -> int:
        """Free every entry whose data has returned by ``now``."""
        if now < self._earliest:
            return 0
        inflight = self._inflight
        done = [line for line, t in inflight.items() if t <= now]
        for line in done:
            del inflight[line]
        self._earliest = min(inflight.values()) if inflight else math.inf
        self.version += 1
        return len(done)

    def next_completion(self) -> Optional[float]:
        """Earliest in-flight completion (for event-driven cycle skipping)."""
        return self._earliest if self._inflight else None

    def kth_completion(self, k: int) -> Optional[float]:
        """Time at which ``k`` in-flight entries will have completed.

        Event-driven accelerator: a warp stalled for ``k`` free entries
        cannot issue before this cycle, so the core can sleep until then
        instead of waking on every individual release.
        """
        if k <= 0:
            return self.next_completion()
        values = self._inflight.values()
        if len(values) < k:
            return None
        return heapq.nsmallest(k, values)[-1]

    def inflight_lines(self) -> Iterable[int]:
        """Line addresses currently being fetched."""
        return self._inflight.keys()
