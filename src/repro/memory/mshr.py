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
from typing import Dict, Iterable, List, Optional


class MSHRError(RuntimeError):
    """Raised on structurally invalid MSHR operations."""


class MSHRFile:
    """A fixed-capacity set of in-flight line addresses (one per core)."""

    def __init__(self, n_entries: int):
        if n_entries < 1:
            raise ValueError("n_entries must be >= 1")
        self.n_entries = n_entries
        #: Unoccupied entries: ``n_entries`` less the in-flight lines,
        #: re-derived on every allocation and release.
        self.free_entries = n_entries
        self._inflight: Dict[int, float] = {}  # line -> completion cycle
        #: ``lookup(line)``: completion cycle of an in-flight line, or
        #: None.  It is the in-flight dict's own ``get`` (the dict is
        #: only ever mutated in place), so the timing oracle's per-line
        #: walk makes no Python-level call for it.
        self.lookup = self._inflight.get
        #: Earliest in-flight completion (inf when empty): nothing can be
        #: released before it, so callers and release_completed skip the
        #: scan of in-flight entries until then.
        self.earliest = math.inf
        self.n_allocations = 0
        self.n_merges = 0
        self.stalled_allocation_attempts = 0

    def __len__(self) -> int:
        return len(self._inflight)

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
        if completion < self.earliest:
            self.earliest = completion
        self.free_entries = self.n_entries - len(self._inflight)
        self.n_allocations += 1
        return completion

    def release_completed(self, now: float) -> List[int]:
        """Free every entry whose data has returned by ``now``; returns the
        freed lines."""
        if now < self.earliest:
            return []
        inflight = self._inflight
        done = [line for line, t in inflight.items() if t <= now]
        for line in done:
            del inflight[line]
        self.earliest = min(inflight.values()) if inflight else math.inf
        self.free_entries = self.n_entries - len(inflight)
        return done

    def next_completion(self) -> Optional[float]:
        """Earliest in-flight completion (for event-driven cycle skipping)."""
        return self.earliest if self._inflight else None

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
