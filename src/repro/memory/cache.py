"""Set-associative cache with true-LRU replacement (functional).

The cache tracks only tags — GPUMech never needs data contents — which
keeps the input collector's cache simulation fast (the paper reports its
cache simulator is ~108x faster than detailed simulation; ours is fast for
the same reason: no timing, no data).
"""

from __future__ import annotations

from collections import OrderedDict
from typing import List, Optional, Sequence


class Cache:
    """A functional set-associative LRU cache.

    Parameters
    ----------
    size:
        Capacity in bytes.
    assoc:
        Ways per set.
    line_size:
        Line size in bytes (power of two).
    allocate_on_write:
        Whether stores allocate lines on miss.  GPU L1/L2 in this model
        are write-through, no-write-allocate (stores probe and refresh
        recency on hit but never install lines), matching the paper's
        premise that writes do not occupy MSHRs or cache space.
    """

    def __init__(
        self,
        size: int,
        assoc: int,
        line_size: int,
        allocate_on_write: bool = False,
    ):
        if line_size <= 0 or line_size & (line_size - 1):
            raise ValueError("line_size must be a positive power of two")
        if size % (assoc * line_size) != 0:
            raise ValueError("size must be divisible by assoc * line_size")
        self.size = size
        self.assoc = assoc
        self.line_size = line_size
        self.allocate_on_write = allocate_on_write
        self.n_sets = size // (assoc * line_size)
        self._offset_bits = line_size.bit_length() - 1
        # One OrderedDict per set: tag -> None, LRU at the front.
        self._sets: List[OrderedDict] = [OrderedDict() for _ in range(self.n_sets)]
        self.n_accesses = 0
        self.n_misses = 0

    def access(
        self,
        line_addr: int,
        is_write: bool = False,
        evicted: Optional[List[int]] = None,
    ) -> bool:
        """Access a line (by any byte address within it); True on hit.

        With ``evicted``, the line address of the victim evicted to make
        room, if any, is appended to it.
        """
        self.n_accesses += 1
        tag = line_addr >> self._offset_bits
        lines = self._sets[tag % self.n_sets]
        if tag in lines:
            lines.move_to_end(tag)
            return True
        self.n_misses += 1
        if is_write and not self.allocate_on_write:
            return False
        if len(lines) >= self.assoc:
            victim = lines.popitem(last=False)[0]
            if evicted is not None:
                evicted.append(victim << self._offset_bits)
        lines[tag] = None
        return False

    # The group methods apply access's rule to a whole request group, in
    # line order, in one call: the timing oracle walks each memory
    # instruction's coalesced lines through them.  The counters are
    # added once per group; the sets end as after one access per line.

    def read_group(self, line_addrs: Sequence[int],
                   evicted: List[int]) -> List[bool]:
        """Read each line in order, as ``access(line, evicted=evicted)``.

        Misses install their line, and each victim evicted to make room
        is appended to ``evicted``.  Returns the per-line hit flags.
        """
        shift = self._offset_bits
        sets = self._sets
        n_sets = self.n_sets
        assoc = self.assoc
        hits = []
        misses = 0
        for line_addr in line_addrs:
            tag = line_addr >> shift
            lines = sets[tag % n_sets]
            if tag in lines:
                lines.move_to_end(tag)
                hits.append(True)
                continue
            misses += 1
            if len(lines) >= assoc:
                evicted.append(lines.popitem(last=False)[0] << shift)
            lines[tag] = None
            hits.append(False)
        self.n_accesses += len(line_addrs)
        self.n_misses += misses
        return hits

    def write_group(self, line_addrs: Sequence[int]) -> None:
        """Write each line in order, as ``access(line, True)``.

        Hits refresh their line's recency; without ``allocate_on_write``
        a miss allocates nothing.
        """
        if self.allocate_on_write:
            self.read_group(line_addrs, [])
            return
        shift = self._offset_bits
        sets = self._sets
        n_sets = self.n_sets
        misses = 0
        for line_addr in line_addrs:
            tag = line_addr >> shift
            lines = sets[tag % n_sets]
            if tag in lines:
                lines.move_to_end(tag)
            else:
                misses += 1
        self.n_accesses += len(line_addrs)
        self.n_misses += misses

    def probe(self, line_addr: int) -> bool:
        """Check residency without touching LRU state or counters."""
        tag = line_addr >> self._offset_bits
        return tag in self._sets[tag % self.n_sets]

    def flush(self) -> None:
        """Invalidate all lines (counters are preserved)."""
        for lines in self._sets:
            lines.clear()

    @property
    def miss_rate(self) -> float:
        """Observed miss rate over all accesses so far."""
        return self.n_misses / self.n_accesses if self.n_accesses else 0.0

    def __repr__(self) -> str:
        return "Cache(%dKB, %d-way, %dB lines, %d sets)" % (
            self.size // 1024,
            self.assoc,
            self.line_size,
            self.n_sets,
        )
