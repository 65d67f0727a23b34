"""Independent-thread-scheduling-style divergence handling.

The classic post-dominator stack (:mod:`repro.trace.simt_stack`) runs
one side of a divergent branch to its reconvergence point before
starting the other.  Volta-class cores instead keep every lane group
schedulable and *interleave* them, reconverging greedily when all
groups of a split reach the common post-dominator ("Control Flow
Management in Modern GPUs" surveys the design space; this module models
the scheduling-visible part of it).

:class:`InterleavedStack` exposes the same interface the functional
emulator drives the stack with (``pop_reconverged`` / ``top`` /
``branch`` / ``jump`` / ``advance`` / ``depth``), so either policy can
plug into the same per-warp execution loop; ``GPUConfig.arch`` picks
which one (this one under ``subcore``).  Instead of a stack it keeps a
flat list of lane groups; each group carries the *join chain* of
reconvergence PCs it still owes (innermost last, the path-history
analogue of nested stack entries):

* A divergent branch splits the executing group in two, both extending
  their join chain with the branch's reconvergence PC.
* The scheduler always runs the group with the smallest PC (ties:
  oldest group), the canonical min-PC heuristic — it bounds how far any
  group runs ahead and drives siblings toward their join point.
* A group whose PC reaches its innermost owed join parks there.  When
  every group owing the same chain has parked (and no deeper split is
  outstanding), they merge into one group with the union mask and the
  join is popped.

For straight-line or uniformly-branching warps this executes the exact
same instruction sequence as the stack; under divergence it emits the
same multiset of trace rows per warp but interleaves the two sides —
which changes producer→consumer distances and therefore the interval
profiles, the effect ``arch="subcore"`` exists to model.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

import numpy as np

from repro.trace.simt_stack import SimtStackError


class _LaneGroup:
    """One schedulable lane group and the joins it still owes."""

    __slots__ = ("pc", "mask", "joins", "order")

    def __init__(
        self, pc: int, mask: np.ndarray, joins: Tuple[int, ...], order: int
    ):
        self.pc = pc
        self.mask = mask
        self.joins = joins
        self.order = order

    @property
    def n_active(self) -> int:
        """Number of active lanes in this group."""
        return int(self.mask.sum())


class InterleavedStack:
    """ITS-style lane-group scheduler of one warp.

    Drop-in replacement for :class:`~repro.trace.simt_stack.SimtStack`
    in the emulator's warp loop; ``depth`` is the live group count, so
    the loop's "reconverged before bar/exit" checks carry over.
    """

    def __init__(self, initial_mask: np.ndarray):
        mask = np.asarray(initial_mask, dtype=bool)
        if not mask.any():
            raise SimtStackError("warp has no active lanes")
        self._groups: List[_LaneGroup] = [_LaneGroup(0, mask.copy(), (), 0)]
        self._order_counter = 1
        self._current = self._groups[0]

    @property
    def depth(self) -> int:
        """Live lane groups (1 = no divergence in flight)."""
        return len(self._groups)

    @property
    def top(self) -> _LaneGroup:
        """The lane group selected to execute this step."""
        return self._current

    @staticmethod
    def _parked(group: _LaneGroup) -> bool:
        return bool(group.joins) and group.pc == group.joins[-1]

    def pop_reconverged(self) -> bool:
        """Merge one fully-arrived sibling set, else pick the next group.

        Returns True if a merge happened (the caller should re-inspect
        before executing) — mirroring the stack's pop protocol.  When no
        merge is possible, selects the min-PC runnable group that
        subsequent ``top``/``branch``/``advance`` calls operate on.
        """
        if len(self._groups) > 1:
            merged = self._merge_arrived()
            if merged:
                return True
        self._select()
        return False

    def _merge_arrived(self) -> bool:
        """Merge the deepest join chain whose owners have all parked."""
        by_chain = {}
        for group in self._groups:
            by_chain.setdefault(group.joins, []).append(group)
        best = None
        for chain, members in by_chain.items():
            if not chain:
                continue
            if not all(self._parked(g) for g in members):
                continue
            # A deeper outstanding split means more lanes will still
            # arrive at this join; wait for the inner merge first.
            deeper = any(
                len(g.joins) > len(chain) and g.joins[: len(chain)] == chain
                for g in self._groups
                if g.joins != chain
            )
            if deeper:
                continue
            if best is None or len(chain) > len(best[0]):
                best = (chain, members)
        if best is None:
            return False
        chain, members = best
        keep = min(members, key=lambda g: g.order)
        mask = keep.mask.copy()
        for group in members:
            if group is not keep:
                mask |= group.mask
                self._groups.remove(group)
        keep.mask = mask
        keep.joins = chain[:-1]
        return True

    def _select(self) -> None:
        best = None
        for group in self._groups:
            if self._parked(group):
                continue
            if (
                best is None
                or group.pc < best.pc
                or (group.pc == best.pc and group.order < best.order)
            ):
                best = group
        if best is None:
            raise SimtStackError(
                "no runnable lane group (unstructured control flow?)"
            )
        self._current = best

    def branch(
        self, taken_mask: np.ndarray, target: int, reconv: Optional[int]
    ) -> None:
        """Apply a conditional branch outcome to the executing group."""
        group = self._current
        taken = np.asarray(taken_mask, dtype=bool) & group.mask
        not_taken = group.mask & ~taken
        if not taken.any():
            group.pc += 1
            return
        if not not_taken.any():
            group.pc = target
            return
        if reconv is None:
            raise SimtStackError("divergent branch without a reconvergence pc")
        joins = group.joins + (reconv,)
        fallthrough_pc = group.pc + 1
        group.pc = target
        group.mask = taken
        group.joins = joins
        self._groups.append(
            _LaneGroup(fallthrough_pc, not_taken, joins, self._order_counter)
        )
        self._order_counter += 1

    def jump(self, target: int) -> None:
        """Unconditional branch of the executing group."""
        self._current.pc = target

    def advance(self) -> None:
        """Fall through to the next instruction."""
        self._current.pc += 1
