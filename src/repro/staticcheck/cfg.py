"""Control-flow graph construction and (post-)dominator computation.

The graph is built at instruction granularity over a program of the mini
SIMT ISA (``Tuple[Instruction, ...]``); basic blocks are grouped on top
for structural reporting.  Edges follow execution, not reconvergence:

* a conditional ``bra`` has two successors (fall-through, target),
* an unconditional ``bra`` has one (target),
* ``exit`` has none,
* everything else falls through.

Dominators and post-dominators use the Cooper–Harvey–Kennedy iterative
algorithm over a reverse-postorder traversal.  Post-dominators run the
same algorithm on the reversed graph rooted at a *virtual exit node*
(index ``len(program)``) that every ``exit`` instruction feeds, so
programs with several exits are handled uniformly.  An instruction with
no path to any exit (an inescapable loop) has no post-dominator and is
reported as ``None``.

The immediate post-dominator of a conditional branch is exactly the PC
where its diverged lane groups must rejoin — the value the SIMT stack
expects in ``Instruction.reconv`` — which is what makes this module the
single source of truth for reconvergence validation
(:func:`reconvergence_errors`, used by ``Kernel.__post_init__`` and by
the ``bad-reconvergence`` lint check).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, Iterator, List, Optional, Sequence, Tuple

from repro.isa.instructions import Instruction, OpClass

#: Virtual exit node used as the root of the post-dominator tree.
#: Its index is ``len(program)`` (one past the last real instruction).


def successors(program: Sequence[Instruction]) -> List[Tuple[int, ...]]:
    """Per-instruction successor PCs (exits have none).

    A non-control instruction in the last slot would fall off the end of
    the program; it gets no successor here (kernel validation separately
    requires a terminating ``exit``).
    """
    n = len(program)
    succs: List[Tuple[int, ...]] = []
    for pc, inst in enumerate(program):
        if inst.opclass is OpClass.EXIT:
            succs.append(())
        elif inst.opclass is OpClass.BRANCH:
            target = inst.target
            assert target is not None  # Instruction validates bra targets
            if inst.pred is None:
                succs.append((target,))
            elif pc + 1 < n:
                # Fall-through first, then target (dedup degenerate bras).
                succs.append(
                    (pc + 1, target) if target != pc + 1 else (pc + 1,)
                )
            else:
                succs.append((target,))
        elif pc + 1 < n:
            succs.append((pc + 1,))
        else:
            succs.append(())
    return succs


@dataclass(frozen=True)
class BasicBlock:
    """A maximal straight-line instruction range ``[start, end)``."""

    index: int
    start: int
    end: int  # exclusive

    @property
    def pcs(self) -> range:
        """The PCs this block covers."""
        return range(self.start, self.end)

    @property
    def terminator(self) -> int:
        """PC of the block's last instruction."""
        return self.end - 1


class ControlFlowGraph:
    """Instruction-level CFG of one program, with basic-block grouping.

    Attributes
    ----------
    program:
        The instruction sequence the graph was built from.
    succs / preds:
        Per-PC successor / predecessor tuples.
    blocks:
        Basic blocks in program order.
    block_of:
        ``block_of[pc]`` is the index of the block containing ``pc``.
    """

    def __init__(self, program: Sequence[Instruction]):
        if not program:
            raise ValueError("cannot build a CFG for an empty program")
        self.program: Tuple[Instruction, ...] = tuple(program)
        self.succs: List[Tuple[int, ...]] = successors(self.program)
        n = len(self.program)
        preds: List[List[int]] = [[] for _ in range(n)]
        for pc, outs in enumerate(self.succs):
            for succ in outs:
                preds[succ].append(pc)
        self.preds: List[Tuple[int, ...]] = [tuple(p) for p in preds]
        self.blocks: List[BasicBlock] = self._build_blocks()
        self.block_of: List[int] = [0] * n
        for block in self.blocks:
            for pc in block.pcs:
                self.block_of[pc] = block.index
        self._reachable: Optional[frozenset] = None
        self._idom: Optional[Dict[int, Optional[int]]] = None
        self._ipdom: Optional[Dict[int, Optional[int]]] = None

    # -- structure ----------------------------------------------------------

    def _build_blocks(self) -> List[BasicBlock]:
        n = len(self.program)
        leaders = {0}
        for pc, outs in enumerate(self.succs):
            inst = self.program[pc]
            if inst.opclass in (OpClass.BRANCH, OpClass.EXIT):
                if pc + 1 < n:
                    leaders.add(pc + 1)
                for succ in outs:
                    leaders.add(succ)
        starts = sorted(leaders)
        blocks = []
        for index, start in enumerate(starts):
            end = starts[index + 1] if index + 1 < len(starts) else n
            blocks.append(BasicBlock(index=index, start=start, end=end))
        return blocks

    def block_successors(self, block: BasicBlock) -> Tuple[int, ...]:
        """Indices of the blocks this block's terminator branches to."""
        return tuple(
            self.block_of[succ] for succ in self.succs[block.terminator]
        )

    # -- reachability -------------------------------------------------------

    @property
    def reachable(self) -> frozenset:
        """PCs reachable from the entry (pc 0)."""
        if self._reachable is None:
            seen = {0}
            stack = [0]
            while stack:
                for succ in self.succs[stack.pop()]:
                    if succ not in seen:
                        seen.add(succ)
                        stack.append(succ)
            self._reachable = frozenset(seen)
        return self._reachable

    def unreachable_ranges(self) -> List[Tuple[int, int]]:
        """Maximal ``[start, end]`` PC ranges of unreachable code."""
        ranges: List[Tuple[int, int]] = []
        start: Optional[int] = None
        for pc in range(len(self.program)):
            if pc not in self.reachable:
                if start is None:
                    start = pc
            elif start is not None:
                ranges.append((start, pc - 1))
                start = None
        if start is not None:
            ranges.append((start, len(self.program) - 1))
        return ranges

    # -- dominance ----------------------------------------------------------

    def immediate_dominators(self) -> Dict[int, Optional[int]]:
        """``idom[pc]`` for every entry-reachable PC (entry maps to None).

        PCs unreachable from the entry are absent from the mapping.
        """
        if self._idom is None:
            self._idom = _compute_idom(
                nodes=sorted(self.reachable),
                entry=0,
                succs_of=lambda pc: self.succs[pc],
                preds_of=lambda pc: self.preds[pc],
            )
        return self._idom

    def immediate_postdominators(self) -> Dict[int, Optional[int]]:
        """``ipdom[pc]`` for every PC that can reach an exit.

        Computed on the reversed graph rooted at a virtual exit node
        that all ``exit`` instructions feed; the virtual node never
        appears in the result, so a PC whose only post-dominator is the
        virtual exit (i.e. an ``exit`` instruction itself) maps to
        ``None``.  PCs that cannot reach any exit are absent.
        """
        if self._ipdom is None:
            n = len(self.program)
            virtual = n
            exits = [
                pc for pc, inst in enumerate(self.program)
                if inst.opclass is OpClass.EXIT
            ]

            def rsuccs(pc: int) -> Tuple[int, ...]:
                if pc == virtual:
                    return tuple(exits)
                return self.preds[pc]

            def rpreds(pc: int) -> Tuple[int, ...]:
                if pc == virtual:
                    return ()
                base = self.succs[pc]
                if self.program[pc].opclass is OpClass.EXIT:
                    return base + (virtual,)
                return base

            # Nodes that can reach an exit == reachable from the virtual
            # node in the reversed graph.
            seen = {virtual}
            stack = [virtual]
            while stack:
                for succ in rsuccs(stack.pop()):
                    if succ not in seen:
                        seen.add(succ)
                        stack.append(succ)
            idom = _compute_idom(
                nodes=sorted(seen),
                entry=virtual,
                succs_of=rsuccs,
                preds_of=rpreds,
            )
            self._ipdom = {
                pc: (None if parent == virtual else parent)
                for pc, parent in idom.items()
                if pc != virtual
            }
        return self._ipdom

    def postdominates(self, a: int, pc: int) -> bool:
        """Whether ``a`` post-dominates ``pc`` (strictly or ``a == pc``)."""
        ipdom = self.immediate_postdominators()
        node: Optional[int] = pc
        while node is not None:
            if node == a:
                return True
            node = ipdom.get(node)
        return False


def _compute_idom(
    nodes: Sequence[int],
    entry: int,
    succs_of: Callable[[int], Tuple[int, ...]],
    preds_of: Callable[[int], Tuple[int, ...]],
) -> Dict[int, Optional[int]]:
    """Cooper–Harvey–Kennedy immediate dominators.

    ``nodes`` must contain every node reachable from ``entry``; nodes
    outside that set are ignored (their edges are filtered out).
    """
    node_set = set(nodes)
    # Reverse postorder from entry (iterative DFS).
    visited = {entry}
    postorder: List[int] = []
    dfs: List[Tuple[int, Iterator[int]]] = [(entry, iter(succs_of(entry)))]
    while dfs:
        node, it = dfs[-1]
        advanced = False
        for succ in it:
            if succ in node_set and succ not in visited:
                visited.add(succ)
                dfs.append((succ, iter(succs_of(succ))))
                advanced = True
                break
        if not advanced:
            postorder.append(node)
            dfs.pop()
    order = list(reversed(postorder))
    index = {node: i for i, node in enumerate(order)}

    idom: Dict[int, Optional[int]] = {entry: entry}

    def intersect(a: int, b: int) -> int:
        while a != b:
            while index[a] > index[b]:
                parent = idom[a]
                assert parent is not None
                a = parent
            while index[b] > index[a]:
                parent = idom[b]
                assert parent is not None
                b = parent
        return a

    changed = True
    while changed:
        changed = False
        for node in order:
            if node == entry:
                continue
            new_idom: Optional[int] = None
            for pred in preds_of(node):
                if pred not in index or pred not in idom:
                    continue
                new_idom = (
                    pred if new_idom is None else intersect(pred, new_idom)
                )
            if new_idom is not None and idom.get(node) != new_idom:
                idom[node] = new_idom
                changed = True
    result: Dict[int, Optional[int]] = {
        node: (None if node == entry else idom[node])
        for node in order
        if node in idom
    }
    return result


def reconvergence_errors(
    program: Sequence[Instruction],
    cfg: Optional[ControlFlowGraph] = None,
) -> List[Tuple[int, str]]:
    """``(pc, message)`` for every conditional branch whose declared
    reconvergence PC is not its immediate post-dominator.

    This is the CFG-based replacement for the old positional heuristic:
    the SIMT stack pops a diverged lane group exactly when it reaches
    ``reconv``, so any value other than the immediate post-dominator
    either deadlocks lane groups past their join or reconverges them
    late enough to reach ``exit``/``bar`` still diverged.  Branches that
    are unreachable from the entry, or that cannot reach an exit, are
    skipped (they can never push diverged lane groups).
    """
    cfg = cfg if cfg is not None else ControlFlowGraph(program)
    ipdom = cfg.immediate_postdominators()
    errors: List[Tuple[int, str]] = []
    for pc, inst in enumerate(program):
        if inst.opclass is not OpClass.BRANCH or inst.pred is None:
            continue
        if pc not in cfg.reachable or pc not in ipdom:
            continue
        join = ipdom[pc]
        if join is None:
            # The branch's sides never rejoin before program exit; the
            # emulator requires full reconvergence before `exit`.
            errors.append(
                (
                    pc,
                    "conditional branch has no post-dominating join "
                    "before exit (reconv %s can never reconverge all "
                    "lanes)" % (inst.reconv,),
                )
            )
        elif inst.reconv != join:
            errors.append(
                (
                    pc,
                    "reconvergence pc %s is not the immediate "
                    "post-dominator (expected %d)" % (inst.reconv, join),
                )
            )
    return errors
