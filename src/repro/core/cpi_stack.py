"""CPI-stack construction (Sec. VII, Table III).

A CPI stack breaks predicted CPI into additive categories so developers
can see *what* limits performance:

====================  =====================================================
Category              Cycles attributed to it
====================  =====================================================
BASE                  instruction issue (one cycle per instruction)
DEP                   stalls on compute-instruction dependencies
L1                    stalls on loads served by the L1
L2                    stalls on loads served by the L2
DRAM                  stalls on loads served by DRAM (base access latency)
MSHR                  modeled MSHR queuing delay
QUEUE                 modeled DRAM-bandwidth queuing delay
====================  =====================================================

Construction follows the paper: build the representative warp's stack by
attributing each interval's stall to its cause (memory stalls split by
the causing PC's miss-event distribution), shrink every category by
``CPI_multithreading / CPI_single_warp`` so relative importance survives
multithreading, then append the MSHR and QUEUE categories from the
contention model.  The stack sums exactly to ``CPI_final``.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Dict, Optional

import numpy as np

from repro.core.contention import ContentionResult
from repro.core.interval import IntervalProfile
from repro.core.latency import LatencyTable
from repro.core.multithreading import MultithreadingResult
from repro.memory.hierarchy import MissEvent


class StallType(enum.Enum):
    """CPI-stack categories (Table III, plus the SFU extension).

    ``SFU`` is not in the paper's Table III: it carries the SFU-pipeline
    contention of the extension model and is zero under the paper's
    balanced-design assumption (``n_sfu_units == warp_size``).
    """

    BASE = "BASE"
    DEP = "DEP"
    L1 = "L1"
    L2 = "L2"
    DRAM = "DRAM"
    MSHR = "MSHR"
    QUEUE = "QUEUE"
    SFU = "SFU"
    SMEM = "SMEM"


_EVENT_CATEGORY = {
    MissEvent.L1_HIT: StallType.L1,
    MissEvent.L2_HIT: StallType.L2,
    MissEvent.L2_MISS: StallType.DRAM,
}

#: Categories a single-warp stall is split over, in split-column order.
_STALL_SPLIT = (StallType.DEP,) + tuple(_EVENT_CATEGORY.values())


@dataclass
class CPIStack:
    """An additive CPI breakdown."""

    components: Dict[StallType, float] = field(
        default_factory=lambda: {t: 0.0 for t in StallType}
    )

    def __getitem__(self, key: StallType) -> float:
        return self.components[key]

    @property
    def total(self) -> float:
        """Sum of all categories (the final CPI), added in category
        order on every interpreter (the builtin ``sum`` compensates
        floats from Python 3.12 on)."""
        total = 0.0
        for value in self.components.values():
            total += value
        return total

    def scaled(self, factor: float) -> "CPIStack":
        """A copy with every category multiplied by ``factor``."""
        return CPIStack({t: v * factor for t, v in self.components.items()})

    def as_dict(self) -> Dict[str, float]:
        """Category-name -> value mapping (JSON-friendly)."""
        return {t.value: v for t, v in self.components.items()}

    def render(self, width: int = 50) -> str:
        """ASCII bar rendering for terminal reports."""
        total = self.total or 1.0
        lines = ["CPI stack (total %.3f):" % self.total]
        for stall_type in StallType:
            value = self.components[stall_type]
            bar = "#" * int(round(width * value / total))
            lines.append("  %-5s %8.3f  %s" % (stall_type.value, value, bar))
        return "\n".join(lines)


def render_stacks(
    stacks: "Dict[str, CPIStack]",
    width: int = 60,
    normalise_to: Optional[float] = None,
) -> str:
    """Side-by-side horizontal rendering of several CPI stacks.

    The Fig. 16 visualization: one bar per configuration (e.g. warp
    count), segmented by category, on a shared scale.  ``normalise_to``
    divides all values (the paper normalises to the 8-warp oracle CPI).
    """
    glyphs = {
        StallType.BASE: "B",
        StallType.DEP: "D",
        StallType.L1: "1",
        StallType.L2: "2",
        StallType.DRAM: "M",
        StallType.MSHR: "H",
        StallType.QUEUE: "Q",
        StallType.SFU: "S",
        StallType.SMEM: "P",
    }
    scale = normalise_to if normalise_to else 1.0
    peak = max((stack.total / scale for stack in stacks.values()), default=1.0)
    peak = peak or 1.0
    label_width = max((len(label) for label in stacks), default=0)
    lines = [
        "CPI stacks (%s)" % ", ".join(
            "%s=%s" % (g, t.value) for t, g in glyphs.items()
        )
    ]
    for label, stack in stacks.items():
        bar = []
        for stall_type in StallType:
            segment = int(round(width * (stack[stall_type] / scale) / peak))
            bar.append(glyphs[stall_type] * segment)
        lines.append(
            "%s |%s| %.3f"
            % (label.rjust(label_width), "".join(bar), stack.total / scale)
        )
    return "\n".join(lines)


def single_warp_stack(
    profile: IntervalProfile, latency_table: LatencyTable
) -> CPIStack:
    """The representative warp's per-instruction CPI stack.

    Each interval's stall goes to DEP or — when a load with cache
    statistics caused it — splits over L1/L2/DRAM by that PC's
    miss-event distribution.
    """
    stack = CPIStack()
    n_insts = profile.n_insts
    if not n_insts:
        return stack
    components = stack.components
    components[StallType.BASE] = 1.0
    intervals = profile.columns
    # Split of a stall over (DEP, L1, L2, DRAM): row 0 for compute
    # causes, one row per memory cause PC.
    memory = intervals.cause_is_memory
    causes = intervals.cause_pc[memory]
    pcs = sorted(set(causes.tolist()))
    split = [(1.0, 0.0, 0.0, 0.0)]
    for pc in pcs:
        stats = latency_table.stats_for(pc)
        if stats is None or not stats.n_insts:
            split.append((1.0, 0.0, 0.0, 0.0))
        else:
            split.append((0.0,) + tuple(
                stats.inst_event_fraction(event) for event in _EVENT_CATEGORY
            ))
    row = np.zeros(profile.n_intervals, dtype=np.intp)
    row[memory] = np.searchsorted(pcs, causes) + 1
    # Unstalled intervals and other categories add exact zeros, so each
    # category's left-to-right sum is the one of its own terms.
    terms = intervals.stall_cycles[:, None] * np.array(split)[row] / n_insts
    totals = np.add.accumulate(terms)[-1] + 0.0
    for category, total in zip(_STALL_SPLIT, totals.tolist()):
        components[category] += total
    return stack


def build_cpi_stack(
    single_warp: CPIStack,
    multithreading: MultithreadingResult,
    contention: ContentionResult,
) -> CPIStack:
    """The kernel's CPI stack under multithreading and contention.

    ``single_warp`` is the representative's :func:`single_warp_stack`,
    computed once per kernel by the clustering stage; it is scaled into
    a new stack and never modified.
    """
    single_cpi = single_warp.total
    factor = multithreading.cpi / single_cpi if single_cpi else 0.0
    stack = single_warp.scaled(factor)
    mshr, sfu, smem, queue = contention.effective_components(
        multithreading.cpi
    )
    stack.components[StallType.MSHR] = mshr
    stack.components[StallType.SFU] = sfu
    stack.components[StallType.SMEM] = smem
    stack.components[StallType.QUEUE] = queue
    return stack
