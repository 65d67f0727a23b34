"""The microarchitecture-backend interface.

Everything about the modeled machine that is a *design decision* rather
than a parameter lives behind :class:`ArchBackend`: how the functional
emulator serialises divergent control flow, how many issue slots a core
has and how warps share them, how the analytical multithreading /
contention / CPI-stack models compose, and how interval profiles are
constructed.  ``repro.core`` and ``repro.timing`` dispatch through the
backend selected by ``GPUConfig.arch`` instead of hard-coding one
machine; ``repro.arch`` registers the shipped backends.

Contrast with ``repro.backend`` (the scalar/vector *compute* backend):
that switch picks between two implementations of the *same* math and is
bitwise-invisible, so it never keys the artifact store.  An architecture
backend changes the predictions themselves, which is why ``arch`` is a
fingerprinted :class:`~repro.config.GPUConfig` field.

See ``docs/architectures.md`` for the contract and a walkthrough of
adding a third backend.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional

# Safe at module level: nothing under repro.core / repro.trace imports
# repro.arch at import time (they defer get_arch into call sites), so
# these cannot cycle — and the hooks are on the per-prediction hot path,
# where per-call imports would be measurable (benchmarks/test_bench_arch).
from repro.core.contention import model_contention as _model_contention
from repro.core.cpi_stack import build_cpi_stack as _build_cpi_stack
from repro.core.interval import (
    build_interval_profiles as _build_interval_profiles,
)
from repro.core.multithreading import (
    model_multithreading as _model_multithreading,
)
from repro.trace.simt_stack import SimtStack

if TYPE_CHECKING:  # imports for annotations only
    import numpy as np

    from repro.config import GPUConfig
    from repro.core.contention import ContentionResult
    from repro.core.cpi_stack import CPIStack
    from repro.core.interval import IntervalProfile, IntervalProfiles
    from repro.core.latency import LatencyTable
    from repro.core.multithreading import MultithreadingResult


class ArchBackend:
    """One machine family: reconvergence + dispatch + analytical model.

    Subclasses override the hooks; the base class documents the contract
    and supplies the single-scheduler defaults.  Backends are stateless
    singletons — every hook receives the :class:`GPUConfig` it needs, so
    one instance serves every configuration and process.
    """

    #: Registry name; the value ``GPUConfig.arch`` takes.
    name: str = "base"
    #: How the functional emulator serialises divergent branches:
    #: ``"stack"`` (post-dominator reconvergence stack, one side at a
    #: time) or ``"interleave"`` (independent-thread-scheduling-style
    #: min-PC interleaving).  ``"stack"`` traces may use the batched
    #: lockstep emulator; any other policy runs the scalar warp loop.
    reconvergence: str = "stack"

    # -- dispatch structure -------------------------------------------------

    def schedulers_per_core(self, config: "GPUConfig") -> int:
        """Issue slots per core; each owns a static warp partition.

        The timing oracle creates this many scheduler partitions per
        core (warp → partition by ``age % n``), each issuing at most one
        warp-instruction per cycle.
        """
        return 1

    # -- trace semantics ----------------------------------------------------

    def make_reconvergence_stack(self, initial_mask: "np.ndarray"):
        """Divergence structure for one warp of the scalar emulator.

        Must implement the :class:`~repro.trace.simt_stack.SimtStack`
        interface (``pop_reconverged``/``top``/``branch``/``jump``/
        ``advance``/``depth``).
        """
        return SimtStack(initial_mask)

    # -- analytical model ---------------------------------------------------

    def build_interval_profiles(
        self,
        warps,
        latency_table: "LatencyTable",
        config: "GPUConfig",
    ) -> "IntervalProfiles":
        """Per-warp Eq. 4 interval profiles under this architecture."""
        return _build_interval_profiles(warps, latency_table,
                                        config.issue_rate)

    def model_multithreading(
        self,
        profile: "IntervalProfile",
        n_warps: int,
        policy: str,
        config: "GPUConfig",
        rr_mode: str = "probabilistic",
        alignment: float = 1.0,
    ) -> "MultithreadingResult":
        """Multi-warp CPI without contention (Sec. IV-A sharing rules)."""
        return _model_multithreading(
            profile, n_warps, policy, rr_mode=rr_mode, alignment=alignment
        )

    def model_contention(
        self,
        profile: "IntervalProfile",
        n_warps: int,
        config: "GPUConfig",
        avg_miss_latency: float,
    ) -> "ContentionResult":
        """MSHR/DRAM/SFU/scratchpad contention (Eq. 17-23)."""
        return _model_contention(profile, n_warps, config, avg_miss_latency)

    def build_cpi_stack(
        self,
        profile: "IntervalProfile",
        latency_table: "LatencyTable",
        multithreading: "MultithreadingResult",
        contention: "ContentionResult",
        config: "GPUConfig",
    ) -> "CPIStack":
        """Compose the Table III CPI stack for this architecture."""
        return _build_cpi_stack(
            profile, latency_table, multithreading, contention, config
        )

    # -- description --------------------------------------------------------

    def describe(self) -> str:
        """One-line human description for reports and ``--compare-arch``."""
        return self.name

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return "<ArchBackend %s>" % self.name


def schedulers_for(
    backend: "ArchBackend", config: "GPUConfig", n_warps: Optional[int] = None
) -> int:
    """Effective scheduler count: never more than the warps to schedule."""
    n = backend.schedulers_per_core(config)
    if n_warps is not None:
        n = min(n, max(n_warps, 1))
    return max(n, 1)
