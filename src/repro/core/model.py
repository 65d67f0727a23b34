"""GPUMech facade: kernel → trace → profiles → CPI prediction (Fig. 5).

The expensive, *hardware-independent* work (functional emulation, the
per-warp interval profiles, representative-warp clustering) is done once
per kernel in :meth:`GPUMech.prepare` and captured in a
:class:`ModelInputs`; predictions for different warp counts, scheduling
policies or machine parameters reuse it — mirroring the paper's
observation (Sec. VI-D) that exploring hardware configurations only
requires re-running the cache simulation and the representative warp's
interval algorithm.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Optional

from repro.config import GPUConfig
from repro.core.contention import ContentionResult, model_contention
from repro.core.cpi_stack import CPIStack, build_cpi_stack
from repro.core.interval import IntervalProfile, IntervalProfiles
from repro.core.latency import LatencyTable
from repro.core.multithreading import MultithreadingResult, model_multithreading
from repro.core.representative import RepresentativeSelection
from repro.isa.kernel import Kernel
from repro.memory.cache_simulator import CacheSimResult
from repro.trace.emulator import emulate
from repro.trace.memory_image import MemoryImage
from repro.trace.trace_types import KernelTrace


class ModelInputs:
    """Everything the multi-warp model needs, computed once per kernel.

    The representative selection is held: it carries all a prediction
    reads (the representative's profile and single-warp stack, the
    average miss latency, the kernel name and launch geometry).  The
    other artifacts, the trace included, come from ``load(stage)``,
    which the pipeline answers from the walk that made the inputs: it
    reads each from the store, or builds it, on first access only.
    Neither a prediction nor the baselines read any of them, so a warm
    evaluation unpickles none.
    """

    def __init__(
        self,
        selection: RepresentativeSelection,
        load: Callable[[str], Any],
    ):
        self.selection = selection
        self._load = load

    @property
    def trace(self) -> KernelTrace:
        """The functional trace (``trace`` stage)."""
        return self._load("trace")

    @property
    def cache_result(self) -> CacheSimResult:
        """The functional cache replay (``cache_sim`` stage)."""
        return self._load("cache_sim")

    @property
    def latency_table(self) -> LatencyTable:
        """Per-PC latencies (``latency_table`` stage)."""
        return self._load("latency_table")

    @property
    def profiles(self) -> IntervalProfiles:
        """Every warp's interval profile (``interval_profiles`` stage)."""
        return self._load("interval_profiles")

    @property
    def representative(self) -> IntervalProfile:
        """The selected representative warp's interval profile."""
        return self.selection.profile


@dataclass
class Prediction:
    """A GPUMech performance prediction."""

    kernel_name: str
    policy: str
    n_warps: int
    cpi: float
    cpi_multithreading: float
    cpi_mshr: float
    cpi_queue: float
    #: SFU-pipeline contention (extension; zero for balanced designs).
    cpi_sfu: float
    #: Scratchpad bank-serialisation CPI (extension; zero without smem).
    cpi_smem: float
    single_warp_cpi: float
    rep_warp_id: int
    selection_strategy: str
    cpi_stack: CPIStack
    multithreading: MultithreadingResult
    contention: ContentionResult
    #: Machine this prediction describes (``GPUConfig.arch``).
    arch: str = "gpumech2014"

    @property
    def ipc(self) -> float:
        """Predicted per-core instructions per cycle."""
        return 1.0 / self.cpi if self.cpi else 0.0

    @property
    def cpi_contention(self) -> float:
        """Combined memory-contention CPI (Eq. 17)."""
        return self.cpi_mshr + self.cpi_queue

    def summary(self) -> str:
        """One-line prediction description for logs and examples."""
        sfu = " + SFU %.3f" % self.cpi_sfu if self.cpi_sfu else ""
        sfu += " + SMEM %.3f" % self.cpi_smem if self.cpi_smem else ""
        return (
            "%s [%s, %d warps]: CPI %.3f = MT %.3f + MSHR %.3f + QUEUE %.3f%s "
            "(rep warp %d)"
            % (
                self.kernel_name,
                self.policy,
                self.n_warps,
                self.cpi,
                self.cpi_multithreading,
                self.cpi_mshr,
                self.cpi_queue,
                sfu,
                self.rep_warp_id,
            )
        )


def resident_warps_per_core(launch, config: GPUConfig) -> int:
    """Concurrently resident warps on one core (block-granular residency).

    This is the ``#warps`` the multi-warp model plugs into Eq. 7/18 —
    the same residency the timing oracle enforces.  ``launch`` is the
    :class:`KernelTrace`, or the :class:`RepresentativeSelection` that
    copies its ``n_blocks`` and ``warps_per_block``.
    """
    limit = config.max_warps_per_core
    blocks = launch.n_blocks
    if not blocks:
        return 1
    warps_per_block = max(launch.warps_per_block, 1)
    blocks_per_core = -(-blocks // config.n_cores)  # ceil division
    resident_blocks = min(max(limit // warps_per_block, 1), blocks_per_core)
    return resident_blocks * warps_per_block


class GPUMech:
    """The end-to-end GPUMech model.

    Parameters
    ----------
    config:
        Machine description (Table I): its ``scheduler`` is the policy
        and its ``max_warps_per_core`` the residency of every
        prediction.
    selection_strategy:
        Representative-warp strategy: ``"clustering"`` (paper),
        ``"max"``, ``"min"`` or ``"first"``.
    """

    def __init__(
        self,
        config: GPUConfig,
        selection_strategy: str = "clustering",
        pipeline=None,
    ):
        self.config = config
        self.selection_strategy = selection_strategy
        #: The staged pipeline backing :meth:`prepare` (lazily created;
        #: pass one explicitly to share its artifact store and counters).
        self._pipeline = pipeline

    @property
    def pipeline(self):
        """The :class:`repro.pipeline.Pipeline` this model runs through."""
        if self._pipeline is None:
            from repro.pipeline import Pipeline  # deferred: circular import

            self._pipeline = Pipeline(self.config)
        return self._pipeline

    # Stage 1: kernel-dependent, hardware-configuration-light ------------------

    def prepare(
        self,
        kernel: Optional[Kernel] = None,
        trace: Optional[KernelTrace] = None,
        memory: Optional[MemoryImage] = None,
    ) -> ModelInputs:
        """Run the input collector and single-warp model (Fig. 5, left).

        The cache simulator models the config's residency (Sec. V-A: the
        cache sim uses the modeled system's warp count).  The stage chain
        (cache sim → latency table → interval profiles → clustering) runs
        through :attr:`pipeline`, so repeated calls for the same trace and
        configuration are content-addressed cache hits.
        """
        if trace is None:
            if kernel is None:
                raise ValueError("provide a kernel or a pre-computed trace")
            trace = emulate(kernel, self.config, memory=memory)
        return self.pipeline.model_inputs_from_trace(
            trace,
            config=self.config,
            selection_strategy=self.selection_strategy,
        )

    # Stage 2: multi-warp model ---------------------------------------------------

    def predict(
        self,
        inputs: ModelInputs,
        n_warps: Optional[int] = None,
    ) -> Prediction:
        """Predict CPI under multithreading and contention (Fig. 5, right).

        ``n_warps`` replaces the config's resident warps in the model
        alone (a model-only what-if; the cache replay keeps the config's
        residency).  Reads ``inputs.selection`` alone, never the trace
        or another upstream artifact.  The only arch-specific step is
        the issue-slot count the multithreading model runs with
        (``schedulers_per_core``); contention and the CPI stack are
        per-core under every arch.
        """
        policy = self.config.scheduler
        selection = inputs.selection
        if n_warps is None:
            n_warps = resident_warps_per_core(selection, self.config)
        profile = selection.profile
        multithreading = model_multithreading(
            profile, n_warps, policy,
            n_schedulers=self.config.schedulers_per_core,
        )
        contention = model_contention(
            profile, n_warps, self.config, selection.avg_miss_latency,
        )
        stack = build_cpi_stack(
            selection.single_warp_stack, multithreading, contention
        )
        cpi_mshr, cpi_sfu, cpi_smem, cpi_queue = (
            contention.effective_components(multithreading.cpi)
        )
        cpi = (
            multithreading.cpi + cpi_mshr + cpi_sfu + cpi_smem + cpi_queue
        )  # Eq. 3
        return Prediction(
            kernel_name=selection.kernel_name,
            policy=policy,
            n_warps=n_warps,
            cpi=cpi,
            cpi_multithreading=multithreading.cpi,
            cpi_mshr=cpi_mshr,
            cpi_queue=cpi_queue,
            cpi_sfu=cpi_sfu,
            cpi_smem=cpi_smem,
            single_warp_cpi=profile.single_warp_cpi,
            rep_warp_id=profile.warp_id,
            selection_strategy=selection.strategy,
            cpi_stack=stack,
            multithreading=multithreading,
            contention=contention,
            arch=self.config.arch,
        )

    def predict_kernel(
        self,
        kernel: Kernel,
        memory: Optional[MemoryImage] = None,
        **predict_kwargs,
    ) -> Prediction:
        """Convenience: prepare + predict in one call."""
        return self.predict(self.prepare(kernel, memory=memory), **predict_kwargs)
