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
from typing import Optional

from repro.config import GPUConfig
from repro.core.contention import ContentionResult
from repro.core.cpi_stack import CPIStack
from repro.core.interval import IntervalProfile, IntervalProfiles
from repro.core.latency import LatencyTable
from repro.core.multithreading import MultithreadingResult, kernel_alignment
from repro.core.representative import RepresentativeSelection
from repro.isa.kernel import Kernel
from repro.memory.cache_simulator import CacheSimResult
from repro.trace.emulator import emulate
from repro.trace.memory_image import MemoryImage
from repro.trace.trace_types import KernelTrace


@dataclass
class ModelInputs:
    """Everything the multi-warp model needs, computed once per kernel."""

    trace: KernelTrace
    cache_result: CacheSimResult
    latency_table: LatencyTable
    profiles: IntervalProfiles
    selection: RepresentativeSelection
    avg_miss_latency: float

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
    #: Architecture backend that produced this prediction
    #: (``GPUConfig.arch``; see ``repro.arch``).
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


def resident_warps_per_core(
    trace: KernelTrace,
    config: GPUConfig,
    warps_per_core: Optional[int] = None,
) -> int:
    """Concurrently resident warps on one core (block-granular residency).

    This is the ``#warps`` the multi-warp model plugs into Eq. 7/18 —
    the same residency the timing oracle enforces.
    """
    limit = warps_per_core if warps_per_core is not None else (
        config.max_warps_per_core
    )
    blocks = trace.n_blocks
    if not blocks:
        return 1
    warps_per_block = max(
        len(trace.warps_of_block(0)), 1
    )
    blocks_per_core = -(-blocks // config.n_cores)  # ceil division
    resident_blocks = min(max(limit // warps_per_block, 1), blocks_per_core)
    return resident_blocks * warps_per_block


class GPUMech:
    """The end-to-end GPUMech model.

    Parameters
    ----------
    config:
        Machine description (Table I); its ``scheduler`` field is the
        default policy for predictions.
    selection_strategy:
        Representative-warp strategy: ``"clustering"`` (paper),
        ``"max"``, ``"min"`` or ``"first"``.
    rr_mode:
        Round-robin non-overlap counting: ``"probabilistic"`` (Eq. 10-11,
        the default), ``"lockstep"`` or ``"blended"`` — see
        :func:`repro.core.multithreading.model_multithreading`.
    """

    def __init__(
        self,
        config: GPUConfig,
        selection_strategy: str = "clustering",
        rr_mode: str = "probabilistic",
        pipeline=None,
    ):
        self.config = config
        self.selection_strategy = selection_strategy
        self.rr_mode = rr_mode
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
        warps_per_core: Optional[int] = None,
    ) -> ModelInputs:
        """Run the input collector and single-warp model (Fig. 5, left).

        ``warps_per_core`` sets the residency the cache simulator models
        (Sec. V-A: the cache sim uses the modeled system's warp count);
        pass the same override you will give :meth:`predict`.

        The stage chain (cache sim → latency table → interval profiles →
        clustering) runs through :attr:`pipeline`, so repeated calls for
        the same trace and configuration are content-addressed cache hits.
        """
        if trace is None:
            if kernel is None:
                raise ValueError("provide a kernel or a pre-computed trace")
            trace = emulate(kernel, self.config, memory=memory)
        return self.pipeline.model_inputs_from_trace(
            trace,
            config=self.config,
            selection_strategy=self.selection_strategy,
            warps_per_core=warps_per_core,
        )

    # Stage 2: multi-warp model ---------------------------------------------------

    def predict(
        self,
        inputs: ModelInputs,
        n_warps: Optional[int] = None,
        policy: Optional[str] = None,
        warps_per_core: Optional[int] = None,
    ) -> Prediction:
        """Predict CPI under multithreading and contention (Fig. 5, right)."""
        from repro.arch import get_arch  # deferred: circular import

        policy = policy if policy is not None else self.config.scheduler
        if n_warps is None:
            n_warps = resident_warps_per_core(
                inputs.trace, self.config, warps_per_core
            )
        profile = inputs.representative
        alignment = 1.0
        if self.rr_mode == "blended" and policy == "rr":
            rep_trace = inputs.trace.warps[inputs.selection.index]
            alignment = kernel_alignment(rep_trace, inputs.latency_table)
        # Every microarchitecture-specific composition step dispatches
        # through the backend; gpumech2014 delegates verbatim to the
        # repro.core functions (bitwise-identical predictions).
        arch = get_arch(self.config.arch)
        multithreading = arch.model_multithreading(
            profile, n_warps, policy, self.config, rr_mode=self.rr_mode,
            alignment=alignment,
        )
        contention = arch.model_contention(
            profile, n_warps, self.config, inputs.avg_miss_latency
        )
        stack = arch.build_cpi_stack(
            profile, inputs.latency_table, multithreading, contention,
            self.config,
        )
        cpi_mshr, cpi_sfu, cpi_smem, cpi_queue = (
            contention.effective_components(multithreading.cpi)
        )
        cpi = (
            multithreading.cpi + cpi_mshr + cpi_sfu + cpi_smem + cpi_queue
        )  # Eq. 3
        return Prediction(
            kernel_name=inputs.trace.kernel_name,
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
            selection_strategy=inputs.selection.strategy,
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
