"""Model-vs-oracle evaluation of one kernel (the Table II comparison).

:class:`Runner` is a thin facade over :class:`repro.pipeline.Pipeline`:
every expensive artifact (functional trace, cache simulation, interval
profiles, oracle run) is content-addressed by the fingerprint of exactly
the configuration fields it depends on, so a hardware sweep re-runs only
the cache-sim-and-later stages — the cost structure the paper describes
in Sec. VI-D.  ``jobs > 1`` fans independent (kernel × sweep-point) work
out over processes; ``cache_dir`` persists artifacts across runs.

Evaluated models (Table II):

=================  =========================================================
``naive``          Eq. 1: optimistic overlap
``markov``         Chen & Aamodt first-order Markov-chain model
``mt``             GPUMech multithreading only (Sec. IV-A)
``mt_mshr``        multithreading + MSHR contention (Sec. IV-B1)
``mt_mshr_band``   full GPUMech: + DRAM bandwidth (Sec. IV-B2)
=================  =========================================================
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Sequence, Tuple, Union

from repro.config import GPUConfig
from repro.core.model import GPUMech, ModelInputs, Prediction
from repro.pipeline import ArtifactStore, EvalRequest, Pipeline
from repro.timing.stats import SimStats
from repro.trace.trace_types import KernelTrace
from repro.workloads.generators import Scale

#: Evaluation order of Table II.
MODELS = ("naive", "markov", "mt", "mt_mshr", "mt_mshr_band")

#: Display names used in reports (matching the paper's legends).
MODEL_LABELS = {
    "naive": "Naive_Interval",
    "markov": "Markov_Chain",
    "mt": "MT",
    "mt_mshr": "MT_MSHR",
    "mt_mshr_band": "MT_MSHR_BAND",
}


def nanmean(values: Iterable[float]) -> float:
    """Mean over the finite values, ``nan`` if none remain.

    Degenerate oracle runs report ``nan`` errors (see
    :meth:`KernelResult.error`); aggregations skip them rather than
    letting one broken point poison a whole sweep series.
    """
    finite = [v for v in values if not math.isnan(v)]
    if not finite:
        return float("nan")
    return sum(finite) / len(finite)


@dataclass
class KernelResult:
    """All model predictions and the oracle measurement for one kernel."""

    kernel: str
    policy: str
    n_warps: int
    oracle_cpi: float
    model_cpis: Dict[str, float]
    oracle: SimStats
    prediction: Prediction  # the full GPUMech prediction (stack etc.)

    def error(self, model: str) -> float:
        """Relative CPI error of a model against the oracle.

        A degenerate oracle run (zero CPI) has no meaningful error;
        report ``nan`` — never a silently perfect ``0.0`` — and let
        aggregations skip it (:func:`nanmean`).
        """
        if not self.oracle_cpi:
            return float("nan")
        return abs(self.model_cpis[model] - self.oracle_cpi) / self.oracle_cpi

    def errors(self) -> Dict[str, float]:
        """Relative errors of every evaluated model."""
        return {m: self.error(m) for m in self.model_cpis}


class Runner:
    """Evaluates suite kernels against the oracle under config sweeps.

    Parameters
    ----------
    config:
        Machine description (Table I) every evaluation defaults to.
    scale:
        Workload scale the suite kernels are built at (trace cache keys
        include it, so one process can hold runners at several scales).
    jobs:
        Process-pool width for :meth:`evaluate_many`; 1 (the default)
        runs everything serially.
    cache_dir:
        Optional directory for a persistent on-disk artifact store
        (content-addressed; safe to share across runs and processes).
    store:
        Pre-built :class:`~repro.pipeline.ArtifactStore` (mutually
        exclusive with ``cache_dir``).
    lint:
        Opt-in static verification: lint every kernel (cached and timed
        as its own pipeline stage) before its first trace, aborting on
        error-severity diagnostics.
    tracer:
        Span tracer shared with the pipeline (defaults to the
        process-wide tracer, which is disabled unless configured).
    metrics:
        Metrics registry the pipeline records into (a fresh private one
        by default).
    timeline_interval:
        Oracle sampling period in cycles; populates
        ``SimStats.timeline`` on every oracle run (None: off).
    ledger:
        Optional :class:`~repro.obs.ledger.PredictionLedger`; every
        evaluation appends one provenance + accuracy JSONL record.
    """

    def __init__(
        self,
        config: GPUConfig,
        scale: Optional[Scale] = None,
        jobs: int = 1,
        cache_dir: Optional[str] = None,
        store: Optional[ArtifactStore] = None,
        lint: bool = False,
        tracer=None,
        metrics=None,
        timeline_interval: Optional[float] = None,
        ledger=None,
    ):
        self.config = config
        self.scale = scale if scale is not None else Scale.small()
        self.pipeline = Pipeline(
            config,
            scale=self.scale,
            store=store,
            cache_dir=cache_dir,
            jobs=jobs,
            lint=lint,
            tracer=tracer,
            metrics=metrics,
            timeline_interval=timeline_interval,
            ledger=ledger,
        )

    @property
    def jobs(self) -> int:
        """Process-pool width used for parallel evaluation."""
        return self.pipeline.jobs

    @property
    def metrics(self):
        """The pipeline's metrics registry (stage counters and more)."""
        return self.pipeline.metrics

    def trace(self, kernel_name: str) -> KernelTrace:
        """The (cached) functional trace of a suite kernel."""
        return self.pipeline.trace(kernel_name)

    def prepare(
        self,
        kernel_name: str,
        config: Optional[GPUConfig] = None,
        selection_strategy: str = "clustering",
        warps_per_core: Optional[int] = None,
    ) -> Tuple[GPUMech, ModelInputs]:
        """Run the input collector + single-warp model for one kernel."""
        config = config if config is not None else self.config
        inputs = self.pipeline.model_inputs(
            kernel_name,
            config,
            selection_strategy=selection_strategy,
            warps_per_core=warps_per_core,
        )
        model = GPUMech(
            config,
            selection_strategy=selection_strategy,
            pipeline=self.pipeline,
        )
        return model, inputs

    def simulate(
        self,
        kernel_name: str,
        config: Optional[GPUConfig] = None,
        warps_per_core: Optional[int] = None,
    ) -> SimStats:
        """Run the timing oracle for one kernel (content-addressed)."""
        return self.pipeline.simulate(kernel_name, config, warps_per_core)

    def evaluate(
        self,
        kernel_name: str,
        config: Optional[GPUConfig] = None,
        policy: Optional[str] = None,
        warps_per_core: Optional[int] = None,
        selection_strategy: str = "clustering",
    ) -> KernelResult:
        """Oracle + all five Table II models on one kernel."""
        return self.pipeline.evaluate(
            kernel_name,
            config=config,
            policy=policy,
            warps_per_core=warps_per_core,
            selection_strategy=selection_strategy,
        )

    def evaluate_many(
        self,
        requests: Sequence[Union[EvalRequest, dict]],
        jobs: Optional[int] = None,
    ) -> List[KernelResult]:
        """Evaluate many sweep points, in parallel when ``jobs > 1``.

        Results come back in request order, bitwise-identical to serial
        execution.
        """
        return self.pipeline.evaluate_many(requests, jobs=jobs)
