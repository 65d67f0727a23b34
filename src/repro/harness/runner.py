"""Model-vs-oracle results of one kernel (the Table II comparison).

:meth:`repro.pipeline.Pipeline.evaluate` produces a
:class:`KernelResult`: the oracle measurement next to the CPI of every
evaluated model (Table II):

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
from typing import Dict, Iterable

from repro.core.model import Prediction
from repro.timing.stats import SimStats

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
