"""General design-space sweeps: any machine parameter x any kernels.

The paper's motivating use case is early design-space exploration; this
module provides the generic harness the figure drivers specialise:

>>> sweep = Sweep("n_mshrs", [16, 32, 64, 128])         # doctest: +SKIP
>>> result = sweep.run(pipeline, ["srad_kernel1"])        # doctest: +SKIP
>>> print(result.render())                              # doctest: +SKIP

Sweepable parameters are any :class:`~repro.config.GPUConfig` field
(``n_mshrs``, ``dram_bandwidth_gbps``, ``scheduler``, ``n_sfu_units``,
...) plus the pseudo-parameter ``warps_per_core`` (residency override).
Each point evaluates the oracle and all Table II models, so a sweep both
*predicts* (model CPIs) and *validates* (errors) in one pass.
"""

from __future__ import annotations

import dataclasses
import statistics
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

from repro.config import GPUConfig
from repro.harness.reporting import render_table
from repro.harness.runner import KernelResult, nanmean
from repro.pipeline import EvalRequest, Pipeline


class SweepError(ValueError):
    """Raised for unsweepable parameters."""


@dataclass
class SweepPoint:
    """All kernel results at one parameter value."""

    value: object
    results: Dict[str, KernelResult]

    def mean_error(self, model: str = "mt_mshr_band") -> float:
        """Mean relative error of one model at this point (NaNs skipped)."""
        return nanmean(
            r.error(model) for r in self.results.values()
        )

    def mean_cpi(self, model: Optional[str] = "mt_mshr_band") -> float:
        """Mean predicted (or, with ``model=None``, oracle) CPI."""
        if model is None:
            return statistics.fmean(
                r.oracle_cpi for r in self.results.values()
            )
        return statistics.fmean(
            r.model_cpis[model] for r in self.results.values()
        )


@dataclass
class SweepResult:
    """A completed sweep."""

    parameter: str
    points: List[SweepPoint] = field(default_factory=list)

    @property
    def values(self) -> List[object]:
        return [p.value for p in self.points]

    def best_value(self, kernel: str, by: str = "oracle") -> object:
        """Parameter value minimising a kernel's CPI.

        ``by`` is ``"oracle"`` or a model name — comparing the two tells
        you whether the *model* would have picked the right design point,
        the real test of a design-space-exploration tool.
        """
        def cpi(point: SweepPoint) -> float:
            result = point.results[kernel]
            if by == "oracle":
                return result.oracle_cpi
            return result.model_cpis[by]

        return min(self.points, key=cpi).value

    def model_picks_oracle_best(
        self, kernel: str, model: str = "mt_mshr_band"
    ) -> bool:
        """Whether the model and the oracle agree on the best point."""
        return self.best_value(kernel, "oracle") == self.best_value(
            kernel, model
        )

    def render(self, model: str = "mt_mshr_band") -> str:
        """Per-kernel CPI (model vs oracle) across the sweep."""
        kernels = sorted(self.points[0].results) if self.points else []
        rows = []
        for kernel in kernels:
            for point in self.points:
                result = point.results[kernel]
                rows.append(
                    (
                        kernel,
                        point.value,
                        "%.3f" % result.oracle_cpi,
                        "%.3f" % result.model_cpis[model],
                        "%.1f%%" % (100 * result.error(model)),
                    )
                )
        return render_table(
            ("kernel", self.parameter, "oracle CPI", "model CPI", "error"),
            rows,
            title="sweep of %s over %s" % (self.parameter, self.values),
        )


class Sweep:
    """A one-parameter sweep specification."""

    def __init__(self, parameter: str, values: Sequence[object]):
        if not values:
            raise SweepError("sweep needs at least one value")
        config_fields = {f.name for f in dataclasses.fields(GPUConfig)}
        if parameter != "warps_per_core" and parameter not in config_fields:
            raise SweepError(
                "unknown parameter %r; sweepable: warps_per_core, %s"
                % (parameter, ", ".join(sorted(config_fields)))
            )
        self.parameter = parameter
        self.values = list(values)

    def request(self, pipeline: Pipeline, kernel: str,
                value: object) -> EvalRequest:
        """The pipeline request of one (kernel × value) sweep point."""
        if self.parameter == "warps_per_core":
            return EvalRequest(kernel=kernel, warps_per_core=int(value))
        return EvalRequest(
            kernel=kernel,
            config=pipeline.config.with_(**{self.parameter: value}),
        )

    def run(self, pipeline: Pipeline, kernels: Sequence[str]) -> SweepResult:
        """Evaluate oracle + all models at every sweep point.

        The whole (value × kernel) grid goes through
        :meth:`Pipeline.evaluate_many` in one batch, so a pipeline with
        ``jobs > 1`` evaluates points in parallel and a warm artifact
        store skips everything already computed.
        """
        requests = [
            self.request(pipeline, kernel, value)
            for value in self.values
            for kernel in kernels
        ]
        flat = iter(pipeline.evaluate_many(requests))
        result = SweepResult(parameter=self.parameter)
        for value in self.values:
            point_results: Dict[str, KernelResult] = {
                kernel: next(flat) for kernel in kernels
            }
            result.points.append(SweepPoint(value=value, results=point_results))
        return result
