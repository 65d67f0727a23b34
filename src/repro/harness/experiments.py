"""One driver per evaluation figure/table of the paper (Sec. VI-VII).

Every ``run_figure*`` function takes a :class:`~repro.pipeline.Pipeline`
(which fixes the machine configuration and workload scale), produces the
same rows/series the paper plots, renders them as text, and returns a
structured result for programmatic use.  Absolute numbers differ from the
paper — the oracle is our own simulator, the kernels are synthetic
analogues — but the *shape* (model orderings, sweep directionality) is
asserted by ``tests/test_experiments.py`` and recorded in EXPERIMENTS.md.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

from repro.core.cpi_stack import StallType
from repro.harness.reporting import render_series, render_table
from repro.harness.runner import (
    MODEL_LABELS,
    MODELS,
    KernelResult,
    nanmean,
)
from repro.harness.sweeps import Sweep
from repro.pipeline import EvalRequest, Pipeline
from repro.workloads.suite import kernel_names, kernels_with_tag

#: Kernels used by the hardware-configuration sweeps (Fig. 13-15): a
#: cross-section of the suite's behaviour classes, kept small because
#: every sweep point re-runs the cycle-level oracle.
SWEEP_KERNELS = (
    "cfd_step_factor",
    "cfd_compute_flux",
    "kmeans_invert_mapping",
    "srad_kernel1",
    "strided_deg8",
    "strided_deg32",
    "kmeans_point",
    "sad_calc_8",
    "blackscholes",
    "mandelbrot",
    "spmv_jds",
    "sgemm_tile",
)

#: The Sec. VII case-study kernels (Fig. 16), in the paper's order.
CASE_STUDY_KERNELS = (
    "cfd_step_factor",
    "cfd_compute_flux",
    "kmeans_invert_mapping",
)

#: Warp counts of the scaling sweeps (Fig. 13 and Fig. 16).
WARP_SWEEP = (8, 16, 32, 48)

#: MSHR-entry sweep (Fig. 14).
MSHR_SWEEP = (64, 96, 128, 256)

#: DRAM bandwidth sweep in GB/s (Fig. 15).
BANDWIDTH_SWEEP = (64.0, 128.0, 192.0, 256.0)


@dataclass
class ExperimentResult:
    """Common result shape: structured data plus a rendered report."""

    experiment: str
    text: str
    data: Dict = field(default_factory=dict)

    def __str__(self) -> str:
        return self.text


def _mean_errors(results: Sequence[KernelResult]) -> Dict[str, float]:
    return {
        model: nanmean(r.error(model) for r in results)
        for model in MODELS
    }


def _fraction_under(
    results: Sequence[KernelResult], model: str, threshold: float = 0.20
) -> float:
    """Fraction of kernels with error below ``threshold`` (NaNs skipped)."""
    return nanmean(
        e if math.isnan(e) else (1.0 if e < threshold else 0.0)
        for e in (r.error(model) for r in results)
    )


# ---------------------------------------------------------------------------
# Fig. 4 — component-by-component error reduction on the SRAD kernel
# ---------------------------------------------------------------------------


def run_figure4(
    pipeline: Pipeline, kernel: str = "srad_kernel1"
) -> ExperimentResult:
    """Error ladder Naive -> MT -> +MSHR -> +Bandwidth for one kernel."""
    result = pipeline.evaluate(kernel)
    ladder = ["naive", "mt", "mt_mshr", "mt_mshr_band"]
    rows = [
        (MODEL_LABELS[m], result.model_cpis[m], "%.1f%%" % (100 * result.error(m)))
        for m in ladder
    ]
    rows.append(("oracle (detailed sim)", result.oracle_cpi, "-"))
    text = render_table(
        ("model", "CPI", "error"),
        rows,
        title="Figure 4: modeling components for %s (%s, %d warps/core)"
        % (kernel, result.policy, result.n_warps),
    )
    return ExperimentResult(
        "figure4",
        text,
        data={
            "kernel": kernel,
            "result": result,
            "errors": {m: result.error(m) for m in ladder},
        },
    )


# ---------------------------------------------------------------------------
# Fig. 7 — representative-warp selection strategies
# ---------------------------------------------------------------------------


def run_figure7(
    pipeline: Pipeline, kernels: Optional[Sequence[str]] = None
) -> ExperimentResult:
    """MAX vs MIN vs Clustering selection on control-divergent kernels."""
    kernels = (
        list(kernels)
        if kernels is not None
        else kernels_with_tag("control_divergent")
    )
    strategies = ("max", "min", "clustering")
    requests = [
        EvalRequest(kernel=name, selection_strategy=strategy)
        for name in kernels
        for strategy in strategies
    ]
    results = iter(pipeline.evaluate_many(requests))
    per_kernel: Dict[str, Dict[str, float]] = {
        name: {s: next(results).error("mt_mshr_band") for s in strategies}
        for name in kernels
    }
    ordered = sorted(per_kernel, key=lambda k: per_kernel[k]["clustering"])
    rows = [
        (name,)
        + tuple("%.1f%%" % (100 * per_kernel[name][s]) for s in strategies)
        for name in ordered
    ]
    means = {
        s: nanmean(per_kernel[k][s] for k in per_kernel)
        for s in strategies
    }
    rows.append(
        ("MEAN",) + tuple("%.1f%%" % (100 * means[s]) for s in strategies)
    )
    text = render_table(
        ("kernel", "MAX", "MIN", "Clustering"),
        rows,
        title="Figure 7: representative-warp selection on control-divergent "
        "kernels",
    )
    return ExperimentResult(
        "figure7", text, data={"per_kernel": per_kernel, "means": means}
    )


# ---------------------------------------------------------------------------
# Fig. 11 / Fig. 12 — per-kernel model comparison, RR and GTO
# ---------------------------------------------------------------------------


def run_model_comparison(
    pipeline: Pipeline,
    policy: str,
    kernels: Optional[Sequence[str]] = None,
) -> ExperimentResult:
    """Per-kernel errors of all Table II models under one policy."""
    kernels = list(kernels) if kernels is not None else kernel_names()
    config = pipeline.config.with_(scheduler=policy)
    results = pipeline.evaluate_many(
        [EvalRequest(kernel=name, config=config) for name in kernels]
    )
    rows = []
    for result in results:
        rows.append(
            (result.kernel,)
            + tuple("%.1f%%" % (100 * result.error(m)) for m in MODELS)
        )
    means = _mean_errors(results)
    rows.append(
        ("MEAN",) + tuple("%.1f%%" % (100 * means[m]) for m in MODELS)
    )
    gpumech_under_20 = _fraction_under(results, "mt_mshr_band")
    markov_under_20 = _fraction_under(results, "markov")
    figure = "figure11" if policy == "rr" else "figure12"
    text = render_table(
        ("kernel",) + tuple(MODEL_LABELS[m] for m in MODELS),
        rows,
        title="%s: model comparison, %s policy (%d kernels)"
        % (figure.capitalize(), policy.upper(), len(kernels)),
    )
    text += (
        "\nkernels with <20%% error: GPUMech %.0f%%, Markov_Chain %.0f%%"
        % (100 * gpumech_under_20, 100 * markov_under_20)
    )
    from repro.harness.validation import render_validation, validate_all

    text += "\n\n" + render_validation(validate_all(results))
    return ExperimentResult(
        figure,
        text,
        data={
            "policy": policy,
            "results": results,
            "means": means,
            "gpumech_under_20": gpumech_under_20,
            "markov_under_20": markov_under_20,
        },
    )


def run_figure11(pipeline: Pipeline, kernels=None) -> ExperimentResult:
    """Model comparison under the round-robin policy."""
    return run_model_comparison(pipeline, "rr", kernels)


def run_figure12(pipeline: Pipeline, kernels=None) -> ExperimentResult:
    """Model comparison under the greedy-then-oldest policy."""
    return run_model_comparison(pipeline, "gto", kernels)


# ---------------------------------------------------------------------------
# Fig. 13/14/15 — hardware-configuration sweeps
# ---------------------------------------------------------------------------


def _sweep(
    pipeline: Pipeline,
    figure: str,
    x_label: str,
    sweep: Sweep,
    kernels: Sequence[str],
) -> ExperimentResult:
    """Run ``sweep`` over ``kernels`` and plot each model's mean error.

    :meth:`Sweep.run` sends the whole (kernel × point) grid through
    the pipeline at once; with ``pipeline.jobs > 1`` it runs in parallel.
    """
    series: Dict[str, List[float]] = {MODEL_LABELS[m]: [] for m in MODELS}
    all_results: Dict = {}
    for point in sweep.run(pipeline, kernels).points:
        results = list(point.results.values())
        all_results[point.value] = results
        means = _mean_errors(results)
        for model in MODELS:
            series[MODEL_LABELS[model]].append(means[model])
    text = render_series(
        x_label,
        sweep.values,
        series,
        title="%s: mean relative error over %d kernels"
        % (figure.capitalize(), len(kernels)),
        percent=True,
    )
    return ExperimentResult(
        figure, text, data={"series": series, "results": all_results}
    )


def run_figure13(
    pipeline: Pipeline,
    kernels: Sequence[str] = SWEEP_KERNELS,
    warp_counts: Sequence[int] = WARP_SWEEP,
) -> ExperimentResult:
    """Mean error vs. warps per core (round-robin policy)."""
    return _sweep(
        pipeline, "figure13", "warps/core",
        Sweep("warps_per_core", warp_counts), kernels,
    )


def run_figure14(
    pipeline: Pipeline,
    kernels: Sequence[str] = SWEEP_KERNELS,
    mshr_counts: Sequence[int] = MSHR_SWEEP,
) -> ExperimentResult:
    """Mean error vs. number of MSHR entries."""
    return _sweep(
        pipeline, "figure14", "MSHRs", Sweep("n_mshrs", mshr_counts), kernels
    )


def run_figure15(
    pipeline: Pipeline,
    kernels: Sequence[str] = SWEEP_KERNELS,
    bandwidths: Sequence[float] = BANDWIDTH_SWEEP,
) -> ExperimentResult:
    """Mean error vs. DRAM bandwidth (GB/s)."""
    return _sweep(
        pipeline, "figure15", "GB/s",
        Sweep("dram_bandwidth_gbps", bandwidths), kernels,
    )


# ---------------------------------------------------------------------------
# Fig. 16 — CPI stacks across warp counts (the Sec. VII application)
# ---------------------------------------------------------------------------


def run_figure16(
    pipeline: Pipeline,
    kernels: Sequence[str] = CASE_STUDY_KERNELS,
    warp_counts: Sequence[int] = WARP_SWEEP,
) -> ExperimentResult:
    """CPI stacks + oracle CPI vs. warps/core for the case-study kernels.

    All values are normalised by the oracle CPI of the 8-warp
    configuration, as in the paper's Fig. 16.
    """
    sections: List[str] = []
    data: Dict[str, Dict] = {}
    categories = [t for t in StallType]
    sweep = Sweep("warps_per_core", warp_counts)
    flat = iter(
        pipeline.evaluate_many(
            [
                sweep.request(pipeline, name, warps)
                for name in kernels
                for warps in warp_counts
            ]
        )
    )
    for name in kernels:
        rows = []
        norm = None
        kernel_data: Dict[int, Dict] = {}
        for warps in warp_counts:
            result = next(flat)
            if norm is None:
                norm = result.oracle_cpi or 1.0
            stack = result.prediction.cpi_stack
            rows.append(
                (warps,)
                + tuple(
                    "%.3f" % (stack[c] / norm) for c in categories
                )
                + (
                    "%.3f" % (stack.total / norm),
                    "%.3f" % (result.oracle_cpi / norm),
                )
            )
            kernel_data[warps] = {
                "stack": {c.value: stack[c] / norm for c in categories},
                "model_cpi": stack.total / norm,
                "oracle_cpi": result.oracle_cpi / norm,
            }
        sections.append(
            render_table(
                ("warps",)
                + tuple(c.value for c in categories)
                + ("model", "oracle"),
                rows,
                title="Figure 16: %s (normalised to 8-warp oracle CPI)" % name,
            )
        )
        data[name] = kernel_data
    return ExperimentResult("figure16", "\n\n".join(sections), data=data)
