"""Accuracy regression guards.

Loose per-class error caps for GPUMech against the oracle at tiny scale.
These are deliberately generous (roughly 2x the currently measured
errors) — their job is to catch silent accuracy regressions from future
changes, not to pin exact numbers.
"""

import pytest

from repro.config import GPUConfig
from repro.pipeline import Pipeline
from repro.workloads import Scale


@pytest.fixture(scope="module")
def pipeline():
    return Pipeline(GPUConfig.small(n_cores=2, warps_per_core=16), Scale.tiny())


#: kernel -> maximum tolerated relative CPI error of the full model.
ERROR_CAPS = {
    # coalesced / compute: the model should be tight here
    "vectoradd": 0.40,
    "cfd_step_factor": 0.40,
    "blackscholes": 0.40,
    "quasirandom": 0.15,
    "mandelbrot": 0.25,
    # divergent memory: contention modeling carries the prediction
    "strided_deg8": 0.45,
    "strided_deg32": 0.60,
    "cfd_compute_flux": 0.45,
    # write-heavy: the bandwidth model carries the prediction
    "sad_calc_8": 0.55,
    "transpose_naive": 0.55,
    "kmeans_invert_mapping": 0.65,
}


@pytest.mark.parametrize("kernel,cap", sorted(ERROR_CAPS.items()))
def test_gpumech_error_within_cap(pipeline, kernel, cap):
    result = pipeline.evaluate(kernel)
    error = result.error("mt_mshr_band")
    assert error <= cap, (
        "%s: GPUMech error %.1f%% exceeds regression cap %.0f%% "
        "(oracle CPI %.3f, model CPI %.3f)"
        % (kernel, 100 * error, 100 * cap, result.oracle_cpi,
           result.model_cpis["mt_mshr_band"])
    )


def test_mean_error_budget(pipeline):
    """The mean across the regression set stays under a global budget."""
    errors = [
        pipeline.evaluate(kernel).error("mt_mshr_band")
        for kernel in ERROR_CAPS
    ]
    mean = sum(errors) / len(errors)
    assert mean < 0.30


def test_gpumech_beats_naive_overall(pipeline):
    wins = 0
    ties = 0
    for kernel in ERROR_CAPS:
        result = pipeline.evaluate(kernel)
        band = result.error("mt_mshr_band")
        naive = result.error("naive")
        if band < naive - 1e-9:
            wins += 1
        elif band <= naive + 1e-9:
            ties += 1
    assert wins + ties >= len(ERROR_CAPS) * 0.6
