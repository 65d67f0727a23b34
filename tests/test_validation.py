"""Tests for the aggregate validation metrics."""

import math

import pytest

from repro.config import GPUConfig
from repro.harness.runner import MODELS
from repro.harness.validation import (
    render_validation,
    validate_all,
    validate_model,
)
from repro.pipeline import Pipeline
from repro.workloads import Scale


@pytest.fixture(scope="module")
def results():
    pipeline = Pipeline(GPUConfig.small(n_cores=2, warps_per_core=8),
                        Scale.tiny())
    kernels = ["vectoradd", "strided_deg8", "strided_deg32", "mandelbrot",
               "sad_calc_8"]
    return [pipeline.evaluate(name) for name in kernels]


class TestValidateModel:
    def test_error_statistics(self, results):
        v = validate_model(results, "mt_mshr_band")
        assert v.n == len(results)
        assert 0.0 <= v.median_error <= v.max_error
        assert v.mean_error <= v.max_error
        assert 0.0 <= v.fraction_under_20pct <= 1.0

    def test_correlations_strong_for_gpumech(self, results):
        v = validate_model(results, "mt_mshr_band")
        # The kernel set spans CPI ~1 to ~70: a usable model must rank
        # them correctly and correlate strongly.
        assert v.spearman_rho == pytest.approx(1.0)
        assert v.pearson_r > 0.95

    def test_naive_ranks_worse_or_equal(self, results):
        naive = validate_model(results, "naive")
        band = validate_model(results, "mt_mshr_band")
        assert band.mean_error <= naive.mean_error

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            validate_model([], "naive")

    def test_degenerate_correlation_is_nan(self, results):
        one = validate_model(results[:1], "naive")
        assert math.isnan(one.pearson_r)


class TestValidateAll:
    def test_covers_all_models(self, results):
        validations = validate_all(results)
        assert set(validations) == set(MODELS)

    def test_render(self, results):
        text = render_validation(validate_all(results))
        assert "spearman rho" in text
        assert "MT_MSHR_BAND" in text
