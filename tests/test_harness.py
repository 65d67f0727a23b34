"""Tests for the experiment harness: pipeline, reporting, speedup."""

import pytest

from repro.config import GPUConfig
from repro.harness.reporting import render_series, render_table
from repro.harness.runner import MODEL_LABELS, MODELS
from repro.pipeline import Pipeline
from repro.workloads import Scale


@pytest.fixture(scope="module")
def pipeline():
    return Pipeline(GPUConfig.small(n_cores=2, warps_per_core=8), Scale.tiny())


class TestReporting:
    def test_table_alignment(self):
        text = render_table(
            ("name", "value"), [("a", 1.0), ("longer", 2.5)], title="T"
        )
        lines = text.splitlines()
        assert lines[0] == "T"
        assert "name" in lines[1]
        assert set(lines[2]) <= {"-", " "}
        assert "1.000" in text and "2.500" in text

    def test_series_percent(self):
        text = render_series(
            "x", [1, 2], {"model": [0.1, 0.25]}, percent=True
        )
        assert "10.0%" in text and "25.0%" in text

    def test_series_raw(self):
        text = render_series("x", [1], {"m": [0.5]})
        assert "0.500" in text


class TestRunner:
    def test_trace_cached(self, pipeline):
        a = pipeline.trace("vectoradd")
        b = pipeline.trace("vectoradd")
        assert a is b

    def test_evaluate_produces_all_models(self, pipeline):
        result = pipeline.evaluate("vectoradd")
        assert set(result.model_cpis) == set(MODELS)
        assert result.oracle_cpi > 0
        assert all(cpi > 0 for cpi in result.model_cpis.values())

    def test_errors_are_relative(self, pipeline):
        result = pipeline.evaluate("vectoradd")
        for model in MODELS:
            expected = abs(
                result.model_cpis[model] - result.oracle_cpi
            ) / result.oracle_cpi
            assert result.error(model) == pytest.approx(expected)
        assert set(result.errors()) == set(MODELS)

    def test_policy_from_config(self, pipeline):
        gto = pipeline.config.with_(scheduler="gto")
        result = pipeline.evaluate("vectoradd", config=gto)
        assert result.policy == "gto"

    def test_warps_per_core_changes_prediction(self, pipeline):
        # A dependence-stall kernel: more resident warps hide stalls.
        few = pipeline.evaluate(
            "mandelbrot", pipeline.config.with_(max_threads_per_core=64)
        )
        many = pipeline.evaluate(
            "mandelbrot", pipeline.config.with_(max_threads_per_core=128)
        )
        assert few.n_warps == 2 and many.n_warps == 4
        assert many.oracle_cpi < few.oracle_cpi
        assert many.model_cpis["mt"] < few.model_cpis["mt"]

    def test_model_ladder_is_cumulative(self, pipeline):
        """MT <= MT_MSHR <= MT_MSHR_BAND by construction."""
        for kernel in ("strided_deg32", "sad_calc_8", "vectoradd"):
            result = pipeline.evaluate(kernel)
            assert (
                result.model_cpis["mt"]
                <= result.model_cpis["mt_mshr"] + 1e-12
            )
            assert (
                result.model_cpis["mt_mshr"]
                <= result.model_cpis["mt_mshr_band"] + 1e-12
            )

    def test_labels_match_paper(self):
        assert MODEL_LABELS["mt_mshr_band"] == "MT_MSHR_BAND"
        assert MODEL_LABELS["naive"] == "Naive_Interval"


class TestSpeedupHarness:
    def test_measures_positive_times(self, pipeline):
        from repro.harness.speedup import measure_speedup

        results = measure_speedup(pipeline, ["vectoradd"])
        (result,) = results
        assert result.oracle_seconds > 0
        assert result.model_seconds > 0
        assert result.speedup > 0
        assert result.reconfigure_seconds <= result.model_seconds

    def test_run_speedup_renders(self, pipeline):
        from repro.harness.speedup import run_speedup

        result = run_speedup(pipeline, ["vectoradd", "saxpy"])
        assert "speedup" in result.text
        assert result.data["overall_speedup"] > 0
