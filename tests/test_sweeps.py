"""Tests for the general design-space sweep API."""

import pytest

from repro.config import GPUConfig
from repro.harness.sweeps import Sweep, SweepError
from repro.pipeline import Pipeline
from repro.workloads import Scale


@pytest.fixture(scope="module")
def pipeline():
    return Pipeline(GPUConfig.small(n_cores=2, warps_per_core=8), Scale.tiny())


class TestSweepSpec:
    def test_unknown_parameter(self):
        with pytest.raises(SweepError):
            Sweep("clock_speed", [1, 2])

    def test_empty_values(self):
        with pytest.raises(SweepError):
            Sweep("n_mshrs", [])

    def test_config_fields_accepted(self):
        Sweep("n_mshrs", [32])
        Sweep("dram_bandwidth_gbps", [96.0])
        Sweep("scheduler", ["rr", "gto"])
        Sweep("warps_per_core", [4, 8])


class TestSweepRun:
    def test_mshr_sweep(self, pipeline):
        result = Sweep("n_mshrs", [32, 256]).run(pipeline, ["strided_deg32"])
        assert result.values == [32, 256]
        oracle_cpis = [
            p.results["strided_deg32"].oracle_cpi for p in result.points
        ]
        # More MSHRs never slow the divergent kernel down.
        assert oracle_cpis[1] <= oracle_cpis[0]

    def test_warps_sweep_uses_residency_override(self, pipeline):
        result = Sweep("warps_per_core", [2, 4]).run(pipeline, ["mandelbrot"])
        n_warps = [p.results["mandelbrot"].n_warps for p in result.points]
        assert n_warps == [2, 4]

    def test_scheduler_sweep(self, pipeline):
        result = Sweep("scheduler", ["rr", "gto"]).run(pipeline, ["vectoradd"])
        policies = [p.results["vectoradd"].policy for p in result.points]
        assert policies == ["rr", "gto"]

    def test_point_aggregates(self, pipeline):
        result = Sweep("n_mshrs", [32]).run(
            pipeline, ["vectoradd", "strided_deg8"]
        )
        point = result.points[0]
        assert point.mean_error() >= 0.0
        assert point.mean_cpi(None) > 0.0  # oracle mean
        assert point.mean_cpi("naive") > 0.0

    def test_best_value_and_agreement(self, pipeline):
        result = Sweep("warps_per_core", [2, 4]).run(pipeline, ["mandelbrot"])
        # More warps hide mandelbrot's dependence stalls: 4 wins for both.
        assert result.best_value("mandelbrot", "oracle") == 4
        assert result.model_picks_oracle_best("mandelbrot")

    def test_render(self, pipeline):
        result = Sweep("n_mshrs", [32, 64]).run(pipeline, ["strided_deg8"])
        text = result.render()
        assert "n_mshrs" in text and "strided_deg8" in text
