"""Tests for the results export module."""

import csv
import json
import os

import numpy as np
import pytest

from repro.config import GPUConfig
from repro.harness.experiments import run_figure13, run_model_comparison
from repro.harness.export import (
    experiment_to_dict,
    save_comparison_csv,
    save_experiment_json,
    save_series_csv,
    to_jsonable,
)
from repro.pipeline import Pipeline
from repro.workloads import Scale


@pytest.fixture(scope="module")
def pipeline():
    return Pipeline(GPUConfig.small(n_cores=2, warps_per_core=8), Scale.tiny())


class TestToJsonable:
    def test_primitives(self):
        assert to_jsonable(1) == 1
        assert to_jsonable("x") == "x"
        assert to_jsonable(None) is None

    def test_numpy_types(self):
        assert to_jsonable(np.int64(3)) == 3
        assert to_jsonable(np.float64(0.5)) == 0.5
        assert to_jsonable(np.array([1, 2])) == [1, 2]

    def test_enum_and_dataclass(self):
        from repro.core.cpi_stack import CPIStack, StallType

        assert to_jsonable(StallType.DRAM) == "DRAM"
        stack = CPIStack()
        stack.components[StallType.BASE] = 1.0
        payload = to_jsonable(stack)
        assert payload["components"]["BASE"] == 1.0

    def test_nested_and_roundtrippable(self):
        payload = to_jsonable({"a": [np.float32(1.5), {"b": (1, 2)}]})
        assert json.loads(json.dumps(payload)) == payload


class TestExperimentExport:
    def test_json_export(self, pipeline, tmp_path):
        result = run_model_comparison(pipeline, "rr", ["vectoradd"])
        path = os.path.join(tmp_path, "fig11.json")
        save_experiment_json(result, path)
        with open(path) as handle:
            payload = json.load(handle)
        assert payload["experiment"] == "figure11"
        assert "means" in payload["data"]

    def test_comparison_csv(self, pipeline, tmp_path):
        result = run_model_comparison(
            pipeline, "rr", ["vectoradd", "strided_deg8"]
        )
        path = os.path.join(tmp_path, "fig11.csv")
        save_comparison_csv(result, path)
        with open(path) as handle:
            rows = list(csv.DictReader(handle))
        assert len(rows) == 2
        assert rows[0]["kernel"] == "vectoradd"
        assert float(rows[0]["oracle_cpi"]) > 0
        assert "mt_mshr_band_error" in rows[0]

    def test_series_csv(self, pipeline, tmp_path):
        result = run_figure13(
            pipeline, kernels=["strided_deg8"], warp_counts=(2, 4)
        )
        path = os.path.join(tmp_path, "fig13.csv")
        save_series_csv(result, path)
        with open(path) as handle:
            rows = list(csv.reader(handle))
        assert rows[0][0] == "x"
        assert len(rows) == 3  # header + 2 sweep points

    def test_csv_requires_right_shape(self, pipeline, tmp_path):
        from repro.harness.experiments import ExperimentResult

        empty = ExperimentResult("x", "text", data={})
        with pytest.raises(ValueError):
            save_comparison_csv(empty, os.path.join(tmp_path, "a.csv"))
        with pytest.raises(ValueError):
            save_series_csv(empty, os.path.join(tmp_path, "b.csv"))

    def test_experiment_to_dict_includes_text(self, pipeline):
        result = run_model_comparison(pipeline, "rr", ["vectoradd"])
        payload = experiment_to_dict(result)
        assert "Naive_Interval" in payload["text"]
