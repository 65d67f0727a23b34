"""Exact pin of every suite prediction against ``BASELINE_ledger.jsonl``.

The ledger was recorded with ``GPUConfig.small(n_cores=2,
warps_per_core=8)`` at ``Scale.tiny()``, evaluating each kernel at 4
warps per core.  Re-predicting the suite there (model only: no oracle)
must reproduce every Table II model CPI, every CPI-stack category and
the warp count *exactly*: the analytical model is deterministic, so any
difference — even in the last bit — is a behaviour change, which the
accuracy watchdog's tolerance would let through.
"""

import json
from pathlib import Path

import pytest

from repro.baselines.markov import markov_chain_cpi
from repro.baselines.naive import naive_interval_cpi
from repro.config import GPUConfig
from repro.pipeline import Pipeline
from repro.workloads import Scale

LEDGER = Path(__file__).resolve().parent.parent / "BASELINE_ledger.jsonl"
WARPS_PER_CORE = 4


def _records():
    with open(LEDGER, encoding="utf-8") as handle:
        return {r["kernel"]: r for r in map(json.loads, handle)}


RECORDS = _records()


@pytest.fixture(scope="module")
def pipeline():
    return Pipeline(
        GPUConfig.small(n_cores=2, warps_per_core=8), scale=Scale.tiny()
    )


@pytest.mark.parametrize("kernel", sorted(RECORDS))
def test_prediction_matches_ledger_exactly(pipeline, kernel):
    record = RECORDS[kernel]
    prediction = pipeline.predict(kernel, warps_per_core=WARPS_PER_CORE)
    representative = pipeline.model_inputs(
        kernel, warps_per_core=WARPS_PER_CORE
    ).representative
    n_warps = prediction.n_warps
    mt = prediction.cpi_multithreading
    model_cpis = {
        "naive": naive_interval_cpi(representative, n_warps),
        "markov": markov_chain_cpi(representative, n_warps),
        "mt": mt,
        "mt_mshr": mt + prediction.cpi_mshr,
        "mt_mshr_band": prediction.cpi,
    }
    assert n_warps == record["n_warps"]
    assert model_cpis == record["model_cpis"]
    assert prediction.cpi_stack.as_dict() == record["cpi_stack"]
