"""A design point runs only the per-point equations.

Whatever ``GPUMech.predict`` reads that no ``PREDICT_FIELDS`` value can
change is computed once per kernel, in the stage whose key covers its
inputs: the representative's single-warp CPI stack in ``clustering``,
the average miss latency in ``latency_table``, the interval totals on
first access to the representative's profile.  These tests count that
work exactly, and the keying a point does, and check that a point's
prediction depends neither on the points served before it nor on where
its inputs were stored.
"""

import pickle
import random
import sys

import pytest

from repro.config import GPUConfig
from repro.core.cpi_stack import single_warp_stack
from repro.core.model import GPUMech
from repro.memory.cache_simulator import CacheSimResult
from repro.obs.metrics import MetricsRegistry
from repro.pipeline import Pipeline, stages
from repro.pipeline.stages import PREDICT_FIELDS
from repro.workloads import Scale

KERNELS = ("kmeans_invert_mapping", "sgemm_tile")
BASE = GPUConfig.small(n_cores=2, warps_per_core=8)
FIELDS = ("scheduler", "n_mshrs", "dram_bandwidth_gbps", "n_dram_channels",
          "n_sfu_units")
#: Points that differ from each other only in fields that the predict
#: stage alone reads.
POINTS = [
    dict(zip(FIELDS, values))
    for values in (
        ("rr", 8, 48.0, 1, 32),
        ("gto", 8, 48.0, 1, 32),
        ("rr", 16, 96.0, 2, 8),
        ("gto", 16, 96.0, 2, 8),
        ("rr", 32, 192.0, 4, 4),
        ("gto", 32, 192.0, 4, 4),
        ("rr", 64, 384.0, 1, 4),
        ("gto", 64, 384.0, 2, 32),
        ("rr", 128, 768.0, 4, 8),
        ("gto", 128, 768.0, 1, 4),
        ("rr", 8, 768.0, 2, 32),
        ("gto", 128, 48.0, 4, 8),
    )
]
REQUESTS = [(kernel, index) for kernel in KERNELS
            for index in range(len(POINTS))]
#: Input stages a point reuses from the store.
INPUT_STAGES = ("trace", "cache_sim", "latency_table", "interval_profiles",
                "clustering")
#: Input stages a new point reads: ``GPUMech.predict`` takes the
#: representative selection alone, which carries the launch geometry
#: and the average miss latency.
MISS_READS = ("clustering",)
#: Values cached on the first prediction of a kernel, never pickled.
CACHED = {
    "representative": {"interval_dram_reqs", "interval_cycles",
                       "total_mshr_reqs", "total_dram_reqs", "total_sfu",
                       "total_smem_slots"},
    "trace": {"warps_per_block"},
}


def new_pipeline(**kwargs) -> Pipeline:
    return Pipeline(BASE, scale=Scale.tiny(), **kwargs)


def served(pipeline: Pipeline, kernel: str, index: int) -> bytes:
    prediction = pipeline.predict(kernel, BASE.with_(**POINTS[index]))
    return pickle.dumps(prediction)


@pytest.fixture(scope="module")
def in_order():
    """Every point served in order by one pipeline, and that pipeline."""
    pipeline = new_pipeline()
    return {request: served(pipeline, *request)
            for request in REQUESTS}, pipeline


def test_points_vary_only_predict_fields():
    assert set(FIELDS) <= PREDICT_FIELDS
    assert len(POINTS) >= 12
    assert len({tuple(p.values()) for p in POINTS}) == len(POINTS)


def counted(real, calls, key, in_predict=None):
    """``real``, counting its calls in ``calls[key]`` (and, with
    ``in_predict``, those made inside ``GPUMech.predict``)."""

    def wrapper(*args, **kwargs):
        calls[key] += 1
        if in_predict is not None and in_predict[0]:
            calls[key + "_in_predict"] += 1
        return real(*args, **kwargs)

    return wrapper


def patch_bindings(monkeypatch, real, wrapper):
    """Replace ``real`` in every ``repro`` module that binds it, so the
    count does not depend on which module calls it."""
    for name, module in list(sys.modules.items()):
        if name.startswith("repro") and getattr(
            module, real.__name__, None
        ) is real:
            monkeypatch.setattr(module, real.__name__, wrapper)


def test_config_independent_work_runs_once_per_kernel(monkeypatch):
    calls = {"stack": 0, "stack_in_predict": 0, "miss_latency": 0}
    in_predict = [False]
    patch_bindings(
        monkeypatch, single_warp_stack,
        counted(single_warp_stack, calls, "stack", in_predict),
    )
    monkeypatch.setattr(
        CacheSimResult, "avg_miss_latency",
        counted(CacheSimResult.avg_miss_latency, calls, "miss_latency"),
    )
    real_predict = GPUMech.predict

    def predict(self, *args, **kwargs):
        in_predict[0] = True
        try:
            return real_predict(self, *args, **kwargs)
        finally:
            in_predict[0] = False

    monkeypatch.setattr(GPUMech, "predict", predict)

    pipeline = new_pipeline()
    for request in REQUESTS:
        served(pipeline, *request)
    counters = pipeline.counters
    assert counters["predict"] == len(REQUESTS)
    assert calls["stack"] == counters["clustering"] == len(KERNELS)
    assert calls["stack_in_predict"] == 0
    assert calls["miss_latency"] == counters["latency_table"] == len(KERNELS)


def test_keying_work_per_point(monkeypatch):
    """Keys from scratch and metric lookups per point, at zero tolerance.

    The first point keys all six stages; a later point only its own
    ``predict`` (the five upstream keys are memo hits), and a repeated
    point nothing.  Metrics are looked up once per stage: on its first
    execution and on its first hit, never again.  A later point's
    ``predict`` misses and reads only what it needs from the store
    (:data:`MISS_READS`); a repeated point hits ``predict`` as well.
    """
    monkeypatch.setattr(stages, "_KEY_MEMO", {})
    calls = {"key": 0, "lookup": 0}
    monkeypatch.setattr(
        stages, "hash_stage_key",
        counted(stages.hash_stage_key, calls, "key"),
    )
    for name in ("counter", "histogram"):
        monkeypatch.setattr(
            MetricsRegistry, name,
            counted(getattr(MetricsRegistry, name), calls, "lookup"),
        )
    pipeline = new_pipeline()
    keys, lookups = [], []
    # Every point once, then the first two again.
    for index in list(range(len(POINTS))) + [0, 1]:
        before = dict(calls)
        served(pipeline, KERNELS[0], index)
        keys.append(calls["key"] - before["key"])
        lookups.append(calls["lookup"] - before["lookup"])
    distinct = len(POINTS) - 1
    assert keys == [1 + len(INPUT_STAGES)] + [1] * distinct + [0, 0]
    # Point 1 binds the hit counters of the stages a predict miss
    # reads, the first repeat binds predict's; nothing else looks a
    # metric up.
    assert lookups[1:] == [len(MISS_READS)] + [0] * (distinct - 1) + [1, 0]
    assert pipeline.counters["predict"] == len(POINTS)
    assert pipeline.hits["predict"] == 2


def test_shuffled_points_match(in_order):
    want, _ = in_order
    shuffled = list(REQUESTS)
    random.Random(20).shuffle(shuffled)
    pipeline = new_pipeline()
    got = {request: served(pipeline, *request) for request in shuffled}
    assert got == want
    assert pipeline.counters["clustering"] == len(KERNELS)


@pytest.mark.parametrize("request_", REQUESTS)
def test_fresh_pipeline_matches(in_order, request_):
    want, _ = in_order
    assert served(new_pipeline(), *request_) == want[request_]


def test_inputs_read_back_from_disk_match(in_order, tmp_path):
    want, _ = in_order
    writer = new_pipeline(cache_dir=str(tmp_path))
    for kernel in KERNELS:
        writer.model_inputs(kernel)
    reader = new_pipeline(cache_dir=str(tmp_path))
    got = {request: served(reader, *request) for request in REQUESTS}
    assert got == want
    assert reader.counters["predict"] == len(REQUESTS)
    assert not any(reader.counters[stage] for stage in INPUT_STAGES)


@pytest.mark.parametrize("kernel", KERNELS)
def test_stored_stack_travels_cached_totals_do_not(in_order, kernel):
    _, pipeline = in_order
    inputs = pipeline.model_inputs(kernel)
    assert pipeline.counters["clustering"] == len(KERNELS)
    for attribute, names in CACHED.items():
        # Filled by the predictions above.
        assert names <= set(vars(getattr(inputs, attribute))), attribute
    selection = pickle.loads(pickle.dumps(inputs.selection))
    assert not CACHED["representative"] & set(vars(selection.profile))
    trace = pickle.loads(pickle.dumps(inputs.trace))
    assert not CACHED["trace"] & set(vars(trace))
    assert selection.single_warp_stack == inputs.selection.single_warp_stack
    assert selection.single_warp_stack == single_warp_stack(
        inputs.representative, inputs.latency_table
    )
    table = pickle.loads(pickle.dumps(inputs.latency_table))
    assert table.avg_miss_latency == inputs.cache_result.avg_miss_latency(
        BASE
    )
