"""Bench: hot-path vectorization — scalar reference vs batched numpy.

Times the three backend-switched stages (functional emulation, cache
replay, Eq. 4 interval construction) under both backends on the largest
suite kernel, per stage and combined.  Each timing is a min-of-N so the
coldest-cache/busiest-core rounds don't pollute the ratio.

Guards (the PR contract, enforced in the ``bench-hotpath`` CI job):

* combined trace+cache-sim+interval speedup ≥ 10×;
* an absolute per-stage budget on the vectorized path, so a vectorized
  stage regressing into Python loops fails even if the scalar reference
  got slower too.

Results land in ``BENCH_hotpath.json`` at the repo root.
"""

import json
import os
import time

from benchmarks.conftest import run_once
from repro.backend import SCALAR_ENV
from repro.config import GPUConfig
from repro.core.interval import build_interval_profiles
from repro.core.latency import build_latency_table
from repro.memory.cache_simulator import simulate_caches
from repro.trace.emulator import emulate
from repro.workloads import Scale
from repro.workloads.suite import SUITE

KERNEL = "sgemm_tile"
ROUNDS = 3
MIN_SPEEDUP = 10.0

#: Absolute wall-clock budget per vectorized stage (seconds) — generous
#: multiples of the measured times (0.4 / 0.05 / 0.25 on a single
#: shared core), tight enough to catch a stage falling back to loops.
VEC_BUDGET_S = {"trace": 3.0, "cache_sim": 1.0, "interval_profiles": 2.0}

RESULTS_PATH = os.path.join(
    os.path.dirname(os.path.abspath(__file__)), "..", "BENCH_hotpath.json"
)


def _config():
    return GPUConfig.small(n_cores=2, warps_per_core=16)


def _stage_times(scalar):
    """Min-of-N wall-clock per hot-path stage under one backend."""
    saved = os.environ.get(SCALAR_ENV)
    os.environ[SCALAR_ENV] = "1" if scalar else "0"
    try:
        config = _config()
        kernel, memory = SUITE[KERNEL].build(Scale.small())
        best = {name: float("inf") for name in VEC_BUDGET_S}
        for _ in range(ROUNDS):
            start = time.perf_counter()
            trace = emulate(kernel, config, memory=memory)
            best["trace"] = min(
                best["trace"], time.perf_counter() - start
            )
            start = time.perf_counter()
            cache = simulate_caches(trace, config)
            best["cache_sim"] = min(
                best["cache_sim"], time.perf_counter() - start
            )
            table = build_latency_table(trace, cache, config)
            start = time.perf_counter()
            build_interval_profiles(trace, table)
            best["interval_profiles"] = min(
                best["interval_profiles"], time.perf_counter() - start
            )
        return best
    finally:
        if saved is None:
            os.environ.pop(SCALAR_ENV, None)
        else:
            os.environ[SCALAR_ENV] = saved


def test_bench_hotpath(benchmark):
    scalar = _stage_times(scalar=True)
    vec = _stage_times(scalar=False)
    scalar_combined = sum(scalar.values())
    vec_combined = sum(vec.values())
    speedup = scalar_combined / vec_combined

    results = {
        "kernel": KERNEL,
        "scale": "small",
        "rounds": ROUNDS,
        "scalar_s": scalar,
        "vectorized_s": vec,
        "scalar_combined_s": scalar_combined,
        "vectorized_combined_s": vec_combined,
        "stage_speedup": {
            name: scalar[name] / vec[name] for name in scalar
        },
        "combined_speedup": speedup,
        "min_speedup_guard": MIN_SPEEDUP,
        "vectorized_budget_s": VEC_BUDGET_S,
    }
    with open(RESULTS_PATH, "w", encoding="utf-8") as handle:
        json.dump(results, handle, indent=2, sort_keys=True)
    benchmark.extra_info.update(results)

    run_once(benchmark, lambda: _stage_times(scalar=False))

    assert speedup >= MIN_SPEEDUP, (
        "combined hot-path speedup %.1fx below the %.0fx guard "
        "(scalar %.3fs, vectorized %.3fs)"
        % (speedup, MIN_SPEEDUP, scalar_combined, vec_combined)
    )
    for name, budget in VEC_BUDGET_S.items():
        assert vec[name] <= budget, (
            "vectorized %s stage took %.3fs, over its %.1fs budget"
            % (name, vec[name], budget)
        )
