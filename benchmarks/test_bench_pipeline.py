"""Bench: staged pipeline — serial vs parallel Fig. 13-style warp sweep.

Records the wall-time of the same (kernel × warps/core) sweep grid
executed serially and with ``jobs=N`` worker processes, so future PRs
track the parallel path.  Each measurement uses a cold artifact store
(fresh ``Pipeline``) — we are benchmarking compute fan-out, not caching.
"""

import os

from benchmarks.conftest import BENCH_KERNELS, run_once
from repro.config import GPUConfig
from repro.harness.experiments import run_figure13
from repro.pipeline import Pipeline
from repro.workloads import Scale

#: Worker count for the parallel measurement (bounded: CI boxes are small).
JOBS = min(4, os.cpu_count() or 1)

WARP_COUNTS = (2, 4, 8, 16)


def _sweep(jobs):
    pipeline = Pipeline(
        GPUConfig.small(n_cores=2, warps_per_core=16),
        Scale.tiny(),
        jobs=jobs,
    )
    return run_figure13(pipeline, kernels=BENCH_KERNELS, warp_counts=WARP_COUNTS)


def test_bench_pipeline_sweep_serial(benchmark):
    result = run_once(benchmark, _sweep, 1)
    benchmark.extra_info["jobs"] = 1
    benchmark.extra_info["grid_points"] = len(BENCH_KERNELS) * len(WARP_COUNTS)
    assert set(result.data["results"]) == set(WARP_COUNTS)


def test_bench_pipeline_sweep_parallel(benchmark):
    result = run_once(benchmark, _sweep, JOBS)
    benchmark.extra_info["jobs"] = JOBS
    benchmark.extra_info["grid_points"] = len(BENCH_KERNELS) * len(WARP_COUNTS)
    # Parallel execution must be a pure speedup: identical tables.
    assert result.text == _sweep(1).text


def test_bench_pipeline_warm_rerun(benchmark):
    """The Sec. VI-D story end-to-end: a repeated sweep is (nearly) free."""
    pipeline = Pipeline(
        GPUConfig.small(n_cores=2, warps_per_core=16), Scale.tiny()
    )
    run_figure13(pipeline, kernels=BENCH_KERNELS, warp_counts=WARP_COUNTS)
    executions = dict(pipeline.counters)

    result = run_once(
        benchmark, run_figure13, pipeline,
        kernels=BENCH_KERNELS, warp_counts=WARP_COUNTS,
    )
    assert result.data["series"]
    # Zero stage executions on the warm rerun — everything content-addressed.
    assert dict(pipeline.counters) == executions
    benchmark.extra_info["stage_executions_first_run"] = executions
