"""Shared fixtures for the per-figure benchmark harness.

Every evaluation figure of the paper has a bench target here that
regenerates its rows/series (at reduced scale: 2 cores, 16 warps/core,
tiny workloads — the shape, not the absolute wall-clock of the paper's
16-core runs).  Run them with:

    pytest benchmarks/ --benchmark-only -s

The ``-s`` flag shows the regenerated tables.  Structured data is also
attached to each benchmark's ``extra_info``.
"""

import pytest

from repro.config import GPUConfig
from repro.pipeline import Pipeline
from repro.workloads import Scale

#: Kernel subset used by the sweep benchmarks: one per behaviour class.
BENCH_KERNELS = (
    "cfd_step_factor",
    "cfd_compute_flux",
    "kmeans_invert_mapping",
    "strided_deg32",
    "sad_calc_8",
    "mandelbrot",
)


@pytest.fixture(scope="session")
def bench_runner():
    """One shared pipeline so traces are emulated once per session."""
    config = GPUConfig.small(n_cores=2, warps_per_core=16)
    return Pipeline(config, Scale.tiny())


def run_once(benchmark, fn, *args, **kwargs):
    """Execute an experiment exactly once under pytest-benchmark timing."""
    return benchmark.pedantic(fn, args=args, kwargs=kwargs, rounds=1,
                              iterations=1)
