"""Bench: Sec. VI-D — GPUMech wall-clock speedup over detailed simulation.

The paper reports ~97x end-to-end; our oracle is a Python simulator (not
a C++ one) and the kernels are scaled down, so absolute speedups differ,
but the model must be substantially faster than the oracle, and
re-modeling a new hardware configuration must be cheaper still.

Unlike the figure benches, this one runs at ``Scale.small``: speedup is
a throughput property and only shows on kernels long enough that the
model's fixed per-kernel cost amortises (the paper's kernels run for
millions of cycles).
"""

import pytest

from benchmarks.conftest import run_once
from repro.config import GPUConfig
from repro.harness.speedup import run_speedup
from repro.pipeline import Pipeline
from repro.workloads import Scale

#: Long-running, memory-contended kernels where detailed simulation hurts.
SPEEDUP_KERNELS = (
    "cfd_compute_flux",
    "kmeans_invert_mapping",
    "sad_calc_8",
    "srad_kernel1",
)


@pytest.fixture(scope="module")
def speedup_runner():
    return Pipeline(GPUConfig(n_cores=2), Scale.small())


def test_bench_speedup(benchmark, speedup_runner):
    result = run_once(benchmark, run_speedup, speedup_runner,
                      kernels=SPEEDUP_KERNELS)
    print("\n" + result.text)
    overall = result.data["overall_speedup"]
    benchmark.extra_info["overall_speedup"] = round(overall, 2)
    assert overall > 2.0  # the model must clearly beat the oracle
    for per_kernel in result.data["results"]:
        assert per_kernel.reconfigure_seconds <= per_kernel.model_seconds


def test_bench_speedup_vs_cycle_loop(benchmark, speedup_runner):
    """Against the cycle-by-cycle loop (the paper's Macsim analogue).

    The paper's 97x is measured against a simulator that steps every
    cycle; our default oracle is event-driven (cycle skipping) and
    therefore much faster than that baseline.  This bench compares the
    model against our own naive per-cycle loop — the apples-to-apples
    counterpart — on stall-heavy kernels where the cycle count dwarfs
    the instruction count.
    """
    result = run_once(
        benchmark, run_speedup, speedup_runner,
        kernels=("srad_kernel1", "strided_deg8"),
        include_naive=True,
    )
    print("\n" + result.text)
    vs_naive = result.data["overall_speedup_vs_cycle_loop"]
    benchmark.extra_info["speedup_vs_cycle_loop"] = round(vs_naive, 1)
    assert vs_naive > 5.0
