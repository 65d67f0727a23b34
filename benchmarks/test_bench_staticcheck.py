"""Bench: static cost analysis must stay interactive-fast.

The cost model runs ahead of every cross-check and inside ``repro lint
--cost`` / ``repro analyze``, recomputed on each call, so it has to be
cheap enough to run eagerly over the whole suite.  This bench analyzes the
*largest* suite kernel (by static program length at the large scale)
end to end — CFG, loop finding, affine fixpoint, trip counts, access
classification, occupancy — and asserts the min-of-N time stays under
50 ms.  Results land in ``BENCH_staticcheck.json`` at the repo root.
"""

import json
import os
import time

from benchmarks.conftest import run_once
from repro.config import GPUConfig
from repro.staticcheck import analyze_kernel, crosscheck_kernel
from repro.trace.emulator import emulate
from repro.workloads import Scale
from repro.workloads.suite import SUITE, kernel_names

ROUNDS = 5
BUDGET_S = 0.050

RESULTS_PATH = os.path.join(
    os.path.dirname(os.path.abspath(__file__)), "..",
    "BENCH_staticcheck.json"
)


def _largest_kernel():
    scale = Scale.large()
    name = max(
        kernel_names(),
        key=lambda n: len(SUITE[n].build(scale)[0].program),
    )
    kernel, memory = SUITE[name].build(scale)
    return name, kernel, memory


def _min_time(fn, rounds=ROUNDS):
    best = float("inf")
    for _ in range(rounds):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


def test_bench_static_analysis(benchmark):
    config = GPUConfig()
    name, kernel, memory = _largest_kernel()

    analyze_s = _min_time(lambda: analyze_kernel(kernel, config))

    # Cross-check cost for context (tiny trace: the static side is what
    # this bench pins; the dynamic side scales with the trace).
    tiny_kernel, tiny_memory = SUITE[name].build(Scale.tiny())
    tiny_trace = emulate(tiny_kernel, config, memory=tiny_memory)
    tiny_cost = analyze_kernel(tiny_kernel, config)
    xcheck_s = _min_time(
        lambda: crosscheck_kernel(
            tiny_kernel, tiny_trace, cost=tiny_cost, config=config
        )
    )

    results = {
        "kernel": name,
        "static_insts": len(kernel.program),
        "rounds": ROUNDS,
        "analyze_s": analyze_s,
        "xcheck_tiny_s": xcheck_s,
        "budget_s": BUDGET_S,
    }
    with open(RESULTS_PATH, "w", encoding="utf-8") as handle:
        json.dump(results, handle, indent=2, sort_keys=True)
    benchmark.extra_info.update(results)

    run_once(benchmark, analyze_kernel, kernel, config)

    # The satellite contract: full static analysis of the largest suite
    # kernel stays under 50 ms.
    assert analyze_s < BUDGET_S, (
        "static analysis of %s (%d insts) took %.4fs, budget %.3fs"
        % (name, len(kernel.program), analyze_s, BUDGET_S)
    )
