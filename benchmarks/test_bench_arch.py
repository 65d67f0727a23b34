"""Bench: architecture-backend dispatch must stay free on the paper path.

The refactor routes every prediction through ``repro.arch`` hooks
(``get_arch`` lookup + method dispatch) where the code used to call the
``repro.core`` functions directly.  This bench times the multi-warp
model (the dispatched hot path) two ways on identical ``ModelInputs``:

``direct``
    The pre-backend ``predict`` body verbatim: ``model_multithreading``
    → ``model_contention`` → ``build_cpi_stack`` →
    ``effective_components`` → ``Prediction(...)`` with the core
    functions called directly — the floor the dispatch is measured
    against.
``dispatched``
    The same composition through ``GPUMech.predict`` under
    ``arch="gpumech2014"`` (registry lookup + backend delegation).

Both loops repeat the prediction ``REPEATS`` times per round so the
sub-millisecond model maths dominates fixed costs; timings are
min-of-N.  The ``subcore`` backend's prediction time is recorded for
context (not asserted — it does strictly more work).  Results land in
``BENCH_arch.json`` at the repo root.
"""

import json
import os
import time

from benchmarks.conftest import run_once
from repro.config import GPUConfig
from repro.core.contention import model_contention
from repro.core.cpi_stack import build_cpi_stack
from repro.core.model import GPUMech, Prediction, resident_warps_per_core
from repro.core.multithreading import model_multithreading
from repro.pipeline import Pipeline
from repro.workloads import Scale

KERNEL = "cfd_step_factor"
ROUNDS = 5
REPEATS = 200

RESULTS_PATH = os.path.join(
    os.path.dirname(os.path.abspath(__file__)), "..", "BENCH_arch.json"
)


def _config(**overrides):
    return GPUConfig.small(n_cores=2, warps_per_core=16).with_(**overrides)


def _min_time(fn, rounds=ROUNDS):
    best = float("inf")
    for _ in range(rounds):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


def test_bench_arch_dispatch(benchmark):
    config = _config()
    pipeline = Pipeline(config, scale=Scale.tiny())
    inputs = pipeline.model_inputs(KERNEL)
    n_warps = resident_warps_per_core(inputs.trace, config)
    profile = inputs.representative
    model = GPUMech(config, pipeline=pipeline)

    def direct():
        for _ in range(REPEATS):
            multithreading = model_multithreading(
                profile, n_warps, config.scheduler
            )
            contention = model_contention(
                profile, n_warps, config,
                inputs.cache_result.avg_miss_latency(config),
            )
            stack = build_cpi_stack(
                profile, inputs.latency_table, multithreading, contention,
                config,
            )
            cpi_mshr, cpi_sfu, cpi_smem, cpi_queue = (
                contention.effective_components(multithreading.cpi)
            )
            Prediction(
                kernel_name=inputs.trace.kernel_name,
                policy=config.scheduler,
                n_warps=n_warps,
                cpi=(multithreading.cpi + cpi_mshr + cpi_sfu + cpi_smem
                     + cpi_queue),
                cpi_multithreading=multithreading.cpi,
                cpi_mshr=cpi_mshr,
                cpi_queue=cpi_queue,
                cpi_sfu=cpi_sfu,
                cpi_smem=cpi_smem,
                single_warp_cpi=profile.single_warp_cpi,
                rep_warp_id=profile.warp_id,
                selection_strategy=inputs.selection.strategy,
                cpi_stack=stack,
                multithreading=multithreading,
                contention=contention,
            )

    def dispatched():
        for _ in range(REPEATS):
            model.predict(inputs, n_warps=n_warps)

    sub_config = _config(arch="subcore", n_schedulers=4)
    sub_pipeline = Pipeline(sub_config, scale=Scale.tiny())
    sub_inputs = sub_pipeline.model_inputs(KERNEL)
    sub_model = GPUMech(sub_config, pipeline=sub_pipeline)

    def subcore():
        for _ in range(REPEATS):
            sub_model.predict(sub_inputs, n_warps=n_warps)

    direct_s = _min_time(direct)
    dispatched_s = _min_time(dispatched)
    subcore_s = _min_time(subcore)

    results = {
        "kernel": KERNEL,
        "n_warps": n_warps,
        "rounds": ROUNDS,
        "repeats_per_round": REPEATS,
        "direct_s": direct_s,
        "dispatched_s": dispatched_s,
        "subcore_s": subcore_s,
        "dispatch_overhead_ratio": dispatched_s / direct_s,
    }
    with open(RESULTS_PATH, "w", encoding="utf-8") as handle:
        json.dump(results, handle, indent=2, sort_keys=True)
    benchmark.extra_info.update(results)

    run_once(benchmark, dispatched)

    # The satellite contract: arch dispatch keeps the gpumech2014
    # prediction path within 5% of the direct-call floor (plus 50ms
    # absolute grace so sub-ms runs don't fail on scheduler jitter).
    assert dispatched_s <= direct_s * 1.05 + 0.05, (
        "arch-dispatched predict %.4fs exceeds direct composition "
        "%.4fs by more than 5%%" % (dispatched_s, direct_s)
    )
