#!/usr/bin/env python
"""Design-space exploration: sweep hardware parameters with GPUMech.

This is the use case the paper argues interval analysis enables: the
expensive per-kernel work (trace, cache simulation, per-warp profiling,
clustering and the representative's single-warp CPI stack) runs once,
then each hardware point costs only the multi-warp and contention
equations — orders of magnitude cheaper than re-running a cycle-level
simulator per point.

Sweeps warps/core, MSHR entries and DRAM bandwidth for one kernel and
prints predicted CPI per point, flagging the best configuration.  The
warp sweep feeds the one set of model inputs to ``GPUMech.predict``
with each warp count (the cache simulation keeps the base residency).

The MSHR and bandwidth sweeps run through the staged artifact pipeline
(``repro.pipeline``): stage artifacts are content-addressed by the
configuration fields they actually depend on, and MSHR entries and DRAM
bandwidth are read by the ``predict`` stage alone, so every stage from
``trace`` to ``clustering`` executes once and each distinct point
executes ``predict`` once.  The script checks those counts and exits
nonzero if they differ.  Pass ``--cache-dir DIR`` to persist artifacts
so a rerun of this script recomputes nothing.

Usage:
    python examples/design_space_sweep.py [kernel_name] [--cache-dir DIR]
"""

import argparse
import sys

from repro import GPUConfig, GPUMech, Pipeline
from repro.harness.reporting import render_table
from repro.workloads import Scale, get_kernel


#: Stages every hardware point below reuses: each executes once.
INPUT_STAGES = ("trace", "cache_sim", "latency_table", "interval_profiles",
                "clustering")


def sweep_warps(config, inputs, model):
    rows = []
    for warps in (4, 8, 16, 24, 32, 48):
        prediction = model.predict(inputs, n_warps=warps)
        rows.append(
            (warps, prediction.cpi,
             prediction.cpi_multithreading, prediction.cpi_mshr,
             prediction.cpi_queue,
             "%.3f" % prediction.ipc)
        )
    print(render_table(
        ("warps/core", "CPI", "MT", "MSHR", "QUEUE", "core IPC"),
        rows, title="Sweep: resident warps per core"))
    best = min(rows, key=lambda r: r[1])
    print("-> core throughput saturates at %d warps/core "
          "(CPI stops improving)\n" % best[0])


def sweep_mshrs(pipeline, name, config):
    """Returns the configurations it predicted."""
    rows, points = [], []
    for mshrs in (8, 16, 32, 64, 128):
        points.append(config.with_(n_mshrs=mshrs))
        prediction = pipeline.predict(name, points[-1])
        rows.append((mshrs, prediction.cpi, prediction.cpi_mshr))
    print(render_table(("MSHRs", "CPI", "MSHR CPI"), rows,
                       title="Sweep: MSHR entries"))
    print()
    return points


def sweep_bandwidth(pipeline, name, config):
    """Returns the configurations it predicted."""
    rows, points = [], []
    for gbps in (48.0, 96.0, 192.0, 384.0, 768.0):
        points.append(config.with_(dram_bandwidth_gbps=gbps))
        prediction = pipeline.predict(name, points[-1])
        rows.append((gbps, prediction.cpi, prediction.cpi_queue))
    print(render_table(("GB/s", "CPI", "QUEUE CPI"), rows,
                       title="Sweep: DRAM bandwidth"))
    print()
    return points


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("kernel", nargs="?", default="kmeans_invert_mapping")
    parser.add_argument("--cache-dir", default=None)
    args = parser.parse_args()

    config = GPUConfig(n_cores=2)
    scale = Scale.small()
    kernel, _ = get_kernel(args.kernel, scale)
    print(kernel.describe(), "\n")

    # One pipeline serves all three sweeps: the trace stage runs once
    # (it is hardware-independent), every hardware point below reuses it.
    pipeline = Pipeline(config, scale=scale, cache_dir=args.cache_dir)
    model = GPUMech(config, pipeline=pipeline)
    inputs = pipeline.model_inputs(args.kernel)

    sweep_warps(config, inputs, model)
    points = sweep_mshrs(pipeline, args.kernel, config)
    points += sweep_bandwidth(pipeline, args.kernel, config)

    executions = dict(pipeline.counters)
    print("pipeline stage executions:", executions)
    # Each point's 192 GB/s or 32-MSHR twin is the base machine itself.
    expected = dict.fromkeys(INPUT_STAGES, 1)
    expected["predict"] = len({point.fingerprint() for point in points})
    if args.cache_dir is None:
        ok = executions == expected
    else:  # a persisted store may already hold any of them
        ok = all(executions.get(s, 0) <= n for s, n in expected.items())
        ok = ok and set(executions) <= set(expected)
    if not ok:
        print("expected stage executions:", expected, file=sys.stderr)
        sys.exit(1)
    print("(one emulation, one clustering — every other hardware point "
          "re-ran only the predict stage)")


if __name__ == "__main__":
    main()
