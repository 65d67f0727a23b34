#!/usr/bin/env python
"""Design-space exploration: sweep hardware parameters with GPUMech.

This is the use case the paper argues interval analysis enables: the
expensive per-kernel work (trace + per-warp profiling + clustering) runs
once, then each hardware point costs only a cache simulation and the
analytical model — orders of magnitude cheaper than re-running a
cycle-level simulator per point.

Sweeps warps/core, MSHR entries and DRAM bandwidth for one kernel and
prints predicted CPI per point, flagging the best configuration.

Everything runs through the staged artifact pipeline
(``repro.pipeline``): stage artifacts are content-addressed by the
configuration fields they actually depend on, so across the three
sweeps below the kernel is emulated exactly once and each hardware
point re-runs only the cache-sim-and-later stages.  Pass
``--cache-dir DIR`` to persist artifacts so a rerun of this script
recomputes nothing.

Usage:
    python examples/design_space_sweep.py [kernel_name] [--cache-dir DIR]
"""

import argparse

from repro import GPUConfig, GPUMech, Pipeline
from repro.harness.reporting import render_table
from repro.workloads import Scale, get_kernel


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
    rows = []
    for mshrs in (8, 16, 32, 64, 128):
        prediction = pipeline.predict(name, config.with_(n_mshrs=mshrs))
        rows.append((mshrs, prediction.cpi, prediction.cpi_mshr))
    print(render_table(("MSHRs", "CPI", "MSHR CPI"), rows,
                       title="Sweep: MSHR entries"))
    print()


def sweep_bandwidth(pipeline, name, config):
    rows = []
    for gbps in (48.0, 96.0, 192.0, 384.0, 768.0):
        prediction = pipeline.predict(
            name, config.with_(dram_bandwidth_gbps=gbps)
        )
        rows.append((gbps, prediction.cpi, prediction.cpi_queue))
    print(render_table(("GB/s", "CPI", "QUEUE CPI"), rows,
                       title="Sweep: DRAM bandwidth"))
    print()


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
    sweep_mshrs(pipeline, args.kernel, config)
    sweep_bandwidth(pipeline, args.kernel, config)

    executions = dict(pipeline.counters)
    print("pipeline stage executions:", executions)
    print("(one emulation, one clustering — every other hardware point "
          "re-ran only cheap stages)")


if __name__ == "__main__":
    main()
