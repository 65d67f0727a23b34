#!/usr/bin/env python
"""Full paper reproduction: regenerate every evaluation figure.

Runs the drivers for Fig. 4, 7, 11, 12, 13, 14, 15, 16 and the Sec. VI-D
speedup measurement at experiment scale and writes each rendered table to
``results/<figure>.txt`` (plus everything to stdout).

This is the long-running entry point (tens of minutes at full scale);
``pytest benchmarks/ --benchmark-only`` runs reduced versions of the same
drivers in a few minutes.

Usage:
    python examples/reproduce_paper.py [--quick] [--out DIR] [--jobs N]
                                       [--cache-dir DIR]

``--jobs N`` fans independent (kernel × sweep-point) evaluations out
over N worker processes; ``--cache-dir DIR`` persists the staged
pipeline's artifact store on disk, so an interrupted or repeated run
skips every stage it has already computed.
"""

import argparse
import os
import time

from repro.config import GPUConfig
from repro.harness import experiments as ex
from repro.harness.speedup import run_speedup
from repro.pipeline import Pipeline
from repro.workloads import Scale


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--quick", action="store_true",
        help="tiny workloads and the sweep-kernel subset (minutes, not tens)",
    )
    parser.add_argument("--out", default="results", help="output directory")
    parser.add_argument("--jobs", type=int, default=1,
                        help="worker processes for sweep evaluation")
    parser.add_argument("--cache-dir", default=None,
                        help="persistent artifact store (reruns are free)")
    args = parser.parse_args()

    scale = Scale.tiny() if args.quick else Scale.small()
    config = GPUConfig(n_cores=2)
    pipeline = Pipeline(config, scale, jobs=args.jobs, cache_dir=args.cache_dir)
    os.makedirs(args.out, exist_ok=True)

    comparison_kernels = (
        list(ex.SWEEP_KERNELS) if args.quick else None  # None = full suite
    )
    sweep_warps = (4, 8, 16) if args.quick else ex.WARP_SWEEP

    jobs = [
        ("figure04", lambda: ex.run_figure4(pipeline)),
        ("figure07", lambda: ex.run_figure7(pipeline)),
        ("figure11", lambda: ex.run_figure11(pipeline, comparison_kernels)),
        ("figure12", lambda: ex.run_figure12(pipeline, comparison_kernels)),
        ("figure13", lambda: ex.run_figure13(pipeline, warp_counts=sweep_warps)),
        ("figure14", lambda: ex.run_figure14(pipeline)),
        ("figure15", lambda: ex.run_figure15(pipeline)),
        ("figure16", lambda: ex.run_figure16(pipeline, warp_counts=sweep_warps)),
        ("speedup", lambda: run_speedup(
            pipeline, kernels=list(ex.SWEEP_KERNELS))),
    ]
    from repro.harness.export import save_comparison_csv, save_series_csv

    for name, job in jobs:
        start = time.time()
        result = job()
        elapsed = time.time() - start
        path = os.path.join(args.out, "%s.txt" % name)
        with open(path, "w") as handle:
            handle.write(result.text + "\n")
        per_kernel = result.data.get("results")
        if (
            isinstance(per_kernel, list)
            and per_kernel
            and hasattr(per_kernel[0], "model_cpis")
        ):
            save_comparison_csv(
                result, os.path.join(args.out, "%s.csv" % name)
            )
        elif "series" in result.data:
            save_series_csv(result, os.path.join(args.out, "%s.csv" % name))
        print(result.text)
        print("[%s done in %.1fs -> %s]\n" % (name, elapsed, path))

    print("pipeline stage executions:", dict(pipeline.counters))
    print("pipeline stage cache hits:", dict(pipeline.hits))


if __name__ == "__main__":
    main()
