#!/usr/bin/env python
"""Scheduler study: round-robin vs. greedy-then-oldest across kernels.

Compares modeled and simulated CPI under both warp-scheduling policies
(Sec. IV-A) for a cross-section of the suite, reporting per-policy model
error — the per-kernel view behind the paper's Fig. 11/12 headline
numbers (13.2% RR, 14.0% GTO average error).

Usage:
    python examples/scheduler_study.py [kernel ...]
"""

import statistics
import sys

from repro import GPUConfig
from repro.harness.reporting import render_table
from repro.pipeline import Pipeline
from repro.workloads import Scale

DEFAULT_KERNELS = (
    "vectoradd",
    "blackscholes",
    "cfd_step_factor",
    "cfd_compute_flux",
    "srad_kernel1",
    "strided_deg8",
    "kmeans_invert_mapping",
    "sad_calc_8",
    "mandelbrot",
)


def main() -> None:
    kernels = sys.argv[1:] or list(DEFAULT_KERNELS)
    pipeline = Pipeline(GPUConfig(n_cores=2), Scale.small())

    rows = []
    errors = {"rr": [], "gto": []}
    for name in kernels:
        cells = [name]
        for policy in ("rr", "gto"):
            result = pipeline.evaluate(name, policy=policy)
            error = result.error("mt_mshr_band")
            errors[policy].append(error)
            cells.extend(
                [
                    "%.2f" % result.oracle_cpi,
                    "%.2f" % result.model_cpis["mt_mshr_band"],
                    "%.1f%%" % (100 * error),
                ]
            )
        rows.append(tuple(cells))
    rows.append(
        (
            "MEAN", "", "",
            "%.1f%%" % (100 * statistics.fmean(errors["rr"])),
            "", "",
            "%.1f%%" % (100 * statistics.fmean(errors["gto"])),
        )
    )
    print(render_table(
        ("kernel", "RR oracle", "RR model", "RR err",
         "GTO oracle", "GTO model", "GTO err"),
        rows,
        title="GPUMech accuracy under both scheduling policies",
    ))


if __name__ == "__main__":
    main()
