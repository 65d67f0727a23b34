"""Exact pin of the timing oracle on every suite kernel.

The oracle counterpart of ``tests/test_prediction_pin.py``.  On the
machine the ledger was simulated on (``GPUConfig.small(n_cores=2,
warps_per_core=4)``, ``Scale.tiny()``) the simulated
CPI of every kernel must equal the ``oracle_cpi`` recorded in
``BASELINE_ledger.jsonl`` exactly, and the total cycle counts under the
GTO scheduler and the ``subcore`` architecture must equal the values
pinned below.  The oracle is deterministic, so any difference is a
behaviour change of the cycle-level simulator: the accuracy watchdog's
tolerance would let it through, this test does not.

At tiny scale with 4 warps per core, MSHR contention barely engages, so
a second set of pins holds five stall-heavy kernels in the paper's
regime: ``GPUConfig(n_cores=2)`` (32 warps per core), ``Scale.small``,
round-robin.  There the whole ``SimStats`` counter set is pinned: DRAM
traffic and queueing, MSHR allocations and merges, and every
``CoreStats`` counter of both cores.
"""

import dataclasses
import json
from pathlib import Path

import pytest

from repro.config import GPUConfig
from repro.pipeline import Pipeline
from repro.workloads import Scale

LEDGER = Path(__file__).resolve().parent.parent / "BASELINE_ledger.jsonl"


def _records():
    with open(LEDGER, encoding="utf-8") as handle:
        return {r["kernel"]: r for r in map(json.loads, handle)}


RECORDS = _records()

#: ``total_cycles`` at the ledger configuration with ``scheduler="gto"``
#: and with ``arch="subcore"`` (4 scheduler partitions, RR).
PINNED_CYCLES = {
    "backprop_adjust":       (2868, 2850),
    "bfs_kernel1":           (11047, 11071),
    "bfs_parboil":           (14912, 14898),
    "binomial_options":      (1246, 1233),
    "blackscholes":          (1804, 1783),
    "cfd_compute_flux":      (5417, 5405),
    "cfd_step_factor":       (1694, 1667),
    "convolution_sep":       (2063, 2048),
    "heartwall_track":       (2271, 2256),
    "histo_main":            (7807, 7804),
    "hotspot_calc":          (1418, 1387),
    "kmeans_invert_mapping": (3274, 3267),
    "kmeans_point":          (20699, 20689),
    "lavamd_force":          (6334, 6278),
    "lbm_stream":            (7028, 7010),
    "leukocyte_find":        (1396, 1387),
    "lud_perimeter":         (9480, 9461),
    "mandelbrot":            (2752, 2744),
    "matrixmul_sdk":         (14272, 14211),
    "mri_gridding":          (14953, 15563),
    "mri_q":                 (9375, 9301),
    "pathfinder_dynproc":    (6450, 6431),
    "quasirandom":           (510, 483),
    "reduction_k1":          (2361, 2328),
    "sad_calc_16":           (2483, 2472),
    "sad_calc_8":            (1697, 1686),
    "saxpy":                 (1916, 1897),
    "sgemm_tile":            (28484, 28391),
    "spmv_jds":              (15444, 15937),
    "srad_kernel1":          (3132, 3136),
    "srad_kernel2":          (1318, 1300),
    "stencil_parboil":       (1269, 1251),
    "streamcluster_dist":    (10597, 11021),
    "strided_deg16":         (3575, 4005),
    "strided_deg32":         (7152, 7146),
    "strided_deg4":          (1827, 1822),
    "strided_deg8":          (1876, 1872),
    "tpacf_gen":             (31179, 31169),
    "transpose_naive":       (1051, 1045),
    "vectoradd":             (1816, 1797),
}


@pytest.fixture(scope="module")
def pipeline():
    return Pipeline(
        GPUConfig.small(n_cores=2, warps_per_core=4), scale=Scale.tiny()
    )


def test_pins_cover_the_ledger():
    assert sorted(PINNED_CYCLES) == sorted(RECORDS)


@pytest.mark.parametrize("kernel", sorted(RECORDS))
def test_oracle_cpi_matches_ledger_exactly(pipeline, kernel):
    stats = pipeline.simulate(kernel)
    assert stats.cpi == RECORDS[kernel]["oracle_cpi"]


@pytest.mark.parametrize("kernel", sorted(RECORDS))
def test_gto_and_subcore_cycles_pinned(pipeline, kernel):
    gto, subcore = PINNED_CYCLES[kernel]
    base = pipeline.config
    assert pipeline.simulate(
        kernel, base.with_(scheduler="gto")
    ).total_cycles == gto
    assert pipeline.simulate(
        kernel, base.with_(arch="subcore")
    ).total_cycles == subcore


#: Per-kernel oracle counters in the paper regime: ``(total_cycles,
#: dram_requests, dram_mean_queue_delay, mshr_allocations, mshr_merges,
#: cores)``, each core ``(insts_issued, active_cycles, issue_cycles,
#: mshr_stall_cycles, sfu_stall_cycles, barrier_stall_cycles,
#: dep_stall_cycles, finish_cycle)``.
PAPER_REGIME_PINS = {
    "bfs_kernel1": (
        202757, 46234, 6.557886692322474, 34240, 0,
        (
            (13632, 202757, 13632, 185754, 0, 0, 3371, 202756),
            (13104, 197783, 13104, 182945, 0, 0, 1734, 197782),
        ),
    ),
    "kmeans_point": (
        727684, 71246, 9.727315685471762, 75825, 0,
        (
            (9600, 725265, 9600, 714812, 0, 0, 853, 725264),
            (9600, 727684, 9600, 717225, 0, 0, 859, 727683),
        ),
    ),
    "mri_gridding": (
        80215, 77056, 35.35111261069973, 27316, 0,
        (
            (10752, 80215, 10752, 67983, 0, 0, 1480, 80214),
            (10752, 78804, 10752, 67062, 0, 0, 990, 78803),
        ),
    ),
    "streamcluster_dist": (
        42342, 3392, 1.0867727987421036, 13893, 0,
        (
            (9600, 42060, 9600, 31013, 0, 0, 1447, 42059),
            (9600, 42342, 9600, 31825, 0, 0, 917, 42341),
        ),
    ),
    "strided_deg16": (
        124707, 27648, 7.2997685185497465, 18432, 0,
        (
            (4416, 124672, 4416, 119814, 0, 0, 442, 124671),
            (4416, 124707, 4416, 119847, 0, 0, 444, 124706),
        ),
    ),
}


@pytest.mark.parametrize("kernel", sorted(PAPER_REGIME_PINS))
def test_paper_regime_counters_pinned(paper_pipeline, kernel):
    stats = paper_pipeline.simulate(kernel)
    cores = tuple(
        dataclasses.astuple(core)[1:] for core in stats.cores
    )
    assert (
        stats.total_cycles,
        stats.dram_requests,
        stats.dram_mean_queue_delay,
        stats.mshr_allocations,
        stats.mshr_merges,
        cores,
    ) == PAPER_REGIME_PINS[kernel]
