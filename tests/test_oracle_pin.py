"""Exact pin of the timing oracle on every suite kernel.

The oracle counterpart of ``tests/test_prediction_pin.py``.  At the
ledger's configuration (``GPUConfig.small(n_cores=2,
warps_per_core=8)``, ``Scale.tiny()``, 4 warps per core) the simulated
CPI of every kernel must equal the ``oracle_cpi`` recorded in
``BASELINE_ledger.jsonl`` exactly, and the total cycle counts under the
GTO scheduler and the ``subcore`` architecture must equal the values
pinned below.  The oracle is deterministic, so any difference is a
behaviour change of the cycle-level simulator: the accuracy watchdog's
tolerance would let it through, this test does not.
"""

import json
from pathlib import Path

import pytest

from repro.config import GPUConfig
from repro.pipeline import Pipeline
from repro.workloads import Scale

LEDGER = Path(__file__).resolve().parent.parent / "BASELINE_ledger.jsonl"
WARPS_PER_CORE = 4


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
        GPUConfig.small(n_cores=2, warps_per_core=8), scale=Scale.tiny()
    )


def test_pins_cover_the_ledger():
    assert sorted(PINNED_CYCLES) == sorted(RECORDS)


@pytest.mark.parametrize("kernel", sorted(RECORDS))
def test_oracle_cpi_matches_ledger_exactly(pipeline, kernel):
    stats = pipeline.simulate(kernel, warps_per_core=WARPS_PER_CORE)
    assert stats.cpi == RECORDS[kernel]["oracle_cpi"]


@pytest.mark.parametrize("kernel", sorted(RECORDS))
def test_gto_and_subcore_cycles_pinned(pipeline, kernel):
    gto, subcore = PINNED_CYCLES[kernel]
    base = pipeline.config
    assert pipeline.simulate(
        kernel, base.with_(scheduler="gto"), warps_per_core=WARPS_PER_CORE
    ).total_cycles == gto
    assert pipeline.simulate(
        kernel, base.with_(arch="subcore"), warps_per_core=WARPS_PER_CORE
    ).total_cycles == subcore
