"""Whole-model monotonicity: more hardware never predicts a higher CPI.

Metamorphic properties of ``GPUMech.predict`` end to end, over every
suite kernel at tiny scale, under RR and GTO, on the paper machine and
on ``subcore`` with two issue slots: predicted CPI never rises as

* DRAM bandwidth grows,
* MSHR entries grow, or
* (under ``subcore``) issue slots grow.

All three are hardware-only fields, so only the ``predict`` stage
re-runs along a sweep; everything upstream is one artifact per arch.
The bandwidth and MSHR properties are also checked in the paper's
regime (``Scale.small``, ``GPUConfig(n_cores=2)``) on the kernels the
``dse_contention`` benchmark sweeps.  (``tests/test_contention.py``
checks the contention helpers alone.)
"""

import pytest

from repro.config import GPUConfig
from repro.pipeline import Pipeline
from repro.workloads.generators import Scale
from repro.workloads.suite import kernel_names

PAPER = GPUConfig.small(n_cores=2, warps_per_core=8)
SUBCORE = PAPER.with_(arch="subcore", n_schedulers=2)

#: Field -> increasing values; each sweep runs from every base config
#: that can represent all of its points.
SWEEPS = {
    "dram_bandwidth_gbps": (24.0, 48.0, 96.0, 192.0, 384.0, 768.0),
    "n_mshrs": (2, 4, 8, 16, 32, 64, 128, 256),
}
SUBCORE_SWEEPS = dict(SWEEPS, n_schedulers=(1, 2, 4, 8))

#: The kernels ``dse_contention`` sweeps (``DSE_KERNELS`` in
#: ``perfbench/run.py``).
SWEPT_KERNELS = (
    "cfd_step_factor", "cfd_compute_flux", "kmeans_invert_mapping",
    "strided_deg32", "sad_calc_8", "mandelbrot", "sgemm_tile", "spmv_jds",
)


def rises(pipeline, name, base, sweeps):
    """Every step of ``sweeps`` from ``base``, under RR and GTO, along
    which ``name``'s predicted CPI rises."""
    found = []
    for policy in ("rr", "gto"):
        for field, values in sweeps.items():
            cpis = [
                pipeline.predict(
                    name,
                    config=base.with_(scheduler=policy, **{field: value}),
                ).cpi
                for value in values
            ]
            found += [
                (name, base.arch, policy, field, lo, hi, before, after)
                for lo, hi, before, after in zip(
                    values, values[1:], cpis, cpis[1:]
                )
                if after > before
            ]
    return found


@pytest.mark.parametrize("name", kernel_names())
def test_cpi_never_rises_with_more_hardware(name):
    pipeline = Pipeline(PAPER, scale=Scale.tiny())
    found = rises(pipeline, name, PAPER, SWEEPS)
    found += rises(pipeline, name, SUBCORE, SUBCORE_SWEEPS)
    assert found == [], found
    # Only predict re-ran along the sweeps: one upstream chain per arch.
    for stage in ("trace", "cache_sim", "interval_profiles", "clustering"):
        assert pipeline.counters[stage] == 2, stage


def test_cpi_never_rises_at_paper_scale():
    base = GPUConfig(n_cores=2)
    pipeline = Pipeline(base, scale=Scale.small())
    found = []
    for name in SWEPT_KERNELS:
        found += rises(pipeline, name, base, SWEEPS)
    assert found == [], found
    assert pipeline.counters["clustering"] == len(SWEPT_KERNELS)
