"""Ablation bench: DRAM channel count (extension beyond the paper).

Splitting the same aggregate bandwidth over more channels makes each
request's bus service slower while enabling burst parallelism.  For a
latency-sensitive streaming kernel the single fat channel wins; the
model's channel-aware M/D/1 must track the oracle's direction.
"""

from benchmarks.conftest import run_once
from repro.config import GPUConfig
from repro.harness.reporting import render_table
from repro.pipeline import Pipeline
from repro.workloads import Scale

CHANNELS = (1, 2, 4)
KERNELS = ("sad_calc_8", "cfd_step_factor")


def sweep():
    rows = []
    data = {}
    for name in KERNELS:
        for channels in CHANNELS:
            config = GPUConfig(n_cores=2).with_(n_dram_channels=channels)
            pipeline = Pipeline(config, Scale.tiny())
            result = pipeline.evaluate(name)
            rows.append(
                (
                    name,
                    channels,
                    "%.3f" % result.oracle_cpi,
                    "%.3f" % result.model_cpis["mt_mshr_band"],
                    "%.1f%%" % (100 * result.error("mt_mshr_band")),
                )
            )
            data[(name, channels)] = {
                "oracle": result.oracle_cpi,
                "model": result.model_cpis["mt_mshr_band"],
            }
    text = render_table(
        ("kernel", "channels", "oracle CPI", "model CPI", "error"),
        rows,
        title="Ablation: DRAM channel count (fixed aggregate bandwidth)",
    )
    return text, data


def test_bench_dram_channels(benchmark):
    text, data = run_once(benchmark, sweep)
    print("\n" + text)
    for name in KERNELS:
        # Same aggregate bandwidth: more channels never *helps* these
        # latency-bound kernels in the oracle, and the model agrees.
        assert data[(name, 4)]["oracle"] >= data[(name, 1)]["oracle"] - 0.05
        assert data[(name, 4)]["model"] >= data[(name, 1)]["model"] - 1e-9
