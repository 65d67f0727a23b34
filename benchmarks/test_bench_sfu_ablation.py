"""Ablation bench: the SFU-contention extension (beyond the paper).

Sec. IV-B1 of the paper suggests generalising the queuing-delay approach
to other contended resources "such as the special functional unit (SFU)"
and leaves it as future work.  This bench sweeps the number of SFU lanes
on SFU-heavy kernels and shows that (a) the oracle slows down as lanes
shrink, and (b) the extension model tracks it while the unextended model
(the paper's balanced-design assumption) cannot.
"""

from benchmarks.conftest import run_once
from repro.config import GPUConfig
from repro.harness.reporting import render_table
from repro.pipeline import Pipeline
from repro.workloads import Scale

SFU_KERNELS = ("leukocyte_find", "blackscholes")
SFU_LANES = (32, 8, 4)


def sweep():
    rows = []
    data = {}
    for name in SFU_KERNELS:
        for lanes in SFU_LANES:
            # Full occupancy (32 resident warps): SFU contention only
            # exists when enough warps keep the narrow pipe saturated.
            config = GPUConfig(n_cores=2).with_(n_sfu_units=lanes)
            pipeline = Pipeline(config, Scale.small())
            result = pipeline.evaluate(name)
            prediction = result.prediction
            without_sfu = prediction.cpi - prediction.cpi_sfu
            rows.append(
                (
                    name,
                    lanes,
                    "%.3f" % result.oracle_cpi,
                    "%.3f" % prediction.cpi,
                    "%.3f" % without_sfu,
                    "%.1f%%" % (100 * result.error("mt_mshr_band")),
                )
            )
            data[(name, lanes)] = {
                "oracle": result.oracle_cpi,
                "with_sfu_model": prediction.cpi,
                "without_sfu_model": without_sfu,
            }
    text = render_table(
        ("kernel", "SFU lanes", "oracle CPI", "model CPI",
         "model w/o SFU term", "error"),
        rows,
        title="Ablation: SFU-contention extension",
    )
    return text, data


def test_bench_sfu_ablation(benchmark):
    text, data = run_once(benchmark, sweep)
    print("\n" + text)
    for name in SFU_KERNELS:
        wide = data[(name, 32)]
        narrow = data[(name, 4)]
        # The oracle slows down when SFU lanes shrink...
        assert narrow["oracle"] > wide["oracle"]
        # ...the extension model follows...
        assert narrow["with_sfu_model"] > wide["with_sfu_model"]
        # ...and tracks the narrow-SFU oracle better than the model
        # without the SFU term.
        with_err = abs(narrow["with_sfu_model"] - narrow["oracle"])
        without_err = abs(narrow["without_sfu_model"] - narrow["oracle"])
        assert with_err <= without_err + 1e-9
