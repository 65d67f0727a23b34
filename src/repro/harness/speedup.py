"""Wall-clock speedup of GPUMech over detailed simulation (Sec. VI-D).

The paper reports ~97x end-to-end speedup, with the cache simulator ~108x
faster than the detailed simulator and clustering a one-time per-input
cost.  This harness measures the same decomposition on our substrates:
trace emulation is excluded (GPUOcelot feeds both sides in the paper),
and the model side is split into its one-time (interval profiles of all
warps + clustering) and per-configuration (cache sim + representative
interval profile + analytical model) parts.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

from repro.harness.reporting import render_table
from repro.pipeline import MemoryStore, Pipeline
from repro.timing.simulator import TimingSimulator


@dataclass
class SpeedupResult:
    """Per-kernel timing breakdown."""

    kernel: str
    oracle_seconds: float
    model_seconds: float  # full model pipeline (cache sim + profiles + predict)
    cache_sim_seconds: float
    profiling_seconds: float  # interval profiles of all warps + clustering
    predict_seconds: float
    #: Wall-clock of the oracle with cycle skipping disabled — the honest
    #: analogue of the paper's cycle-by-cycle detailed simulator (Macsim
    #: steps every cycle; our default oracle is event-driven and therefore
    #: already much faster than what the paper's 97x is measured against).
    naive_oracle_seconds: Optional[float] = None

    @property
    def speedup(self) -> float:
        """Oracle wall-clock over model wall-clock."""
        return (
            self.oracle_seconds / self.model_seconds
            if self.model_seconds
            else float("inf")
        )

    @property
    def speedup_vs_naive(self) -> Optional[float]:
        """Speedup against the cycle-by-cycle oracle loop, if measured."""
        if self.naive_oracle_seconds is None or not self.model_seconds:
            return None
        return self.naive_oracle_seconds / self.model_seconds

    @property
    def reconfigure_seconds(self) -> float:
        """Cost of re-modeling a new hardware configuration (Sec. VI-D):
        cache sim + one interval profile + the analytical model — the
        all-warp profiling and clustering are per-input one-time costs."""
        per_warp = self.profiling_seconds and (
            self.profiling_seconds / max(self._n_warps, 1)
        )
        return self.cache_sim_seconds + per_warp + self.predict_seconds

    _n_warps: int = 1


def measure_speedup(
    pipeline: Pipeline,
    kernels: Sequence[str],
    include_naive: bool = False,
) -> List[SpeedupResult]:
    """Time oracle vs. model on each kernel (traces pre-built, excluded).

    ``include_naive`` additionally times the oracle with cycle skipping
    disabled — the cycle-by-cycle loop that corresponds to the paper's
    detailed simulator.  It is very slow; use small workloads.
    """
    results: List[SpeedupResult] = []
    config = pipeline.config
    for name in kernels:
        trace = pipeline.trace(name)  # warm the cache; not timed

        # Bypass all memoisation: this is a timing measurement, not a
        # result lookup.
        start = time.perf_counter()
        TimingSimulator(config).run(trace)
        oracle_seconds = time.perf_counter() - start

        naive_seconds = None
        if include_naive:
            start = time.perf_counter()
            TimingSimulator(config, cycle_skipping=False).run(trace)
            naive_seconds = time.perf_counter() - start

        # A fresh cold pipeline per kernel: every stage executes exactly
        # once and its wall-clock lands in ``cold.timings``.
        cold = Pipeline(config, scale=pipeline.scale, store=MemoryStore())
        cold.store.put(cold.trace_key(name), trace)
        cold.predict(name)
        timings = cold.timings
        cache_sim_seconds = timings["cache_sim"] + timings["latency_table"]
        profiling_seconds = (
            timings["interval_profiles"] + timings["clustering"]
        )
        predict_seconds = timings["predict"]

        result = SpeedupResult(
            kernel=name,
            oracle_seconds=oracle_seconds,
            model_seconds=cache_sim_seconds + profiling_seconds + predict_seconds,
            cache_sim_seconds=cache_sim_seconds,
            profiling_seconds=profiling_seconds,
            predict_seconds=predict_seconds,
            naive_oracle_seconds=naive_seconds,
        )
        result._n_warps = trace.n_warps
        results.append(result)
    return results


def run_speedup(
    pipeline: Pipeline,
    kernels: Optional[Sequence[str]] = None,
    include_naive: bool = False,
) -> "Dict":
    """Measure and render the Sec. VI-D speedup table.

    ``include_naive`` adds a column comparing against the cycle-by-cycle
    oracle loop (the paper's detailed-simulation baseline); only feasible
    on small workloads.
    """
    from repro.harness.experiments import SWEEP_KERNELS, ExperimentResult

    kernels = list(kernels) if kernels is not None else list(SWEEP_KERNELS)
    results = measure_speedup(pipeline, kernels, include_naive=include_naive)
    headers = ["kernel", "oracle (s)", "model (s)", "speedup", "reconfig (s)"]
    if include_naive:
        headers += ["cycle-loop (s)", "vs cycle-loop"]
    rows = []
    for r in results:
        row = [
            r.kernel,
            "%.3f" % r.oracle_seconds,
            "%.3f" % r.model_seconds,
            "%.1fx" % r.speedup,
            "%.4f" % r.reconfigure_seconds,
        ]
        if include_naive:
            row += [
                "%.3f" % r.naive_oracle_seconds,
                "%.1fx" % r.speedup_vs_naive,
            ]
        rows.append(tuple(row))
    total_oracle = sum(r.oracle_seconds for r in results)
    total_model = sum(r.model_seconds for r in results)
    total_row = [
        "TOTAL",
        "%.3f" % total_oracle,
        "%.3f" % total_model,
        "%.1fx" % (total_oracle / total_model if total_model else 0.0),
        "",
    ]
    naive_speedup = None
    if include_naive:
        total_naive = sum(r.naive_oracle_seconds for r in results)
        naive_speedup = total_naive / total_model if total_model else 0.0
        total_row += ["%.3f" % total_naive, "%.1fx" % naive_speedup]
    rows.append(tuple(total_row))
    text = render_table(
        tuple(headers),
        rows,
        title="Sec. VI-D: GPUMech wall-clock speedup over detailed simulation",
    )
    return ExperimentResult(
        "speedup",
        text,
        data={
            "results": results,
            "overall_speedup": total_oracle / total_model if total_model else 0.0,
            "overall_speedup_vs_cycle_loop": naive_speedup,
        },
    )
