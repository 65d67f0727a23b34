"""Bench: observability overhead — disabled tracing must stay free.

The pipeline keeps a tracer and metrics registry unconditionally; the
contract (repro.obs.tracer, design constraint 1) is that the *disabled*
path costs nothing measurable.  This bench times the same
trace-plus-oracle computation three ways:

``baseline``
    The raw stage computes (suite build → emulate → oracle), no
    pipeline, no obs — the untraced floor.
``disabled``
    Through ``Pipeline.simulate`` with the default disabled tracer —
    adds content-addressed keys, the in-memory store, metric counters
    and no-op span calls.
``enabled``
    Same, with a recording tracer and timeline sampling — the full
    observability cost, recorded for context (not asserted).

Two more pairs cover the telemetry layer:

``evaluate`` vs ``evaluate_ledger``
    ``Pipeline.evaluate`` without and with a prediction ledger — the
    per-evaluation JSONL append must stay within the same 5% budget.
``disabled`` vs ``sampler``
    The same pipeline run inside a :class:`SamplingProfiler` at its
    default ~97 Hz — the ``SIGPROF`` handler's stack walks must stay
    within the same 5% budget (the condition for keeping the sampler).

Each comparison runs ``PAIRS`` alternating pairs (the side that runs
first flips every pair, and every timed call starts from a collected
heap) and takes the median of the per-pair ratios: a host slowdown
hits both sides of a pair alike, and the median ignores the odd
preempted run.  Every guarded ratio must stay within 5% with no
absolute grace.  The workload runs at ``Scale.small`` (one run takes
tens of milliseconds), so the 5% tolerance is a few milliseconds, well
under the quantity it bounds.  Results land in ``BENCH_obs.json`` at
the repo root.
"""

import contextlib
import gc
import json
import os
import statistics
import tempfile
import time

from benchmarks.conftest import run_once
from repro.config import GPUConfig
from repro.obs import PredictionLedger, SamplingProfiler, Tracer
from repro.pipeline import Pipeline
from repro.timing.simulator import simulate_kernel
from repro.trace.emulator import emulate
from repro.workloads import Scale
from repro.workloads.suite import SUITE

KERNEL = "cfd_step_factor"
WARPS = 8
SCALE = Scale.small
PAIRS = 15
#: Largest allowed median ratio of a guarded comparison.
LIMIT = 1.05

RESULTS_PATH = os.path.join(
    os.path.dirname(os.path.abspath(__file__)), "..", "BENCH_obs.json"
)


def _config():
    return GPUConfig.small(n_cores=2, warps_per_core=16)


def _baseline():
    """The untraced floor: exactly the work the pipeline stages do."""
    config = _config()
    kernel, memory = SUITE[KERNEL].build(SCALE())
    trace = emulate(kernel, config, memory=memory)
    return simulate_kernel(trace, config, warps_per_core=WARPS)


def _pipeline_run(tracer=None, timeline_interval=None):
    pipeline = Pipeline(
        _config(), scale=SCALE(), tracer=tracer,
        timeline_interval=timeline_interval,
    )
    return pipeline.simulate(KERNEL, warps_per_core=WARPS)


def _evaluate_run(ledger=None):
    pipeline = Pipeline(_config(), scale=SCALE(), ledger=ledger)
    return pipeline.evaluate(KERNEL, warps_per_core=WARPS)


def _measure(fn, context=contextlib.nullcontext):
    """Seconds one call of ``fn`` takes inside ``context()``, timed from
    a collected heap (entering the context is not timed)."""
    gc.collect()
    with context():
        start = time.perf_counter()
        fn()
        return time.perf_counter() - start


def _paired(reference, candidate, candidate_context=contextlib.nullcontext):
    """Median and quartiles of the ``candidate / reference`` run-time
    ratio over ``PAIRS`` alternating pairs, and both sides' medians."""
    _measure(reference)
    _measure(candidate, candidate_context)
    ratios, reference_s, candidate_s = [], [], []
    for index in range(PAIRS):
        if index % 2:
            cand = _measure(candidate, candidate_context)
            ref = _measure(reference)
        else:
            ref = _measure(reference)
            cand = _measure(candidate, candidate_context)
        ratios.append(cand / ref)
        reference_s.append(ref)
        candidate_s.append(cand)
    q1, median, q3 = statistics.quantiles(ratios, n=4)
    return {
        "ratio": median,
        "ratio_q1": q1,
        "ratio_q3": q3,
        "reference_s": statistics.median(reference_s),
        "candidate_s": statistics.median(candidate_s),
    }


def test_bench_obs_overhead(benchmark):
    disabled = _paired(_baseline, _pipeline_run)
    enabled = _paired(
        _baseline,
        lambda: _pipeline_run(tracer=Tracer(), timeline_interval=256.0),
    )
    with tempfile.TemporaryDirectory() as tmp:
        ledger_path = os.path.join(tmp, "bench-ledger.jsonl")
        ledger = _paired(
            _evaluate_run,
            lambda: _evaluate_run(ledger=PredictionLedger(ledger_path)),
        )
    sampler = _paired(
        _pipeline_run, _pipeline_run, candidate_context=SamplingProfiler,
    )

    results = {
        "kernel": KERNEL,
        "scale": SCALE.__name__,
        "warps_per_core": WARPS,
        "pairs": PAIRS,
        "limit": LIMIT,
        "baseline_s": disabled["reference_s"],
        "disabled_s": disabled["candidate_s"],
        "enabled_s": enabled["candidate_s"],
        "evaluate_s": ledger["reference_s"],
        "evaluate_ledger_s": ledger["candidate_s"],
        "sampler_s": sampler["candidate_s"],
    }
    for name, comparison in (("disabled", disabled), ("enabled", enabled),
                             ("ledger", ledger), ("sampler", sampler)):
        results[name + "_overhead_ratio"] = comparison["ratio"]
        results[name + "_overhead_ratio_q1"] = comparison["ratio_q1"]
        results[name + "_overhead_ratio_q3"] = comparison["ratio_q3"]
    with open(RESULTS_PATH, "w", encoding="utf-8") as handle:
        json.dump(results, handle, indent=2, sort_keys=True)
    benchmark.extra_info.update(results)

    run_once(benchmark, _pipeline_run)

    # The contract: the disabled-tracer pipeline path stays
    # within 5% of the untraced baseline.
    assert disabled["ratio"] <= LIMIT, (
        "disabled-tracer pipeline run is %.3fx the untraced baseline "
        "(median of %d pairs; limit %.2fx)" % (disabled["ratio"], PAIRS, LIMIT)
    )
    # Ledger appends are one JSON line per *evaluation* — bounded by
    # serialization of a small dict, not by sweep size.
    assert ledger["ratio"] <= LIMIT, (
        "ledger-enabled evaluate is %.3fx plain evaluate (median of %d "
        "pairs; limit %.2fx)" % (ledger["ratio"], PAIRS, LIMIT)
    )
    # One stack walk per ~10 ms of CPU time: tens of microseconds each.
    assert sampler["ratio"] <= LIMIT, (
        "pipeline run under the sampling profiler is %.3fx a plain run "
        "(median of %d pairs; limit %.2fx)" % (sampler["ratio"], PAIRS, LIMIT)
    )
