#!/usr/bin/env python3
"""Suite-wide GPUMech benchmark: host time end to end and per layer.

Run from the repository root::

    python3 perfbench/run.py --workload model_suite_cold --seed 1 \\
        --seconds 13 --trace 0

Every workload runs in this one process through ``repro.Pipeline``'s
public API on ``GPUConfig(n_cores=2)`` (32 warps/core) at
``Scale.small``.  ``--trace 0`` measures with tracing off and reports
the end-to-end metrics; ``--trace 1`` runs one untraced and one traced
pass and reports the per-layer metrics.  The last line of standard
output is the JSON result; the lines before it are a readable report.
End-to-end host times are host seconds scaled to a reference host
speed (see ``CAL_REF_S``); simulated statistics (CPI, cycles, miss
rates) are deterministic and repeat exactly.  perfbench/README.md
defines every metric.

``--write-reference`` re-records ``reference.json``, the CPIs that
``predictions_changed`` and ``cpi_error_mean`` compare against.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import math
import os
import pickle
import platform
import random
import resource
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = HERE / "_work"
REFERENCE = HERE / "reference.json"

#: The six ``BENCH_KERNELS`` of ``benchmarks/conftest.py`` plus two
#: kernels whose model inputs are among the suite's most expensive.
DSE_KERNELS = (
    "cfd_step_factor",
    "cfd_compute_flux",
    "kmeans_invert_mapping",
    "strided_deg32",
    "sad_calc_8",
    "mandelbrot",
    "sgemm_tile",
    "spmv_jds",
)

#: Validation subset: issue-bound, stall-bound, and the Sec. VII case
#: studies.
VALIDATE_KERNELS = (
    "mri_q", "matrixmul_sdk", "lavamd_force", "mandelbrot",
    "strided_deg16", "histo_main", "sad_calc_16",
    "cfd_step_factor", "cfd_compute_flux", "kmeans_invert_mapping",
)

#: Design-space ranges of ``dse_contention``.  Only ``predict`` reads
#: these fields, so every point re-runs ``predict`` and nothing else.
#: They come from the repo's own sweeps: ``n_mshrs`` and
#: ``dram_bandwidth_gbps`` are drawn between the least and the greatest
#: of ``MSHR_SWEEP`` and ``BANDWIDTH_SWEEP`` (``repro.harness.experiments``,
#: read in :class:`DseContention`); the channel counts are those of
#: ``benchmarks/test_bench_dram_channels.py`` and the SFU lane counts
#: those of ``benchmarks/test_bench_sfu_ablation.py``.
DSE_SCHEDULERS = ("rr", "gto")
DSE_DRAM_CHANNELS = (1, 2, 4)
DSE_SFU_UNITS = (4, 8, 32)

#: Work per run depends only on ``--seconds`` (never on measured
#: speed), so two commits run identical work and memory.  Each workload
#: runs ``round(seconds / pass cost)`` passes (at least one), where the
#: pass cost is the ops phase's reference seconds (see ``CAL_REF_S``) at
#: the commit that added this benchmark.  Warm phases and set-up probes
#: come on top.
MODEL_PASS_REF_S = 4.2
DSE_POINTS_PER_PASS = 200
DSE_PASS_REF_S = 0.11
VALIDATE_PASS_REF_S = 8.5
#: Set-up is repeated in this many child processes; ``setup_s`` is the
#: median.
SETUP_PROBES = 3
#: A tail percentile needs at least this many samples beyond it.
TAIL_BEYOND = 10

#: Host-speed calibration.  On a 2-vCPU VM shared with other tenants the
#: host's speed drifts by up to ~50% over seconds to minutes, and
#: process CPU time drifts with it, so raw host seconds of two runs are
#: not comparable.  Every end-to-end host time is therefore scaled to a
#: reference speed: a fixed pure-Python loop of ``CAL_ITERS`` iterations
#: is timed before and after each measured stretch, and the stretch's
#: host seconds are multiplied by ``CAL_REF_S`` / (the loop's mean
#: seconds there).  ``CAL_REF_S`` is the loop's time on such a VM
#: (x86-64, CPython 3.11) when it is calm, so figures read as host
#: seconds there.
CAL_ITERS = 100000
CAL_REF_S = 0.009

#: Stages a model-only ``predict`` executes on a cold store.
MODEL_STAGES = (
    "trace", "cache_sim", "latency_table", "interval_profiles",
    "clustering", "predict",
)
#: Table II models an evaluation reports besides the oracle.
EVAL_MODELS = ("naive", "markov", "mt", "mt_mshr", "mt_mshr_band")

END_TO_END = {
    "setup_s": "s",
    "ops_per_s": "1/s",
    "op_p50_ms": "ms",
    "op_tail_ms": "ms",
    "warm_s": "s",
    "peak_rss_mb": "MB",
    "cpi_error_mean": "ratio",
}


# ---------------------------------------------------------------------------
# Machine, pipelines, inputs
# ---------------------------------------------------------------------------


def machine():
    from repro import GPUConfig

    return GPUConfig(n_cores=2)


def new_pipeline(store, tracer=None):
    """A pipeline over ``store``; with an enabled tracer the store's
    gets/puts are traced too."""
    from repro import Pipeline
    from repro.workloads import Scale

    from layers import TracedStore

    if tracer is not None and tracer.enabled:
        store = TracedStore(store, tracer)
    return Pipeline(machine(), Scale.small(), store=store, tracer=tracer)


def shuffled(items, rng):
    items = list(items)
    rng.shuffle(items)
    return items


def load_reference():
    with open(REFERENCE, encoding="utf-8") as handle:
        return json.load(handle)["kernels"]


def digest(value) -> str:
    """Bit-for-bit identity of an output (or a list of outputs): each
    dataclass field pickled on its own, because a store round trip does
    not keep objects shared between fields shared."""
    sha = hashlib.sha256()
    for item in value if isinstance(value, list) else [value]:
        parts = ([getattr(item, f.name) for f in dataclasses.fields(item)]
                 if dataclasses.is_dataclass(item) else [item])
        for part in parts:
            sha.update(pickle.dumps(part, protocol=pickle.HIGHEST_PROTOCOL))
    return sha.hexdigest()


def calibrate() -> float:
    """Host seconds the fixed calibration loop takes right now."""
    start = time.perf_counter()
    total, table = 0, {}
    for i in range(CAL_ITERS):
        total += i * i % 7
        table[i & 255] = total
    return time.perf_counter() - start


class RefClock:
    """Scales host seconds to the reference speed (see ``CAL_REF_S``).

    Each :meth:`factor` call times the calibration loop and returns the
    scale for the stretch since the previous call: ``CAL_REF_S`` over
    the mean of the two loop times that bracket it.
    """

    def __init__(self):
        self.last = calibrate()
        self.factors = []

    def factor(self) -> float:
        now = calibrate()
        factor = 2 * CAL_REF_S / (self.last + now)
        self.last = now
        self.factors.append(factor)
        return factor


class RawClock:
    """Unscaled host seconds (traced runs, whose shares are ratios)."""

    factors = ()

    def factor(self) -> float:
        return 1.0


def valid_cpi(value) -> bool:
    return isinstance(value, float) and math.isfinite(value) and value > 0


def stage_executions(pipeline):
    metrics = pipeline.metrics
    return {
        stage: metrics.counter_value("pipeline.stage_executions", stage=stage)
        for stage in MODEL_STAGES + ("oracle",)
    }


def model_error(predictions, reference) -> float:
    """Mean relative CPI error of predictions against the reference
    oracle CPIs."""
    return statistics.fmean(
        abs(p.cpi - reference[p.kernel_name]["oracle"])
        / reference[p.kernel_name]["oracle"]
        for p in predictions
    )


def model_changed(predictions, reference) -> int:
    return sum(p.cpi != reference[p.kernel_name]["mt_mshr_band"]
               for p in predictions)


def result_cpis(result):
    """Oracle and Table II model CPIs of one evaluation, by name."""
    return {"oracle": result.oracle_cpi,
            **{m: result.model_cpis[m] for m in EVAL_MODELS}}


# ---------------------------------------------------------------------------
# Workloads
# ---------------------------------------------------------------------------


class Workload:
    """One benchmark workload.

    A *pass* is a list of calls (``label``, ``fn(pipeline)``) run on a
    pipeline over the pass's store (the ops phase), then re-run on a
    pipeline over the filled store (the warm phase).  Accuracy is judged
    on the outputs of the first pass.
    """

    name = ""
    op_unit = ""
    #: Reference seconds of one ops phase (sizes the run).
    pass_ref_s = 1.0
    #: Stage executions each ops-phase call must add (None: unchecked).
    ops_expect = None
    #: Whether every pass makes the same calls (see :func:`summarize`).
    repeats_calls = True
    #: Warm-phase runs per pass; ``warm_s`` is their median.
    warm_reps = 3
    #: Calls per calibration in the ops and warm phases (None: the
    #: whole phase).
    ops_group = 1
    warm_group = None
    #: Whether warm results can differ from cold ones: only where the
    #: warm phase reads another store than the one the ops phase filled.
    check_warm = False

    def __init__(self, seed: int, workdir: str):
        self.rng = random.Random(seed)
        self.workdir = workdir

    def warm_up(self) -> None:
        """Lazy first-call work (imports, numpy paths, heap growth) on a
        kernel outside the dse and validation sets and in a throwaway
        store, so it lands in set-up rather than in the first timed
        call."""
        from repro.pipeline import open_store

        new_pipeline(open_store()).predict("vectoradd")

    def setup(self) -> None:
        """Workload-specific set-up (part of ``setup_s``)."""

    def n_passes(self, seconds: int) -> int:
        return max(1, round(seconds / self.pass_ref_s))

    def start_pass(self):
        """``(calls, store, warm_store)`` for one pass; ``warm_store()``
        opens the store the warm phase reads."""
        raise NotImplementedError

    def traced_pass(self):
        """The pass a ``--trace 1`` run profiles."""
        return self.start_pass()

    def cpis(self, output):
        """Every CPI an output carries, by name."""
        return {"mt_mshr_band": output.cpi}

    def cpi_error_mean(self, outputs, reference) -> float:
        return model_error(outputs, reference)

    def predictions_changed(self, outputs, reference) -> int:
        return model_changed(outputs, reference)


class ModelSuiteCold(Workload):
    """``predict`` on all 40 suite kernels, serial, fresh memory store."""

    name = "model_suite_cold"
    op_unit = "kernel"
    pass_ref_s = MODEL_PASS_REF_S
    warm_reps = 20  # a warm pass is ~5 ms of store hits

    def start_pass(self):
        from repro.pipeline import open_store
        from repro.workloads.suite import kernel_names

        store = open_store()
        calls = [(k, lambda p, k=k: p.predict(k))
                 for k in shuffled(kernel_names(), self.rng)]
        return calls, store, lambda: store


class DseContention(Workload):
    """A design-space sweep of ``predict`` over the contention fields.

    Traces and base-config model inputs are built in set-up; each point
    is a new (kernel, config) pair, so it executes exactly one
    ``predict`` and hits the store for everything upstream.  Accuracy is
    judged on the base-config predictions: swept points have no oracle
    reference.
    """

    name = "dse_contention"
    op_unit = "point"
    pass_ref_s = DSE_PASS_REF_S
    ops_expect = {"predict": 1}
    repeats_calls = False
    warm_reps = 1
    ops_group = None

    def __init__(self, seed, workdir):
        from repro.harness.experiments import BANDWIDTH_SWEEP, MSHR_SWEEP

        super().__init__(seed, workdir)
        self.kernels = shuffled(DSE_KERNELS, self.rng)
        self.mshrs = (min(MSHR_SWEEP), max(MSHR_SWEEP))
        self.bandwidths = (min(BANDWIDTH_SWEEP), max(BANDWIDTH_SWEEP))

    def setup(self):
        from repro.pipeline import open_store

        self.store = open_store()
        pipeline = new_pipeline(self.store)
        self.base = [pipeline.predict(k) for k in self.kernels]
        base = machine()
        self.seen = {
            (k, base.scheduler, base.n_mshrs, base.dram_bandwidth_gbps,
             base.n_dram_channels, base.n_sfu_units)
            for k in self.kernels
        }

    def draw(self):
        """A (kernel, config) point never drawn before in this run."""
        rng = self.rng
        while True:
            point = (
                rng.choice(self.kernels),
                rng.choice(DSE_SCHEDULERS),
                rng.randint(*self.mshrs),
                round(rng.uniform(*self.bandwidths), 1),
                rng.choice(DSE_DRAM_CHANNELS),
                rng.choice(DSE_SFU_UNITS),
            )
            if point not in self.seen:
                self.seen.add(point)
                kernel, scheduler, mshrs, bandwidth, channels, sfus = point
                return kernel, machine().with_(
                    scheduler=scheduler,
                    n_mshrs=mshrs,
                    dram_bandwidth_gbps=bandwidth,
                    n_dram_channels=channels,
                    n_sfu_units=sfus,
                )

    def base_store(self):
        """A fresh memory store holding the set-up artifacts, so each
        pass's predictions are dropped with its store."""
        from repro.pipeline import open_store

        store = open_store()
        for key in self.store.keys():
            store.put(key, self.store.get(key))
        return store

    def start_pass(self, points=DSE_POINTS_PER_PASS):
        calls = [
            (k, lambda p, k=k, c=c: p.predict(k, config=c))
            for k, c in (self.draw() for _ in range(points))
        ]
        store = self.base_store()
        return calls, store, lambda: store

    def traced_pass(self):
        """Five passes' points in one, so the traced shares and the
        tracing overhead rest on ~0.4 s of calls rather than ~80 ms."""
        return self.start_pass(5 * DSE_POINTS_PER_PASS)

    def cpi_error_mean(self, outputs, reference):
        return model_error(self.base, reference)

    def predictions_changed(self, outputs, reference):
        return model_changed(self.base, reference)


class ValidateSerial(Workload):
    """The validation subset through ``evaluate_many(jobs=1)`` on a fresh
    on-disk store (ops phase: cold), then again from a fresh pipeline on
    the same directory (warm phase: store reads only).

    Each kernel is its own ``evaluate_many([request], jobs=1)`` call, so
    every kernel is timed and calibrated on its own.  At ``jobs=1`` one
    call over the whole subset runs the very same per-request loop.
    """

    name = "validate_serial"
    op_unit = "kernel validation"
    pass_ref_s = VALIDATE_PASS_REF_S
    warm_reps = 1
    warm_group = 1
    check_warm = True

    def warm_up(self):
        """As for the other workloads, but through ``evaluate``, so the
        oracle's and the baselines' first calls are warmed too."""
        from repro.pipeline import open_store

        new_pipeline(open_store()).evaluate("vectoradd")

    def start_pass(self):
        from repro.pipeline import EvalRequest, open_store

        self.requests = [EvalRequest(k)
                         for k in shuffled(VALIDATE_KERNELS, self.rng)]
        self.cache_dir = tempfile.mkdtemp(prefix="store-", dir=self.workdir)
        calls = [(r.kernel, lambda p, r=r: p.evaluate_many([r], jobs=1))
                 for r in self.requests]
        return (calls, open_store(self.cache_dir),
                lambda: open_store(self.cache_dir))

    def cpis(self, output):
        return {"%s.%s" % (r.kernel, name): value
                for r in output for name, value in result_cpis(r).items()}

    def cpi_error_mean(self, outputs, reference):
        return statistics.fmean(r.error("mt_mshr_band")
                                for out in outputs for r in out)

    def predictions_changed(self, outputs, reference):
        return sum(value != reference[r.kernel][name]
                   for out in outputs for r in out
                   for name, value in result_cpis(r).items())


WORKLOADS = {w.name: w for w in (ModelSuiteCold, DseContention,
                                  ValidateSerial)}


# ---------------------------------------------------------------------------
# Phases
# ---------------------------------------------------------------------------


class Phase:
    """Outcome of running one list of calls."""

    def __init__(self):
        self.labels = []
        self.outputs = []      # None where the call raised
        self.timed = []        # (label, seconds) per call that returned
        self.failed = 0

    @property
    def busy_s(self) -> float:
        return sum(seconds for _, seconds in self.timed)


def run_phase(workload, calls, pipeline, tracer, expect=None,
              clock=RawClock(), group=None) -> Phase:
    """Run each call once, timed; count calls that raise, return a bad
    CPI, or (with ``expect``) execute other stages than expected.

    After every ``group`` calls (None: after the last) the times since
    the previous calibration are scaled by ``clock``.
    """
    phase = Phase()
    group = group or len(calls)
    scaled = 0
    for index, (label, fn) in enumerate(calls, 1):
        phase.labels.append(label)
        run_call(workload, label, fn, pipeline, tracer, expect, phase)
        if index % group == 0 or index == len(calls):
            factor = clock.factor()
            phase.timed[scaled:] = [(name, seconds * factor)
                                    for name, seconds in phase.timed[scaled:]]
            scaled = len(phase.timed)
    return phase


def run_call(workload, label, fn, pipeline, tracer, expect, phase) -> None:
    before = stage_executions(pipeline) if expect is not None else None
    t0 = time.perf_counter()
    try:
        with tracer.span("op", category="bench", args={"op": label}):
            output = fn(pipeline)
    except Exception:
        traceback.print_exc(file=sys.stderr)
        phase.failed += 1
        phase.outputs.append(None)
        return
    phase.timed.append((label, time.perf_counter() - t0))
    phase.outputs.append(output)
    ok = all(valid_cpi(v) for v in workload.cpis(output).values())
    if expect is not None:
        after = stage_executions(pipeline)
        executed = {s: after[s] - before[s] for s in after
                    if after[s] != before[s]}
        ok = ok and executed == expect
    if not ok:
        print("failed: %s %s" % (workload.name, label), file=sys.stderr)
        phase.failed += 1


def check_same(workload, reference: Phase, other: Phase) -> int:
    """Outputs of ``other`` that differ bit-for-bit from ``reference``."""
    bad = 0
    for label, want, got in zip(reference.labels, reference.outputs,
                                other.outputs):
        if want is None or got is None:
            continue  # already counted as failed where it raised
        if digest(want) != digest(got):
            print("differs: %s %s" % (workload.name, label), file=sys.stderr)
            bad += 1
    return bad


def tail(samples):
    """``(value, percentile)``: the highest nearest-rank percentile with
    at least ``TAIL_BEYOND`` samples beyond it; with too few samples for
    any, the maximum (percentile 100)."""
    ordered = sorted(samples)
    n = len(ordered)
    if n <= TAIL_BEYOND:
        return ordered[-1], 100
    percentile = math.floor(100 * (n - TAIL_BEYOND) / n)
    return ordered[math.ceil(percentile * n / 100) - 1], percentile


# ---------------------------------------------------------------------------
# Untraced run: end-to-end metrics
# ---------------------------------------------------------------------------


def summarize(workload, passes):
    """``(ops/s, p50 s, tail s, tail percentile, samples)`` of the ops
    phases.

    Where every pass repeats the same calls, each call's latency is its
    median over the passes, which drops bursts of interference from
    other processes on the host.  Otherwise each statistic is taken per
    pass and the median over passes reported.
    """
    if workload.repeats_calls:
        by_label = {}
        for phase in passes:
            for label, seconds in phase.timed:
                by_label.setdefault(label, []).append(seconds)
        sets = [[statistics.median(v) for v in by_label.values()]]
    else:
        sets = [[seconds for _, seconds in phase.timed] for phase in passes]
    rows = [(len(s) / sum(s), statistics.median(s), *tail(s), len(s))
            for s in sets]
    return tuple(statistics.median(column) for column in zip(*rows))


def measure(workload, seconds: int, reference):
    from repro.obs.tracer import NULL_TRACER as untraced

    passes = []
    warm_s = []
    attempted = failed = 0
    clock = RefClock()
    for _ in range(workload.n_passes(seconds)):
        calls, store, warm_store = workload.start_pass()
        ops = run_phase(workload, calls, new_pipeline(store), untraced,
                        workload.ops_expect, clock, workload.ops_group)
        attempted += len(calls)
        failed += ops.failed
        for _ in range(workload.warm_reps):
            warm = run_phase(workload, calls, new_pipeline(warm_store()),
                             untraced, {}, clock, workload.warm_group)
            attempted += len(calls)
            failed += warm.failed
            if workload.check_warm:
                failed += check_same(workload, ops, warm)
            warm_s.append(warm.busy_s)
        if passes:
            ops.outputs = None  # accuracy is judged on the first pass
        passes.append(ops)
        del calls, store
    first = passes[0]
    outputs = [out for out in first.outputs if out is not None]
    ops_per_s, p50, tail_s, percentile, n_samples = summarize(
        workload, passes)
    metrics = {
        "ops_per_s": ops_per_s,
        "op_p50_ms": p50 * 1e3,
        "op_tail_ms": tail_s * 1e3,
        "warm_s": statistics.median(warm_s),
        "peak_rss_mb": peak_rss_mb(),
        "cpi_error_mean": workload.cpi_error_mean(outputs, reference),
    }
    details = {
        "passes": len(passes),
        "ops_per_pass": len(first.labels),
        "op_unit": workload.op_unit,
        "tail_percentile": percentile,
        "tail_samples": n_samples,
        "warm_samples": len(warm_s),
        "speed_factor": speed_summary(clock.factors),
        "predictions_changed": workload.predictions_changed(
            outputs, reference),
    }
    return metrics, details, attempted, failed


def speed_summary(factors):
    """Min, median and max of the calibration scale factors: how far the
    host strayed from the reference speed during the run."""
    return [min(factors), statistics.median(factors), max(factors)]


def peak_rss_mb() -> float:
    """Peak RSS of this process plus the largest waited-for child (pool
    workers); read before any set-up probe runs."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + children) / 1024.0


def probe_setup(workload_name: str, seed: int) -> float:
    """Median seconds from spawning a fresh interpreter until it has
    finished set-up, over ``SETUP_PROBES`` children, each scaled to the
    reference speed by calibrations just before and after it."""
    samples = []
    for _ in range(SETUP_PROBES):
        clock = RefClock()
        start = time.perf_counter()
        child = subprocess.Popen(
            [sys.executable, str(Path(__file__).resolve()), "--probe-setup",
             "--workload", workload_name, "--seed", str(seed)],
            stdout=subprocess.PIPE, cwd=str(ROOT), text=True,
        )
        try:
            line = child.stdout.readline()
            elapsed = time.perf_counter() - start
        finally:
            child.stdout.close()
            code = child.wait()
        if line.strip() != "ready" or code != 0:
            raise RuntimeError("set-up probe failed (exit %s)" % code)
        samples.append(elapsed * clock.factor())
    return statistics.median(samples)


# ---------------------------------------------------------------------------
# Traced run: per-layer metrics
# ---------------------------------------------------------------------------


def per_layer_units():
    from layers import LAYERS, STAGES

    units = {}
    for stage in STAGES:
        units[stage + ".calls"] = "count"
        units[stage + ".busy_s"] = "s"
    units.update({
        "trace.warp_insts": "count",
        "cache_sim.l1_miss_rate": "ratio",
        "cache_sim.l2_miss_rate": "ratio",
        "interval_profiles.intervals": "count",
        "pipeline.overhead_s": "s",
        "oracle.insts": "count",
        "oracle.cycles": "cycles",
        "oracle.insts_per_s": "1/s",
        "baselines.calls": "count",
        "baselines.busy_s": "s",
        "store.hits": "count",
        "store.misses": "count",
        "store.hit_ratio": "ratio",
    })
    for kind, unit in (("get_s", "s"), ("put_s", "s"), ("bytes", "B")):
        for stage in STAGES:
            units["store.%s.%s" % (kind, stage)] = unit
    units.update({
        "pool.wall_s": "s",
        "pool.worker_busy_s": "s",
        "pool.efficiency": "ratio",
        "pool.parent_warm_s": "s",
        "obs.trace_overhead_ratio": "ratio",
        "predictions_changed": "count",
    })
    for phase in ("ops", "warm"):
        units[phase + ".traced_s"] = "s"
        for layer in LAYERS:
            units["%s.share.%s" % (phase, layer)] = "ratio"
        units[phase + ".accounted_share"] = "ratio"
    units["warm.share.store.get_interval_profiles"] = "ratio"
    return units


def traced_phase(workload, calls, store, expect):
    """Run a phase on a fresh pipeline with its own enabled tracer."""
    from repro import Tracer

    from layers import PhaseProfile, traced_baselines

    tracer = Tracer(enabled=True)
    pipeline = new_pipeline(store, tracer)
    with traced_baselines(tracer):
        phase = run_phase(workload, calls, pipeline, tracer, expect)
    return phase, pipeline, PhaseProfile(tracer.drain(), phase.busy_s)


def timings_agree(profile, pipeline) -> bool:
    """Stage busy seconds from spans match ``Pipeline.timings`` (the
    ledger's ``stage_seconds``) up to the few microseconds between the
    span's clock reads and the pipeline's."""
    from layers import STAGES

    timings, counters = pipeline.timings, pipeline.counters
    return all(
        profile.calls[s] == counters[s]
        and abs(profile.busy_s[s] - timings[s]) <= 1e-4 * counters[s] + 1e-6
        for s in STAGES
    )


def histogram_mean(pipelines, name) -> float:
    total = count = 0
    for pipeline in pipelines:
        for entry in pipeline.metrics.snapshot()["histograms"]:
            if entry["name"] == name:
                total += entry["sum"]
                count += entry["count"]
    return total / count if count else 0.0


def store_bytes(cache_dir):
    """On-disk bytes per stage directory of a disk-backed store."""
    sizes = {}
    for stage_dir in Path(cache_dir).iterdir():
        if stage_dir.is_dir():
            sizes[stage_dir.name] = sum(
                f.stat().st_size for f in stage_dir.glob("*.pkl"))
    return sizes


def trace_run(workload, reference):
    from repro.obs.tracer import NULL_TRACER as untraced

    from layers import LAYERS, STAGES, pool_profile

    calls, store, _ = workload.traced_pass()
    baseline = run_phase(workload, calls, new_pipeline(store), untraced,
                         workload.ops_expect)
    del calls, store

    calls, store, warm_store = workload.traced_pass()
    ops, ops_pipeline, ops_prof = traced_phase(
        workload, calls, store, workload.ops_expect)
    warm, warm_pipeline, warm_prof = traced_phase(
        workload, calls, warm_store(), {})
    attempted = 3 * len(calls)
    failed = baseline.failed + ops.failed + warm.failed
    if workload.check_warm:
        failed += check_same(workload, ops, warm)
    accounting_ok = (timings_agree(ops_prof, ops_pipeline)
                     and timings_agree(warm_prof, warm_pipeline))
    sizes, pool = {}, pool_profile([], os.getpid(), 1)
    if isinstance(workload, ValidateSerial):
        sizes = store_bytes(workload.cache_dir)
        pool, pool_failed, pool_ok = pool_phase(workload, ops)
        attempted += len(calls)
        failed += pool_failed
        accounting_ok = accounting_ok and pool_ok

    profiles = (ops_prof, warm_prof)
    pipelines = (ops_pipeline, warm_pipeline)
    m = {}
    for stage in STAGES:
        m[stage + ".calls"] = sum(p.calls[stage] for p in profiles)
        m[stage + ".busy_s"] = sum(p.busy_s[stage] for p in profiles)
    m["trace.warp_insts"] = sum(p.items["trace"] for p in profiles)
    m["cache_sim.l1_miss_rate"] = histogram_mean(
        pipelines, "cache_sim.l1_miss_rate")
    m["cache_sim.l2_miss_rate"] = histogram_mean(
        pipelines, "cache_sim.l2_miss_rate")
    m["interval_profiles.intervals"] = sum(
        p.items["interval_profiles"] for p in profiles)
    m["pipeline.overhead_s"] = sum(p.self_s["overhead"] for p in profiles)
    m["oracle.insts"] = sum(p.metrics.counter_value("oracle.insts_issued")
                            for p in pipelines)
    m["oracle.cycles"] = sum(p.metrics.counter_value("oracle.cycles")
                             for p in pipelines)
    m["oracle.insts_per_s"] = (m["oracle.insts"] / m["oracle.busy_s"]
                               if m["oracle.busy_s"] else 0.0)
    m["baselines.calls"] = sum(p.calls["baselines"] for p in profiles)
    m["baselines.busy_s"] = sum(p.busy_s["baselines"] for p in profiles)
    # Every store miss executes its stage, so misses are executions.
    m["store.hits"] = sum(sum(p.hits.values()) for p in pipelines)
    m["store.misses"] = sum(sum(p.counters.values()) for p in pipelines)
    lookups = m["store.hits"] + m["store.misses"]
    m["store.hit_ratio"] = m["store.hits"] / lookups if lookups else 0.0
    for stage in STAGES:
        m["store.get_s." + stage] = sum(p.get_s[stage] for p in profiles)
        m["store.put_s." + stage] = sum(p.put_s[stage] for p in profiles)
        m["store.bytes." + stage] = sizes.get(stage, 0)
    m.update(pool)
    m["obs.trace_overhead_ratio"] = ops.busy_s / baseline.busy_s
    m["predictions_changed"] = workload.predictions_changed(
        [out for out in ops.outputs if out is not None], reference)
    for name, prof in (("ops", ops_prof), ("warm", warm_prof)):
        m[name + ".traced_s"] = prof.wall_s
        for layer in LAYERS:
            m["%s.share.%s" % (name, layer)] = prof.share(layer)
        m[name + ".accounted_share"] = prof.accounted_s / prof.wall_s
    m["warm.share.store.get_interval_profiles"] = (
        warm_prof.get_s["interval_profiles"] / warm_prof.wall_s)

    print_layers(ops_prof, warm_prof)
    if isinstance(workload, ValidateSerial):
        print_speedup(ops_prof)
    return m, attempted, failed, accounting_ok


def pool_phase(workload, serial: Phase):
    """The cold validation again at ``jobs=2`` on a fresh store: pool
    numbers, plus a bit-for-bit check against the serial results."""
    from repro import Tracer
    from repro.pipeline import open_store

    from layers import PhaseProfile, pool_profile, traced_baselines

    jobs = 2
    cache_dir = tempfile.mkdtemp(prefix="pool-", dir=workload.workdir)
    tracer = Tracer(enabled=True)
    pipeline = new_pipeline(open_store(cache_dir), tracer)
    with traced_baselines(tracer):
        results = pipeline.evaluate_many(workload.requests, jobs=jobs)
    spans = tracer.drain()
    parallel = Phase()
    parallel.outputs = [[result] for result in results]
    failed = check_same(workload, serial, parallel)
    ok = timings_agree(PhaseProfile(spans, 0.0), pipeline)
    return pool_profile(spans, os.getpid(), jobs), failed, ok


def print_layers(ops_prof, warm_prof) -> None:
    from layers import LAYERS

    print("%-18s %10s %7s %10s %7s" % ("layer (self time)", "ops s", "share",
                                       "warm s", "share"))
    for layer in LAYERS:
        print("%-18s %10.4f %7.3f %10.4f %7.3f" % (
            layer, ops_prof.self_s[layer], ops_prof.share(layer),
            warm_prof.self_s[layer], warm_prof.share(layer)))
    print("%-18s %10.4f %7s %10.4f" % ("phase wall", ops_prof.wall_s, "",
                                       warm_prof.wall_s))


def print_speedup(ops_prof) -> None:
    """Sec. VI-D: model vs oracle host seconds per kernel of the cold
    validation, ``trace`` excluded (it is shared by both)."""
    print("Sec. VI-D speed (host s, trace excluded): "
          "kernel model_s oracle_s oracle/model")
    model_total = oracle_total = 0.0
    for kernel, stages in ops_prof.stage_seconds_by_kernel().items():
        model_s = sum(stages.get(s, 0.0) for s in MODEL_STAGES[1:])
        oracle_s = stages.get("oracle", 0.0)
        model_total += model_s
        oracle_total += oracle_s
        print("  %-24s %8.4f %8.4f %8.2fx" % (
            kernel, model_s, oracle_s,
            oracle_s / model_s if model_s else float("nan")))
    print("  %-24s %8.4f %8.4f %8.2fx" % (
        "overall", model_total, oracle_total,
        oracle_total / model_total if model_total else float("nan")))


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------


def git_rev():
    if not (ROOT / ".git").exists():
        return None
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=str(ROOT),
                              capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return None
    return done.stdout.strip() or None


def source_digest() -> str:
    sha = hashlib.sha256()
    for path in sorted((SRC / "repro").rglob("*.py")):
        sha.update(str(path.relative_to(SRC)).encode())
        sha.update(path.read_bytes())
    return sha.hexdigest()


def provenance():
    import numpy

    from repro.backend import current_backend

    return {
        "git_rev": git_rev(),
        "source_sha256": source_digest(),
        "compute_backend": current_backend(),
        "arch": machine().arch,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "platform": platform.platform(),
        "env": {name: os.environ.get(name) for name in (
            "REPRO_SCALAR", "REPRO_DEPCHECK", "REPRO_CONCHECK",
            "REPRO_START_METHOD")},
    }


def write_reference() -> None:
    """Record every suite kernel's oracle and Table II model CPIs."""
    from repro.pipeline import open_store
    from repro.workloads.suite import kernel_names

    pipeline = new_pipeline(open_store())
    kernels = {}
    for name in kernel_names():
        kernels[name] = result_cpis(pipeline.evaluate(name))
        print(name, kernels[name]["oracle"], file=sys.stderr)
    payload = {
        "machine": "GPUConfig(n_cores=2), Scale.small",
        "kernels": kernels,
    }
    with open(REFERENCE, "w", encoding="utf-8") as handle:
        json.dump(payload, handle, indent=1, sort_keys=True)
        handle.write("\n")


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--probe-setup", action="store_true",
                        help=argparse.SUPPRESS)
    parser.add_argument("--write-reference", action="store_true")
    args = parser.parse_args(argv)
    if args.workload is None and not args.write_reference:
        parser.error("--workload is required")
    if args.seconds < 1:
        parser.error("--seconds must be >= 1")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print("perfbench: no repro package under %s" % SRC, file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.write_reference:
        write_reference()
        return 0

    WORK.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(prefix="run-", dir=WORK) as workdir:
        workload = WORKLOADS[args.workload](args.seed, workdir)
        workload.warm_up()
        workload.setup()
        if args.probe_setup:
            print("ready", flush=True)
            return 0
        reference = load_reference()
        if args.trace:
            metrics, attempted, failed, accounting_ok = trace_run(
                workload, reference)
            units = per_layer_units()
            details = {}
        else:
            metrics, details, attempted, failed = measure(
                workload, args.seconds, reference)
            metrics["setup_s"] = probe_setup(args.workload, args.seed)
            accounting_ok = True
            units = END_TO_END
    report = {"workload": args.workload, "seed": args.seed,
              "seconds": args.seconds, "trace": args.trace,
              "provenance": provenance(), **details}
    print("report " + json.dumps(report, sort_keys=True))
    result = {
        "correct": failed == 0 and accounting_ok,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in units.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
