"""Bench: concheck costs — fast static passes, bounded lock sanitizer.

Two contracts (enforced in the ``concheck`` CI job):

* the four static passes (thread-escape, lock discipline, fork/pickle
  safety, global census) analyze the whole codebase in under two
  seconds — cheap enough to gate every CI push on;
* the opt-in ``REPRO_CONCHECK=1`` lock sanitizer keeps a traced sweep
  within a bounded multiple of its unsanitized wall-clock.  The
  sanitizer is a debugging tool, not an always-on proxy, so the
  allowance is a multiplier rather than a few percent — but it must
  stay cheap enough to run over the full suite in CI.

When the sanitizer is *off*, ``make_lock`` returns plain stdlib locks
and ``site_access`` is one global load + None check, so the disabled
path needs no budget of its own (the obs-overhead bench already guards
the surrounding machinery).

Each timing is a min-of-N; results land in ``BENCH_concheck.json`` at
the repo root.
"""

import json
import os
import time

from benchmarks.conftest import run_once
from repro.concheck import analyze_concurrency
from repro.concheck import runtime as crt
from repro.config import GPUConfig
from repro.obs import MetricsRegistry, Tracer
from repro.pipeline import Pipeline
from repro.workloads import Scale

ROUNDS = 3
STATIC_BUDGET_S = 2.0
#: Sanitized sweep may cost at most this multiple of the baseline.
MAX_SANITIZED_RATIO = 2.0
ABS_GRACE_S = 0.05

#: Lock-heavy slice: tracing and metrics on, so every span open/close
#: and histogram observe goes through an instrumented lock.
SWEEP_KERNELS = ("vectoradd", "blackscholes", "bfs_kernel1")

RESULTS_PATH = os.path.join(
    os.path.dirname(os.path.abspath(__file__)), "..", "BENCH_concheck.json"
)


def _static_pass_time():
    best = float("inf")
    report = None
    for _ in range(ROUNDS):
        start = time.perf_counter()
        report = analyze_concurrency()
        best = min(best, time.perf_counter() - start)
    return best, report


def _sweep_time(sanitized):
    saved = os.environ.get(crt.CONCHECK_ENV)
    if sanitized:
        os.environ[crt.CONCHECK_ENV] = "1"
        crt.install(fresh=True)
    else:
        os.environ.pop(crt.CONCHECK_ENV, None)
        crt.uninstall()
    try:
        best = float("inf")
        for _ in range(ROUNDS):
            tracer = Tracer(enabled=True)
            pipeline = Pipeline(
                GPUConfig.small(n_cores=2, warps_per_core=16),
                scale=Scale.tiny(),
                tracer=tracer,
                metrics=MetricsRegistry(),
            )
            start = time.perf_counter()
            for kernel in SWEEP_KERNELS:
                pipeline.evaluate(kernel)
            best = min(best, time.perf_counter() - start)
        findings = crt.runtime_findings() if sanitized else []
        return best, findings
    finally:
        crt.uninstall()
        if saved is None:
            os.environ.pop(crt.CONCHECK_ENV, None)
        else:
            os.environ[crt.CONCHECK_ENV] = saved


def test_bench_concheck(benchmark):
    static_s, report = _static_pass_time()
    baseline_s, _ = _sweep_time(sanitized=False)
    sanitized_s, findings = _sweep_time(sanitized=True)
    ratio = sanitized_s / baseline_s if baseline_s else float("inf")

    results = {
        "static_pass_s": static_s,
        "static_budget_s": STATIC_BUDGET_S,
        "n_diagnostics": len(report.diagnostics),
        "n_thread_roots": len(report.thread_roots),
        "n_locks": len(report.locks),
        "n_globals": len(report.census),
        "sweep_kernels": len(SWEEP_KERNELS),
        "scale": "tiny",
        "rounds": ROUNDS,
        "baseline_sweep_s": baseline_s,
        "sanitized_sweep_s": sanitized_s,
        "sanitized_ratio": ratio,
        "max_sanitized_ratio_guard": MAX_SANITIZED_RATIO,
        "abs_grace_s": ABS_GRACE_S,
    }
    with open(RESULTS_PATH, "w", encoding="utf-8") as handle:
        json.dump(results, handle, indent=2, sort_keys=True)
    benchmark.extra_info.update(results)

    run_once(benchmark, analyze_concurrency)

    assert not findings, (
        "lock sanitizer reported findings during the bench sweep: %r"
        % (findings,)
    )
    assert static_s <= STATIC_BUDGET_S, (
        "static concheck passes took %.3fs, over the %.1fs budget"
        % (static_s, STATIC_BUDGET_S)
    )
    assert sanitized_s <= baseline_s * MAX_SANITIZED_RATIO + ABS_GRACE_S, (
        "sanitized sweep %.2fx the baseline, over the %.1fx allowance "
        "(baseline %.3fs, sanitized %.3fs)"
        % (ratio, MAX_SANITIZED_RATIO, baseline_s, sanitized_s)
    )
