"""Command-line interface: ``python -m repro <command>``.

Subcommands
-----------
``list``
    List the workload suite (name, origin suite, tags, description).
``predict``
    Run GPUMech on a kernel and print the prediction + CPI stack.
``simulate``
    Run the cycle-level oracle on a kernel.
``validate``
    Run both and report the relative error of every Table II model.
``experiment``
    Regenerate one of the paper's figures (figure4 ... figure16, speedup).
``characterize``
    Behavioural metrics of a kernel ('all' for the whole suite).
``lint``
    Statically verify kernels (CFG + dataflow checks); nonzero exit on
    any error-severity diagnostic.  ``--cost`` appends each kernel's
    static cost model to the report.
``analyze``
    Static cost analysis (trip counts, coalescing classes, occupancy,
    CPI bounds) plus the xcheck sanitizer comparing the dynamic trace
    against the static facts; nonzero exit on any xcheck mismatch.
``profile``
    Evaluate kernels with tracing, metrics and oracle timeline sampling
    on; writes a Chrome-trace/Perfetto file and prints stage timings.
    ``--sample`` adds the stdlib sampling profiler (collapsed-stack
    flamegraph output, samples attributed to pipeline-stage spans).
``watchdog``
    Accuracy-regression gate: diff per-kernel prediction error between
    a baseline ledger and a current one; nonzero exit on regression.
``dash``
    Render the self-contained HTML accuracy dashboard from ledger
    history (plus checked-in ``BENCH_*.json`` files).

Observability flags (global, also accepted after the subcommand):
``-v/--verbose`` raises diagnostic logging (stderr), ``-q/--quiet``
silences human-readable reports, ``--trace-out FILE`` records a span
trace of the whole invocation, ``--metrics-out FILE`` dumps the metrics
registry as JSON, ``--ledger FILE`` appends one JSONL prediction record
per evaluation.  Human reports go through the logging layer
(:mod:`repro.harness.reporting`); machine-readable output (``lint
--format json``) always prints directly to stdout.
"""

from __future__ import annotations

import argparse
import logging
import os
import sys
from typing import List, Optional

from repro.config import KNOWN_ARCHES, ConfigError, GPUConfig
from repro.core.model import GPUMech
from repro.harness import experiments as ex
from repro.harness.reporting import (
    configure_logging,
    emit,
    render_stage_table,
    render_table,
)
from repro.harness.runner import MODEL_LABELS, MODELS
from repro.harness.speedup import run_speedup
from repro.obs import MetricsRegistry, Tracer, set_tracer
from repro.obs.ledger import DEFAULT_MODEL as LEDGER_DEFAULT_MODEL
from repro.obs.sampler import DEFAULT_INTERVAL as SAMPLE_INTERVAL
from repro.pipeline import Pipeline
from repro.trace.emulator import emulate
from repro.workloads.generators import Scale
from repro.workloads.suite import SUITE, get_kernel, kernel_names

_LOG = logging.getLogger(__name__)

_SCALES = {
    "tiny": Scale.tiny,
    "small": Scale.small,
    "large": Scale.large,
}

_EXPERIMENTS = {
    "figure4": ex.run_figure4,
    "figure7": ex.run_figure7,
    "figure11": ex.run_figure11,
    "figure12": ex.run_figure12,
    "figure13": ex.run_figure13,
    "figure14": ex.run_figure14,
    "figure15": ex.run_figure15,
    "figure16": ex.run_figure16,
    "speedup": run_speedup,
}

#: Default oracle sampling period (cycles) for ``repro profile``.
DEFAULT_TIMELINE_INTERVAL = 500.0


def _add_obs_args(parser: argparse.ArgumentParser,
                  top_level: bool = False) -> None:
    """Observability flags, shared by the top-level parser and every
    subparser (``SUPPRESS`` defaults keep the subparser copies from
    clobbering values already parsed at the top level)."""
    default = (lambda v: v) if top_level else (lambda v: argparse.SUPPRESS)
    parser.add_argument("-v", "--verbose", action="count",
                        default=default(0),
                        help="diagnostic logging on stderr (-vv for debug)")
    parser.add_argument("-q", "--quiet", action="store_true",
                        default=default(False),
                        help="suppress human-readable report output")
    parser.add_argument("--trace-out", metavar="FILE",
                        default=default(None),
                        help="write a Chrome-trace/Perfetto span trace "
                        "of this invocation (open in ui.perfetto.dev)")
    parser.add_argument("--metrics-out", metavar="FILE",
                        default=default(None),
                        help="write the metrics registry as JSON")
    parser.add_argument("--ledger", metavar="FILE",
                        default=default(None),
                        help="append one JSONL prediction record per "
                        "evaluation (provenance + accuracy; see "
                        "'repro dash' and 'repro watchdog')")


def _add_machine_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--cores", type=int, default=2,
                        help="number of cores (paper: 16)")
    parser.add_argument("--warps", type=int, default=None,
                        help="resident warps per core (default: 32)")
    parser.add_argument("--mshrs", type=int, default=32,
                        help="MSHR entries per core")
    parser.add_argument("--bandwidth", type=float, default=192.0,
                        help="DRAM bandwidth in GB/s")
    parser.add_argument("--scheduler", choices=("rr", "gto"), default="rr")
    parser.add_argument("--arch", choices=KNOWN_ARCHES,
                        default="gpumech2014",
                        help="modeled machine (see docs/architectures.md)")
    parser.add_argument("--schedulers", type=int, default=4,
                        help="sub-core schedulers per core "
                        "(arch=subcore only)")
    parser.add_argument("--scale", choices=sorted(_SCALES), default="small",
                        help="workload scale preset")
    parser.add_argument("--jobs", type=int, default=1,
                        help="worker processes for sweep points "
                        "(default: serial)")
    parser.add_argument("--cache-dir", default=None, metavar="DIR",
                        help="persistent content-addressed artifact store; "
                        "reruns skip every already-computed stage")
    _add_obs_args(parser)


def _machine(args) -> GPUConfig:
    """The machine the flags describe; raises ``ConfigError`` on flags
    that fail validation."""
    fields = dict(
        n_cores=args.cores,
        n_mshrs=args.mshrs,
        dram_bandwidth_gbps=args.bandwidth,
        scheduler=args.scheduler,
        arch=args.arch,
        n_schedulers=args.schedulers,
    )
    if args.warps is not None:
        fields["max_threads_per_core"] = args.warps * GPUConfig.warp_size
    return GPUConfig(**fields)


def _pipeline(args) -> Pipeline:
    """A pipeline on :func:`main`'s machine, honouring
    ``--jobs``/``--cache-dir`` plus the session tracer/metrics installed
    by :func:`main`."""
    return Pipeline(
        args.machine,
        _SCALES[args.scale](),
        jobs=args.jobs,
        cache_dir=args.cache_dir,
        tracer=getattr(args, "obs_tracer", None),
        metrics=getattr(args, "obs_metrics", None),
        timeline_interval=getattr(args, "timeline_interval", None),
        ledger=getattr(args, "obs_ledger", None),
    )


def _cmd_list(args) -> int:
    rows = []
    for name in kernel_names():
        spec = SUITE[name]
        rows.append(
            (name, spec.suite, ",".join(sorted(spec.tags)) or "-",
             spec.description)
        )
    emit(render_table(("kernel", "suite", "tags", "description"), rows,
                      title="workload suite (%d kernels)" % len(rows)))
    return 0


def _cmd_predict(args) -> int:
    pipeline = _pipeline(args)
    kernel, _ = get_kernel(args.kernel, _SCALES[args.scale]())
    emit(kernel.describe())
    inputs = pipeline.model_inputs(
        args.kernel, selection_strategy=args.strategy
    )
    model = GPUMech(pipeline.config, selection_strategy=args.strategy,
                    pipeline=pipeline)
    prediction = model.predict(inputs)
    emit(prediction.summary())
    emit(prediction.cpi_stack.render())
    return 0


def _cmd_simulate(args) -> int:
    pipeline = _pipeline(args)
    stats = pipeline.simulate(args.kernel)
    emit(stats.summary())
    return 0


def _cmd_validate(args) -> int:
    pipeline = _pipeline(args)
    result = pipeline.evaluate(args.kernel)
    rows = [
        (MODEL_LABELS[m], "%.3f" % result.model_cpis[m],
         "%.1f%%" % (100 * result.error(m)))
        for m in MODELS
    ]
    rows.append(("oracle", "%.3f" % result.oracle_cpi, "-"))
    emit(render_table(("model", "CPI", "error"), rows,
                      title="%s [%s, %d warps/core]"
                      % (result.kernel, result.policy, result.n_warps)))
    return 0


def _cmd_experiment(args) -> int:
    result = _EXPERIMENTS[args.name](_pipeline(args))
    emit(result.text)
    return 0


def _cmd_lint(args) -> int:
    import json

    from repro.staticcheck import (
        analyze_kernel,
        lint_kernel,
        render_reports,
        reports_to_json,
    )

    scale = _SCALES[args.scale]()
    if args.suite or args.kernel in (None, "all"):
        names = kernel_names()
    else:
        names = [args.kernel]
    reports = []
    costs = []
    for name in names:
        kernel, _ = get_kernel(name, scale)
        reports.append(lint_kernel(kernel))
        if args.cost:
            costs.append(analyze_kernel(kernel))
    if args.format == "json":
        # Machine-readable output bypasses the logging layer: it must
        # stay on stdout verbatim, regardless of -q/-v.
        if args.cost:
            payload = json.loads(reports_to_json(reports))
            for entry, cost in zip(payload["kernels"], costs):
                entry["cost"] = cost.to_dict()
            print(json.dumps(payload, indent=2))
        else:
            print(reports_to_json(reports))
    else:
        emit(render_reports(reports))
        for cost in costs:
            emit(cost.render_text())
    return 1 if any(r.has_errors for r in reports) else 0


def _cmd_analyze(args) -> int:
    import json

    from repro.staticcheck import analyze_kernel, crosscheck_kernel

    scale = _SCALES[args.scale]()
    if args.suite or args.kernel in (None, "all"):
        names = kernel_names()
    else:
        names = [args.kernel]
    unknown = [n for n in names if n not in SUITE]
    if unknown:
        _LOG.error("unknown kernel(s): %s", ", ".join(unknown))
        return 2
    pipeline = Pipeline(
        GPUConfig(),
        scale=scale,
        cache_dir=args.cache_dir,
        tracer=getattr(args, "obs_tracer", None),
        metrics=getattr(args, "obs_metrics", None),
    )
    entries = []
    n_errors = 0
    for name in names:
        kernel, _ = get_kernel(name, scale)
        cost = analyze_kernel(kernel, pipeline.config)
        report = None
        if not args.static_only:
            report = crosscheck_kernel(
                kernel, pipeline.trace(name), cost=cost,
                config=pipeline.config,
            )
            n_errors += len(report.errors)
        entries.append((name, cost, report))
    if args.format == "json":
        # Machine-readable output bypasses the logging layer (see lint).
        payload = {
            "kernels": [
                {
                    "kernel": name,
                    "cost": cost.to_dict(),
                    "xcheck": None if report is None else report.to_dict(),
                }
                for name, cost, report in entries
            ],
            "n_kernels": len(entries),
            "n_xcheck_errors": n_errors,
        }
        print(json.dumps(payload, indent=2))
    else:
        for name, cost, report in entries:
            emit(cost.render_text())
            if report is not None:
                emit("xcheck %s" % report.render_text())
        if args.static_only:
            emit("%d kernel(s) analyzed (static only)" % len(entries))
        else:
            emit("%d kernel(s): %d xcheck error(s)"
                 % (len(entries), n_errors))
    return 1 if n_errors else 0


def _cmd_characterize(args) -> int:
    from repro.analysis import (
        characterize,
        compare_architectures,
        render_arch_comparison,
        render_characterization,
        suite_report,
    )

    scale = _SCALES[args.scale]()
    if args.compare_arch:
        kernels = None if args.kernel == "all" else [args.kernel]
        try:
            results = compare_architectures(
                scale=scale, kernels=kernels, config=args.machine
            )
        except ConfigError as exc:  # the machine under another arch
            _LOG.error("invalid machine: %s", exc)
            return 2
        emit(render_arch_comparison(results))
        return 0
    if args.kernel == "all":
        pipeline = _pipeline(args)
        emit(suite_report(scale=scale, config=pipeline.config,
                          pipeline=pipeline))
        return 0
    kernel, memory = get_kernel(args.kernel, scale)
    trace = emulate(kernel, args.machine, memory=memory)
    emit(render_characterization(characterize(trace, kernel=kernel)))
    return 0


def _cmd_profile(args) -> int:
    """Evaluate kernels with full observability on.

    Every pipeline stage is traced, worker metrics are merged back, and
    the oracle samples a per-core activity timeline that lands in the
    exported trace as Perfetto counter tracks.
    """
    names = args.kernels or list(kernel_names())
    unknown = [n for n in names if n not in SUITE]
    if unknown:
        _LOG.error("unknown kernel(s): %s", ", ".join(unknown))
        return 2
    pipeline = _pipeline(args)
    requests = [{"kernel": name} for name in names]
    profiler = None
    if args.sample:
        from repro.obs.sampler import SamplingProfiler

        profiler = SamplingProfiler(
            interval=args.sample_interval,
            tracer=getattr(args, "obs_tracer", None),
        )
        profiler.start()
    try:
        results = pipeline.evaluate_many(requests)
    finally:
        if profiler is not None:
            profiler.stop()

    rows = []
    for result in results:
        rows.append(
            (result.kernel, result.policy, result.n_warps,
             "%.3f" % result.oracle_cpi,
             "%.3f" % result.model_cpis["mt_mshr_band"],
             "%.1f%%" % (100 * result.error("mt_mshr_band")))
        )
    emit(render_table(
        ("kernel", "policy", "warps", "oracle CPI", "GPUMech CPI", "error"),
        rows,
        title="profile (%d kernels, jobs=%d)" % (len(results), pipeline.jobs),
    ))
    stage_table = render_stage_table(pipeline.metrics)
    if stage_table:
        emit("")
        emit(stage_table)

    if profiler is not None:
        profiler.write_collapsed(args.sample_out)
        _LOG.info("wrote %d collapsed stacks to %s (flamegraph.pl / "
                  "speedscope input)", len(profiler.stacks()),
                  args.sample_out)
        by_span = profiler.by_span()
        total = sum(by_span.values()) or 1
        span_rows = [
            (span, "%d" % n, "%.1f%%" % (100.0 * n / total))
            for span, n in sorted(by_span.items(),
                                  key=lambda kv: -kv[1])
        ]
        emit("")
        emit(render_table(("span", "samples", "share"), span_rows,
                          title="sampling profile by pipeline stage "
                          "(%d samples)" % total))
        frame_rows = [
            (frame, "%d" % n)
            for frame, n in profiler.hot_frames(top=10)
        ]
        if frame_rows:
            emit("")
            emit(render_table(("hot frame (leaf)", "samples"), frame_rows,
                              title="hottest frames"))

    # Oracle timelines become counter tracks in the session trace file.
    extra = getattr(args, "obs_extra_events", None)
    if extra is not None:
        prefix_names = len(results) > 1
        for result in results:
            timeline = result.oracle.timeline
            if timeline is None:
                continue
            extra.extend(timeline.counter_events(
                pid=os.getpid(),
                track_prefix="%s " % result.kernel if prefix_names else "",
            ))
    return 0


def _cmd_watchdog(args) -> int:
    """Gate accuracy: compare a current ledger against the baseline."""
    import json

    from repro.obs.ledger import compare_ledgers, read_ledgers

    baseline = read_ledgers(args.baseline)
    current = read_ledgers(args.current)
    report = compare_ledgers(
        baseline, current,
        model=args.model,
        tolerance=args.tolerance,
        rel_tolerance=args.rel_tolerance,
        allow_missing=args.allow_missing,
    )
    if args.format == "json":
        # Machine-readable output bypasses the logging layer (see lint).
        print(json.dumps(report.to_dict(), indent=2))
    else:
        emit(report.render_text())
    return 1 if report.has_regressions else 0


def _cmd_dash(args) -> int:
    """Render the self-contained HTML accuracy dashboard."""
    from repro.obs.dashboard import collect_bench, write_dashboard
    from repro.obs.ledger import read_ledgers, runs

    records = read_ledgers(args.ledgers)
    if not records:
        _LOG.error("no ledger records in %s", ", ".join(args.ledgers))
        return 2
    bench = collect_bench(args.bench) if args.bench else None
    write_dashboard(args.out, records, bench=bench, model=args.model)
    emit("wrote %s (%d record(s), %d run(s))"
         % (args.out, len(records), len(runs(records))))
    return 0


def build_parser() -> argparse.ArgumentParser:
    """Construct the argument parser for all subcommands."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="GPUMech: interval-analysis GPU performance modeling "
        "(MICRO 2014 reproduction)",
    )
    _add_obs_args(parser, top_level=True)
    sub = parser.add_subparsers(dest="command", required=True)

    lister = sub.add_parser("list", help="list the workload suite")
    _add_obs_args(lister)

    predict = sub.add_parser("predict", help="run GPUMech on a kernel")
    predict.add_argument("kernel")
    predict.add_argument("--strategy", default="clustering",
                         choices=("clustering", "max", "min", "first"))
    _add_machine_args(predict)

    simulate = sub.add_parser("simulate", help="run the timing oracle")
    simulate.add_argument("kernel")
    _add_machine_args(simulate)

    validate = sub.add_parser(
        "validate", help="compare every model against the oracle"
    )
    validate.add_argument("kernel")
    _add_machine_args(validate)

    experiment = sub.add_parser(
        "experiment", help="regenerate one of the paper's figures"
    )
    experiment.add_argument("name", choices=sorted(_EXPERIMENTS))
    _add_machine_args(experiment)

    characterize = sub.add_parser(
        "characterize",
        help="behavioural metrics of a kernel ('all' for the whole suite)",
    )
    characterize.add_argument("kernel")
    characterize.add_argument("--compare-arch", action="store_true",
                              help="predicted-CPI delta table across all "
                              "known arches")
    _add_machine_args(characterize)

    lint = sub.add_parser(
        "lint",
        help="statically verify kernels (CFG + dataflow checks)",
    )
    lint.add_argument("kernel", nargs="?", default=None,
                      help="kernel name ('all' for the whole suite)")
    lint.add_argument("--suite", action="store_true",
                      help="lint every workload-suite kernel")
    lint.add_argument("--format", choices=("text", "json"), default="text",
                      help="diagnostic output format")
    lint.add_argument("--scale", choices=sorted(_SCALES), default="small",
                      help="workload scale preset")
    lint.add_argument("--cost", action="store_true",
                      help="append each kernel's static cost model")
    _add_obs_args(lint)

    analyze = sub.add_parser(
        "analyze",
        help="static cost analysis + dynamic/static cross-validation",
    )
    analyze.add_argument("kernel", nargs="?", default=None,
                         help="kernel name ('all' for the whole suite)")
    analyze.add_argument("--suite", action="store_true",
                         help="analyze every workload-suite kernel")
    analyze.add_argument("--format", choices=("text", "json"),
                         default="text", help="report output format")
    analyze.add_argument("--scale", choices=sorted(_SCALES),
                         default="small", help="workload scale preset")
    analyze.add_argument("--static-only", action="store_true",
                         help="skip emulation and the xcheck "
                         "cross-validation (pure static analysis)")
    analyze.add_argument("--cache-dir", default=None, metavar="DIR",
                         help="persistent content-addressed trace store; "
                         "reruns skip emulation")
    _add_obs_args(analyze)

    profile = sub.add_parser(
        "profile",
        help="evaluate kernels with span tracing, metrics and a "
        "per-core oracle timeline (Perfetto export)",
    )
    profile.add_argument("--suite-kernel", action="append", dest="kernels",
                         metavar="KERNEL", default=None,
                         help="kernel to profile (repeatable; default: "
                         "the whole suite)")
    profile.add_argument("--timeline-interval", type=float,
                         default=DEFAULT_TIMELINE_INTERVAL, metavar="CYCLES",
                         help="oracle sampling period in cycles")
    profile.add_argument("--sample", action="store_true",
                         help="run the stdlib sampling profiler during "
                         "the sweep (span-attributed CPU-time samples)")
    profile.add_argument("--sample-out", default="repro-samples.txt",
                         metavar="FILE",
                         help="collapsed-stack output file "
                         "(flamegraph.pl / speedscope input)")
    profile.add_argument("--sample-interval", type=float,
                         default=SAMPLE_INTERVAL, metavar="SECONDS",
                         help="sampling period in seconds of CPU time")
    _add_machine_args(profile)

    watchdog = sub.add_parser(
        "watchdog",
        help="accuracy-regression gate: diff per-kernel prediction "
        "error between ledgers (nonzero exit on regression)",
    )
    watchdog.add_argument("--baseline", action="append", required=True,
                          metavar="LEDGER",
                          help="baseline ledger JSONL (repeatable)")
    watchdog.add_argument("--current", action="append", required=True,
                          metavar="LEDGER",
                          help="current ledger JSONL (repeatable)")
    watchdog.add_argument("--model", default=LEDGER_DEFAULT_MODEL,
                          choices=MODELS,
                          help="model whose error is gated")
    watchdog.add_argument("--tolerance", type=float, default=0.02,
                          help="absolute error-increase budget "
                          "(fraction; default 0.02 = 2 points)")
    watchdog.add_argument("--rel-tolerance", type=float, default=0.0,
                          help="extra budget relative to the baseline "
                          "error (fraction of baseline)")
    watchdog.add_argument("--allow-missing", action="store_true",
                          help="kernels missing from the current ledger "
                          "are not regressions")
    watchdog.add_argument("--format", choices=("text", "json"),
                          default="text", help="report output format")
    _add_obs_args(watchdog)

    dash = sub.add_parser(
        "dash",
        help="render the self-contained HTML accuracy dashboard from "
        "ledger history",
    )
    dash.add_argument("ledgers", nargs="+", metavar="LEDGER",
                      help="ledger JSONL file(s) to aggregate")
    dash.add_argument("--out", default="repro-dash.html", metavar="FILE",
                      help="output HTML file")
    dash.add_argument("--bench", default=None, metavar="DIR",
                      help="directory holding BENCH_*.json files to "
                      "include (e.g. the repo root)")
    dash.add_argument("--model", default=LEDGER_DEFAULT_MODEL,
                      choices=MODELS,
                      help="model whose error the trends show")
    _add_obs_args(dash)

    return parser


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point; returns a process exit code."""
    args = build_parser().parse_args(argv)
    configure_logging(verbose=args.verbose, quiet=args.quiet)
    if args.command == "profile" and not args.trace_out:
        args.trace_out = "repro-trace.json"

    # One tracer + registry per invocation, installed process-wide so
    # library code reached outside the pipeline still records into them.
    tracer = Tracer(enabled=bool(args.trace_out))
    metrics = MetricsRegistry()
    args.obs_tracer = tracer
    args.obs_metrics = metrics
    args.obs_extra_events = []
    args.obs_ledger = None
    if getattr(args, "ledger", None):
        from repro.obs.ledger import PredictionLedger

        args.obs_ledger = PredictionLedger(args.ledger)
    if hasattr(args, "cores"):  # a command with machine flags
        try:
            args.machine = _machine(args)
        except ConfigError as exc:
            _LOG.error("invalid machine: %s", exc)
            return 2
    set_tracer(tracer)

    handlers = {
        "list": _cmd_list,
        "predict": _cmd_predict,
        "simulate": _cmd_simulate,
        "validate": _cmd_validate,
        "experiment": _cmd_experiment,
        "characterize": _cmd_characterize,
        "lint": _cmd_lint,
        "analyze": _cmd_analyze,
        "profile": _cmd_profile,
        "watchdog": _cmd_watchdog,
        "dash": _cmd_dash,
    }
    try:
        with tracer.span(args.command, category="cli"):
            status = handlers[args.command](args)
    finally:
        set_tracer(None)
    if args.trace_out:
        tracer.export_chrome(
            args.trace_out,
            extra_events=args.obs_extra_events,
            metadata={"command": args.command},
        )
        _LOG.info("wrote %d spans to %s", tracer.n_spans, args.trace_out)
    if args.metrics_out:
        metrics.export(args.metrics_out)
        _LOG.info("wrote metrics to %s", args.metrics_out)
    return status


if __name__ == "__main__":  # pragma: no cover - exercised via __main__
    sys.exit(main())
