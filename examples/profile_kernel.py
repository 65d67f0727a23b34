#!/usr/bin/env python
"""Profile one kernel end to end and write a Perfetto-compatible trace.

Runs the staged pipeline (emulation -> cache sim -> profiles ->
clustering -> prediction -> oracle) with the observability layer on:
every stage becomes a span, stage counters/latencies land in a metrics
registry, and the timing oracle samples a per-core activity timeline.
The result is one Chrome-trace file — open it at https://ui.perfetto.dev
or in chrome://tracing — plus a JSON metrics dump.

Usage:
    python examples/profile_kernel.py [kernel_name] [trace_out.json]
"""

import sys

from repro.config import GPUConfig
from repro.harness.reporting import render_stage_table
from repro.obs import Tracer, set_tracer
from repro.pipeline import Pipeline
from repro.workloads import Scale, kernel_names


def main() -> None:
    name = sys.argv[1] if len(sys.argv) > 1 else "cfd_compute_flux"
    trace_out = sys.argv[2] if len(sys.argv) > 2 else "repro-trace.json"
    if name not in kernel_names():
        raise SystemExit(
            "unknown kernel %r; try one of: %s"
            % (name, ", ".join(kernel_names()))
        )

    # One tracer per run; installing it process-wide lets library code
    # outside the pipeline record into it too.
    tracer = Tracer()
    set_tracer(tracer)
    try:
        pipeline = Pipeline(
            GPUConfig(n_cores=2),
            Scale.tiny(),
            tracer=tracer,
            timeline_interval=500.0,  # oracle sampling period (cycles)
        )
        result = pipeline.evaluate(name, warps_per_core=8)
    finally:
        set_tracer(None)

    print("%s: oracle CPI %.3f, GPUMech CPI %.3f (error %.1f%%)" % (
        result.kernel,
        result.oracle_cpi,
        result.model_cpis["mt_mshr_band"],
        100 * result.error("mt_mshr_band"),
    ))
    print()
    print(render_stage_table(pipeline.metrics))

    # The oracle timeline becomes per-core counter tracks next to the
    # pipeline-stage spans.
    timeline = result.oracle.timeline
    extra = timeline.counter_events() if timeline is not None else []
    tracer.export_chrome(trace_out, extra_events=extra,
                         metadata={"kernel": name})
    pipeline.metrics.export("repro-metrics.json")
    print()
    print("wrote %d spans to %s (open in https://ui.perfetto.dev)"
          % (tracer.n_spans, trace_out))
    print("wrote metrics to repro-metrics.json")


if __name__ == "__main__":
    main()
