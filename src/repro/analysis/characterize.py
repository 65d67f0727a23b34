"""Kernel characterization: behavioural metrics from a functional trace.

Every metric is hardware-independent (computed from the trace alone), so
characterization describes the *workload*, not the machine:

* instruction mix (IALU / FALU / SFU / LOAD / STORE / BRANCH fractions),
* memory divergence (requests per memory instruction: mean, max and a
  full histogram over degrees),
* control divergence (fraction of dynamic instructions executed under a
  partial mask; mean active lanes),
* inter-warp heterogeneity (coefficient of variation of warp trace
  lengths — the Fig. 7 signal),
* memory footprint (distinct cache lines touched) and traffic intensity
  (bytes of line traffic per instruction).

When the static :class:`~repro.isa.kernel.Kernel` is supplied alongside
the trace, the summary additionally reports the program's CFG shape
(basic blocks, static branches) and its lint status from the static
verifier (``repro.staticcheck``).
"""

from __future__ import annotations

import statistics
from dataclasses import dataclass, field
from typing import Dict, List, Optional

import numpy as np

from repro.isa.kernel import Kernel
from repro.trace.trace_types import KernelTrace, OpCode


@dataclass
class KernelCharacterization:
    """Behavioural summary of one kernel launch."""

    kernel_name: str
    n_warps: int
    n_blocks: int
    total_insts: int
    insts_per_warp_mean: float
    insts_per_warp_cv: float  # inter-warp heterogeneity
    mix: Dict[str, float] = field(default_factory=dict)
    loads_per_inst: float = 0.0
    stores_per_inst: float = 0.0
    mean_divergence: float = 0.0
    max_divergence: int = 0
    divergence_histogram: Dict[int, int] = field(default_factory=dict)
    masked_inst_fraction: float = 0.0
    mean_active_lanes: float = 0.0
    footprint_lines: int = 0
    line_bytes_per_inst: float = 0.0
    write_request_fraction: float = 0.0
    # Static program shape (populated when the Kernel is supplied).
    static_insts: int = 0
    static_blocks: int = 0
    static_branches: int = 0
    lint_errors: int = 0
    lint_warnings: int = 0
    # Static cost model (populated when the Kernel is supplied).
    static_loops: int = 0
    static_exact_loops: int = 0
    static_divergent_branches: int = 0
    static_access_classes: Dict[str, int] = field(default_factory=dict)
    static_cpi_lower_bound: float = 0.0

    @property
    def is_memory_divergent(self) -> bool:
        """More than one coalesced request per memory instruction."""
        return self.mean_divergence > 1.5

    @property
    def is_control_divergent(self) -> bool:
        """A meaningful share of instructions run under partial masks."""
        return self.masked_inst_fraction > 0.02 or self.insts_per_warp_cv > 0.05

    @property
    def is_write_heavy(self) -> bool:
        """Whether store traffic dominates the request mix."""
        return self.write_request_fraction > 0.5


def characterize(
    trace: KernelTrace, kernel: Optional[Kernel] = None
) -> KernelCharacterization:
    """Compute all metrics for one trace.

    Passing the ``kernel`` adds the static CFG shape and lint counts to
    the characterization (trace-only callers get zeros).
    """
    total = trace.total_insts
    op_counts: Dict[int, int] = {int(op): 0 for op in OpCode}
    mem_insts = 0
    load_insts = 0
    store_insts = 0
    total_reqs = 0
    write_reqs = 0
    divergence_hist: Dict[int, int] = {}
    max_divergence = 0
    masked = 0
    active_sum = 0
    lines = set()
    lengths: List[int] = []

    for warp in trace.warps:
        lengths.append(len(warp))
        ops = warp.ops
        for op in OpCode:
            op_counts[int(op)] += int((ops == op).sum())
        reqs = warp.requests_per_inst
        is_mem = warp.is_memory
        mem_insts += int(is_mem.sum())
        load_insts += int(warp.is_load.sum())
        store_insts += int(warp.is_store.sum())
        total_reqs += int(reqs.sum())
        write_reqs += int(reqs[warp.is_store].sum())
        for degree in reqs[is_mem].tolist():
            divergence_hist[degree] = divergence_hist.get(degree, 0) + 1
            if degree > max_divergence:
                max_divergence = degree
        full = warp.active.max() if len(warp) else 0
        masked += int((np.asarray(warp.active) < full).sum())
        active_sum += int(np.asarray(warp.active, dtype=np.int64).sum())
        lines.update(warp.req_lines.tolist())

    mean_len = statistics.fmean(lengths) if lengths else 0.0
    cv = (
        statistics.pstdev(lengths) / mean_len
        if len(lengths) > 1 and mean_len
        else 0.0
    )
    mix = {
        OpCode(code).name: count / total if total else 0.0
        for code, count in op_counts.items()
    }
    static_insts = static_blocks = static_branches = 0
    lint_errors = lint_warnings = 0
    static_loops = static_exact_loops = static_divergent_branches = 0
    static_access_classes: Dict[str, int] = {}
    static_cpi_lower_bound = 0.0
    if kernel is not None:
        from repro.staticcheck import (
            ControlFlowGraph,
            analyze_kernel,
            lint_kernel,
        )

        cfg = ControlFlowGraph(kernel.program)
        static_insts = len(kernel.program)
        static_blocks = len(cfg.blocks)
        static_branches = sum(
            1 for inst in kernel.program if inst.opcode == "bra"
        )
        report = lint_kernel(kernel)
        lint_errors = len(report.errors)
        lint_warnings = len(report.warnings)
        cost = analyze_kernel(kernel)
        static_loops = len(cost.loops)
        static_exact_loops = len(cost.exact_loops)
        static_divergent_branches = len(cost.divergent_branches)
        for access in cost.accesses:
            static_access_classes[access.label] = (
                static_access_classes.get(access.label, 0) + 1
            )
        static_cpi_lower_bound = cost.cpi_lower_bound
    return KernelCharacterization(
        kernel_name=trace.kernel_name,
        n_warps=trace.n_warps,
        n_blocks=trace.n_blocks,
        total_insts=total,
        insts_per_warp_mean=mean_len,
        insts_per_warp_cv=cv,
        mix=mix,
        loads_per_inst=load_insts / total if total else 0.0,
        stores_per_inst=store_insts / total if total else 0.0,
        mean_divergence=total_reqs / mem_insts if mem_insts else 0.0,
        max_divergence=max_divergence,
        divergence_histogram=dict(sorted(divergence_hist.items())),
        masked_inst_fraction=masked / total if total else 0.0,
        mean_active_lanes=active_sum / total if total else 0.0,
        footprint_lines=len(lines),
        line_bytes_per_inst=(
            total_reqs * trace.line_size / total if total else 0.0
        ),
        write_request_fraction=(
            write_reqs / total_reqs if total_reqs else 0.0
        ),
        static_insts=static_insts,
        static_blocks=static_blocks,
        static_branches=static_branches,
        lint_errors=lint_errors,
        lint_warnings=lint_warnings,
        static_loops=static_loops,
        static_exact_loops=static_exact_loops,
        static_divergent_branches=static_divergent_branches,
        static_access_classes=static_access_classes,
        static_cpi_lower_bound=static_cpi_lower_bound,
    )


def render_characterization(char: KernelCharacterization) -> str:
    """Multi-line human-readable report."""
    static_line = None
    if char.static_insts:
        lint = (
            "clean" if not (char.lint_errors or char.lint_warnings)
            else "%d error(s), %d warning(s)"
            % (char.lint_errors, char.lint_warnings)
        )
        static_line = (
            "  static: %d insts in %d basic blocks, %d branches; lint %s"
            % (char.static_insts, char.static_blocks, char.static_branches,
               lint)
        )
        classes = ", ".join(
            "%s×%d" % (label, count)
            for label, count in sorted(char.static_access_classes.items())
        )
        static_line += (
            "\n  cost model: %d loop(s) (%d exact), %d divergent "
            "branch(es), accesses [%s], cpi >= %.3f"
            % (char.static_loops, char.static_exact_loops,
               char.static_divergent_branches, classes or "none",
               char.static_cpi_lower_bound)
        )
    lines = [
        "kernel %s: %d warps in %d blocks, %d dynamic instructions"
        % (char.kernel_name, char.n_warps, char.n_blocks, char.total_insts),
        "  instructions/warp: mean %.1f, inter-warp CV %.2f"
        % (char.insts_per_warp_mean, char.insts_per_warp_cv),
        "  mix: "
        + ", ".join(
            "%s %.0f%%" % (name, 100 * frac)
            for name, frac in char.mix.items()
            if frac >= 0.005
        ),
        "  memory: %.2f loads/inst, %.2f stores/inst, %.0fB line traffic/inst"
        % (char.loads_per_inst, char.stores_per_inst,
           char.line_bytes_per_inst),
        "  divergence: mean %.1f, max %d requests/mem-inst"
        % (char.mean_divergence, char.max_divergence),
        "  control: %.0f%% of instructions under a partial mask "
        "(mean %.1f active lanes)"
        % (100 * char.masked_inst_fraction, char.mean_active_lanes),
        "  footprint: %d distinct cache lines; %.0f%% of requests are writes"
        % (char.footprint_lines, 100 * char.write_request_fraction),
        "  classes: %s"
        % ", ".join(
            label
            for label, flag in [
                ("memory-divergent", char.is_memory_divergent),
                ("control-divergent", char.is_control_divergent),
                ("write-heavy", char.is_write_heavy),
            ]
            if flag
        )
        or "  classes: regular",
    ]
    if static_line is not None:
        lines.insert(1, static_line)
    return "\n".join(lines)


def suite_report(
    scale=None, kernels: Optional[List[str]] = None, config=None,
    pipeline=None,
) -> str:
    """Characterize (a subset of) the workload suite as a table.

    With ``pipeline`` set, traces come from (and are cached by) that
    :class:`~repro.pipeline.Pipeline` — its stage timings then describe
    this report and a stage-timing table is appended.
    """
    from repro.config import GPUConfig
    from repro.harness.reporting import render_stage_table, render_table
    from repro.trace.emulator import emulate
    from repro.workloads.generators import Scale
    from repro.workloads.suite import SUITE, kernel_names

    config = config if config is not None else GPUConfig()
    scale = scale if scale is not None else Scale.tiny()
    names = kernels if kernels is not None else kernel_names()
    rows = []
    for name in names:
        kernel, memory = SUITE[name].build(scale)
        if pipeline is not None:
            trace = pipeline.trace(name)
        else:
            trace = emulate(kernel, config, memory=memory)
        char = characterize(trace, kernel=kernel)
        rows.append(
            (
                name,
                "%d/%d" % (char.static_insts, char.static_blocks),
                char.total_insts,
                "%.2f" % char.insts_per_warp_cv,
                "%.1f" % char.mean_divergence,
                char.max_divergence,
                "%.0f%%" % (100 * char.masked_inst_fraction),
                "%.0f%%" % (100 * char.write_request_fraction),
            )
        )
    report = render_table(
        ("kernel", "static/blocks", "insts", "warp CV", "mean div",
         "max div", "masked", "writes"),
        rows,
        title="workload characterization (%d kernels)" % len(rows),
    )
    if pipeline is not None:
        stage_table = render_stage_table(pipeline.metrics)
        if stage_table:
            report += "\n\n" + stage_table
    return report


def compare_architectures(
    scale=None,
    kernels: Optional[List[str]] = None,
    config=None,
    arches: Optional[List[str]] = None,
) -> Dict[str, Dict[str, float]]:
    """Predicted CPI per kernel under each arch.

    Runs the analytical model once per (kernel, arch) pair — each arch
    gets its own :class:`~repro.pipeline.Pipeline` so artifacts stay
    content-addressed per machine — and returns
    ``{kernel: {arch: cpi}}``.  The baseline for delta reporting is the
    first entry of ``arches`` (default: ``config.arch``, followed by
    the other ``KNOWN_ARCHES``).
    """
    from repro.config import KNOWN_ARCHES, GPUConfig
    from repro.pipeline import Pipeline
    from repro.workloads.generators import Scale
    from repro.workloads.suite import kernel_names

    config = config if config is not None else GPUConfig()
    scale = scale if scale is not None else Scale.tiny()
    names = kernels if kernels is not None else kernel_names()
    if arches is None:
        arches = [config.arch]
        arches += [a for a in KNOWN_ARCHES if a != config.arch]
    pipelines = {
        arch: Pipeline(config.with_(arch=arch), scale=scale)
        for arch in arches
    }
    results: Dict[str, Dict[str, float]] = {}
    for name in names:
        results[name] = {
            arch: pipelines[arch].predict(name).cpi for arch in arches
        }
    return results


def render_arch_comparison(results: Dict[str, Dict[str, float]]) -> str:
    """Per-kernel CPI delta table across arches.

    ``results`` is the :func:`compare_architectures` mapping; the first
    arch column (insertion order) is the baseline the deltas are
    relative to.
    """
    from repro.harness.reporting import render_table

    if not results:
        return "arch comparison: no kernels"
    arches = list(next(iter(results.values())))
    base = arches[0]
    header = ["kernel"] + ["%s CPI" % arch for arch in arches]
    header += ["%s vs %s" % (arch, base) for arch in arches[1:]]
    rows = []
    for kernel, cpis in results.items():
        row = [kernel] + ["%.3f" % cpis[arch] for arch in arches]
        for arch in arches[1:]:
            delta = (
                100.0 * (cpis[arch] - cpis[base]) / cpis[base]
                if cpis[base]
                else 0.0
            )
            row.append("%+.1f%%" % delta)
        rows.append(tuple(row))
    return render_table(
        tuple(header),
        rows,
        title="architecture comparison (%d kernels, baseline %s)"
        % (len(rows), base),
    )
