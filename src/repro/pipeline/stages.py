"""Typed stage definitions: the Fig. 5 dataflow as a declarative DAG.

Each :class:`StageSpec` names its upstream stages and — crucially — the
exact :class:`~repro.config.GPUConfig` fields it reads.  Cache keys are
derived from those field subsets, so the pipeline knows *structurally*
which artifacts a configuration override invalidates:

====================  =====================================================
``lint``              static kernel verification (no config dependence)
``trace``             functional emulation (config: trace fields only)
``costmodel``         static cost model (warp/line geometry + cost params)
``xcheck``            dynamic-vs-static cross-validation (trace fields)
``cache_sim``         functional cache replay (cache geometry + residency)
``latency_table``     per-PC AMAT (latency parameters)
``interval_profiles`` per-warp Eq. 4 scan (issue bandwidth)
``clustering``        representative-warp selection (strategy parameter)
``predict``           multi-warp analytical model (full config)
``oracle``            cycle-level timing simulation (full config)
====================  =====================================================

The compute functions are pure: everything they need arrives as an
argument, nothing is read from ambient state — which is what makes them
safe to fan out across processes.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import FrozenSet, Optional, Tuple

from repro.config import ALL_FIELDS, TRACE_FIELDS, GPUConfig
from repro.core.latency import build_latency_table
from repro.core.representative import select_representative
from repro.memory.cache_simulator import simulate_caches
from repro.timing.simulator import TimingSimulator
from repro.trace.emulator import emulate
from repro.trace.trace_types import KernelTrace

#: Cache-simulation config dependencies: cache geometry plus the
#: residency-wave computation (blocks per core, warps per block).
CACHE_SIM_FIELDS: FrozenSet[str] = frozenset(
    {
        "line_size",
        "l1_size",
        "l1_assoc",
        "l2_size",
        "l2_assoc",
        "n_cores",
        "max_threads_per_core",
        "warp_size",
    }
)

#: Latency-table config dependencies (AMAT weights + compute latencies).
LATENCY_FIELDS: FrozenSet[str] = frozenset(
    {
        "l1_latency",
        "l2_latency",
        "dram_latency",
        "smem_latency",
        "op_latencies",
    }
)

#: Interval-profile config dependencies: issue bandwidth plus the
#: architecture backend (interval construction is an arch hook, so two
#: archs must never share a profile artifact even while both shipped
#: backends happen to build profiles identically).
PROFILE_FIELDS: FrozenSet[str] = frozenset({"issue_width", "arch"})

#: Static cost-model config dependencies: warp/line geometry for the
#: access classifier, residency limits for occupancy, issue width and
#: DRAM service rate for the CPI lower bound.
COSTMODEL_FIELDS: FrozenSet[str] = frozenset(
    {
        "warp_size",
        "line_size",
        "smem_banks",
        "issue_width",
        "n_cores",
        "max_threads_per_core",
        "dram_bandwidth_gbps",
        "core_clock_ghz",
    }
)

#: Cross-check config dependencies beyond what the trace and costmodel
#: keys (both folded into the xcheck key) already cover: the collector
#: comparisons themselves read only the warp width.
XCHECK_FIELDS: FrozenSet[str] = frozenset({"warp_size"})

#: Analytical-model config dependencies.  ``predict``'s key folds in
#: only the *trace* key, while its other inputs (cache result, latency
#: table, profiles, clustering) arrive as unkeyed objects — so their
#: field coverage must be declared here directly, alongside the reads
#: of the multi-warp model itself (scheduler policy, arch dispatch,
#: residency, and the Sec. IV-B contention parameters).  Everything in
#: ``ALL_FIELDS`` except ``simt_width`` (pinned to ``warp_size`` by
#: validation) and the scratchpad geometry (``smem_size`` /
#: ``smem_banks``, baked into the trace's conflict degrees).
PREDICT_FIELDS: FrozenSet[str] = (
    CACHE_SIM_FIELDS
    | LATENCY_FIELDS
    | PROFILE_FIELDS
    | frozenset(
        {
            "scheduler",
            "arch",
            "n_schedulers",
            "n_sfu_units",
            "n_mshrs",
            "n_dram_channels",
            "core_clock_ghz",
            "dram_bandwidth_gbps",
        }
    )
)

#: Timing-oracle config dependencies: the cycle-level simulator reads
#: the whole machine description except ``simt_width`` (pinned to
#: ``warp_size``), ``issue_width`` (pinned to 1 — single-issue cores),
#: and the scratchpad geometry already serialized into the trace.
ORACLE_FIELDS: FrozenSet[str] = ALL_FIELDS - frozenset(
    {"simt_width", "issue_width", "smem_size", "smem_banks"}
)


@dataclass(frozen=True)
class StageSpec:
    """One node of the pipeline DAG."""

    name: str
    #: Upstream stage names this stage consumes artifacts from.
    inputs: Tuple[str, ...]
    #: GPUConfig fields this stage reads *beyond* what its keyed inputs
    #: already cover; the key includes only their fingerprint, so
    #: overrides of other fields leave artifacts valid.
    config_fields: FrozenSet[str]
    description: str = ""
    #: Upstream stages whose artifact *keys* are folded into this
    #: stage's key (``None``: all of ``inputs``).  A stage is
    #: automatically invalidated by any config field covered by these
    #: keys, transitively — the coverage ``repro.depcheck`` verifies.
    #: ``predict`` narrows this to ``("trace",)``: its key carries only
    #: the trace key, so everything its unkeyed inputs (cache result,
    #: latency table, profiles, clustering) read must be declared in
    #: ``config_fields`` directly.
    key_inputs: Optional[Tuple[str, ...]] = None
    #: Version of the artifact's pickled layout, folded into the key
    #: from 2 on.  Bump it whenever the artifact type changes shape: a
    #: disk store written by older code then misses on this stage instead
    #: of handing old objects to new code, while stages still at layout
    #: 1 keep their keys and their cached artifacts.  A stage whose key
    #: hashes a bumped upstream key (``clustering`` over
    #: ``interval_profiles``) misses already and needs no bump of its own.
    layout: int = 1

    @property
    def effective_key_inputs(self) -> Tuple[str, ...]:
        """The upstream keys actually folded into this stage's key."""
        return self.inputs if self.key_inputs is None else self.key_inputs


#: The pipeline DAG in topological order.
STAGES = {
    spec.name: spec
    for spec in (
        StageSpec(
            "lint",
            inputs=(),
            config_fields=frozenset(),
            description="static kernel verification (CFG + dataflow checks)",
        ),
        StageSpec(
            "trace",
            inputs=(),
            config_fields=TRACE_FIELDS,
            description="functional SIMT emulation (machine-independent)",
        ),
        StageSpec(
            "costmodel",
            inputs=(),
            config_fields=COSTMODEL_FIELDS,
            description="static cost model (abstract interpretation)",
        ),
        StageSpec(
            "xcheck",
            inputs=("trace", "costmodel"),
            config_fields=XCHECK_FIELDS,
            description="cross-validation of dynamic trace vs static facts",
        ),
        StageSpec(
            "cache_sim",
            inputs=("trace",),
            config_fields=CACHE_SIM_FIELDS,
            description="functional cache replay, per-PC miss distributions",
        ),
        StageSpec(
            "latency_table",
            inputs=("cache_sim",),
            config_fields=LATENCY_FIELDS,
            description="per-PC average memory access times",
        ),
        StageSpec(
            "interval_profiles",
            inputs=("latency_table",),
            config_fields=PROFILE_FIELDS,
            description="per-warp interval profiles (Eq. 4)",
            layout=2,  # launch-wide interval columns
        ),
        StageSpec(
            "clustering",
            inputs=("interval_profiles",),
            config_fields=frozenset(),
            description="representative-warp selection (k-means, Eq. 5/6)",
        ),
        StageSpec(
            "predict",
            inputs=("clustering",),
            config_fields=PREDICT_FIELDS,
            description="multi-warp analytical model (Eq. 3/17)",
            key_inputs=("trace",),
            layout=2,  # per-interval results are arrays
        ),
        StageSpec(
            "oracle",
            inputs=("trace",),
            config_fields=ORACLE_FIELDS,
            description="cycle-level timing simulation",
        ),
    )
}


def stage_key(stage: str, config: GPUConfig, *parts: object) -> str:
    """Content-addressed key for one stage artifact.

    ``parts`` are the non-config inputs (kernel identity, upstream
    artifact keys, call parameters); the config contributes only the
    fingerprint of the fields the stage declares, the stage its
    artifact layout version.
    """
    spec = STAGES[stage]
    head = (config.fingerprint(spec.config_fields),)
    if spec.layout > 1:
        head += (("layout", spec.layout),)
    payload = repr(head + parts).encode("utf-8")
    return "%s:%s" % (stage, hashlib.sha256(payload).hexdigest()[:24])


def trace_digest(trace: KernelTrace) -> str:
    """Content hash of an externally supplied trace.

    Lets ``GPUMech.prepare(trace=...)`` participate in content-addressed
    caching without knowing which kernel/scale produced the trace.
    """
    digest = hashlib.sha256()
    digest.update(
        repr(
            (trace.kernel_name, trace.warp_size, trace.line_size, trace.n_warps)
        ).encode("utf-8")
    )
    for warp in trace.warps:
        digest.update(warp.pcs.tobytes())
        digest.update(warp.ops.tobytes())
        digest.update(warp.active.tobytes())
        digest.update(warp.req_lines.tobytes())
        digest.update(warp.conflict.tobytes())
    return digest.hexdigest()[:24]


# ---------------------------------------------------------------------------
# Stage compute functions (pure, picklable-argument)
# ---------------------------------------------------------------------------


def compute_trace(kernel_name: str, scale, config: GPUConfig) -> KernelTrace:
    """Build a suite kernel at ``scale`` and emulate it."""
    from repro.workloads.suite import SUITE  # deferred: suite is heavy

    kernel, memory = SUITE[kernel_name].build(scale)
    return emulate(kernel, config, memory=memory)


def compute_lint(kernel_name: str, scale):
    """Build a suite kernel at ``scale`` and statically verify it."""
    from repro.staticcheck import lint_kernel
    from repro.workloads.suite import SUITE  # deferred: suite is heavy

    kernel, _ = SUITE[kernel_name].build(scale)
    return lint_kernel(kernel)


def compute_costmodel(kernel_name: str, scale, config: GPUConfig):
    """Build a suite kernel at ``scale`` and statically cost it."""
    from repro.staticcheck import analyze_kernel
    from repro.workloads.suite import SUITE  # deferred: suite is heavy

    kernel, _ = SUITE[kernel_name].build(scale)
    return analyze_kernel(kernel, config)


def compute_xcheck(kernel_name: str, scale, trace, cost, config: GPUConfig):
    """Cross-validate a suite kernel's trace against its cost model."""
    from repro.staticcheck import crosscheck_kernel
    from repro.workloads.suite import SUITE  # deferred: suite is heavy

    kernel, _ = SUITE[kernel_name].build(scale)
    return crosscheck_kernel(kernel, trace, cost=cost, config=config)


def compute_cache_sim(trace, config, warps_per_core: Optional[int]):
    return simulate_caches(trace, config, warps_per_core=warps_per_core)


def compute_latency_table(trace, cache_result, config):
    return build_latency_table(trace, cache_result, config)


def compute_profiles(warps, latency_table, config: GPUConfig):
    """Interval profiles of a launch's warp traces, in launch order.

    Interval-construction semantics are an architecture-backend hook
    (``config.arch``); both shipped backends use the Eq. 4 scan.
    Batched across warps by default (``repro.core.interval_vec``);
    ``REPRO_SCALAR=1`` selects the per-warp reference scan.
    """
    from repro.arch import get_arch  # deferred: circular import

    return get_arch(config.arch).build_interval_profiles(
        warps, latency_table, config
    )


def compute_clustering(profiles, strategy: str):
    return select_representative(profiles, strategy)


def compute_oracle(
    trace,
    config,
    warps_per_core: Optional[int],
    timeline_interval: Optional[float] = None,
):
    simulator = TimingSimulator(
        config,
        warps_per_core=warps_per_core,
        timeline_interval=timeline_interval,
    )
    return simulator.run(trace)
