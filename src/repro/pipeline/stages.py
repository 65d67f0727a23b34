"""Typed stage definitions: the Fig. 5 dataflow as a declarative DAG.

Each :class:`StageSpec` names the upstream artifacts its compute takes
and the :class:`~repro.config.GPUConfig` fields it reads beyond what
those upstream stages already cover.  A stage's cache key folds in the
fingerprint of its own fields and, directly or through one another, the
keys of all its inputs, so the key *covers* its ``config_fields`` plus,
transitively, everything its inputs' keys cover.  That is how the
pipeline knows structurally which artifacts a configuration override
invalidates:

====================  =====================================================
``trace``             functional emulation (config: trace fields only)
``cache_sim``         functional cache replay (cache geometry + residency)
``latency_table``     per-PC AMAT + avg miss latency (latency parameters)
``interval_profiles`` per-warp Eq. 4 scan (no field of its own)
``clustering``        representative warp + all a prediction reads upstream
``predict``           multi-warp analytical model (scheduling, contention)
``oracle``            cycle-level timing simulation (full config)
====================  =====================================================

Static analysis (``repro.staticcheck``: the verifier, the cost model,
the cross-checker) is not a stage: it costs milliseconds a kernel, so
its callers run it directly and nothing of it is ever stored.

Coverage is enforced, not just declared: a stage computes on a
:func:`config_view` that holds exactly the fields its key covers, and
reading any other field raises :class:`UndeclaredConfigRead`.

The compute functions are pure: everything they need arrives as an
argument, nothing is read from ambient state — which is what makes them
safe to fan out across processes.
"""

from __future__ import annotations

import hashlib
import marshal
from dataclasses import dataclass
from typing import Dict, FrozenSet, Optional, Tuple

from repro.config import ALL_FIELDS, TRACE_FIELDS, GPUConfig
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

#: Analytical-model config dependencies beyond the clustering key's
#: coverage (which already brings in cache geometry, residency and
#: latencies): the scheduler policy, the issue slots per core (``arch``,
#: ``n_schedulers``), and the Sec. IV-B contention parameters.
PREDICT_FIELDS: FrozenSet[str] = frozenset(
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

#: Timing-oracle config dependencies: the cycle-level simulator reads
#: the whole machine description except the scratchpad banking already
#: serialized into the trace.
ORACLE_FIELDS: FrozenSet[str] = ALL_FIELDS - {"smem_banks"}


@dataclass(frozen=True)
class StageSpec:
    """One node of the pipeline DAG."""

    name: str
    #: Upstream artifacts this stage's compute takes, in argument order.
    #: Its key hashes the key of one of them, which covers the others.
    inputs: Tuple[str, ...]
    #: GPUConfig fields this stage reads *beyond* what its inputs' keys
    #: already cover; the key includes only their fingerprint (plus the
    #: input keys), so overrides of other fields leave artifacts valid.
    #: The stage computes on a view holding these fields plus its
    #: inputs' coverage; reading any other field raises
    #: :class:`UndeclaredConfigRead`.
    config_fields: FrozenSet[str]
    description: str = ""
    #: Version of the artifact's pickled layout, folded into the key.
    #: Bump it whenever the artifact type changes shape, or the same
    #: inputs compute different contents: a disk store written by older
    #: code then misses on this stage instead of handing old objects to
    #: new code.  A stage whose key hashes a bumped upstream key misses
    #: already and needs no bump of its own.
    layout: int = 1


#: The pipeline DAG in topological order.
STAGES = {
    spec.name: spec
    for spec in (
        StageSpec(
            "trace",
            inputs=(),
            config_fields=TRACE_FIELDS,
            description="functional SIMT emulation (machine-independent)",
            layout=2,  # launch-wide trace columns
        ),
        StageSpec(
            "cache_sim",
            inputs=("trace",),
            config_fields=CACHE_SIM_FIELDS,
            description="functional cache replay, per-PC miss distributions",
            layout=2,  # PCStats without per-occurrence events
        ),
        StageSpec(
            "latency_table",
            inputs=("trace", "cache_sim"),
            config_fields=LATENCY_FIELDS,
            description="per-PC average memory access times",
            layout=2,  # carries avg_miss_latency
        ),
        StageSpec(
            "interval_profiles",
            inputs=("trace", "latency_table"),
            # A core issues one instruction a cycle.  Profiles of two
            # archs never share an artifact: ``arch`` keys the trace,
            # and the profile key folds in the trace key.
            config_fields=frozenset(),
            description="per-warp interval profiles (Eq. 4)",
            # 2: launch-wide interval columns; 3: no issue rate
            layout=3,
        ),
        StageSpec(
            "clustering",
            inputs=("trace", "interval_profiles", "latency_table"),
            config_fields=frozenset(),
            description="representative-warp selection (k-means, Eq. 5/6)",
            # 2: carries the single-warp CPI stack; 3: also the kernel
            # name, launch geometry and average miss latency
            layout=3,
        ),
        StageSpec(
            "predict",
            inputs=("clustering",),
            config_fields=PREDICT_FIELDS,
            description="multi-warp analytical model (Eq. 3/17)",
            layout=2,  # per-interval results are arrays
        ),
        StageSpec(
            "oracle",
            inputs=("trace",),
            config_fields=ORACLE_FIELDS,
            description="cycle-level timing simulation",
            layout=2,  # stall counters charge skipped cycles
        ),
    )
}


def key_coverage(stages: Dict[str, StageSpec]) -> Dict[str, FrozenSet[str]]:
    """Config fields each stage's key covers: its own ``config_fields``
    plus, transitively, whatever its inputs' keys cover.

    ``stages`` must be in topological order, as :data:`STAGES` is.
    """
    covered: Dict[str, FrozenSet[str]] = {}
    for name, spec in stages.items():
        fields = spec.config_fields
        for upstream in spec.inputs:
            fields = fields | covered[upstream]
        covered[name] = fields
    return covered


class UndeclaredConfigRead(AttributeError):
    """A stage read a config field its cache key does not cover.

    Caching the result would serve it, stale, to a config that differs
    only in that field; the read fails instead, before anything is
    stored.  Declare the field in the stage's ``config_fields``.
    """


class _Uncovered:
    """Class-level stand-in for a field outside a stage's key coverage."""

    __slots__ = ("stage", "field")

    def __init__(self, stage: str, field: str):
        self.stage = stage
        self.field = field

    def __get__(self, instance, owner=None):
        if instance is None:
            return self
        raise UndeclaredConfigRead(
            "stage %r read config.%s, which its cache key does not "
            "cover; declare it in the stage's config_fields"
            % (self.stage, self.field)
        )


def view_class(stage: str, covered: FrozenSet[str]) -> type:
    """A :class:`GPUConfig` subclass for ``stage`` exposing ``covered``.

    Uncovered fields are class attributes that raise; covered ones are
    ordinary instance attributes, so a covered read costs what it costs
    on a plain config.  Properties and methods are inherited and read
    through the same attributes.
    """
    namespace: Dict[str, object] = {
        name: _Uncovered(stage, name) for name in ALL_FIELDS - covered
    }
    namespace["covered"] = tuple(sorted(covered))
    return type("ConfigView[%s]" % stage, (GPUConfig,), namespace)


#: One view class per stage, built once from the stage DAG.
VIEWS: Dict[str, type] = {
    name: view_class(name, covered)
    for name, covered in key_coverage(STAGES).items()
}


def config_view(stage: str, config: GPUConfig) -> GPUConfig:
    """``config`` as ``stage`` may see it: only the fields its key covers."""
    cls = VIEWS[stage]
    view = object.__new__(cls)
    values = vars(config)
    vars(view).update({name: values[name] for name in cls.covered})
    return view


#: Each stage's ``config_fields`` in the order ``fingerprint`` reads them.
_SORTED_FIELDS: Dict[str, Tuple[str, ...]] = {
    name: tuple(sorted(spec.config_fields)) for name, spec in STAGES.items()
}

#: Types marshal writes by type and bits alone, so equal bytes mean equal
#: types and values, hence an equal ``repr``.  (It writes any buffer, a
#: numpy scalar included, as bare bytes: ``np.int64(1)`` and
#: ``np.uint64(1)`` would share bytes, so buffers are not plain.)
_SCALARS = frozenset({str, int, float, bool, type(None)})

#: Process-wide memo of :func:`stage_key`: marshal bytes of the inputs ->
#: key.  Dropped whole once it holds ``_KEY_MEMO_SIZE`` entries.
_KEY_MEMO: Dict[bytes, str] = {}
_KEY_MEMO_SIZE = 4096


def _plain(items) -> bool:
    """Whether ``items`` hold only :data:`_SCALARS`, in tuples and dicts."""
    for item in items:
        kind = type(item)
        if kind in _SCALARS:
            continue
        if kind is tuple:
            if _plain(item):
                continue
        elif kind is dict:
            if _plain(item) and _plain(item.values()):
                continue
        return False
    return True


def stage_key(stage: str, config: GPUConfig, *parts: object) -> str:
    """Content-addressed key for one stage artifact.

    ``parts`` are the non-config inputs (kernel identity, upstream
    artifact keys, call parameters); the config contributes only the
    fingerprint of the fields the stage declares, the stage its
    artifact layout version.

    Keys are memoized on the marshal (version 2) bytes of the stage name,
    the declared fields' values and ``parts``.  Two inputs share those
    bytes only when every value has the same type and bits (``64``,
    ``64.0`` and ``True`` differ, so do ``0.0`` and ``-0.0``; dict order
    is kept), so a hit returns the key :func:`hash_stage_key` would.
    Inputs holding anything but plain scalars, tuples and dicts are
    hashed directly.
    """
    values = tuple([getattr(config, name) for name in _SORTED_FIELDS[stage]])
    if not (_plain(values) and _plain(parts)):
        return hash_stage_key(stage, config, *parts)
    inputs = marshal.dumps((stage, values, parts), 2)
    key = _KEY_MEMO.get(inputs)
    if key is None:
        if len(_KEY_MEMO) >= _KEY_MEMO_SIZE:
            _KEY_MEMO.clear()
        key = _KEY_MEMO[inputs] = hash_stage_key(stage, config, *parts)
    return key


def hash_stage_key(stage: str, config: GPUConfig, *parts: object) -> str:
    """:func:`stage_key` computed from scratch, without the memo."""
    spec = STAGES[stage]
    head = (config.fingerprint(spec.config_fields), ("layout", spec.layout))
    payload = repr(head + parts).encode("utf-8")
    return "%s:%s" % (stage, hashlib.sha256(payload).hexdigest()[:24])


def trace_digest(trace: KernelTrace) -> str:
    """Content hash of an externally supplied trace.

    Lets ``GPUMech.prepare(trace=...)`` participate in content-addressed
    caching without knowing which kernel/scale produced the trace.  It
    hashes every column and every scalar field, so two traces that
    differ anywhere (dependencies and block ids included) never share a
    downstream key.
    """
    digest = hashlib.sha256()
    digest.update(
        repr(
            (
                trace.kernel_name, trace.warp_size, trace.line_size,
                trace.n_blocks, trace.n_warps, trace.total_insts,
                trace.total_requests,
            )
        ).encode("utf-8")
    )
    for name in KernelTrace.COLUMNS:
        digest.update(getattr(trace, name).tobytes())
    return digest.hexdigest()[:24]


# ---------------------------------------------------------------------------
# Stage compute functions (pure, picklable-argument)
# ---------------------------------------------------------------------------


def compute_trace(kernel_name: str, scale, config: GPUConfig) -> KernelTrace:
    """Build a suite kernel at ``scale`` and emulate it."""
    from repro.workloads.suite import SUITE  # deferred: suite is heavy

    kernel, memory = SUITE[kernel_name].build(scale)
    return emulate(kernel, config, memory=memory)


def compute_oracle(
    trace, config, timeline_interval: Optional[float] = None
):
    simulator = TimingSimulator(config, timeline_interval=timeline_interval)
    return simulator.run(trace)
