"""Machine configuration for GPUMech and the timing oracle.

This module encodes Table I of the paper (the simulated machine) as a
validated dataclass.  The same :class:`GPUConfig` instance drives

* the functional cache simulator (``repro.memory.cache_simulator``),
* the detailed timing simulator (``repro.timing``), and
* the GPUMech analytical model (``repro.core``),

so that model and oracle always describe the same machine.

All latencies are in core cycles at ``core_clock_ghz``.  The DRAM service
time of one cache line on the bus is ``line_size / dram_bandwidth`` seconds,
i.e. ``core_clock_ghz * line_size_bytes / dram_bandwidth_gbps`` cycles
(Eq. 22 of the paper).
"""

from __future__ import annotations

import dataclasses
import hashlib
import math
import numbers
from dataclasses import dataclass, field, replace
from typing import Dict, FrozenSet, Iterable, Optional


class ConfigError(ValueError):
    """Raised when a :class:`GPUConfig` fails validation."""


#: The machines ``GPUConfig.arch`` can name (docs/architectures.md).
#: ``subcore`` differs from the paper's core in exactly two places: the
#: emulator's reconvergence (``repro.trace.emulator.emulate``) and the
#: issue slots per core (:attr:`GPUConfig.schedulers_per_core`).
KNOWN_ARCHES = ("gpumech2014", "subcore")


#: Fields the *functional emulator* reads: they determine the dynamic
#: trace (lane count, coalescing granularity, bank-conflict degrees
#: — and, via the arch's reconvergence, the divergence serialisation
#: order).  Changing any other field leaves the trace artifact
#: valid — the invariant behind the paper's Sec. VI-D
#: cost argument and the staged pipeline's invalidation rules
#: (``repro.pipeline``).  ``arch`` is here because independent-thread-
#: scheduling reconvergence reorders divergent warps' dynamic streams;
#: the scalar/vector *compute* backend (``repro.backend``) by contrast
#: never changes the trace and is deliberately absent.
TRACE_FIELDS: FrozenSet[str] = frozenset(
    {"warp_size", "line_size", "smem_banks", "arch"}
)


#: Instruction latencies (cycles) per operation class, following Table I
#: ("instruction latencies are modeled according to the CUDA manual (normal
#: FP instructions are 25 cycles)").  Integer ALU operations are cheaper;
#: SFU transcendentals are more expensive.
DEFAULT_OP_LATENCIES: Dict[str, int] = {
    "ialu": 4,
    "falu": 25,
    "sfu": 40,
}


@dataclass(frozen=True)
class GPUConfig:
    """Parameters of the modeled GPU (Table I of the paper).

    The defaults reproduce the paper's baseline configuration except for
    ``n_cores``: the paper simulates 16 homogeneous cores, which is
    prohibitively slow for a pure-Python cycle-level oracle, so the library
    default is 4 cores (see DESIGN.md, substitution 4).  Use
    :meth:`paper_baseline` for the literal Table I machine.
    """

    # Core organisation ----------------------------------------------------
    n_cores: int = 4
    core_clock_ghz: float = 1.0
    #: Threads per warp; a warp issues in one cycle (the SIMT width).
    warp_size: int = 32
    #: Resident threads per core; ``max_warps_per_core`` warps is the
    #: one residency limit of the cache replay, the model and the
    #: oracle.
    max_threads_per_core: int = 1024

    # Scheduling -----------------------------------------------------------
    scheduler: str = "rr"  # "rr" (round-robin) or "gto" (greedy-then-oldest)

    # On-chip memory -------------------------------------------------------
    line_size: int = 128  # bytes
    l1_size: int = 32 * 1024
    l1_assoc: int = 8
    l1_latency: int = 25
    l2_size: int = 768 * 1024
    l2_assoc: int = 8
    l2_latency: int = 120  # includes NoC latency, per the paper
    n_mshrs: int = 32  # per-core MSHR entries

    # DRAM -----------------------------------------------------------------
    dram_latency: int = 300  # access latency without queuing
    dram_bandwidth_gbps: float = 192.0
    #: Memory channels the aggregate bandwidth is interleaved over
    #: (extension; the paper models a single queue, the default).
    n_dram_channels: int = 1

    # Software-managed (shared) memory ---------------------------------------
    # Table I's 16 KB scratchpad: its latency and bank conflicts are
    # modeled, its capacity is not (it bounds no kernel's residency).
    #: Scratchpad access latency in cycles (conflict-free).
    smem_latency: int = 30
    #: Scratchpad banks; lanes hitting the same bank (different words)
    #: serialise into that many accesses.
    smem_banks: int = 32

    # Special function units ------------------------------------------------
    #: SFU lanes per core.  The paper assumes a balanced design where
    #: "the resources used for normal operations are sufficient for each
    #: warp" and leaves SFU contention as future work (Sec. IV-B1); the
    #: default (= warp_size) reproduces that assumption.  Setting fewer
    #: lanes makes an SFU warp-instruction occupy the unit for
    #: ``warp_size / n_sfu_units`` cycles, creating the structural hazard
    #: that the extension model in ``core.contention`` predicts.
    n_sfu_units: int = 32

    # Instruction latencies ------------------------------------------------
    op_latencies: Dict[str, int] = field(
        default_factory=lambda: dict(DEFAULT_OP_LATENCIES)
    )

    # Machine family -------------------------------------------------------
    #: Which machine the model and oracle describe (``KNOWN_ARCHES``):
    #: ``"gpumech2014"`` — the paper's 2014-era core (one scheduler,
    #: stack-based reconvergence); ``"subcore"`` — a modern core with
    #: ``n_schedulers`` sub-core issue slots and independent-thread-
    #: scheduling-style reconvergence.  Unlike the scalar/vector compute
    #: backend, the architecture changes the *answer*, so this field is
    #: part of ``fingerprint()`` and keys the artifact store.
    arch: str = "gpumech2014"
    #: Sub-core schedulers (issue slots) per core; each owns a static
    #: partition of the resident warps.  Read only under
    #: ``arch="subcore"`` (see :attr:`schedulers_per_core`); gpumech2014
    #: always runs one scheduler per core.
    n_schedulers: int = 4

    def __post_init__(self) -> None:
        self.validate()

    def validate(self) -> None:
        """Raise :class:`ConfigError` unless every field is coherent.

        Called automatically on construction (``with_()`` round-trips
        re-validate too); public so callers holding a config from an
        untrusted source can re-assert the invariants explicitly.
        """
        counts = [(name, getattr(self, name)) for name in sorted(INT_FIELDS)]
        counts += [
            ("op_latencies[%r]" % op, value)
            for op, value in self.op_latencies.items()
        ]
        for name, value in counts:
            # A bool is an Integral, and a float count gets as far as the
            # oracle's ``range`` calls before it fails.
            if isinstance(value, bool) or not isinstance(
                value, numbers.Integral
            ):
                raise ConfigError(
                    "%s must be an integer; got %r" % (name, value)
                )
        if self.n_cores < 1:
            raise ConfigError("n_cores must be >= 1")
        if self.warp_size < 1:
            raise ConfigError("warp_size must be >= 1")
        if self.max_threads_per_core < self.warp_size:
            raise ConfigError(
                "max_threads_per_core must hold at least one warp (%d "
                "threads); got %d" % (self.warp_size, self.max_threads_per_core)
            )
        if self.max_threads_per_core % self.warp_size != 0:
            raise ConfigError("max_threads_per_core must be a multiple of warp_size")
        if self.scheduler not in ("rr", "gto"):
            raise ConfigError("scheduler must be 'rr' or 'gto'")
        if self.line_size < 1 or self.line_size & (self.line_size - 1):
            raise ConfigError(
                "line_size must be a positive power of two; got %d"
                % self.line_size
            )
        for cache_name, (size, assoc) in {
            "l1": (self.l1_size, self.l1_assoc),
            "l2": (self.l2_size, self.l2_assoc),
        }.items():
            if assoc < 1:
                raise ConfigError(
                    "%s_assoc must be >= 1; got %d" % (cache_name, assoc)
                )
            if size < self.line_size * assoc:
                raise ConfigError(
                    "%s cache size %d is smaller than one set "
                    "(line_size*assoc = %d)"
                    % (cache_name, size, self.line_size * assoc)
                )
            if size % (self.line_size * assoc) != 0:
                raise ConfigError(
                    "%s cache size %d is not divisible by line_size*assoc"
                    % (cache_name, size)
                )
        if self.n_mshrs < 1:
            raise ConfigError("n_mshrs must be >= 1")
        # NaN fails every comparison and +inf passes "> 0", so test
        # finiteness too: either would reach the model and the oracle.
        for name in ("dram_bandwidth_gbps", "core_clock_ghz"):
            value = getattr(self, name)
            if not (math.isfinite(value) and value > 0):
                raise ConfigError(
                    "%s must be positive and finite; got %r" % (name, value)
                )
        missing = {"ialu", "falu", "sfu"} - set(self.op_latencies)
        if missing:
            raise ConfigError("op_latencies missing classes: %s" % sorted(missing))
        latencies = {
            "l1_latency": self.l1_latency,
            "l2_latency": self.l2_latency,
            "dram_latency": self.dram_latency,
            **{"op_latencies[%r]" % op: v for op, v in self.op_latencies.items()},
        }
        negative = sorted(name for name, value in latencies.items() if value < 0)
        if negative:
            raise ConfigError("negative latencies: %s" % ", ".join(negative))
        if not (1 <= self.n_sfu_units <= self.warp_size):
            raise ConfigError(
                "n_sfu_units must be in [1, warp_size]; got %d"
                % self.n_sfu_units
            )
        if self.n_dram_channels < 1:
            raise ConfigError("n_dram_channels must be >= 1")
        if self.smem_latency < 1:
            raise ConfigError("smem_latency must be >= 1")
        if self.smem_banks < 1:
            raise ConfigError("smem_banks must be >= 1")
        if self.arch not in KNOWN_ARCHES:
            raise ConfigError(
                "unknown arch %r; known arches: %s"
                % (self.arch, ", ".join(KNOWN_ARCHES))
            )
        if self.n_schedulers < 1:
            raise ConfigError("n_schedulers must be >= 1")
        if (
            self.arch == "subcore"
            and self.max_warps_per_core % self.n_schedulers != 0
        ):
            raise ConfigError(
                "n_schedulers=%d must divide max_warps_per_core=%d under "
                "arch='subcore' (warps are statically partitioned across "
                "the sub-core schedulers)"
                % (self.n_schedulers, self.max_warps_per_core)
            )

    # Derived quantities ---------------------------------------------------

    @property
    def max_warps_per_core(self) -> int:
        """Maximum resident warps on one core (Table I: 1024/32 = 32)."""
        return self.max_threads_per_core // self.warp_size

    @property
    def schedulers_per_core(self) -> int:
        """Issue slots per core, each owning a static warp partition.

        ``n_schedulers`` under ``arch="subcore"``, otherwise 1: the
        paper's core has one scheduler for every resident warp.  The
        oracle builds this many scheduler partitions per core and the
        multithreading model runs per partition.
        """
        return self.n_schedulers if self.arch == "subcore" else 1

    @property
    def dram_service_cycles(self) -> float:
        """Core cycles to transmit one cache line on the DRAM bus (Eq. 22).

        ``s = freq_core * L / B`` with L in bytes and B in bytes/second.
        """
        bandwidth_bytes_per_ns = self.dram_bandwidth_gbps  # GB/s == bytes/ns
        cycles_per_ns = self.core_clock_ghz
        return cycles_per_ns * self.line_size / bandwidth_bytes_per_ns

    @property
    def sfu_service_cycles(self) -> float:
        """Issue slots an SFU warp-instruction occupies on the SFU pipe."""
        return self.warp_size / self.n_sfu_units

    @property
    def l2_miss_latency(self) -> int:
        """Total latency of an access that misses in both caches."""
        return self.l2_latency + self.dram_latency

    def miss_event_latency(self, event: str) -> int:
        """Latency (cycles) of a memory access classified by miss event.

        ``event`` is one of ``"l1_hit"``, ``"l2_hit"``, ``"l2_miss"``.
        Latencies are end-to-end: an L2 hit costs the full L2 access
        latency (which subsumes the NoC), an L2 miss additionally pays the
        DRAM access latency.
        """
        if event == "l1_hit":
            return self.l1_latency
        if event == "l2_hit":
            return self.l2_latency
        if event == "l2_miss":
            return self.l2_miss_latency
        raise ConfigError("unknown miss event %r" % (event,))

    def with_(self, **overrides) -> "GPUConfig":
        """Return a copy with the given fields replaced (sweep helper)."""
        return replace(self, **overrides)

    # Fingerprints -----------------------------------------------------------

    def fingerprint(self, fields: Optional[Iterable[str]] = None) -> str:
        """Stable content hash of (a subset of) the configuration.

        Two configs with equal values for ``fields`` share a fingerprint
        regardless of how they were constructed (``with_()`` round-trips,
        dict insertion order in ``op_latencies``, ...).  This is the cache
        key primitive of ``repro.pipeline``: artifacts are addressed by
        the fingerprint of exactly the fields their stage reads, so a
        hardware-only override never invalidates the trace.
        """
        names = sorted(fields) if fields is not None else sorted(ALL_FIELDS)
        items = []
        for name in names:
            value = getattr(self, name)
            if isinstance(value, dict):
                value = tuple(sorted(value.items()))
            items.append((name, value))
        digest = hashlib.sha256(repr(items).encode("utf-8"))
        return digest.hexdigest()[:16]

    def trace_fingerprint(self) -> str:
        """Fingerprint of the trace-affecting fields only."""
        return self.fingerprint(TRACE_FIELDS)

    def hardware_fingerprint(self) -> str:
        """Fingerprint of the hardware-only (trace-preserving) fields."""
        return self.fingerprint(HARDWARE_FIELDS)

    # Presets ----------------------------------------------------------------

    @classmethod
    def paper_baseline(cls) -> "GPUConfig":
        """The literal Table I machine: 16 cores, 32 warps/core, 32 MSHRs,
        192 GB/s DRAM."""
        return cls(n_cores=16)

    @classmethod
    def small(cls, n_cores: int = 2, warps_per_core: int = 16) -> "GPUConfig":
        """A scaled-down machine for fast tests and examples."""
        return cls(
            n_cores=n_cores,
            max_threads_per_core=warps_per_core * 32,
        )


#: Every :class:`GPUConfig` field name.
ALL_FIELDS: FrozenSet[str] = frozenset(
    f.name for f in dataclasses.fields(GPUConfig)
)

#: Fields annotated ``int``: counts, sizes and latencies in cycles.
#: Validation rejects a ``bool`` or a non-integral value in any of them.
INT_FIELDS: FrozenSet[str] = frozenset(
    f.name for f in dataclasses.fields(GPUConfig) if f.type == "int"
)

#: Fields that do *not* change the functional trace: caches, latencies,
#: MSHRs, DRAM, scheduling, core count.  A sweep over these re-runs only
#: the cache-simulation-and-later pipeline stages.
HARDWARE_FIELDS: FrozenSet[str] = ALL_FIELDS - TRACE_FIELDS
