"""Resource-contention models: MSHR and DRAM bandwidth (Sec. IV-B).

Both models walk the representative warp's intervals and predict the
queuing delay each interval's memory traffic suffers, assuming every
resident warp replays the representative warp's behaviour concurrently.

MSHR model (Eq. 18-20)
    An interval's concurrent MSHR load is the expected number of
    L1-missing *read* requests from all warps (stores never allocate
    MSHRs).  With ``N`` requests contending for ``M`` entries, request
    ``j`` is serviced in wave ``ceil(j / M)``, each wave taking one
    average miss latency; averaging over j and subtracting the
    uncontended latency yields the expected queuing delay per request
    (Eq. 19).  The delay is charged once per *memory instruction* — a
    divergent instruction's requests overlap their queuing — and only
    when the interval's requests exceed the MSHR capacity (Eq. 20).

DRAM bandwidth model (Eq. 21-23)
    The DRAM bus is an M/D/1 queue: service time ``s = freq * L / B``
    (Eq. 22), arrival rate from all cores spread over the interval's
    cycles (Eq. 23), expected wait ``lambda * s^2 / (2 (1 - rho))``
    capped at half the maximum backlog (Eq. 21).  Write-through store
    traffic and L2-missing read traffic both contribute to the arrival
    rate — the asymmetry that makes write-divergent kernels
    (``kmeans_invert_mapping``) DRAM-queue-bound even when their loads
    hit in the L1 — but the delay is only charged to the load
    instructions that actually reach DRAM (stores are fire-and-forget
    and never stall the warp).

Normalisation: queueing delays are converted to CPI per
*core*-instruction (``n_warps * rep_insts``), keeping units consistent
with the multithreading model; see DESIGN.md ("Modelling notes") for why
the per-representative-warp-instruction reading of Eq. 17 is
dimensionally inconsistent.

The per-interval formulas are elementwise: given one interval's numbers
they return one delay, given the profile's columns one delay per
interval, which is how :func:`model_contention` evaluates them.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.config import GPUConfig
from repro.core.interval import ArrayFieldsEq, IntervalProfile, ordered_sum


@dataclass(eq=False)
class ContentionResult(ArrayFieldsEq):
    """Predicted queuing-delay CPI components.

    Besides the paper's per-interval expected queuing delays
    (``cpi_mshr_model``, ``cpi_queue_model``), two *throughput floors*
    bound the sustained service rates of the contended resources:

    * ``cpi_mshr_floor`` — the MSHR file retires at most ``n_mshrs``
      misses per ``avg_miss_latency`` cycles, so per-core-instruction CPI
      cannot drop below ``avg_miss_latency * miss_reqs_per_inst /
      n_mshrs``.
    * ``cpi_bandwidth_floor`` — the shared DRAM bus serves one line per
      ``s`` cycles, so CPI cannot drop below ``s * n_cores *
      dram_reqs_per_inst``.  This is what makes write-divergent kernels
      bandwidth-bound even though stores are fire-and-forget: their
      traffic builds a *sustained* backlog that the per-interval M/D/1
      wait (a transient-burst model) cannot represent.

    The floors are lower *bounds on total CPI*, not additive stall terms;
    :meth:`effective_components` folds them in against a given
    multithreading CPI.
    """

    cpi_mshr_model: float
    cpi_queue_model: float
    cpi_mshr_floor: float
    cpi_bandwidth_floor: float
    per_interval_mshr: np.ndarray
    per_interval_queue: np.ndarray
    avg_miss_latency: float
    # SFU-contention extension (zero under the paper's balanced-design
    # assumption, i.e. n_sfu_units == warp_size):
    cpi_sfu_model: float = 0.0
    cpi_sfu_floor: float = 0.0
    #: Scratchpad bank-serialisation throughput floor (extension): the
    #: shared-memory LSU serves one bank access per cycle, so CPI cannot
    #: drop below the serialised slots per instruction.
    cpi_smem_floor: float = 0.0

    def effective_components(self, cpi_multithreading: float):
        """(MSHR, SFU, SMEM, QUEUE) CPI components after the floors.

        Each component is at least its per-interval model value; the MSHR
        component grows until ``mt + MSHR`` reaches the MSHR throughput
        floor, the SFU component until the running total reaches the SFU
        occupancy floor, then the QUEUE component until the total reaches
        the bandwidth floor.  The result is monotone in the floors and
        keeps the Table II model ladder (MT <= MT_MSHR <= MT_MSHR_BAND)
        intact.
        """
        mshr = self.cpi_mshr_model
        if self.cpi_mshr_floor > cpi_multithreading + mshr:
            mshr = self.cpi_mshr_floor - cpi_multithreading
        sfu = self.cpi_sfu_model
        total = cpi_multithreading + mshr + sfu
        if self.cpi_sfu_floor > total:
            sfu = self.cpi_sfu_floor - cpi_multithreading - mshr
        smem = 0.0
        total = cpi_multithreading + mshr + sfu
        if self.cpi_smem_floor > total:
            smem = self.cpi_smem_floor - total
        queue = self.cpi_queue_model
        total = cpi_multithreading + mshr + sfu + smem + queue
        if self.cpi_bandwidth_floor > total:
            queue = (
                self.cpi_bandwidth_floor - cpi_multithreading - mshr - sfu
                - smem
            )
        return mshr, sfu, smem, queue

    # Back-compat single numbers (per-interval models only):

    @property
    def cpi_mshr(self) -> float:
        """Per-interval MSHR queuing CPI (floors not applied)."""
        return self.cpi_mshr_model

    @property
    def cpi_queue(self) -> float:
        """Per-interval DRAM queuing CPI (floors not applied)."""
        return self.cpi_queue_model

    @property
    def cpi(self) -> float:
        """CPI_rc_contention (Eq. 17, per core-instruction, no floors)."""
        return self.cpi_mshr_model + self.cpi_queue_model


def _mean_wave(n_requests, n_mshrs: int):
    """Mean over j=1..N of ceil(j / M): the average service wave index."""
    n = np.asarray(n_requests).astype(np.int64)  # int(): truncation
    full = n // n_mshrs
    served = n_mshrs * full  # requests in the full waves
    waves = full + 1
    total = served * waves // 2 + (n - served) * waves
    return np.divide(total, n, out=np.ones(n.shape), where=n > 0)


def mshr_queuing_delay(core_reqs, n_mshrs: int, avg_miss_latency: float):
    """Eq. 19: expected per-request queuing delay from limited MSHRs."""
    core_reqs = np.asarray(core_reqs)
    delay = np.zeros(core_reqs.shape)
    over = core_reqs > n_mshrs
    if over.any():
        delay[over] = avg_miss_latency * (
            _mean_wave(core_reqs[over], n_mshrs) - 1.0
        )
    return delay


def md1_wait(total_reqs, interval_cycles, service: float):
    """Expected M/D/1 waiting time, capped at half the max backlog (Eq. 21).

    The generic deterministic-service queue used for the DRAM bus and,
    in the extension, for the SFU pipeline.  No traffic, or an interval
    without cycles, waits nothing.
    """
    total_reqs = np.asarray(total_reqs, dtype=np.float64)
    arrival_rate = np.divide(  # Eq. 23
        total_reqs,
        interval_cycles,
        out=np.zeros(total_reqs.shape),
        where=np.asarray(interval_cycles) > 0.0,
    )
    rho = arrival_rate * service  # Eq. 22
    cap = service * total_reqs / 2.0  # Eq. 21's backlog cap
    # Below saturation the M/D/1 wait, at or above it the cap itself.
    wait = np.divide(
        rho * service,
        2.0 * (1.0 - rho),
        out=np.copy(cap),
        where=rho < 1.0,
    )
    return np.minimum(cap, wait)


def dram_queuing_delay(
    core_reqs: float,
    interval_cycles: float,
    config: GPUConfig,
) -> float:
    """Eq. 21-23: expected per-request M/D/1 wait on the DRAM bus.

    With ``n_dram_channels > 1`` (extension) the traffic splits evenly
    over the channels while each serves at 1/n of the aggregate rate:
    utilisation is unchanged, per-request waits scale with the channel
    service time.
    """
    channels = config.n_dram_channels
    return md1_wait(
        core_reqs * config.n_cores / channels,
        interval_cycles,
        config.dram_service_cycles * channels,
    )


def model_contention(
    profile: IntervalProfile,
    n_warps: int,
    config: GPUConfig,
    avg_miss_latency: float,
) -> ContentionResult:
    """Predict the contention CPI for the representative warp's profile."""
    intervals = profile.columns
    sfu_limited = config.n_sfu_units < config.warp_size
    sfu_service = config.sfu_service_cycles

    # --- MSHRs (reads only) ----------------------------------------------
    core_mshr_reqs = intervals.exp_mshr_reqs * n_warps  # Eq. 18
    delay = mshr_queuing_delay(core_mshr_reqs, config.n_mshrs,
                               avg_miss_latency)
    # Charged per memory instruction that occupies MSHRs (Eq. 20).
    per_mshr = delay * intervals.exp_mshr_loads

    # --- DRAM bandwidth (reads that miss L2 + write-through stores) ------
    core_dram_reqs = profile.interval_dram_reqs * n_warps
    wait = dram_queuing_delay(core_dram_reqs, profile.interval_cycles, config)
    per_queue = wait * intervals.exp_dram_loads

    total_insts = n_warps * profile.n_insts
    cpi_mshr = ordered_sum(per_mshr) / total_insts if total_insts else 0.0
    cpi_queue = ordered_sum(per_queue) / total_insts if total_insts else 0.0

    rep_insts = profile.n_insts
    mshr_reqs = profile.total_mshr_reqs
    dram_reqs = profile.total_dram_reqs
    sfu_insts = profile.total_sfu
    smem_slots = profile.total_smem_slots
    mshr_floor = 0.0
    bandwidth_floor = 0.0
    sfu_floor = 0.0
    smem_floor = 0.0
    if rep_insts:
        mshr_floor = (
            avg_miss_latency * (mshr_reqs / rep_insts) / config.n_mshrs
        )
        bandwidth_floor = (
            config.dram_service_cycles * config.n_cores * dram_reqs / rep_insts
        )
        if smem_slots:
            # One bank access per cycle through the scratchpad LSU.
            smem_floor = smem_slots / rep_insts
        if sfu_limited and sfu_insts:
            # Each SFU warp-instruction occupies the unit for sfu_service
            # issue slots; non-SFU instructions issue concurrently, so
            # the bound is a pure throughput floor on total CPI:
            # time >= sfu_service * sfu_insts.
            sfu_floor = sfu_service * sfu_insts / rep_insts
    return ContentionResult(
        cpi_mshr_model=cpi_mshr,
        cpi_queue_model=cpi_queue,
        cpi_mshr_floor=mshr_floor,
        cpi_bandwidth_floor=bandwidth_floor,
        per_interval_mshr=per_mshr,
        per_interval_queue=per_queue,
        avg_miss_latency=avg_miss_latency,
        cpi_sfu_model=0.0,
        cpi_sfu_floor=sfu_floor,
        cpi_smem_floor=smem_floor,
    )
