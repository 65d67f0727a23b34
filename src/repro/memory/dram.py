"""DRAM bandwidth queue: a single FCFS server shared by all cores.

The timing oracle charges every DRAM transfer (load fills that missed the
L2, and all write-through store traffic) a slot on the DRAM bus.  The
service time of one cache line is ``line_size / bandwidth`` converted to
core cycles (Eq. 22 of the paper).  Queuing delay emerges naturally from
FCFS ordering — this is the ground truth against which GPUMech's M/D/1
approximation (Sec. IV-B2) is validated.
"""

from __future__ import annotations

from typing import Sequence


class DRAMQueue:
    """FCFS single-server queue with deterministic service time."""

    def __init__(self, service_cycles: float):
        if service_cycles <= 0:
            raise ValueError("service_cycles must be positive")
        self.service_cycles = float(service_cycles)
        self._free_at = 0.0
        self.n_requests = 0
        self.busy_cycles = 0.0
        self.total_queue_delay = 0.0

    def enqueue(self, arrival: float, count: int = 1) -> float:
        """Enqueue ``count`` transfers arriving together at ``arrival``.

        Returns the cycle at which the last transfer completes (queue
        wait + service).  The DRAM array access latency is *not*
        included — the caller adds the configured ``dram_latency`` on
        top.  The float sums grow one transfer at a time, exactly as
        ``count`` single enqueues would grow them.
        """
        arrival = float(arrival)
        service = self.service_cycles
        free_at = self._free_at
        queue_delay = self.total_queue_delay
        busy = self.busy_cycles
        for _ in range(count):
            # max(arrival, free_at) without the call: the same value.
            start = free_at if free_at > arrival else arrival
            free_at = start + service
            queue_delay += start - arrival
            busy += service
        self._free_at = free_at
        self.total_queue_delay = queue_delay
        self.busy_cycles = busy
        self.n_requests += count
        return free_at

    @property
    def free_at(self) -> float:
        """Cycle at which the bus becomes idle."""
        return self._free_at

    def utilization(self, elapsed_cycles: float) -> float:
        """Fraction of elapsed time the bus was busy."""
        if elapsed_cycles <= 0:
            return 0.0
        return min(1.0, self.busy_cycles / elapsed_cycles)

    @property
    def mean_queue_delay(self) -> float:
        """Average per-request queuing delay observed so far."""
        return self.total_queue_delay / self.n_requests if self.n_requests else 0.0


class DRAMSystem:
    """Address-interleaved multi-channel DRAM (extension beyond Table I).

    The aggregate bandwidth is split evenly over ``n_channels`` FCFS
    queues; a line maps to channel ``(line_addr / line_size) % n``.  With
    one channel (the default, matching the paper) this degenerates to a
    single :class:`DRAMQueue`.  More channels keep the same aggregate
    bandwidth but serve each request ``n`` times slower — latency gets
    worse at equal utilisation while burst parallelism improves, the
    classic channel-count trade-off.
    """

    def __init__(self, aggregate_service_cycles: float, n_channels: int,
                 line_size: int):
        if n_channels < 1:
            raise ValueError("n_channels must be >= 1")
        self.n_channels = n_channels
        self.line_size = line_size
        self._shift = line_size.bit_length() - 1
        per_channel_service = aggregate_service_cycles * n_channels
        self.channels = [
            DRAMQueue(per_channel_service) for _ in range(n_channels)
        ]

    def channel_of(self, line_addr: int) -> int:
        """The channel a line address interleaves onto."""
        return (line_addr >> self._shift) % self.n_channels

    def enqueue(self, arrival: float, line_addr: int = 0) -> float:
        """Enqueue a transfer on the line's channel; returns completion."""
        # channel_of, inline: the timing oracle calls this per transfer.
        channel = (line_addr >> self._shift) % self.n_channels
        return self.channels[channel].enqueue(arrival)

    def enqueue_group(self, arrival: float, line_addrs: Sequence[int]) -> None:
        """Enqueue one transfer per line, all arriving at ``arrival``.

        Each channel serves its lines in group order, so its state ends
        as after one ``enqueue`` per line.
        """
        channels = self.channels
        if len(channels) == 1:
            channels[0].enqueue(arrival, len(line_addrs))
            return
        counts = [0] * len(channels)
        shift = self._shift
        n_channels = self.n_channels
        for line_addr in line_addrs:
            counts[(line_addr >> shift) % n_channels] += 1
        for channel, count in zip(channels, counts):
            if count:
                channel.enqueue(arrival, count)

    # Aggregate statistics ----------------------------------------------------

    @property
    def n_requests(self) -> int:
        """Transfers served across all channels."""
        return sum(c.n_requests for c in self.channels)

    @property
    def busy_cycles(self) -> float:
        """Total channel-busy cycles across all channels."""
        return sum(c.busy_cycles for c in self.channels)

    def utilization(self, elapsed_cycles: float) -> float:
        """Mean per-channel busy fraction over the elapsed window."""
        if elapsed_cycles <= 0:
            return 0.0
        return min(
            1.0, self.busy_cycles / (elapsed_cycles * self.n_channels)
        )

    @property
    def mean_queue_delay(self) -> float:
        """Average per-request queuing delay across channels."""
        total = sum(c.total_queue_delay for c in self.channels)
        n = self.n_requests
        return total / n if n else 0.0
