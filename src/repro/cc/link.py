"""Bottleneck link with a finite FIFO queue driven by a bandwidth trace.

The link is a fluid model: packet amounts are real numbers, the queue is a
FIFO of (flow, amount, enqueue-time) chunks, and every tick the link drains up
to ``capacity(t) * dt`` packets.  Packets that arrive when the buffer is full
are dropped (tail drop); an optional random loss rate models non-congestion
losses on wide-area paths — deterministically (an exact ``rate`` fraction of
every arrival, the historical fluid behaviour) or, with
``stochastic_loss=True``, by binomial thinning at whole-packet granularity
drawn from the link's seeded RNG, so repeated runs vary per seed but remain
bit-reproducible for a given seed.

Queued chunks are mutable ``[flow_id, packets, enqueue_time, carried_delay]``
lists and delivered chunks are plain ``(flow_id, packets, queuing_delay)``
tuples, so the drain loop builds no named tuples or dataclasses.  There is
one drain body, :meth:`BottleneckLink.drain_at`, which takes the tick's capacity
as an argument: the network simulator passes it from its precomputed
per-hop capacity schedule, and :meth:`BottleneckLink.drain` looks it up from
the trace.

Capacity left over when a drain empties the FIFO is discarded, so an empty
FIFO carries no drain credit: only a drain sets the credit, and it zeroes it
whenever the FIFO empties (``reset`` zeroes both).  Draining an empty FIFO is
therefore a no-op, and the network simulator skips it.
"""

from __future__ import annotations

from collections import deque
from typing import Deque, Dict, List, Tuple

import numpy as np

from repro.traces.trace import BandwidthTrace

__all__ = ["BottleneckLink"]


class BottleneckLink:
    """A single shared bottleneck: trace-driven capacity, finite FIFO buffer."""

    def __init__(
        self,
        trace: BandwidthTrace,
        min_rtt: float,
        buffer_bdp: float = 1.0,
        buffer_packets: float | None = None,
        random_loss_rate: float = 0.0,
        stochastic_loss: bool = False,
        seed: int | None = None,
    ) -> None:
        if min_rtt <= 0:
            raise ValueError("min_rtt must be positive")
        if buffer_bdp <= 0 and buffer_packets is None:
            raise ValueError("buffer must be positive")
        if not 0.0 <= random_loss_rate < 1.0:
            raise ValueError("random_loss_rate must be in [0, 1)")
        self.trace = trace
        self.min_rtt = float(min_rtt)
        self.buffer_bdp = float(buffer_bdp)
        if buffer_packets is not None:
            self.buffer_packets = float(buffer_packets)
        else:
            self.buffer_packets = max(2.0, buffer_bdp * trace.bdp_packets(min_rtt))
        self.random_loss_rate = float(random_loss_rate)
        self.stochastic_loss = bool(stochastic_loss)
        #: The seed the loss RNG was created from (None = OS entropy); kept so
        #: scenario samplers can report per-hop seeds without re-deriving them.
        self.seed = seed
        self._rng = np.random.default_rng(seed)
        # FIFO of [flow_id, packets, enqueue_time, carried_delay] lists; the
        # packets entry shrinks in place as the head chunk drains.
        self._queue: Deque[list] = deque()
        self._occupancy = 0.0
        self._drain_credit = 0.0
        self.total_enqueued = 0.0
        self.total_dropped = 0.0
        self.total_delivered = 0.0

    # ------------------------------------------------------------------ #
    # Queries
    # ------------------------------------------------------------------ #
    @property
    def queue_occupancy(self) -> float:
        """Packets currently sitting in the bottleneck buffer."""
        return self._occupancy

    def capacity_pps(self, now: float) -> float:
        """Instantaneous drain capacity in packets/second."""
        return self.trace.capacity_pps(now)

    def expected_queuing_delay(self, now: float) -> float:
        """Occupancy divided by current capacity (seconds); 0 when capacity is 0."""
        capacity = self.capacity_pps(now)
        if capacity <= 0:
            return 0.0 if self._occupancy == 0 else float("inf")
        return self._occupancy / capacity

    def reset(self) -> None:
        self._queue.clear()
        self._occupancy = 0.0
        self._drain_credit = 0.0
        self.total_enqueued = 0.0
        self.total_dropped = 0.0
        self.total_delivered = 0.0

    # ------------------------------------------------------------------ #
    # Dynamics
    # ------------------------------------------------------------------ #
    def _sample_random_loss(self, packets: float) -> float:
        """Amount of an arriving fluid chunk removed by the random-loss process.

        Deterministic mode (the default) thins every arrival by exactly
        ``random_loss_rate``.  Stochastic mode draws binomial losses over the
        chunk's whole packets (plus a Bernoulli trial for the fractional
        remainder) from the link's seeded RNG — same expectation, per-seed
        variability.
        """
        if not self.stochastic_loss:
            return packets * self.random_loss_rate
        whole = int(packets)
        lost = float(self._rng.binomial(whole, self.random_loss_rate)) if whole > 0 else 0.0
        fraction = packets - whole
        if fraction > 0 and self._rng.random() < self.random_loss_rate:
            lost += fraction
        return lost

    def enqueue(
        self, flow_id: int, packets: float, now: float, carried_delay: float = 0.0
    ) -> Tuple[float, float, float]:
        """Offer ``packets`` from ``flow_id`` to the queue.

        ``carried_delay`` is the queuing delay the packets already accumulated
        on upstream hops of a multi-hop path; it is added to this queue's own
        waiting time when the packets are eventually drained.  Single-link
        callers leave it at 0.0, which reproduces the legacy behaviour
        exactly.

        Returns ``(accepted, tail_dropped, random_lost)``: the amount admitted
        to the buffer, the amount dropped because the buffer was full, and the
        amount removed by the random-loss process before reaching the queue.
        """
        if packets < 0:
            raise ValueError("packets must be non-negative")
        if packets == 0:
            return 0.0, 0.0, 0.0
        random_lost = 0.0
        if self.random_loss_rate > 0:
            random_lost = self._sample_random_loss(packets)
            packets -= random_lost
        free = self.buffer_packets - self._occupancy
        if not free > 0.0:
            free = 0.0
        accepted = free if free < packets else packets
        dropped = packets - accepted
        if accepted > 0:
            self._queue.append([flow_id, accepted, now, carried_delay])
            self._occupancy += accepted
        self.total_enqueued += accepted
        self.total_dropped += dropped + random_lost
        return accepted, dropped, random_lost

    def drain(self, now: float, dt: float) -> List[Tuple[int, float, float]]:
        """Dequeue up to ``capacity(now) * dt`` packets (FIFO) and return them."""
        return self.drain_at(self.capacity_pps(now), now, dt)

    def drain_at(self, capacity_pps: float, now: float, dt: float) -> List[Tuple[int, float, float]]:
        """Dequeue up to ``capacity_pps * dt`` packets (FIFO) and return them.

        Each delivered chunk is a ``(flow_id, packets, queuing_delay)`` tuple;
        the delay includes the ``carried_delay`` of upstream hops.
        """
        if dt <= 0:
            raise ValueError("dt must be positive")
        budget = capacity_pps * dt + self._drain_credit
        queue = self._queue
        delivered: List[Tuple[int, float, float]] = []
        occupancy = self._occupancy
        total_delivered = self.total_delivered
        while budget > 1e-12 and queue:
            chunk = queue[0]
            flow_id, packets, enqueue_time, carried_delay = chunk
            take = budget if budget < packets else packets
            waited = now - enqueue_time
            delivered.append((flow_id, take,
                              carried_delay + (waited if waited > 0.0 else 0.0)))
            occupancy -= take
            if not occupancy > 0.0:
                occupancy = 0.0
            budget -= take
            total_delivered += take
            packets -= take
            if packets <= 1e-12:
                queue.popleft()
            else:
                chunk[1] = packets
        self._occupancy = occupancy
        self.total_delivered = total_delivered
        # Unused capacity does not carry over when the queue is empty (a link
        # cannot save transmission opportunities for later).
        self._drain_credit = budget if queue else 0.0
        return delivered

    def per_flow_occupancy(self) -> Dict[int, float]:
        """Packets in the queue broken down by flow (for fairness diagnostics)."""
        occupancy: Dict[int, float] = {}
        for flow_id, packets, _, _ in self._queue:
            occupancy[flow_id] = occupancy.get(flow_id, 0.0) + packets
        return occupancy
