"""In-flight transit between hops: the per-link one-way propagation stage.

A chunk leaving hop *i* of a multi-hop route does not appear in hop *i+1*'s
FIFO at the same timestamp — it spends hop *i*'s forward propagation delay
"on the wire" first.  :class:`TransitQueue` models that stage: the network
simulator puts every forwarded chunk into transit with an eligibility time
(``departure + forward delay share``), and flushes the chunks whose time has
come into the downstream FIFO at the start of each tick's drain pass.

The delay-split convention (documented in :mod:`repro.topology.graph`): a
hop's ``delay`` is its round-trip contribution to the path RTT, so its
*forward* share — the transit time charged when a chunk is forwarded out of
it — is ``delay / 2``.  The terminal hop never forwards, so a one-hop route
never enters transit and keeps the legacy all-at-ack-time accounting
bit-for-bit (pinned by ``tests/test_topology_differential.py``).

Ordering is deterministic: chunks are released in ``(eligible_time, sequence
number)`` order, where the sequence number increments in send order — itself
deterministic because hops drain in topological order tick by tick.  Chunks
of one flow therefore stay FIFO across the transit stage (same source hop ⇒
same forward share ⇒ monotone eligibility times), and interleavings at join
hops (``fan_in``) are reproducible run to run.

In-transit packets are a first-class conservation bucket:
:meth:`TransitQueue.occupancy`, :meth:`TransitQueue.per_link_occupancy` and
:meth:`TransitQueue.per_flow_occupancy` let the simulator (and the invariant
suites) account for every packet that has left one queue but not yet reached
the next: ``sent == acked + lost + queued + in-transit + notifications
in flight`` at every tick.

Chunks are plain ``(flow_id, packets, queuing_delay, eligible_time)`` tuples
held in ``(eligible_time, seq, chunk)`` heap entries, so the hot path pushes
and pops tuples and builds no named tuple or dataclass per chunk; readers
unpack them positionally (``queuing_delay`` is the queuing accumulated on
upstream hops, ``eligible_time`` when the chunk reaches the downstream FIFO).
"""

from __future__ import annotations

import heapq
from typing import Dict, List, Optional, Tuple

from repro.telemetry.events import EventTrace

__all__ = ["TransitQueue"]

_EPS = 1e-12

#: ``(flow_id, packets, queuing_delay, eligible_time)``.
Chunk = Tuple[int, float, float, float]


class TransitQueue:
    """Per-destination-hop min-heaps of in-flight chunks.

    One instance serves a whole topology: chunks are keyed by the name of the
    hop they are travelling *towards*, so fork/join DAGs work unchanged — a
    join hop simply receives chunks from several upstream heaps' worth of
    senders, merged in deterministic ``(eligible_time, seq)`` order.

    When an :class:`~repro.telemetry.events.EventTrace` is attached the queue
    tracks per-destination in-flight occupancy and emits a
    ``transit_high_water`` event whenever a destination's occupancy clears its
    last emitted mark by 5% (the multiplicative cap keeps the event count
    logarithmic in the peak while staying fully deterministic).
    """

    def __init__(self, telemetry: Optional[EventTrace] = None) -> None:
        self._pending: Dict[str, List[Tuple[float, int, Chunk]]] = {}
        self._seq = 0
        self._occupancy = 0.0
        self._telemetry = telemetry
        # High-water tracking is telemetry-only state: per-dest occupancy and
        # the last emitted mark per destination.
        self._dest_occupancy: Dict[str, float] = {}
        self._high_water: Dict[str, float] = {}

    # ------------------------------------------------------------------ #
    def send(self, dest: str, flow_id: int, packets: float, queuing_delay: float,
             eligible_time: float) -> None:
        """Put a forwarded chunk on the wire towards hop ``dest``."""
        if packets <= 0:
            return
        heapq.heappush(self._pending.setdefault(dest, []),
                       (eligible_time, self._seq,
                        (flow_id, packets, queuing_delay, eligible_time)))
        self._seq += 1
        self._occupancy += packets
        tel = self._telemetry
        if tel is not None:
            occupancy = self._dest_occupancy.get(dest, 0.0) + packets
            self._dest_occupancy[dest] = occupancy
            last_mark = self._high_water.get(dest, 0.0)
            if occupancy > last_mark * 1.05:
                self._high_water[dest] = occupancy
                tel.emit("transit_high_water", hop=dest, packets=occupancy)

    def arrivals(self, dest: str, now: float) -> List[Chunk]:
        """Pop every chunk destined to ``dest`` whose transit time has elapsed."""
        heap = self._pending.get(dest)
        if not heap:
            return []
        due: List[Chunk] = []
        limit = now + _EPS
        occupancy = self._occupancy
        heappop = heapq.heappop
        while heap and heap[0][0] <= limit:
            chunk = heappop(heap)[2]
            due.append(chunk)
            occupancy -= chunk[1]
        self._occupancy = occupancy
        if due and self._telemetry is not None:
            popped = sum(chunk[1] for chunk in due)
            self._dest_occupancy[dest] = max(
                0.0, self._dest_occupancy.get(dest, 0.0) - popped)
        return due

    # ------------------------------------------------------------------ #
    # Conservation accounting
    # ------------------------------------------------------------------ #
    @property
    def occupancy(self) -> float:
        """Total packets currently in transit between hops."""
        return max(0.0, self._occupancy)

    def per_link_occupancy(self) -> Dict[str, float]:
        """In-transit packets keyed by the hop they are travelling towards."""
        return {dest: sum(entry[2][1] for entry in heap)
                for dest, heap in self._pending.items() if heap}

    def per_flow_occupancy(self) -> Dict[int, float]:
        """In-transit packets broken down by flow (conservation diagnostics)."""
        occupancy: Dict[int, float] = {}
        for heap in self._pending.values():
            for _, _, (flow_id, packets, _, _) in heap:
                occupancy[flow_id] = occupancy.get(flow_id, 0.0) + packets
        return occupancy

    def reset(self) -> None:
        self._pending.clear()
        self._occupancy = 0.0
        self._dest_occupancy.clear()
        self._high_water.clear()
