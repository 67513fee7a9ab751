"""A sender/receiver pair whose sending is governed by a congestion controller.

The flow keeps the classic TCP invariant: the amount of unacknowledged data in
flight never exceeds the controller's congestion window.  Feedback is delayed
realistically under the per-hop delay-split convention (see
:mod:`repro.topology.graph`): on a multi-hop route the forward propagation of
every non-terminal hop is incurred *in simulation time* while the chunk sits
in the transit stage between hops, and the ack returns after the **remaining**
return-path delay, so the end-to-end ack still arrives one full path RTT
(plus accumulated queuing) after the packets were sent.  On a one-hop route
nothing is in transit and the entire path RTT is charged at ack time — the
legacy single-link behaviour, bit-for-bit.

Loss notifications follow the same physics: a drop at a *downstream* hop
notifies the sender after the forward delay already incurred plus the return
propagation from the drop hop (:meth:`Flow.record_transit_drop`), while a
drop at the sender's own entry queue — where nothing of the path has been
traversed — is detected a full (smoothed-RTT-estimated) round trip later via
dup-acks from the packets behind it (:meth:`Flow.record_sent`, the legacy
convention the one-hop differential pins keep bit-identical).

Pending notifications are plain tuples — ``(time, packets, rtt,
queuing_delay)`` acks and ``(time, packets)`` losses.  Each tick's
:class:`TickRecord` and :class:`~repro.cc.base.TickFeedback` are named tuples
(read by name downstream) but are built with ``tuple.__new__``, so the
per-tick path builds no dataclasses and runs no generated constructor.
"""

from __future__ import annotations

from collections import deque
from typing import Deque, NamedTuple, Tuple

from repro.cc.base import CongestionController, TickFeedback

__all__ = ["Flow", "TickRecord"]

_INF = float("inf")

# Builds TickRecord/TickFeedback without the named tuples' generated __new__ frame.
_new_tuple = tuple.__new__


class TickRecord(NamedTuple):
    """Everything the flow observed during one simulator tick."""

    time: float
    sent: float
    acked: float
    lost: float
    rtt: float
    queuing_delay: float
    cwnd: float
    inflight: float


class Flow:
    """One congestion-controlled flow traversing the bottleneck link."""

    def __init__(
        self,
        flow_id: int,
        controller: CongestionController,
        start_time: float = 0.0,
        stop_time: float | None = None,
    ) -> None:
        if start_time < 0:
            raise ValueError("start_time must be non-negative")
        if stop_time is not None and stop_time <= start_time:
            raise ValueError("stop_time must exceed start_time")
        self.flow_id = flow_id
        self.controller = controller
        self.start_time = float(start_time)
        self.stop_time = stop_time
        self.inflight = 0.0
        self.min_rtt = _INF
        self.srtt = 0.0
        self.delivery_rate = 0.0
        # (time, packets, rtt, queuing_delay) acks and (time, packets) losses,
        # each deque in notification-time order.
        self._ack_events: Deque[Tuple[float, float, float, float]] = deque()
        self._loss_events: Deque[Tuple[float, float]] = deque()
        self._pacing_credit = 0.0
        # Per-tick accumulators, reset by finish_tick().
        self._tick_sent = self._tick_acked = self._tick_lost = 0.0
        self._tick_rtt = self._tick_delay = self._tick_ack_weight = 0.0
        # Lifetime counters.
        self.total_sent = 0.0
        self.total_acked = 0.0
        self.total_lost = 0.0

    # ------------------------------------------------------------------ #
    # Lifecycle
    # ------------------------------------------------------------------ #
    def is_active(self, now: float) -> bool:
        if now + 1e-12 < self.start_time:
            return False
        if self.stop_time is not None and now >= self.stop_time:
            return False
        return True

    def reset(self) -> None:
        self.controller.reset()
        self.inflight = 0.0
        self.min_rtt = _INF
        self.srtt = 0.0
        self.delivery_rate = 0.0
        self._ack_events.clear()
        self._loss_events.clear()
        self._pacing_credit = 0.0
        self.total_sent = 0.0
        self.total_acked = 0.0
        self.total_lost = 0.0
        self._reset_tick()

    def _reset_tick(self) -> None:
        self._tick_sent = self._tick_acked = self._tick_lost = 0.0
        self._tick_rtt = self._tick_delay = self._tick_ack_weight = 0.0

    # ------------------------------------------------------------------ #
    # Sending side
    # ------------------------------------------------------------------ #
    def send_allowance(self, now: float, dt: float, prop_rtt: float) -> float:
        """Packets the flow may emit this tick (window- and pacing-limited)."""
        if not self.is_active(now):
            return 0.0
        # max/min spelled as comparisons with the builtins' tie semantics.
        controller = self.controller
        window_room = controller.cwnd - self.inflight
        if not window_room > 0.0:
            window_room = 0.0
        rate = controller.pacing_rate()
        if rate is None:
            # Window-limited senders still pace a window per RTT to avoid
            # emitting the whole window in a single tick.
            if self.srtt > 0:
                rtt_estimate = self.srtt
            elif self.min_rtt < _INF:
                rtt_estimate = self.min_rtt
            else:
                rtt_estimate = prop_rtt
            rate = controller.cwnd / (1e-3 if rtt_estimate < 1e-3 else rtt_estimate)
        cap = rate * dt * 4
        if cap < 1.0:
            cap = 1.0
        credit = self._pacing_credit + rate * dt
        if cap < credit:
            credit = cap
        self._pacing_credit = credit
        allowance = credit if credit < window_room else window_room
        return allowance if allowance > 0.0 else 0.0

    def record_sent(self, accepted: float, tail_dropped: float, random_lost: float, now: float, prop_rtt: float) -> None:
        """Account for packets handed to the link this tick."""
        sent = accepted + tail_dropped + random_lost
        if sent <= 0:
            return
        credit = self._pacing_credit - sent
        self._pacing_credit = credit if credit > 0.0 else 0.0
        self.inflight += sent
        self._tick_sent += sent
        self.total_sent += sent
        lost = tail_dropped + random_lost
        if lost > 0:
            # Entry-queue drop: nothing of the path has been traversed, so the
            # sender only learns about it a full round trip later via dup-acks
            # from the packets behind it — estimated by srtt (the one-hop
            # differential pins keep this convention bit-identical).  Drops at
            # downstream hops go through record_transit_drop instead, which
            # charges the actual return delay from the drop hop.
            rtt_estimate = self.srtt if self.srtt > 0 else prop_rtt
            self._loss_events.append((now + rtt_estimate, lost))

    def record_transit_drop(self, packets: float, now: float, notify_delay: float) -> None:
        """Packets of this flow were dropped at a downstream hop of its path.

        The packets were already counted as sent (and in flight) when they
        entered the first hop, and the forward propagation up to the drop hop
        has already elapsed in simulation time (the transit stage).  The loss
        notification therefore only has the *return* trip from the drop hop
        left to travel: ``notify_delay`` is the summed return-delay shares of
        the hops the packets actually traversed — not the legacy full-``srtt``
        guess, which over-delayed drops near the sender and under-located
        drops near the receiver.
        """
        if packets <= 0:
            return
        self._loss_events.append((now + notify_delay, packets))

    def record_delivery(self, packets: float, queuing_delay: float, now: float,
                        prop_rtt: float, ack_delay: float | None = None) -> None:
        """A chunk of this flow left its terminal hop; schedule the ack.

        ``prop_rtt`` is the full path RTT (the propagation component of the
        RTT sample).  ``ack_delay`` is the *remaining* return-path delay under
        the delay-split convention — the path RTT minus the forward shares
        already incurred in transit — so the ack arrives exactly one path RTT
        (plus queuing) after the packets were sent regardless of hop count.
        One-hop callers (and the legacy single-link simulator) omit it: with
        no transit stage the whole path RTT is charged here, at ack time.
        """
        if packets <= 0:
            return
        rtt_sample = queuing_delay + prop_rtt
        if ack_delay is None:
            ack_delay = prop_rtt
        self._ack_events.append((now + ack_delay, packets, rtt_sample, queuing_delay))

    # ------------------------------------------------------------------ #
    # Conservation accounting
    # ------------------------------------------------------------------ #
    @property
    def pending_ack_packets(self) -> float:
        """Packets delivered end-to-end whose ack is still on the return path."""
        return sum(event[1] for event in self._ack_events)

    @property
    def pending_loss_packets(self) -> float:
        """Packets dropped whose loss notification has not reached the sender."""
        return sum(event[1] for event in self._loss_events)

    @property
    def pending_event_packets(self) -> float:
        """Packets in either notification queue (ack or loss still in flight)."""
        return self.pending_ack_packets + self.pending_loss_packets

    # ------------------------------------------------------------------ #
    # Receiving side (processed each tick)
    # ------------------------------------------------------------------ #
    def process_events(self, now: float, dt: float) -> None:
        """Consume ack/loss events due by ``now`` and update RTT estimators."""
        limit = now + 1e-12
        ack_events = self._ack_events
        if ack_events and ack_events[0][0] <= limit:
            inflight = self.inflight
            min_rtt = self.min_rtt
            srtt = self.srtt
            tick_acked = self._tick_acked
            tick_rtt = self._tick_rtt
            tick_delay = self._tick_delay
            tick_weight = self._tick_ack_weight
            total_acked = self.total_acked
            while ack_events and ack_events[0][0] <= limit:
                _, packets, rtt, queuing_delay = ack_events.popleft()
                inflight -= packets
                if not inflight > 0.0:
                    inflight = 0.0
                total_acked += packets
                tick_acked += packets
                tick_rtt += rtt * packets
                tick_delay += queuing_delay * packets
                tick_weight += packets
                if rtt < min_rtt:
                    min_rtt = rtt
                if srtt == 0.0:
                    srtt = rtt
                else:
                    srtt = 0.875 * srtt + 0.125 * rtt
            self.inflight = inflight
            self.min_rtt = min_rtt
            self.srtt = srtt
            self._tick_acked = tick_acked
            self._tick_rtt = tick_rtt
            self._tick_delay = tick_delay
            self._tick_ack_weight = tick_weight
            self.total_acked = total_acked
        loss_events = self._loss_events
        while loss_events and loss_events[0][0] <= limit:
            _, packets = loss_events.popleft()
            inflight = self.inflight - packets
            self.inflight = inflight if inflight > 0.0 else 0.0
            self.total_lost += packets
            self._tick_lost += packets
        # Exponentially smoothed delivery (ack) rate in packets/second.
        instant_rate = self._tick_acked / dt if dt > 0 else 0.0
        alpha = 0.3
        self.delivery_rate = (1 - alpha) * self.delivery_rate + alpha * instant_rate

    def finish_tick(self, now: float, dt: float) -> TickRecord:
        """Build feedback, update the controller, and return the tick record.

        Both named tuples are built by ``tuple.__new__`` from every field in
        order, the cheapest form on this path.
        """
        weight = self._tick_ack_weight
        if weight > 0:
            rtt = self._tick_rtt / weight
            delay = self._tick_delay / weight
        else:
            rtt = 0.0
            delay = 0.0
        acked = self._tick_acked
        lost = self._tick_lost
        inflight = self.inflight
        controller = self.controller
        if self.is_active(now):
            min_rtt = self.min_rtt
            controller.on_tick(_new_tuple(TickFeedback, (
                now, dt, acked, lost, rtt, min_rtt if min_rtt < _INF else 0.0, delay,
                inflight, self.delivery_rate)))
        record = _new_tuple(TickRecord, (now, self._tick_sent, acked, lost, rtt, delay,
                                         controller.cwnd, inflight))
        self._tick_sent = self._tick_acked = self._tick_lost = 0.0
        self._tick_rtt = self._tick_delay = self._tick_ack_weight = 0.0
        return record
