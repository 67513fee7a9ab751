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

The simulator settles each flow once per tick: :meth:`Flow.finish_tick`
consumes the ack and loss events due by the end of the tick, updates the
RTT estimators and the delivery rate, hands an active flow's controller its
feedback and returns the tick's record.  :meth:`Flow.send_allowance` and
``finish_tick`` test the flow's lifetime inline (the test
:meth:`Flow.is_active` spells out) and read the controller's ``cwnd`` once.
"""

from __future__ import annotations

from collections import deque
from typing import Deque, NamedTuple, Tuple

from repro.cc.base import CongestionController, TickFeedback

__all__ = ["Flow", "TickRecord"]

_INF = float("inf")

#: Weight of the newest tick in the smoothed delivery rate.
_RATE_ALPHA = 0.3

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
        # Packets sent this tick, reset by finish_tick().
        self._tick_sent = 0.0
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
        self._tick_sent = 0.0

    # ------------------------------------------------------------------ #
    # Sending side
    # ------------------------------------------------------------------ #
    def send_allowance(self, now: float, dt: float, prop_rtt: float) -> float:
        """Packets the flow may emit this tick (window- and pacing-limited)."""
        stop_time = self.stop_time
        if now + 1e-12 < self.start_time or (stop_time is not None and now >= stop_time):
            return 0.0
        # max/min spelled as comparisons with the builtins' tie semantics.
        controller = self.controller
        cwnd = controller.cwnd
        window_room = cwnd - self.inflight
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
            rate = cwnd / (1e-3 if rtt_estimate < 1e-3 else rtt_estimate)
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
    # Receiving side: one settle per tick
    # ------------------------------------------------------------------ #
    def finish_tick(self, now: float, dt: float) -> TickRecord:
        """Settle the tick: consume due events, update the controller, return the record.

        Ack events due by ``now`` update the RTT estimators, then due loss
        events, then the smoothed delivery rate; an active flow's controller
        then sees the tick's feedback.  The tick's ack sums start from 0.0 in
        this call (the acked packets are also the RTT weights), so only
        ``_tick_sent`` carries state between ticks.  Both named tuples are
        built by ``tuple.__new__`` from every field in order, the cheapest
        form on this path.
        """
        limit = now + 1e-12
        acked = lost = rtt_weighted = delay_weighted = 0.0
        inflight = self.inflight
        ack_events = self._ack_events
        if ack_events and ack_events[0][0] <= limit:
            min_rtt = self.min_rtt
            srtt = self.srtt
            total_acked = self.total_acked
            while ack_events and ack_events[0][0] <= limit:
                _, packets, rtt, queuing_delay = ack_events.popleft()
                inflight -= packets
                if not inflight > 0.0:
                    inflight = 0.0
                total_acked += packets
                acked += packets
                rtt_weighted += rtt * packets
                delay_weighted += queuing_delay * packets
                if rtt < min_rtt:
                    min_rtt = rtt
                if srtt == 0.0:
                    srtt = rtt
                else:
                    srtt = 0.875 * srtt + 0.125 * rtt
            self.min_rtt = min_rtt
            self.srtt = srtt
            self.total_acked = total_acked
        loss_events = self._loss_events
        if loss_events and loss_events[0][0] <= limit:
            total_lost = self.total_lost
            while loss_events and loss_events[0][0] <= limit:
                packets = loss_events.popleft()[1]
                inflight -= packets
                if not inflight > 0.0:
                    inflight = 0.0
                total_lost += packets
                lost += packets
            self.total_lost = total_lost
        self.inflight = inflight
        # Exponentially smoothed delivery (ack) rate in packets/second.
        instant_rate = acked / dt if dt > 0 else 0.0
        self.delivery_rate = delivery_rate = (
            (1 - _RATE_ALPHA) * self.delivery_rate + _RATE_ALPHA * instant_rate)
        if acked > 0:
            rtt = rtt_weighted / acked
            delay = delay_weighted / acked
        else:
            rtt = 0.0
            delay = 0.0
        controller = self.controller
        stop_time = self.stop_time
        if not (now + 1e-12 < self.start_time or (stop_time is not None and now >= stop_time)):
            min_rtt = self.min_rtt
            controller.on_tick(_new_tuple(TickFeedback, (
                now, dt, acked, lost, rtt, min_rtt if min_rtt < _INF else 0.0, delay,
                inflight, delivery_rate)))
        record = _new_tuple(TickRecord, (now, self._tick_sent, acked, lost, rtt, delay,
                                         controller.cwnd, inflight))
        self._tick_sent = 0.0
        return record
