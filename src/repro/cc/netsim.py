"""Time-stepped network simulator driving a topology of bottleneck hops.

This is the Mahimahi substitute: it advances simulation time in fixed ticks,
moves packets from every active flow onto the first hop of its route, drains
every hop at its trace-driven capacity in topological order, and records
per-tick statistics.  Routes may fork/join over a DAG, every chunk following
its own flow's route.

Propagation follows the per-hop delay-split convention (see
:mod:`repro.topology.graph`): a chunk leaving hop *i* enters the
:class:`~repro.topology.transit.TransitQueue` and only becomes eligible for
hop *i+1*'s FIFO after hop *i*'s forward delay share (``delay / 2``), so a
chunk can no longer traverse a whole multi-hop DAG inside one tick.  The
terminal hop's delivery schedules the ack after the *remaining* return-path
delay, so the ack still arrives one full path RTT (plus accumulated queuing)
after the send — and a one-hop route, which never enters transit, charges
everything at ack time exactly like the legacy single-link simulator.

The network can be a full :class:`repro.topology.graph.Topology` — multi-hop
chains, parking lots, dumbbells, fan-in/tree/shared-segment DAGs, with
declarative cross-traffic sources — or a bare
:class:`repro.cc.link.BottleneckLink`, which is wrapped as a one-hop
topology and reproduces the legacy single-link trajectory exactly (pinned by
``tests/test_topology_differential.py``).  Flows may start and stop mid-run
(:class:`repro.cc.flow.Flow` lifetimes); ``SimulationResult.lifetimes``
records each flow's active window.

Two consumption styles are supported:

* ``run(duration)`` — run the whole experiment and return a
  :class:`SimulationResult` (used by the evaluation harness).
* ``tick()`` / ``monitor_report(flow_id)`` — step manually; used by
  :class:`repro.orca.env.OrcaNetworkEnv`, whose RL agent interacts with the
  network once per monitor interval.  The tick keeps no monitor
  accumulators: a report sums the flow's tick records since the previous
  report when it is asked for.

Both styles share one lean tick loop.  Every hop's drain capacity (pps) and
the bottleneck's logged capacity (Mbps) come from a capacity schedule
precomputed :data:`SCHEDULE_BLOCK` ticks at a time, on tick times accumulated
with the same ``now += dt`` as :meth:`NetworkSimulator.tick`, so each value is
bit-identical to a per-tick trace lookup.  Delivered and in-transit chunks
and ack/loss notifications are plain tuples that the loop unpacks
positionally; tick records are named tuples built without their generated
constructor (see :meth:`repro.cc.flow.Flow.finish_tick`).

Routes are fixed for a simulator's lifetime, so the constructor resolves
them once into a *tick plan* (``NetworkSimulator._build_plan``): one entry
per flow (the flow, its id, route RTT, entry queue, entry-hop name and record
list), one per cross source, and one per hop in drain order (its name, queue
and FIFO, successor, ack and drop-notify maps, forward half-delay, and a
``fed`` flag).  The tick reads only the plan, and skips two kinds of work
that cannot change anything:

* a hop that is not ``fed`` — no flow or cross-traffic route forwards into
  it — is never polled for transit arrivals: only forwarding puts chunks in
  transit, always towards the route's next hop, so nothing can be addressed
  to it;
* a hop whose FIFO is empty is not drained: an empty FIFO carries no drain
  credit (only a drain sets the credit, and it zeroes it whenever the FIFO
  empties), so such a drain would deliver nothing and leave the occupancy,
  the totals and the zero credit as they were.

Each flow then settles its tick in one :meth:`~repro.cc.flow.Flow.finish_tick`
call, whose record is appended straight to the flow's record list.
``run()`` still calls :meth:`NetworkSimulator.tick` once per tick, so span
profilers that wrap ``tick`` and the :class:`TickProfiler` phases see every
tick.

Observability: an optional :class:`~repro.telemetry.events.EventTrace`
records structured, sim-time-stamped events from the tick loop — per-hop
queue/transit drops, flow arrival/departure transitions, and conservation
snapshots every ``stride`` ticks — and an optional
:class:`~repro.telemetry.profiler.TickProfiler` times the tick phases in
wall-clock, reported separately so determinism is untouched.  Both default to
``None`` and cost the hot path only a few ``is not None`` checks per tick
(the chain(3) tick-rate bench pins the disabled overhead).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from time import perf_counter
from typing import Dict, List, NamedTuple, Optional, Sequence, Tuple, Union

import numpy as np

from repro.cc.flow import Flow, TickRecord
from repro.cc.link import BottleneckLink
from repro.telemetry.events import EventTrace
from repro.telemetry.profiler import TickProfiler
from repro.traces.trace import mbps_to_pps

__all__ = ["NetworkSimulator", "FlowStats", "MonitorReport", "SimulationResult", "interval_report"]

DEFAULT_TICK = 0.01

#: Position of each TickRecord field (the FlowStats column rows).
_RECORD_FIELD = {name: index for index, name in enumerate(TickRecord._fields)}

#: Ticks per precomputed capacity block (see NetworkSimulator._fill_schedule).
SCHEDULE_BLOCK = 512


@dataclass
class FlowStats:
    """Per-tick time series collected for one flow.

    ``records`` is append-only.  Each column view is converted from the
    records once (by ``TickRecord`` field position) and cached until more
    records arrive; every access returns a fresh copy.  Converting all
    records to one 2-D array instead measured slower than the per-column
    conversions a summary needs, because numpy walks each record as a nested
    sequence.
    """

    flow_id: int
    records: List[TickRecord] = field(default_factory=list)
    _columns: Dict[str, np.ndarray] = field(default_factory=dict, init=False, repr=False,
                                            compare=False)
    _columns_len: int = field(default=0, init=False, repr=False, compare=False)

    # Convenience array views -------------------------------------------------
    def _column(self, name: str) -> np.ndarray:
        if self._columns_len != len(self.records):
            self._columns = {}
            self._columns_len = len(self.records)
        column = self._columns.get(name)
        if column is None:
            index = _RECORD_FIELD[name]
            column = np.array([record[index] for record in self.records], dtype=np.float64)
            self._columns[name] = column
        return column.copy()

    @property
    def times(self) -> np.ndarray:
        return self._column("time")

    @property
    def acked(self) -> np.ndarray:
        return self._column("acked")

    @property
    def sent(self) -> np.ndarray:
        return self._column("sent")

    @property
    def lost(self) -> np.ndarray:
        return self._column("lost")

    @property
    def rtt(self) -> np.ndarray:
        return self._column("rtt")

    @property
    def queuing_delay(self) -> np.ndarray:
        return self._column("queuing_delay")

    @property
    def cwnd(self) -> np.ndarray:
        return self._column("cwnd")

    @property
    def inflight(self) -> np.ndarray:
        return self._column("inflight")


class MonitorReport(NamedTuple):
    """Aggregated statistics over one monitor interval (the paper's Table 1)."""

    throughput_pps: float      # thr — average delivery rate over the interval
    loss_rate: float           # l — lost / (lost + acked)
    avg_queuing_delay: float   # delay — packet-weighted average queuing delay (s)
    n_acks: float              # n — number of (fluid) acked packets
    interval: float            # m — time since the previous report (s)
    srtt: float                # smoothed RTT (s)
    min_rtt: float             # minimum RTT observed so far (s)
    avg_rtt: float             # packet-weighted average RTT over the interval (s)
    cwnd: float                # controller window at the end of the interval


def interval_report(ticks: Sequence, start: float, now: float, floor: float, srtt: Optional[float],
                    min_rtt: float, cwnd: float) -> MonitorReport:
    """The report of one monitor interval's ``TickRecord`` or ``TickFeedback`` tuples.

    Acked, lost, delay·acked and rtt·acked are summed from 0.0 in tick order;
    the interval is ``now - start``, at least ``floor``.  ``srtt=None``
    reports the interval's last non-zero RTT sample (0.0 when it has none)
    as the smoothed RTT, from the same pass: the deployed controller's
    view.  Training passes the flow's EWMA.
    """
    acked = lost = delay_weighted = rtt_weighted = last_rtt = 0.0
    for tick in ticks:
        tick_acked = tick.acked
        rtt = tick.rtt
        acked += tick_acked
        lost += tick.lost
        if tick_acked > 0:
            delay_weighted += tick.queuing_delay * tick_acked
            rtt_weighted += rtt * tick_acked
        if rtt > 0:
            last_rtt = rtt
    if srtt is None:
        srtt = last_rtt
    interval = max(now - start, floor)
    return MonitorReport(
        throughput_pps=acked / interval,
        loss_rate=lost / (acked + lost) if (acked + lost) > 0 else 0.0,
        avg_queuing_delay=delay_weighted / acked if acked > 0 else 0.0,
        n_acks=acked,
        interval=interval,
        srtt=srtt,
        min_rtt=min_rtt,
        avg_rtt=rtt_weighted / acked if acked > 0 else srtt,
        cwnd=cwnd,
    )


@dataclass
class SimulationResult:
    """Outcome of a full simulation run.

    ``lifetimes`` maps each flow id to its ``(start_time, stop_time)`` window
    (``stop_time`` is ``None`` for flows that live to the end of the run) so
    downstream summaries can score churned flows over their *active* window
    only instead of averaging in the silence before arrival / after departure.
    """

    duration: float
    dt: float
    flow_stats: Dict[int, FlowStats]
    capacity_mbps: np.ndarray
    times: np.ndarray
    lifetimes: Dict[int, Tuple[float, Optional[float]]] = field(default_factory=dict)

    def stats_for(self, flow_id: int) -> FlowStats:
        return self.flow_stats[flow_id]

    def lifetime_for(self, flow_id: int) -> Tuple[float, Optional[float]]:
        """The flow's active window; ``(0.0, None)`` when nothing was recorded."""
        return self.lifetimes.get(flow_id, (0.0, None))


class NetworkSimulator:
    """Drives a topology of hops and a set of flows in lockstep.

    ``network`` is either a :class:`~repro.topology.graph.Topology` or a bare
    :class:`~repro.cc.link.BottleneckLink` (wrapped as a one-hop topology for
    backward compatibility).  ``self.link`` always refers to the designated
    bottleneck hop's queue, so callers that only care about the reference
    capacity — the Orca environment, the evaluation metrics — work unchanged
    on any topology.
    """

    def __init__(
        self,
        network: Union[BottleneckLink, "Topology"],
        flows: Sequence[Flow],
        dt: float = DEFAULT_TICK,
        telemetry: Optional[EventTrace] = None,
        profiler: Optional[TickProfiler] = None,
    ) -> None:
        # Imported here (not at module top): repro.topology builds on
        # repro.cc.link / repro.traces, so a module-level import would cycle.
        from repro.topology.graph import Topology

        if dt <= 0:
            raise ValueError("dt must be positive")
        if not flows:
            raise ValueError("at least one flow is required")
        ids = [flow.flow_id for flow in flows]
        if len(set(ids)) != len(ids):
            raise ValueError("flow ids must be unique")
        if any(fid < 0 for fid in ids):
            raise ValueError("flow ids must be non-negative (negative ids are "
                             "reserved for cross traffic)")
        if isinstance(network, Topology):
            self.topology = network
        else:
            self.topology = Topology.single(network)
        #: Back-compat alias: the bottleneck hop's queue (the only hop for
        #: legacy single-link simulations).
        self.link = self.topology.bottleneck.queue

        self.flows: Dict[int, Flow] = {flow.flow_id: flow for flow in flows}
        self.dt = float(dt)
        self.now = 0.0
        self.stats: Dict[int, FlowStats] = {fid: FlowStats(fid) for fid in self.flows}
        self._capacity_log: List[float] = []
        self._time_log: List[float] = []
        # Monitor intervals, keyed by flow id: the index of the first tick
        # record not yet reported, and the time the interval began.  The
        # first interval of a late-starting flow begins at its start time,
        # not at t=0, so churned flows do not dilute their first interval
        # with the silence before they arrived.
        self._report_index: Dict[int, int] = dict.fromkeys(self.flows, 0)
        self._last_report_time: Dict[int, float] = {fid: flow.start_time
                                                    for fid, flow in self.flows.items()}
        self._tick_count = 0

        from repro.topology.transit import TransitQueue

        self._telemetry = telemetry
        self._profiler = profiler
        # Lifecycle edge detection for flow_arrival/flow_departure events
        # (only consulted when telemetry is enabled).
        self._flow_active: Dict[int, bool] = {fid: False for fid in self.flows}
        if telemetry is not None:
            telemetry.emit("topology", **self.topology.describe())

        self._transit = TransitQueue(telemetry=telemetry)
        self._ordered_links = self.topology.ordered_links
        self._bottleneck_trace = self.topology.bottleneck.queue.trace
        # Capacity schedule: per-tick hop capacities (pps, in ordered-link
        # order) and the bottleneck's logged capacity (Mbps), precomputed one
        # block of ticks at a time by _fill_schedule.  The slot starts
        # exhausted so the first tick fills the first block.
        self._hop_traces = [link.queue.trace for link in self._ordered_links]
        self._schedule_times: List[float] = []
        self._schedule_pps: List[Tuple[float, ...]] = []
        self._schedule_mbps: List[float] = []
        self._schedule_slot = SCHEDULE_BLOCK
        self._build_plan()

    def _build_plan(self) -> None:
        """Resolve every route once into the tick plan (see the module docstring).

        ``_flow_plan`` holds one ``(flow, flow_id, route_rtt, entry_queue,
        entry_name, records)`` entry per flow in construction order; the tick
        serves a rotation of it.  ``_cross_plan`` holds one ``(flow_id,
        generator, entry_queue, entry_name, counters)`` entry per cross
        source.  ``_hop_plan`` holds one ``(name, queue, fifo, fed,
        successors, acks, drop_notify, half_delay)`` entry per hop in drain
        order: ``successors`` maps every flow and cross id routed through the
        hop to its next hop's name (None where its route ends), ``acks`` maps
        each flow whose route ends here to ``(flow, route_rtt, ack_delay)``,
        ``drop_notify`` maps each id to the delay a loss notification needs
        from this hop, and ``fed`` says whether any route forwards into it.

        The delay split: forwarding out of a non-terminal hop charges that
        hop's forward share (``delay / 2``) in transit; whatever the forward
        path did not charge is the ack's return delay, so ack time stays one
        full path RTT after the send.  A chunk dropped entering a hop has
        already incurred the forward shares of every hop before it, and the
        loss notification travels back over those hops' (equal) return shares.
        """
        hops = {link.name: (link, {}, {}, {}) for link in self._ordered_links}
        fed = set()
        self._route_rtt: Dict[int, float] = {}

        def resolve(flow_id, route, flow):
            rtt = sum(link.delay for link in route)
            self._route_rtt[flow_id] = rtt
            incurred = 0.0
            for index, link in enumerate(route):
                successor = route[index + 1] if index + 1 < len(route) else None
                _, successors, acks, drop_notify = hops[link.name]
                drop_notify[flow_id] = incurred
                if successor is not None:
                    successors[flow_id] = successor.name
                    fed.add(successor.name)
                    incurred += 0.5 * link.delay
                else:
                    successors[flow_id] = None
                    if flow is not None:
                        acks[flow_id] = (flow, rtt, rtt - incurred)
            return rtt, route[0]

        self._flow_plan: List[Tuple] = []
        for fid, flow in self.flows.items():
            rtt, entry = resolve(fid, self.topology.route_links(fid), flow)
            self._flow_plan.append((flow, fid, rtt, entry.queue, entry.name,
                                    self.stats[fid].records))
        # Doubled, so each tick's rotated service order is one slice.
        self._service_plan = self._flow_plan * 2
        #: Offered / delivered / dropped totals per cross-traffic source id.
        self.cross_stats: Dict[int, Dict[str, float]] = {}
        self._cross_plan: List[Tuple] = []
        for source in self.topology.cross_traffic:
            _, entry = resolve(source.flow_id,
                               [self.topology.links[name] for name in source.path], None)
            counters = {"offered": 0.0, "delivered": 0.0, "dropped": 0.0}
            self.cross_stats[source.flow_id] = counters
            self._cross_plan.append((source.flow_id, source.generator, entry.queue,
                                     entry.name, counters))
        # The FIFO deque is read (never written) here: an empty one means the
        # hop has nothing to drain.  reset() clears it in place.
        self._hop_plan: List[Tuple] = [
            (name, link.queue, link.queue._queue, name in fed, successors, acks, drop_notify,
             0.5 * link.delay)
            for name, (link, successors, acks, drop_notify) in hops.items()]

    # ------------------------------------------------------------------ #
    # Queries
    # ------------------------------------------------------------------ #
    def path_rtt(self, flow_id: int) -> float:
        """End-to-end propagation RTT of ``flow_id``'s route (seconds)."""
        return self._route_rtt[flow_id]

    def hop_occupancy(self) -> Dict[str, float]:
        """Queued packets per hop (for multi-bottleneck diagnostics)."""
        return {link.name: link.queue.queue_occupancy for link in self._ordered_links}

    def in_transit_occupancy(self) -> Dict[str, float]:
        """Packets propagating between hops, keyed by the destination hop.

        The in-transit bucket is disjoint from :meth:`hop_occupancy`: together
        with pending ack/loss notifications they account for every packet a
        flow has sent but not yet had acknowledged or reported lost
        (``sent == acked + lost + queued + in-transit + notifications``).
        """
        return self._transit.per_link_occupancy()

    def in_transit_total(self) -> float:
        """Total packets currently in the transit stage between hops."""
        return self._transit.occupancy

    def in_transit_per_flow(self) -> Dict[int, float]:
        """In-transit packets broken down by flow id (conservation suites)."""
        return self._transit.per_flow_occupancy()

    # ------------------------------------------------------------------ #
    # Core stepping
    # ------------------------------------------------------------------ #
    def _fill_schedule(self, start: float) -> None:
        """Precompute the next :data:`SCHEDULE_BLOCK` ticks' capacities.

        Tick times accumulate ``now += dt`` exactly as :meth:`tick` does, so
        each entry is the capacity the per-tick trace lookup would return.
        Every distinct trace is looked up once per block, however many hops
        share it.
        """
        times = []
        now = start
        dt = self.dt
        for _ in range(SCHEDULE_BLOCK):
            times.append(now)
            now += dt
        grid = np.array(times)
        mbps_by_trace: Dict[int, np.ndarray] = {}
        for trace in (*self._hop_traces, self._bottleneck_trace):
            if id(trace) not in mbps_by_trace:
                mbps_by_trace[id(trace)] = trace.capacity_mbps_many(grid)
        hop_pps = [mbps_to_pps(mbps_by_trace[id(trace)]).tolist() for trace in self._hop_traces]
        self._schedule_times = times
        self._schedule_pps = list(zip(*hop_pps))
        self._schedule_mbps = mbps_by_trace[id(self._bottleneck_trace)].tolist()

    def tick(self) -> Dict[int, TickRecord]:
        """Advance the simulation by one tick and return per-flow records."""
        now = self.now
        dt = self.dt
        tel = self._telemetry
        prof = self._profiler
        if prof is not None:
            prof.begin()
        if tel is not None:
            tel.advance(now)
            # One conservation snapshot every `stride` ticks, taken after the
            # tick completes so the sums include this tick's movements.
            snapshot_due = self._tick_count % tel.stride == 0
            # Flow lifetime edges: a flow whose active window opened or closed
            # since the last tick emits an arrival/departure event.
            for fid, flow in self.flows.items():
                active = flow.is_active(now)
                if active != self._flow_active[fid]:
                    self._flow_active[fid] = active
                    tel.emit("flow_arrival" if active else "flow_departure", flow=fid)

        # This tick's capacities come from the precomputed schedule; a new
        # block starts when the current one runs out (or the clock no longer
        # matches it, should a caller have moved ``now``).
        slot = self._schedule_slot
        if slot == SCHEDULE_BLOCK or self._schedule_times[slot] != now:
            self._fill_schedule(now)
            slot = 0
        self._schedule_slot = slot + 1

        # 0. Cross-traffic sources offer their load at their entry hops (they
        # are already "on the wire", so they contend before this tick's
        # sender packets).
        for source_id, generator, entry, entry_name, counters in self._cross_plan:
            offered = generator.rate_pps(now) * dt
            if offered > 0:
                _, dropped, random_lost = entry.enqueue(source_id, offered, now)
                counters["offered"] += offered
                lost = dropped + random_lost
                counters["dropped"] += lost
                if tel is not None and lost > 0:
                    tel.emit("queue_drop", hop=entry_name, flow=source_id, packets=lost)
        if prof is not None:
            prof.mark("inject")

        # 1. Senders put packets on the first hop of their route.  The service
        # order is rotated every tick so no flow systematically wins the race
        # for the last buffer slot (real links interleave packets from
        # different flows).
        n_flows = len(self._flow_plan)
        offset = self._tick_count % n_flows
        for flow, fid, prop_rtt, entry, entry_name, _ in self._service_plan[
                offset:offset + n_flows]:
            allowance = flow.send_allowance(now, dt, prop_rtt)
            if allowance > 0:
                accepted, dropped, random_lost = entry.enqueue(fid, allowance, now)
                flow.record_sent(accepted, dropped, random_lost, now, prop_rtt)
                if tel is not None and dropped + random_lost > 0:
                    tel.emit("queue_drop", hop=entry_name, flow=fid,
                             packets=dropped + random_lost)
        self._tick_count += 1
        if prof is not None:
            prof.mark("enqueue")

        # 2. Every hop drains at its trace capacity in upstream→downstream
        # order.  Before a fed hop drains, the transit chunks whose forward
        # propagation has elapsed enter its FIFO (possibly being dropped at a
        # full buffer — the loss notification then needs only the return trip
        # from this hop).  Chunks leaving a non-terminal hop go back into
        # transit towards their route's next hop after this hop's forward
        # delay share; chunks leaving their terminal hop turn into acks after
        # the remaining return-path delay, so end-to-end ack time is the
        # summed path RTT plus accumulated queuing — unchanged.  A hop no
        # route forwards into is never polled, and a hop with an empty FIFO
        # is not drained (both are no-ops; see the module docstring).
        flows = self.flows
        transit = self._transit
        cross_stats = self.cross_stats
        for (name, queue, fifo, fed, successors, acks, drop_notify, half_delay), capacity in zip(
                self._hop_plan, self._schedule_pps[slot]):
            if fed:
                if prof is not None:
                    t0 = perf_counter()
                    arriving_chunks = transit.arrivals(name, now)
                    prof.add("transit", perf_counter() - t0)
                else:
                    arriving_chunks = transit.arrivals(name, now)
                for fid, packets, carried_delay, _ in arriving_chunks:
                    _, dropped, random_lost = queue.enqueue(
                        fid, packets, now, carried_delay=carried_delay)
                    lost = dropped + random_lost
                    if lost > 0:
                        flow = flows.get(fid)
                        if flow is not None:
                            flow.record_transit_drop(lost, now, drop_notify[fid])
                        else:
                            cross_stats[fid]["dropped"] += lost
                        if tel is not None:
                            tel.emit("transit_drop", hop=name, flow=fid, packets=lost)
            if not fifo:
                continue
            deliveries = queue.drain_at(capacity, now, dt)
            if not deliveries:
                continue
            departure = now + half_delay
            for fid, packets, queuing_delay in deliveries:
                successor = successors[fid]
                if successor is not None:
                    transit.send(successor, fid, packets, queuing_delay, departure)
                    continue
                ack = acks.get(fid)
                if ack is not None:
                    ack[0].record_delivery(packets, queuing_delay, now, ack[1], ack[2])
                else:
                    cross_stats[fid]["delivered"] += packets
        if prof is not None:
            prof.mark("drain")

        # 3. Each flow settles its tick in one call: it consumes the due
        # ack/loss events, updates its controller and returns the record.
        end_of_tick = now + dt
        records: Dict[int, TickRecord] = {}
        for flow, fid, _, _, _, flow_records in self._flow_plan:
            record = flow.finish_tick(end_of_tick, dt)
            flow_records.append(record)
            records[fid] = record

        self._capacity_log.append(self._schedule_mbps[slot])
        self._time_log.append(end_of_tick)
        self.now = end_of_tick
        if prof is not None:
            prof.mark("acks")
            prof.finish()
        if tel is not None:
            # Leave the trace clock at the tick boundary so emitters that run
            # between ticks (the QC monitor's decision filter) stamp correctly.
            tel.advance(end_of_tick)
            if snapshot_due:
                self._emit_conservation(tel, end_of_tick)
        return records

    def _emit_conservation(self, tel: EventTrace, t: float) -> None:
        """Emit one conservation snapshot: per-hop state plus lifetime sums."""
        hops = {link.name: link.queue.queue_occupancy for link in self._ordered_links}
        caps = {link.name: link.queue.capacity_pps(t) for link in self._ordered_links}
        sent = acked = lost = pending = 0.0
        for flow in self.flows.values():
            sent += flow.total_sent
            acked += flow.total_acked
            lost += flow.total_lost
            pending += flow.pending_event_packets
        tel.emit("conservation", t=t, hops=hops, caps=caps,
                 transit=self._transit.occupancy,
                 sent=sent, acked=acked, lost=lost, pending=pending)

    def run(self, duration: float) -> SimulationResult:
        """Run for ``duration`` seconds and return the collected statistics."""
        if duration <= 0:
            raise ValueError("duration must be positive")
        steps = int(round(duration / self.dt))
        for _ in range(steps):
            self.tick()
        return self.result()

    def result(self) -> SimulationResult:
        return SimulationResult(
            duration=self.now,
            dt=self.dt,
            flow_stats=self.stats,
            capacity_mbps=np.array(self._capacity_log),
            times=np.array(self._time_log),
            lifetimes={fid: (flow.start_time, flow.stop_time)
                       for fid, flow in self.flows.items()},
        )

    # ------------------------------------------------------------------ #
    # Monitor-interval reporting (Orca's observation pipeline)
    # ------------------------------------------------------------------ #
    def monitor_report(self, flow_id: int) -> MonitorReport:
        """Aggregate ``flow_id``'s interval since its previous report.

        Called by the Orca environment once per monitor interval; the report
        fields correspond to the observed network states in Table 1 of the
        paper.  The flow's tick records since the previous report go through
        :func:`interval_report`, as the deployed
        :class:`~repro.orca.agent.LearnedController`'s feedbacks do, but two
        inputs still differ until the observation rebase: here the interval
        starts at the previous report and ``srtt`` is the flow's smoothed RTT
        (deployed: the first tick's start, the last RTT sample).  All statistics are end-to-end: queuing delays accumulate over every
        hop of the flow's route and RTTs include the summed path delay (the
        transit stage charges forward shares in simulation time, the ack
        charges the rest, so the sum is always the path RTT).

        Before the first ack arrives ``flow.min_rtt`` is still the +inf
        sentinel; it is clamped to the flow's path RTT — the physical lower
        bound no observed RTT can beat — instead of the old impossible 0.0,
        so the Orca observation's first interval never sees a zero min-RTT.
        """
        flow = self.flows[flow_id]
        records = self.stats[flow_id].records
        report = interval_report(
            records[self._report_index[flow_id]:], self._last_report_time[flow_id], self.now,
            self.dt, flow.srtt,
            flow.min_rtt if flow.min_rtt < float("inf") else self._route_rtt[flow_id],
            flow.controller.cwnd)
        self._report_index[flow_id] = len(records)
        self._last_report_time[flow_id] = self.now
        return report
