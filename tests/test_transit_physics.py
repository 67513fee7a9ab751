"""Per-hop propagation physics: transit timing, ack bounds, conservation.

The invariant suites the ISSUE pins down for the in-flight transit stage
(:mod:`repro.topology.transit`):

* a chunk forwarded out of hop *i* reaches hop *i+1*'s FIFO only after hop
  *i*'s forward ``delay / 2`` share — no chunk crosses a multi-hop DAG inside
  one tick anymore;
* the first ack of any flow arrives no earlier than ``start_time + path
  RTT``, on every topology family and for churned arrivals;
* tick-level conservation: at *every* tick, per flow,
  ``sent == acked + lost + queued + in-transit + notifications-in-flight`` —
  the in-transit bucket is new, the others are the classic ones;
* downstream transit drops notify the sender after the return delay from the
  drop hop (the forward delay was already incurred in simulation time), not
  a full smoothed-RTT guess;
* churned multi-hop grids stay bit-identical between serial and sharded runs
  with transit queues active.
"""

import numpy as np
import pytest

from repro.cc.cubic import CubicController
from repro.cc.flow import Flow
from repro.cc.link import BottleneckLink
from repro.cc.netsim import SCHEDULE_BLOCK, NetworkSimulator
from repro.topology import Link, Topology, TransitQueue, build_topology, topology_family_specs
from repro.traces.trace import BandwidthTrace
from repro.workload.build import build_workload

DT = 0.01


class FixedWindowController(CubicController):
    """A window that never moves: deterministic load for timing assertions."""

    def __init__(self, cwnd=20.0):
        super().__init__(initial_cwnd=cwnd)

    def on_tick(self, feedback):  # pragma: no cover - trivial
        pass


def constant_trace(mbps=24.0, duration=120.0, name="const"):
    return BandwidthTrace.constant(mbps, duration=duration, name=name)


def flow_queued_packets(sim):
    """Per-flow packets sitting in any hop FIFO of the topology."""
    queued = {}
    for link in sim.topology.ordered_links:
        for fid, packets in link.queue.per_flow_occupancy().items():
            queued[fid] = queued.get(fid, 0.0) + packets
    return queued


def assert_tick_conservation(sim):
    """sent == acked + lost + queued + in-transit + notifications, per flow."""
    queued = flow_queued_packets(sim)
    transit = sim.in_transit_per_flow()
    for fid, flow in sim.flows.items():
        accounted = (flow.total_acked + flow.total_lost
                     + queued.get(fid, 0.0) + transit.get(fid, 0.0)
                     + flow.pending_ack_packets + flow.pending_loss_packets)
        assert flow.total_sent == pytest.approx(accounted, abs=1e-9), (
            f"flow {fid}: sent {flow.total_sent} != accounted {accounted}")


# ---------------------------------------------------------------------- #
# TransitQueue unit semantics
# ---------------------------------------------------------------------- #
class TestTransitQueue:
    def test_chunks_release_only_after_eligibility(self):
        transit = TransitQueue()
        transit.send("hop2", 0, 5.0, 0.0, eligible_time=0.03)
        assert transit.arrivals("hop2", 0.0) == []
        assert transit.arrivals("hop2", 0.02) == []
        (chunk,) = transit.arrivals("hop2", 0.03)
        assert chunk.packets == 5.0
        assert transit.occupancy == 0.0

    def test_release_order_is_time_then_sequence(self):
        # Chunks from different source hops (fan-in) interleave by eligibility
        # time; equal times resolve by send order — deterministic always.
        transit = TransitQueue()
        transit.send("root", 0, 1.0, 0.0, eligible_time=0.05)
        transit.send("root", 1, 2.0, 0.0, eligible_time=0.02)
        transit.send("root", 2, 3.0, 0.0, eligible_time=0.05)
        order = [(c.flow_id, c.packets) for c in transit.arrivals("root", 0.05)]
        assert order == [(1, 2.0), (0, 1.0), (2, 3.0)]

    def test_per_flow_fifo_preserved(self):
        # Same source hop => same forward share => monotone eligibility, so a
        # flow's chunks can never overtake one another in transit.
        transit = TransitQueue()
        for index in range(5):
            transit.send("hop2", 0, float(index + 1), 0.0, eligible_time=0.01 * index)
        packets = [c.packets for c in transit.arrivals("hop2", 1.0)]
        assert packets == [1.0, 2.0, 3.0, 4.0, 5.0]

    def test_occupancy_buckets(self):
        transit = TransitQueue()
        transit.send("hop2", 0, 4.0, 0.0, eligible_time=0.5)
        transit.send("hop2", 1, 2.0, 0.0, eligible_time=0.6)
        transit.send("hop3", 0, 1.0, 0.0, eligible_time=0.7)
        assert transit.occupancy == pytest.approx(7.0)
        assert transit.per_link_occupancy() == {"hop2": pytest.approx(6.0),
                                                "hop3": pytest.approx(1.0)}
        assert transit.per_flow_occupancy() == {0: pytest.approx(5.0),
                                                1: pytest.approx(2.0)}
        transit.reset()
        assert transit.occupancy == 0.0


# ---------------------------------------------------------------------- #
# Transit timing end to end
# ---------------------------------------------------------------------- #
class TestTransitTiming:
    def test_chunks_no_longer_cross_a_chain_in_one_tick(self):
        # Pre-fix, a chunk drained from hop1 entered hop2 (and hop3, ...) at
        # the same timestamp; now the downstream hops stay empty until the
        # upstream forward shares have elapsed.
        topo = build_topology("chain(3)", constant_trace(), min_rtt=0.12,
                              buffer_bdp=2.0, seed=1)
        sim = NetworkSimulator(topo, [Flow(0, FixedWindowController(40.0))], dt=DT)
        hop_delay = 0.12 / 3          # 0.04 per hop, forward share 0.02
        forward_share = hop_delay / 2
        downstream_seen = {"hop2": None, "hop3": None}
        for _ in range(40):
            sim.tick()
            occupancy = sim.hop_occupancy()
            delivered = {name: topo.links[name].queue.total_delivered
                         for name in downstream_seen}
            for name in downstream_seen:
                if downstream_seen[name] is None and (
                        occupancy[name] > 0 or delivered[name] > 0):
                    downstream_seen[name] = sim.now
        # hop2 sees traffic only after hop1's forward share; hop3 after both.
        assert downstream_seen["hop2"] is not None
        assert downstream_seen["hop3"] is not None
        assert downstream_seen["hop2"] >= forward_share - 1e-12
        assert downstream_seen["hop3"] >= 2 * forward_share - 1e-12
        assert downstream_seen["hop3"] > downstream_seen["hop2"]

    def test_in_transit_bucket_is_populated_between_hops(self):
        topo = build_topology("chain(2)", constant_trace(), min_rtt=0.2,
                              buffer_bdp=2.0, seed=1)
        sim = NetworkSimulator(topo, [Flow(0, FixedWindowController(40.0))], dt=DT)
        sim.tick()  # hop1 drains at t=0; chunks are now in flight to hop2
        assert sim.in_transit_total() > 0.0
        assert sim.in_transit_occupancy().get("hop2", 0.0) > 0.0
        assert sim.in_transit_per_flow().get(0, 0.0) > 0.0
        # ... and fully flushed once the forward share has elapsed.
        for _ in range(30):
            sim.tick()
        flushed = sum(sim.in_transit_occupancy().values())
        assert flushed == pytest.approx(sim.in_transit_total(), abs=1e-12)

    def test_single_bottleneck_never_uses_transit(self):
        sim = NetworkSimulator(
            build_topology("single_bottleneck", constant_trace(), min_rtt=0.05, seed=1),
            [Flow(0, CubicController())], dt=DT)
        for _ in range(200):
            sim.tick()
            assert sim.in_transit_total() == 0.0

    def test_end_to_end_ack_time_matches_single_hop_reference(self):
        # The delay split must not change end-to-end latency: on an
        # uncongested path, a chain delivers its first ack within a couple of
        # tick-quantization steps of the equivalent single hop.
        def first_ack_time(spec):
            sim = NetworkSimulator(
                build_topology(spec, constant_trace(96.0), min_rtt=0.1,
                               buffer_bdp=4.0, seed=1),
                [Flow(0, FixedWindowController(4.0))], dt=DT)
            for _ in range(100):
                records = sim.tick()
                if records[0].acked > 0:
                    return sim.now
            raise AssertionError(f"no ack on {spec}")

        single = first_ack_time("single_bottleneck")
        chained = first_ack_time("chain(4)")
        assert single == pytest.approx(0.1)       # the path RTT, tick-quantized
        # Each of the 3 transit stages can add at most one tick of
        # quantization on top of the path RTT; propagation itself is equal.
        assert chained >= single - 1e-12
        assert chained <= single + 3 * DT + 1e-12


class TestTransitDropNotification:
    def test_downstream_drop_notifies_after_return_delay_not_srtt(self):
        # hop1 is fast with a deep buffer; hop2 is slow with a tiny buffer, so
        # drops happen when transit arrivals hit hop2's full FIFO.  The loss
        # must reach the sender ~delay1/2 after the drop (return trip from the
        # drop hop), which is far sooner than the legacy full-srtt guess
        # (>= path RTT = 0.2 s here).
        fast = Link.build("hop1", constant_trace(96.0), delay=0.1, buffer_rtt=0.2,
                          buffer_bdp=5.0)
        tiny = Link.build("hop2", constant_trace(12.0), delay=0.1, buffer_rtt=0.2,
                          buffer_packets=3.0)
        topo = Topology("tiny-mid", [fast, tiny], bottleneck="hop2")
        sim = NetworkSimulator(topo, [Flow(0, FixedWindowController(400.0))], dt=DT)
        drop_time = None
        notify_time = None
        for _ in range(200):
            records = sim.tick()
            if drop_time is None and tiny.queue.total_dropped > 0:
                drop_time = sim.now
            if notify_time is None and records[0].lost > 0:
                notify_time = sim.now
                break
        assert drop_time is not None and notify_time is not None
        gap = notify_time - drop_time
        return_delay = 0.1 / 2  # forward share of hop1 == its return share
        # Observed gap: the return delay, up to two ticks of quantization
        # (drop observed at end-of-tick, notification processed at the next
        # boundary after the event).
        assert gap >= return_delay - DT - 1e-12
        assert gap <= return_delay + 2 * DT + 1e-12
        # And decisively sooner than the legacy guess, which charged a full
        # estimated round trip (srtt, falling back to the path RTT = 0.2 s).
        assert gap < sim.path_rtt(0) - 1e-9
        assert sim.flows[0].total_lost > 0.0

    def test_transit_drops_conserve(self):
        fast = Link.build("hop1", constant_trace(96.0), delay=0.05, buffer_rtt=0.1,
                          buffer_bdp=5.0)
        tiny = Link.build("hop2", constant_trace(12.0), delay=0.05, buffer_rtt=0.1,
                          buffer_packets=3.0)
        topo = Topology("tiny-mid", [fast, tiny], bottleneck="hop2")
        sim = NetworkSimulator(topo, [Flow(0, FixedWindowController(300.0))], dt=DT)
        for _ in range(400):
            sim.tick()
            assert_tick_conservation(sim)
        assert sim.flows[0].total_lost > 0.0


# ---------------------------------------------------------------------- #
# Family-wide ack-timing lower bound and tick-level conservation
# ---------------------------------------------------------------------- #
class TestFamilyInvariants:
    @pytest.mark.parametrize("spec", topology_family_specs())
    def test_first_ack_respects_path_rtt_and_conservation(self, spec):
        topo = build_topology(spec, constant_trace(18.0), min_rtt=0.06,
                              buffer_bdp=0.8, random_loss_rate=0.01, seed=6)
        flows = [Flow(0, CubicController()),
                 Flow(1, CubicController(), start_time=1.0),
                 Flow(2, CubicController(), start_time=1.5, stop_time=3.5)]
        sim = NetworkSimulator(topo, flows, dt=DT)
        first_ack = {flow.flow_id: None for flow in flows}
        for _ in range(400):
            records = sim.tick()
            for fid, record in records.items():
                if first_ack[fid] is None and record.acked > 0:
                    first_ack[fid] = sim.now
            assert_tick_conservation(sim)
        for flow in flows:
            fid = flow.flow_id
            assert first_ack[fid] is not None, f"flow {fid} never acked on {spec}"
            lower_bound = flow.start_time + sim.path_rtt(fid)
            assert first_ack[fid] >= lower_bound - 1e-12, (
                f"flow {fid} on {spec}: first ack {first_ack[fid]} beats "
                f"start + path RTT {lower_bound}")

    @pytest.mark.parametrize("spec", ["chain(3)", "fan_in(3)", "shared_segment"])
    def test_invariants_hold_under_poisson_churn(self, spec):
        trace = constant_trace(18.0, name="churn-const")
        background = build_workload("poisson(0.8)", duration=5.0, seed=3,
                                    trace_name=trace.name, topology=spec)
        topo = build_topology(spec, trace, min_rtt=0.06, buffer_bdp=0.8, seed=3)
        flows = [Flow(0, CubicController())] + [cross.build() for cross in background]
        sim = NetworkSimulator(topo, flows, dt=DT)
        first_ack = {flow.flow_id: None for flow in flows}
        for _ in range(500):
            records = sim.tick()
            for fid, record in records.items():
                if first_ack[fid] is None and record.acked > 0:
                    first_ack[fid] = sim.now
            assert_tick_conservation(sim)
        assert first_ack[0] is not None
        for flow in flows:
            fid = flow.flow_id
            if first_ack[fid] is None:
                continue  # a briefly-lived churned flow may never get an ack
            assert first_ack[fid] >= flow.start_time + sim.path_rtt(fid) - 1e-12, (
                f"churned flow {fid} on {spec} acked before start + path RTT")


# ---------------------------------------------------------------------- #
# Churn determinism with transit queues active (serial == sharded)
# ---------------------------------------------------------------------- #
class TestChurnDeterminismWithTransit:
    def test_serial_and_sharded_rows_identical_on_multihop(self):
        from repro.harness.evaluate import EvaluationSettings
        from repro.harness.parallel import ExperimentTask, ParallelRunner, run_task

        trace = constant_trace(24.0, duration=30.0, name="const-24")
        tasks = []
        for workload in ("poisson(0.6)", "responsive(cubic)"):
            for topology in ("chain(3)", "fan_in(3)", "shared_segment"):
                settings = EvaluationSettings(duration=3.0, buffer_bdp=1.0,
                                              topology=topology, workload=workload,
                                              seed=7)
                tasks.append(ExperimentTask(scheme="cubic", trace=trace,
                                            settings=settings))
        serial = ParallelRunner(1).map(run_task, tasks)
        sharded = ParallelRunner(2).map(run_task, tasks)
        assert serial == sharded
        assert len(serial) == len(tasks)


# ---------------------------------------------------------------------- #
# FIFO ordering across hops, per flow, end to end
# ---------------------------------------------------------------------- #
class TestPerFlowFifoAcrossHops:
    @pytest.mark.parametrize("spec", ["chain(3)", "fan_in(3)", "shared_segment"])
    def test_rtt_samples_never_reorder_within_a_flow(self, spec):
        # FIFO across the whole path: with every queue FIFO and the transit
        # stage order-preserving, a flow's acks must come back in send order —
        # observable as ack events whose arrival times are non-decreasing
        # tick to tick (acked counts only ever accrue, never regress).
        topo = build_topology(spec, constant_trace(18.0), min_rtt=0.06,
                              buffer_bdp=0.8, seed=6)
        flows = [Flow(0, CubicController()), Flow(1, CubicController(), start_time=0.5)]
        sim = NetworkSimulator(topo, flows, dt=DT)
        cumulative = {0: [], 1: []}
        for _ in range(400):
            records = sim.tick()
            for fid in cumulative:
                cumulative[fid].append(sim.flows[fid].total_acked)
        for fid, series in cumulative.items():
            arr = np.asarray(series)
            assert (np.diff(arr) >= -1e-12).all(), f"flow {fid} acked regressed"
            assert arr[-1] > 0.0


# ---------------------------------------------------------------------- #
# Precomputed capacity schedule: bit-identical to per-tick trace lookups
# ---------------------------------------------------------------------- #
def varying_trace():
    # 0.37 s segments, so capacity changes fall between tick boundaries, and a
    # 5.55 s period, so a run of several schedule blocks wraps the trace.
    samples = [24.0, 6.0, 31.5, 12.25, 0.0, 18.0, 9.5, 27.0, 3.0, 21.0,
               15.0, 30.0, 7.75, 24.5, 11.0]
    return BandwidthTrace.from_samples(samples, 0.37, "varying")


def scheduled_run_ticks():
    return 3 * SCHEDULE_BLOCK + 37


def build_varying_sim(spec="chain(3)"):
    topo = build_topology(spec, varying_trace(), min_rtt=0.06, buffer_bdp=1.5, seed=4)
    flows = [Flow(0, CubicController()), Flow(1, CubicController(), start_time=0.3)]
    return NetworkSimulator(topo, flows, dt=DT)


class TestCapacitySchedule:
    def test_logged_capacity_matches_scalar_lookup_every_tick(self):
        sim = build_varying_sim()
        starts = []
        for _ in range(scheduled_run_ticks()):
            starts.append(sim.now)
            sim.tick()
        result = sim.result()
        trace = sim.topology.bottleneck.queue.trace
        expected = np.array([trace.capacity_mbps(t) for t in starts])
        assert np.array_equal(result.capacity_mbps, expected)
        assert len(set(expected.tolist())) > 5

    @pytest.mark.parametrize("spec", ["chain(3)", "dumbbell", "fan_in(3)"])
    def test_hop_drains_match_per_tick_trace_lookups(self, spec, monkeypatch):
        # Reference: every hop drains at the capacity its own trace reports at
        # the tick's start, ignoring the capacity the schedule passes in.
        scheduled = build_varying_sim(spec)
        scheduled.run(scheduled_run_ticks() * DT)
        drain_at = BottleneckLink.drain_at

        def looked_up(queue, capacity_pps, now, dt):
            return drain_at(queue, queue.capacity_pps(now), now, dt)

        monkeypatch.setattr(BottleneckLink, "drain_at", looked_up)
        reference = build_varying_sim(spec)
        reference.run(scheduled_run_ticks() * DT)
        for fid in scheduled.flows:
            assert scheduled.stats[fid].records == reference.stats[fid].records
        for name, link in scheduled.topology.links.items():
            assert link.queue.total_delivered == reference.topology.links[name].queue.total_delivered

    def test_run_matches_manual_tick_stepping(self):
        ran = build_varying_sim()
        result = ran.run(scheduled_run_ticks() * DT)
        stepped = build_varying_sim()
        ticked = {fid: [] for fid in stepped.flows}
        for _ in range(scheduled_run_ticks()):
            for fid, record in stepped.tick().items():
                ticked[fid].append(record)
        for fid in ran.flows:
            assert result.stats_for(fid).records == ticked[fid]
        assert np.array_equal(result.capacity_mbps, stepped.result().capacity_mbps)
        assert np.array_equal(result.times, stepped.result().times)

    def test_moved_clock_restarts_the_schedule(self):
        sim = build_varying_sim()
        for _ in range(10):
            sim.tick()
        sim.now = 2.0
        sim.tick()
        trace = sim.topology.bottleneck.queue.trace
        assert sim.result().capacity_mbps[-1] == trace.capacity_mbps(2.0)
