"""Tests for the multi-bottleneck topology subsystem.

Covers the family catalog (parsing, structure, per-hop derived seeds), the
cross-traffic generators, multi-hop dynamics (end-to-end RTT, per-hop
queuing), and the conservation invariants the ISSUE pins down: per hop,
packets enqueued equal packets delivered plus packets still buffered, flows
conserve sent = acked + lost + in-flight, and the FIFO drains interleaved
flows strictly in arrival order.
"""

import os
import subprocess
import sys

import numpy as np
import pytest

from repro.cc.cubic import CubicController
from repro.cc.flow import Flow
from repro.cc.link import BottleneckLink
from repro.cc.netsim import NetworkSimulator
from repro.topology import (
    ConstantBitRate,
    CrossTrafficSource,
    Link,
    OnOff,
    Topology,
    build_topology,
    parse_topology,
    topology_family_specs,
)
from repro.traces.trace import BandwidthTrace, mbps_to_pps


class FixedWindowController(CubicController):
    """CUBIC shell with a window that never moves (deterministic tests)."""

    def __init__(self, cwnd=20.0):
        super().__init__(initial_cwnd=cwnd)

    def on_tick(self, feedback):  # pragma: no cover - trivial
        pass


def constant_trace(mbps=24.0):
    return BandwidthTrace.constant(mbps, duration=120.0)


def test_topology_package_imports_cold():
    """`import repro.topology` must work as the *first* repro import.

    The traces and cc packages import each other; the topology package guards
    against entering that cycle from the traces side on a fresh interpreter.
    """
    import repro

    src = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
    env = {**os.environ, "PYTHONPATH": src}
    result = subprocess.run(
        [sys.executable, "-c", "from repro.topology import build_topology"],
        capture_output=True, text=True, env=env,
    )
    assert result.returncode == 0, result.stderr


# ---------------------------------------------------------------------- #
# Spec parsing and the family catalog
# ---------------------------------------------------------------------- #
class TestParseTopology:
    def test_plain_and_counted_specs(self):
        assert parse_topology("single_bottleneck") == ("single_bottleneck", 1)
        assert parse_topology("chain(4)") == ("chain", 4)
        assert parse_topology("parking_lot(2)") == ("parking_lot", 2)
        assert parse_topology("dumbbell") == ("dumbbell", 3)
        assert parse_topology(" chain( 3 ) ") == ("chain", 3)
        assert parse_topology("fan_in(4)") == ("fan_in", 4)
        assert parse_topology("fan_in") == ("fan_in", 3)
        assert parse_topology("tree(2)") == ("tree", 2)
        assert parse_topology("shared_segment") == ("shared_segment", 5)

    def test_malformed_specs_rejected(self):
        for bad in ("", "nope", "chain(", "chain(0)", "chain(-1)", "chain(2", "42"):
            with pytest.raises(ValueError):
                parse_topology(bad)

    def test_fixed_shape_families_reject_counts(self):
        with pytest.raises(ValueError):
            parse_topology("dumbbell(5)")
        with pytest.raises(ValueError):
            parse_topology("single_bottleneck(2)")
        with pytest.raises(ValueError):
            parse_topology("shared_segment(3)")

    def test_branching_families_need_two_branches(self):
        with pytest.raises(ValueError):
            parse_topology("fan_in(1)")
        with pytest.raises(ValueError):
            parse_topology("tree(1)")

    def test_family_specs_listing_parses(self):
        specs = topology_family_specs()
        assert len(specs) >= 4
        for spec in specs:
            parse_topology(spec)


class TestFamilyCatalog:
    def test_chain_structure(self):
        trace = constant_trace()
        topo = build_topology("chain(3)", trace, min_rtt=0.06, buffer_bdp=1.0, seed=1)
        assert topo.n_hops == 3
        assert topo.link_names == ["hop1", "hop2", "hop3"]
        # The trace-driven bottleneck sits at the end; upstream hops are faster.
        assert topo.bottleneck_name == "hop3"
        assert topo.bottleneck.queue.trace is trace
        for name in ("hop1", "hop2"):
            assert topo.links[name].queue.trace.mean_mbps > trace.mean_mbps
        # The path RTT is split evenly across hops and sums to min_rtt.
        assert topo.path_rtt(0) == pytest.approx(0.06)
        assert topo.links["hop1"].delay == pytest.approx(0.02)

    def test_parking_lot_has_one_cross_source_per_segment(self):
        topo = build_topology("parking_lot(3)", constant_trace(), min_rtt=0.06, seed=1)
        assert topo.n_hops == 3
        assert len(topo.cross_traffic) == 3
        paths = {source.path for source in topo.cross_traffic}
        assert paths == {("seg1",), ("seg2",), ("seg3",)}
        assert all(source.flow_id < 0 for source in topo.cross_traffic)

    def test_dumbbell_structure(self):
        topo = build_topology("dumbbell", constant_trace(), min_rtt=0.08, seed=1)
        assert topo.link_names == ["access-src", "bottleneck", "access-dst"]
        assert topo.bottleneck_name == "bottleneck"
        assert topo.path_rtt(0) == pytest.approx(0.08)
        (source,) = topo.cross_traffic
        assert source.path == ("bottleneck",)
        assert isinstance(source.generator, OnOff)

    def test_per_hop_seeds_are_derived_and_distinct(self):
        # Observed through behaviour: with stochastic loss enabled, the
        # per-hop RNGs drive the loss samples, so identical coordinates must
        # reproduce identical loss sequences and different base seeds must
        # diverge.
        def loss_sequence(seed):
            topo = build_topology("single_bottleneck", constant_trace(), min_rtt=0.06,
                                  random_loss_rate=0.3, stochastic_loss=True, seed=seed)
            queue = topo.bottleneck.queue
            return tuple(queue.enqueue(0, 8.0, 0.01 * i)[2] for i in range(50))

        assert loss_sequence(9) == loss_sequence(9)
        assert loss_sequence(9) != loss_sequence(10)
        # Distinct hops of one topology get distinct RNG streams.
        topo = build_topology("parking_lot(3)", constant_trace(), min_rtt=0.06,
                              random_loss_rate=0.0, seed=9)
        for link in topo.ordered_links:
            link.queue.random_loss_rate = 0.3
            link.queue.stochastic_loss = True
        sequences = [tuple(link.queue.enqueue(0, 8.0, 0.01 * i)[2] for i in range(50))
                     for link in topo.ordered_links]
        assert len(set(sequences)) == len(sequences)

    def test_random_loss_applies_at_bottleneck_hop_only(self):
        topo = build_topology("chain(3)", constant_trace(), min_rtt=0.06,
                              random_loss_rate=0.02, seed=1)
        assert topo.links["hop3"].queue.random_loss_rate == pytest.approx(0.02)
        assert topo.links["hop1"].queue.random_loss_rate == 0.0

    def test_fan_in_structure(self):
        trace = constant_trace()
        topo = build_topology("fan_in(3)", trace, min_rtt=0.06, seed=1)
        assert topo.link_names == ["leaf1", "leaf2", "leaf3", "bottleneck"]
        assert topo.bottleneck_name == "bottleneck"
        assert topo.bottleneck.queue.trace is trace
        # Every flow enters over its own leaf (round-robin) and joins at the
        # shared root; all routes see the full path RTT.
        for flow_id, leaf in ((0, "leaf1"), (1, "leaf2"), (2, "leaf3"), (3, "leaf1")):
            assert topo.route_names(flow_id) == (leaf, "bottleneck")
            assert topo.path_rtt(flow_id) == pytest.approx(0.06)
        # Leaves are faster than the trace-driven root.
        for name in ("leaf1", "leaf2", "leaf3"):
            assert topo.links[name].queue.trace.mean_mbps > trace.mean_mbps
        # Declaring leaves before the root is already a topological order.
        assert topo.drain_order == ["leaf1", "leaf2", "leaf3", "bottleneck"]

    def test_tree_structure(self):
        topo = build_topology("tree(2)", constant_trace(), min_rtt=0.08, seed=1)
        assert topo.link_names == ["bottleneck", "branch1", "branch2"]
        assert topo.route_names(0) == ("bottleneck", "branch1")
        assert topo.route_names(1) == ("bottleneck", "branch2")
        assert topo.path_rtt(0) == pytest.approx(0.08)
        assert topo.drain_order[0] == "bottleneck"

    def test_shared_segment_structure(self):
        topo = build_topology("shared_segment", constant_trace(), min_rtt=0.08, seed=1)
        assert topo.bottleneck_name == "shared"
        assert topo.route_names(0) == ("access-a", "shared", "exit-a")
        assert topo.route_names(1) == ("access-b", "shared", "exit-b")
        assert topo.path_rtt(0) == pytest.approx(0.08)
        assert topo.path_rtt(1) == pytest.approx(0.08)
        # Both branches fork in before the shared middle and fork out after it.
        order = topo.drain_order
        assert order.index("access-a") < order.index("shared") < order.index("exit-a")
        assert order.index("access-b") < order.index("shared") < order.index("exit-b")


class TestTopologyValidation:
    def make_links(self):
        return [Link.build(f"l{i}", constant_trace(), delay=0.01, buffer_rtt=0.03)
                for i in range(3)]

    def test_duplicate_link_names_rejected(self):
        link = Link.build("dup", constant_trace(), delay=0.01, buffer_rtt=0.03)
        other = Link.build("dup", constant_trace(), delay=0.01, buffer_rtt=0.03)
        with pytest.raises(ValueError):
            Topology("t", [link, other])

    def test_route_cycles_rejected(self):
        links = self.make_links()
        # A route running against the default full-path chain closes a cycle.
        with pytest.raises(ValueError, match="cycle"):
            Topology("t", links, routes={0: ["l2", "l0"]})
        with pytest.raises(ValueError):
            Topology("t", links, routes={0: ["l0", "nope"]})
        # Two explicit routes that disagree on the hop order also cycle, even
        # with a route cycle suppressing the full-path default.
        with pytest.raises(ValueError, match="cycle"):
            Topology("t", links, route_cycle=[("l0", "l1"), ("l1", "l0")])
        with pytest.raises(ValueError):
            Topology("t", links, routes={0: ["l1", "l1"]})

    def test_dag_routes_ignore_declaration_order(self):
        # A fork/join DAG declared in a non-topological order still drains
        # topologically: both access links before the shared middle.
        shared = Link.build("shared", constant_trace(12.0), delay=0.01, buffer_rtt=0.03)
        access_a = Link.build("a", constant_trace(48.0), delay=0.01, buffer_rtt=0.03)
        access_b = Link.build("b", constant_trace(48.0), delay=0.01, buffer_rtt=0.03)
        topo = Topology("t", [shared, access_a, access_b],
                        route_cycle=[("a", "shared"), ("b", "shared")])
        assert topo.drain_order.index("a") < topo.drain_order.index("shared")
        assert topo.drain_order.index("b") < topo.drain_order.index("shared")
        assert topo.route_names(0) == ("a", "shared")
        assert topo.route_names(1) == ("b", "shared")

    def test_empty_route_cycle_rejected(self):
        with pytest.raises(ValueError):
            Topology("t", self.make_links(), route_cycle=[])

    def test_cross_traffic_ids_unique_and_negative(self):
        links = self.make_links()
        cbr = ConstantBitRate(5.0)
        with pytest.raises(ValueError):
            CrossTrafficSource("x", flow_id=1, path=("l0",), generator=cbr)
        dup = [CrossTrafficSource("a", -1, ("l0",), cbr),
               CrossTrafficSource("b", -1, ("l1",), cbr)]
        with pytest.raises(ValueError):
            Topology("t", links, cross_traffic=dup)

    def test_simulator_rejects_negative_flow_ids(self):
        with pytest.raises(ValueError):
            NetworkSimulator(
                BottleneckLink(constant_trace(), min_rtt=0.04),
                [Flow(-1, FixedWindowController())],
            )

    def test_bottleneck_defaults_to_slowest_hop(self):
        slow = Link.build("slow", constant_trace(12.0), delay=0.01, buffer_rtt=0.03)
        fast = Link.build("fast", constant_trace(48.0), delay=0.01, buffer_rtt=0.03)
        assert Topology("t", [fast, slow]).bottleneck_name == "slow"


# ---------------------------------------------------------------------- #
# Topological order: heap-based tie-break pinned to the legacy min-scan
# ---------------------------------------------------------------------- #
class TestTopologicalOrder:
    """The heap-keyed Kahn tie-break must be byte-identical to the old
    ``min(ready, key=self._order.index)`` re-scan it replaced."""

    @staticmethod
    def reference_order(topo):
        """The pre-fix quadratic algorithm, verbatim, as the oracle."""
        declaration = topo.link_names
        successors = {name: set() for name in declaration}
        indegree = {name: 0 for name in declaration}
        for path in topo._route_adjacencies():
            for upstream, downstream in zip(path, path[1:]):
                if downstream not in successors[upstream]:
                    successors[upstream].add(downstream)
                    indegree[downstream] += 1
        order = []
        ready = [name for name in declaration if indegree[name] == 0]
        while ready:
            name = min(ready, key=declaration.index)
            ready.remove(name)
            order.append(name)
            for downstream in successors[name]:
                indegree[downstream] -= 1
                if indegree[downstream] == 0:
                    ready.append(downstream)
        return order

    @pytest.mark.parametrize("spec", ["single_bottleneck", "chain(4)", "parking_lot(3)",
                                      "dumbbell", "fan_in(4)", "tree(3)",
                                      "shared_segment"])
    def test_families_match_reference(self, spec):
        topo = build_topology(spec, constant_trace(), min_rtt=0.06, seed=1)
        assert topo.drain_order == self.reference_order(topo)

    def test_scrambled_dag_matches_reference(self):
        # Hops declared in an order that is *not* topological, with fork/join
        # routes, so the tie-break actually has choices to make.
        links = [Link.build(name, constant_trace(), delay=0.01, buffer_rtt=0.05)
                 for name in ("exit", "mid-b", "entry-a", "mid-a", "entry-b")]
        topo = Topology("scrambled", links,
                        route_cycle=[("entry-a", "mid-a", "exit"),
                                     ("entry-b", "mid-b", "exit"),
                                     ("entry-a", "mid-b", "exit")])
        reference = self.reference_order(topo)
        assert topo.drain_order == reference
        # Structural sanity: every route runs entry → mid → shared exit.
        assert topo.drain_order[-1] == "exit"
        assert topo.drain_order.index("entry-a") < topo.drain_order.index("mid-a")
        assert topo.drain_order.index("entry-b") < topo.drain_order.index("mid-b")

    def test_wide_fan_in_matches_reference(self):
        # A wide incast exercises many simultaneous ready hops (the case the
        # old implementation re-scanned quadratically).
        topo = build_topology("fan_in(32)", constant_trace(), min_rtt=0.06, seed=1)
        assert topo.drain_order == self.reference_order(topo)
        assert topo.drain_order == [f"leaf{i}" for i in range(1, 33)] + ["bottleneck"]


# ---------------------------------------------------------------------- #
# Cross-traffic generators
# ---------------------------------------------------------------------- #
class TestGenerators:
    def test_cbr_rate(self):
        assert ConstantBitRate(12.0).rate_pps(3.7) == pytest.approx(mbps_to_pps(12.0))

    def test_onoff_duty_cycle(self):
        gen = OnOff(10.0, on_seconds=1.0, off_seconds=1.0)
        assert gen.rate_pps(0.5) > 0.0
        assert gen.rate_pps(1.5) == 0.0
        assert gen.rate_pps(2.5) > 0.0

    def test_onoff_phase_shifts_bursts(self):
        gen = OnOff(10.0, on_seconds=1.0, off_seconds=1.0, phase=1.0)
        assert gen.rate_pps(0.5) == 0.0
        assert gen.rate_pps(1.5) > 0.0

    def test_generator_validation(self):
        with pytest.raises(ValueError):
            ConstantBitRate(-1.0)
        with pytest.raises(ValueError):
            OnOff(10.0, on_seconds=0.0, off_seconds=1.0)


# ---------------------------------------------------------------------- #
# Multi-hop dynamics
# ---------------------------------------------------------------------- #
class TestMultiHopDynamics:
    def test_chain_rtt_includes_all_hop_delays(self):
        topo = build_topology("chain(3)", constant_trace(), min_rtt=0.09, seed=1)
        sim = NetworkSimulator(topo, [Flow(0, FixedWindowController(10.0))])
        assert sim.path_rtt(0) == pytest.approx(0.09)
        for _ in range(400):
            sim.tick()
        flow = sim.flows[0]
        # The observed minimum RTT can never beat the summed path delay.
        assert flow.min_rtt >= 0.09 - 1e-9
        assert flow.total_acked > 0.0

    def test_queue_builds_at_bottleneck_hop(self):
        # A standing queue (window ≈ 2.4× BDP) must sit at the trace-driven
        # last hop once the flow self-clocks; the faster upstream hops drain.
        topo = build_topology("chain(3)", constant_trace(12.0), min_rtt=0.05,
                              buffer_bdp=3.0, seed=1)
        sim = NetworkSimulator(topo, [Flow(0, FixedWindowController(120.0))])
        for _ in range(600):
            sim.tick()
        occupancy = sim.hop_occupancy()
        assert occupancy["hop3"] > 10.0
        assert occupancy["hop3"] > 10.0 * max(occupancy["hop1"], occupancy["hop2"], 1e-9)

    def test_parking_lot_cross_traffic_reduces_throughput(self):
        trace = constant_trace(24.0)
        def run(spec):
            sim = NetworkSimulator(
                build_topology(spec, trace, min_rtt=0.04, buffer_bdp=1.0, seed=2),
                [Flow(0, CubicController())],
            )
            result = sim.run(8.0)
            stats = result.stats_for(0)
            return stats.acked[200:].sum()
        contended = run("parking_lot(2)")
        clean = run("chain(2)")
        assert contended < clean * 0.9

    def test_cross_traffic_stats_are_tracked(self):
        topo = build_topology("parking_lot(2)", constant_trace(24.0), min_rtt=0.04, seed=2)
        sim = NetworkSimulator(topo, [Flow(0, CubicController())])
        sim.run(4.0)
        for source in topo.cross_traffic:
            counters = sim.cross_stats[source.flow_id]
            assert counters["offered"] > 0.0
            assert counters["delivered"] > 0.0
            assert counters["delivered"] <= counters["offered"] + 1e-9

    def test_dumbbell_bursts_inflate_delay(self):
        trace = constant_trace(24.0)
        def p95_delay(spec):
            sim = NetworkSimulator(
                build_topology(spec, trace, min_rtt=0.04, buffer_bdp=2.0, seed=4),
                [Flow(0, FixedWindowController(60.0))],
            )
            result = sim.run(8.0)
            delays = result.stats_for(0).queuing_delay
            return float(np.percentile(delays[delays > 0], 95)) if (delays > 0).any() else 0.0
        assert p95_delay("dumbbell") > p95_delay("single_bottleneck")

    def test_transit_drops_reach_the_sender(self):
        # A tiny mid-path buffer forces drops at hop2; the sender must see them
        # as losses one RTT later (not silently vanish).
        fast = Link.build("hop1", constant_trace(96.0), delay=0.01, buffer_rtt=0.04,
                          buffer_bdp=5.0)
        tiny = Link.build("hop2", constant_trace(12.0), delay=0.01, buffer_rtt=0.04,
                          buffer_packets=3.0)
        topo = Topology("tiny-mid", [fast, tiny], bottleneck="hop2")
        sim = NetworkSimulator(topo, [Flow(0, FixedWindowController(400.0))])
        sim.run(4.0)
        flow = sim.flows[0]
        assert flow.total_lost > 0.0
        assert tiny.queue.total_dropped > 0.0


# ---------------------------------------------------------------------- #
# Conservation invariants and FIFO ordering (ISSUE satellite)
# ---------------------------------------------------------------------- #
class TestConservationInvariants:
    @pytest.mark.parametrize("spec", ["single_bottleneck", "chain(3)", "parking_lot(3)",
                                      "dumbbell", "fan_in(3)", "tree(2)",
                                      "shared_segment"])
    def test_per_hop_enqueued_equals_delivered_plus_buffered(self, spec):
        topo = build_topology(spec, constant_trace(18.0), min_rtt=0.05, buffer_bdp=0.8,
                              random_loss_rate=0.01, seed=6)
        sim = NetworkSimulator(topo, [Flow(0, CubicController())])
        sim.run(6.0)
        for link in topo.ordered_links:
            queue = link.queue
            assert queue.total_enqueued == pytest.approx(
                queue.total_delivered + queue.queue_occupancy, abs=1e-9), link.name

    @pytest.mark.parametrize("spec", ["chain(3)", "parking_lot(2)", "fan_in(3)",
                                      "tree(2)", "shared_segment"])
    def test_flow_conservation_sent_equals_acked_lost_inflight(self, spec):
        topo = build_topology(spec, constant_trace(18.0), min_rtt=0.05, buffer_bdp=0.8,
                              seed=6)
        sim = NetworkSimulator(topo, [Flow(0, CubicController())])
        sim.run(6.0)
        flow = sim.flows[0]
        assert flow.total_sent == pytest.approx(
            flow.total_acked + flow.total_lost + flow.inflight, abs=1e-9)
        assert flow.total_acked + flow.total_lost <= flow.total_sent + 1e-9

    @pytest.mark.parametrize("spec", ["fan_in(3)", "shared_segment"])
    def test_dag_conservation_with_competing_flows(self, spec):
        # Several flows forking in over their own branches and joining at the
        # shared bottleneck: per-hop and per-flow conservation must both hold
        # on the DAG, including for flows with partial lifetimes.
        topo = build_topology(spec, constant_trace(18.0), min_rtt=0.05, buffer_bdp=0.8,
                              seed=6)
        flows = [Flow(0, CubicController()),
                 Flow(1, CubicController(), start_time=1.0),
                 Flow(2, CubicController(), start_time=2.0, stop_time=4.0)]
        sim = NetworkSimulator(topo, flows)
        sim.run(6.0)
        for link in topo.ordered_links:
            queue = link.queue
            assert queue.total_enqueued == pytest.approx(
                queue.total_delivered + queue.queue_occupancy, abs=1e-9), link.name
        for flow in flows:
            assert flow.total_sent == pytest.approx(
                flow.total_acked + flow.total_lost + flow.inflight, abs=1e-9), flow.flow_id
        # Join sanity (fan_in): everything the leaves delivered either entered
        # the shared root queue, was tail-dropped at its full buffer, or is
        # still propagating towards it in the transit stage.
        if spec == "fan_in(3)":
            root = topo.bottleneck.queue
            leaf_delivered = sum(link.queue.total_delivered
                                 for link in topo.ordered_links
                                 if link.name != topo.bottleneck_name)
            in_transit_to_root = sim.in_transit_occupancy().get(topo.bottleneck_name, 0.0)
            assert leaf_delivered == pytest.approx(
                root.total_enqueued + root.total_dropped + in_transit_to_root, abs=1e-9)

    def test_fifo_drains_interleaved_flows_in_arrival_order(self):
        link = BottleneckLink(constant_trace(12.0), min_rtt=0.05, buffer_packets=100.0)
        order = [(0, 3.0, 0.00), (1, 2.0, 0.00), (0, 4.0, 0.01), (2, 1.0, 0.02)]
        for flow_id, packets, t in order:
            link.enqueue(flow_id, packets, t)
        drained = []
        t = 0.03
        while link.queue_occupancy > 1e-9:
            for flow_id, packets, _ in link.drain(t, 0.2):
                drained.append((flow_id, packets))
            t += 0.2
        # Flow ids come back in exactly the interleaved arrival order.
        assert [fid for fid, _ in drained[:4]] == [0, 1, 0, 2]
        totals = {}
        for fid, packets in drained:
            totals[fid] = totals.get(fid, 0.0) + packets
        assert totals == {0: pytest.approx(7.0), 1: pytest.approx(2.0), 2: pytest.approx(1.0)}

    def test_fifo_queuing_delays_monotone_within_tick(self):
        link = BottleneckLink(constant_trace(6.0), min_rtt=0.05, buffer_packets=50.0)
        for t in (0.0, 0.1, 0.2):
            link.enqueue(0, 5.0, t)
        chunks = link.drain(1.0, 10.0)
        delays = [delay for _, _, delay in chunks]
        assert delays == sorted(delays, reverse=True)  # oldest (longest-waiting) first
        assert delays[0] == pytest.approx(1.0)

    def test_carried_delay_accumulates_across_hops(self):
        downstream = BottleneckLink(constant_trace(12.0), min_rtt=0.05, buffer_packets=50.0)
        downstream.enqueue(0, 2.0, 1.0, carried_delay=0.25)
        ((_, _, delay),) = downstream.drain(1.5, 10.0)
        assert delay == pytest.approx(0.25 + 0.5)


class TestStochasticLoss:
    def test_deterministic_mode_thins_exactly(self):
        link = BottleneckLink(constant_trace(), min_rtt=0.05, buffer_packets=100.0,
                              random_loss_rate=0.1, seed=3)
        _, _, random_lost = link.enqueue(0, 10.0, 0.0)
        assert random_lost == pytest.approx(1.0)

    def test_stochastic_mode_matches_rate_in_expectation(self):
        link = BottleneckLink(constant_trace(), min_rtt=0.05, buffer_packets=10_000.0,
                              random_loss_rate=0.1, stochastic_loss=True, seed=3)
        total_offered = 0.0
        total_lost = 0.0
        for i in range(2000):
            _, _, random_lost = link.enqueue(0, 5.5, 0.01 * i)
            total_offered += 5.5
            total_lost += random_lost
            link.drain(0.01 * i, 0.01)
        assert total_lost / total_offered == pytest.approx(0.1, rel=0.15)

    def test_stochastic_mode_reproducible_per_seed(self):
        def sequence(seed):
            link = BottleneckLink(constant_trace(), min_rtt=0.05, buffer_packets=100.0,
                                  random_loss_rate=0.2, stochastic_loss=True, seed=seed)
            return tuple(link.enqueue(0, 3.7, 0.01 * i)[2] for i in range(40))

        assert sequence(5) == sequence(5)
        assert sequence(5) != sequence(6)

    def test_stochastic_runs_shard_identically(self):
        # The end-to-end reproducibility satellite: hop seeds derive from the
        # task coordinates, so a stochastic-loss grid is bit-identical whether
        # it runs serially or across a process pool.
        from repro.harness.evaluate import EvaluationSettings
        from repro.harness.parallel import ExperimentTask, ParallelRunner, run_task

        trace = BandwidthTrace.constant(24.0, duration=30.0, name="const-24")
        tasks = []
        for scheme in ("cubic", "vegas"):
            for topology in ("single_bottleneck", "chain(2)"):
                settings = EvaluationSettings(duration=3.0, buffer_bdp=1.0,
                                              random_loss_rate=0.02, stochastic_loss=True,
                                              topology=topology, seed=7)
                tasks.append(ExperimentTask(scheme=scheme, trace=trace, settings=settings))
        serial = ParallelRunner(1).map(run_task, tasks)
        parallel = ParallelRunner(2).map(run_task, tasks)
        assert serial == parallel
        assert all(row["loss_rate"] > 0.0 for row in serial)
