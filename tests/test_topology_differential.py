"""Differential suite: topology engine vs the legacy single-link simulator.

``LegacySingleLinkSimulator`` is a faithful copy of the pre-topology
``NetworkSimulator.tick`` loop (one shared ``BottleneckLink``, no routes, no
cross traffic).  The topology-driven simulator must reproduce its per-tick
trajectory *exactly* (atol=1e-12, in practice bit-for-bit) on the
``single_bottleneck`` family and on ``chain(1)`` — this is what keeps every
figure of the reproduction byte-stable across the multi-bottleneck refactor.
"""

import numpy as np
import pytest

from repro.cc.cubic import CubicController
from repro.cc.flow import Flow
from repro.cc.link import BottleneckLink
from repro.cc.netsim import NetworkSimulator
from repro.cc.vegas import VegasController
from repro.orca.env import OrcaEnvConfig, OrcaNetworkEnv
from repro.topology import Topology, build_topology
from repro.traces.synthetic import make_synthetic_trace
from repro.traces.trace import BandwidthTrace

RECORD_FIELDS = ("time", "sent", "acked", "lost", "rtt", "queuing_delay", "cwnd", "inflight")


class LegacySingleLinkSimulator:
    """The pre-topology simulator core: everything rides one shared link."""

    def __init__(self, link, flows, dt=0.01):
        self.link = link
        self.flows = {flow.flow_id: flow for flow in flows}
        self._flow_list = list(self.flows.values())
        self.dt = float(dt)
        self.now = 0.0
        self._tick_count = 0

    def tick(self):
        now = self.now
        dt = self.dt
        prop_rtt = self.link.min_rtt

        flow_list = self._flow_list
        n_flows = len(flow_list)
        offset = self._tick_count % n_flows
        for position in range(n_flows):
            flow = flow_list[(offset + position) % n_flows]
            allowance = flow.send_allowance(now, dt, prop_rtt)
            if allowance > 0:
                accepted, dropped, random_lost = self.link.enqueue(flow.flow_id, allowance, now)
                flow.record_sent(accepted, dropped, random_lost, now, prop_rtt)
        self._tick_count += 1

        for flow_id, packets, queuing_delay in self.link.drain(now, dt):
            self.flows[flow_id].record_delivery(packets, queuing_delay, now, prop_rtt)

        end_of_tick = now + dt
        records = {}
        for fid, flow in self.flows.items():
            records[fid] = flow.finish_tick(end_of_tick, dt)
        self.now = end_of_tick
        return records


def run_and_collect(sim, n_ticks):
    """Trajectories per flow: one (n_ticks, n_fields) array per flow id."""
    columns = {fid: [] for fid in sim.flows}
    for _ in range(n_ticks):
        records = sim.tick()
        for fid, record in records.items():
            columns[fid].append([getattr(record, name) for name in RECORD_FIELDS])
    return {fid: np.asarray(rows, dtype=np.float64) for fid, rows in columns.items()}


def make_link(trace, min_rtt=0.04, buffer_bdp=1.0, random_loss_rate=0.0, seed=11):
    return BottleneckLink(trace, min_rtt=min_rtt, buffer_bdp=buffer_bdp,
                          random_loss_rate=random_loss_rate, seed=seed)


def assert_trajectories_match(legacy, topo, n_flows):
    for fid in range(n_flows):
        np.testing.assert_allclose(legacy[fid], topo[fid], rtol=0.0, atol=1e-12,
                                   err_msg=f"flow {fid} diverged from the legacy trajectory")


class TestSingleBottleneckMatchesLegacy:
    def test_cubic_on_variable_trace(self):
        trace = make_synthetic_trace("step-12-48")
        legacy_sim = LegacySingleLinkSimulator(make_link(trace), [Flow(0, CubicController())])
        topo_sim = NetworkSimulator(
            build_topology("single_bottleneck", trace, min_rtt=0.04, buffer_bdp=1.0, seed=11),
            [Flow(0, CubicController())],
        )
        legacy = run_and_collect(legacy_sim, 800)
        topo = run_and_collect(topo_sim, 800)
        assert_trajectories_match(legacy, topo, n_flows=1)

    def test_random_loss_trajectory(self):
        trace = BandwidthTrace.constant(24.0, duration=60.0)
        legacy_sim = LegacySingleLinkSimulator(
            make_link(trace, random_loss_rate=0.01), [Flow(0, CubicController())])
        topo_sim = NetworkSimulator(
            build_topology("single_bottleneck", trace, min_rtt=0.04, buffer_bdp=1.0,
                           random_loss_rate=0.01, seed=3),
            [Flow(0, CubicController())],
        )
        legacy = run_and_collect(legacy_sim, 600)
        topo = run_and_collect(topo_sim, 600)
        assert_trajectories_match(legacy, topo, n_flows=1)

    def test_multi_flow_rotation_and_stagger(self):
        trace = make_synthetic_trace("square-12-36")
        def flows():
            return [Flow(0, CubicController()), Flow(1, VegasController(), start_time=1.5),
                    Flow(2, CubicController(), start_time=3.0)]
        legacy_sim = LegacySingleLinkSimulator(make_link(trace, buffer_bdp=0.7), flows())
        topo_sim = NetworkSimulator(
            build_topology("single_bottleneck", trace, min_rtt=0.04, buffer_bdp=0.7, seed=11),
            flows(),
        )
        legacy = run_and_collect(legacy_sim, 600)
        topo = run_and_collect(topo_sim, 600)
        assert_trajectories_match(legacy, topo, n_flows=3)

    def test_wrapped_bare_link_matches_legacy(self):
        # Passing a bare BottleneckLink (the legacy constructor signature)
        # wraps it as a one-hop topology with identical dynamics.
        trace = make_synthetic_trace("step-12-48")
        legacy_sim = LegacySingleLinkSimulator(make_link(trace), [Flow(0, CubicController())])
        wrapped_sim = NetworkSimulator(make_link(trace), [Flow(0, CubicController())])
        assert isinstance(wrapped_sim.topology, Topology)
        legacy = run_and_collect(legacy_sim, 500)
        wrapped = run_and_collect(wrapped_sim, 500)
        assert_trajectories_match(legacy, wrapped, n_flows=1)


class TestChainOneEquivalence:
    def test_chain1_matches_single_bottleneck(self):
        trace = make_synthetic_trace("step-12-48")
        single = NetworkSimulator(
            build_topology("single_bottleneck", trace, min_rtt=0.05, buffer_bdp=1.5, seed=5),
            [Flow(0, CubicController())],
        )
        chain1 = NetworkSimulator(
            build_topology("chain(1)", trace, min_rtt=0.05, buffer_bdp=1.5, seed=5),
            [Flow(0, CubicController())],
        )
        a = run_and_collect(single, 700)
        b = run_and_collect(chain1, 700)
        assert_trajectories_match(a, b, n_flows=1)

    def test_chain1_matches_legacy(self):
        trace = make_synthetic_trace("step-12-48")
        legacy_sim = LegacySingleLinkSimulator(
            make_link(trace, min_rtt=0.05, buffer_bdp=1.5), [Flow(0, CubicController())])
        chain1 = NetworkSimulator(
            build_topology("chain(1)", trace, min_rtt=0.05, buffer_bdp=1.5, seed=5),
            [Flow(0, CubicController())],
        )
        legacy = run_and_collect(legacy_sim, 700)
        topo = run_and_collect(chain1, 700)
        assert_trajectories_match(legacy, topo, n_flows=1)


class LegacyTrainingEnv(OrcaNetworkEnv):
    """The pre-topology training environment: ``_sample_link`` + a bare link.

    A faithful copy of the ``OrcaNetworkEnv`` scenario sampler before the
    topology-aware refactor — it draws trace/bandwidth, RTT, and one link
    seed from the same RNG stream, then drives the simulator through the
    single shared ``BottleneckLink``.  The topology-aware environment with a
    ``("single_bottleneck",)`` catalog must reproduce its training trajectory
    exactly (atol=1e-12).
    """

    def _sample_link(self) -> BottleneckLink:
        cfg = self.config
        if cfg.traces:
            trace = cfg.traces[int(self._rng.integers(0, len(cfg.traces)))]
        else:
            bandwidth = float(self._rng.uniform(*cfg.bandwidth_range_mbps))
            duration = cfg.episode_intervals * cfg.monitor_interval + 5.0
            trace = BandwidthTrace.constant(bandwidth, duration=duration)
        min_rtt = float(self._rng.uniform(*cfg.rtt_range_s))
        return BottleneckLink(trace, min_rtt=min_rtt, buffer_bdp=cfg.buffer_bdp,
                              seed=int(self._rng.integers(0, 2 ** 31)))

    def reset(self, seed=None):
        if seed is not None:
            self._rng = np.random.default_rng(seed)
        cfg = self.config
        link = self._sample_link()
        self._cubic = CubicController(initial_cwnd=10.0)
        flow = Flow(self._flow_id, self._cubic)
        self._sim = NetworkSimulator(link, [flow], dt=cfg.tick)
        self.observer.reset()
        self._steps = 0
        self._prev_enforced_cwnd = self._cubic.cwnd
        self._advance_one_interval()
        report = self._sim.monitor_report(self._flow_id)
        return self.observer.observe(self._maybe_noisy(report))


class TestTrainingTrajectoryPinned:
    """``topologies=("single_bottleneck",)`` training stays on the legacy path."""

    ACTIONS = (0.0, 0.5, -0.4, 1.0, -1.0)

    @staticmethod
    def _envs(**overrides):
        kwargs = dict(episode_intervals=5, seed=77)
        kwargs.update(overrides)
        legacy = LegacyTrainingEnv(OrcaEnvConfig(**kwargs))
        topo = OrcaNetworkEnv(OrcaEnvConfig(topologies=("single_bottleneck",), **kwargs))
        return legacy, topo

    def _assert_episodes_match(self, legacy, topo, n_episodes=3):
        for _ in range(n_episodes):
            obs_legacy = legacy.reset()
            obs_topo = topo.reset()
            np.testing.assert_allclose(obs_legacy, obs_topo, rtol=0.0, atol=1e-12)
            for action in self.ACTIONS:
                step_legacy = legacy.step(np.array([action]))
                step_topo = topo.step(np.array([action]))
                np.testing.assert_allclose(step_legacy[0], step_topo[0], rtol=0.0, atol=1e-12)
                assert step_legacy[1] == pytest.approx(step_topo[1], abs=1e-12)  # reward
                assert step_legacy[2] == step_topo[2]                            # done
                info_legacy, info_topo = step_legacy[3], step_topo[3]
                for key in ("cwnd_tcp", "cwnd_prev", "cwnd_enforced", "raw_reward",
                            "link_capacity_mbps", "min_rtt"):
                    assert info_legacy[key] == pytest.approx(info_topo[key], abs=1e-12), key

    def test_sampled_bandwidth_episodes_match_legacy(self):
        legacy, topo = self._envs()
        self._assert_episodes_match(legacy, topo)

    def test_trace_list_episodes_match_legacy(self):
        traces = [make_synthetic_trace("step-12-48"), make_synthetic_trace("square-12-36")]
        legacy, topo = self._envs(seed=31, traces=traces)
        self._assert_episodes_match(legacy, topo)

    def test_scenario_metadata_matches_legacy_draws(self):
        # The topology env must consume the RNG stream exactly like the legacy
        # sampler: same trace pick, same RTT, one entropy draw per episode.
        legacy, topo = self._envs(seed=19)
        legacy.reset()
        topo.reset()
        assert topo.scenario.spec == "single_bottleneck"
        assert topo.scenario.min_rtt == pytest.approx(legacy._sim.link.min_rtt, abs=1e-12)
        assert topo._sim.link.trace.capacity_mbps(0.0) == pytest.approx(
            legacy._sim.link.trace.capacity_mbps(0.0), abs=1e-12)


class TestMultiHopGoldenPins:
    """Golden fingerprints of the per-hop propagation physics.

    Multi-hop trajectories intentionally changed when the in-flight transit
    stage landed (chunks no longer cross a whole DAG inside one tick), so the
    multi-hop families cannot be pinned against the legacy single-link
    simulator.  Instead these scalars — recorded from the transit-enabled
    engine — pin the *new* physics so any future drift in multi-hop timing,
    loss accounting, or drain order is loud.  One-hop families stay covered
    by the bit-identical legacy suites above.
    """

    N_TICKS = 600
    GOLDEN = {
        "chain(3)": {
            0: dict(total_sent=11521.721085503006, total_acked=11190.358521524413,
                    total_lost=178.31765674604824, final_cwnd=183.69901952029554,
                    mean_rtt=0.11976975150426264, first_ack_time=0.06),
            1: dict(total_sent=1514.407746001484, total_acked=1479.57453160371,
                    total_lost=1.2355043778081864, final_cwnd=40.57908637140498,
                    mean_rtt=0.08733268879240086, first_ack_time=1.22),
        },
        "fan_in(3)": {
            0: dict(total_sent=10896.631181770015, total_acked=10554.691060192281,
                    total_lost=169.19159681864656, final_cwnd=203.08368387783423,
                    mean_rtt=0.12248489665601552, first_ack_time=0.07),
            1: dict(total_sent=694.7827753749448, total_acked=660.7831663243023,
                    total_lost=11.462054432071785, final_cwnd=26.28060359559994,
                    mean_rtt=0.10036081612429205, first_ack_time=1.31),
        },
        "shared_segment": {
            0: dict(total_sent=10884.273596880095, total_acked=10543.684381103227,
                    total_lost=167.87112014504413, final_cwnd=202.60239296210918,
                    mean_rtt=0.12228820065052712, first_ack_time=0.07),
            1: dict(total_sent=693.5498154655309, total_acked=662.2407312830754,
                    total_lost=8.709759657109464, final_cwnd=26.308601996070568,
                    mean_rtt=0.0978777429300023, first_ack_time=1.32),
        },
    }

    @staticmethod
    def _fingerprint(spec, n_ticks):
        trace = make_synthetic_trace("step-12-48")
        topo = build_topology(spec, trace, min_rtt=0.06, buffer_bdp=1.0, seed=9)
        flows = [Flow(0, CubicController()), Flow(1, CubicController(), start_time=1.0)]
        sim = NetworkSimulator(topo, flows, dt=0.01)
        rtt_samples = {0: [], 1: []}
        first_ack = {0: None, 1: None}
        for _ in range(n_ticks):
            records = sim.tick()
            for fid, record in records.items():
                if record.rtt > 0:
                    rtt_samples[fid].append(record.rtt)
                if first_ack[fid] is None and record.acked > 0:
                    first_ack[fid] = sim.now
        out = {}
        for fid, flow in sim.flows.items():
            out[fid] = dict(total_sent=flow.total_sent,
                            total_acked=flow.total_acked,
                            total_lost=flow.total_lost,
                            final_cwnd=flow.controller.cwnd,
                            mean_rtt=float(np.mean(rtt_samples[fid])),
                            first_ack_time=first_ack[fid])
        return out

    @pytest.mark.parametrize("spec", sorted(GOLDEN))
    def test_multi_hop_fingerprint_pinned(self, spec):
        observed = self._fingerprint(spec, self.N_TICKS)
        for fid, golden in self.GOLDEN[spec].items():
            for name, value in golden.items():
                assert observed[fid][name] == pytest.approx(value, rel=1e-9, abs=1e-12), (
                    f"{spec} flow {fid}: {name} drifted from the golden physics")


class TestMonitorReportStability:
    def test_monitor_report_identical_on_single_bottleneck(self):
        trace = make_synthetic_trace("step-12-48")
        wrapped = NetworkSimulator(make_link(trace), [Flow(0, CubicController())])
        built = NetworkSimulator(
            build_topology("single_bottleneck", trace, min_rtt=0.04, buffer_bdp=1.0, seed=11),
            [Flow(0, CubicController())],
        )
        for sim in (wrapped, built):
            for _ in range(120):
                sim.tick()
        report_a = wrapped.monitor_report(0)
        report_b = built.monitor_report(0)
        for name in ("throughput_pps", "loss_rate", "avg_queuing_delay", "n_acks",
                     "interval", "srtt", "min_rtt", "avg_rtt", "cwnd"):
            assert getattr(report_a, name) == pytest.approx(getattr(report_b, name), abs=1e-12)
