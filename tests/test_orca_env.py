"""Tests for the Orca RL training environment."""

import numpy as np
import pytest

from repro.cc.cubic import CubicController
from repro.cc.flow import Flow
from repro.orca.env import OrcaEnvConfig, OrcaNetworkEnv, build_simulator
from repro.seeding import derive_seed
from repro.telemetry.profiler import TickProfiler, activate_profiler, deactivate_profiler
from repro.topology.families import build_topology
from repro.traces.trace import BandwidthTrace


def make_env(**overrides):
    defaults = dict(episode_intervals=6, seed=5)
    defaults.update(overrides)
    return OrcaNetworkEnv(OrcaEnvConfig(**defaults))


class TestConfigValidation:
    def test_invalid_bandwidth_range(self):
        with pytest.raises(ValueError):
            OrcaEnvConfig(bandwidth_range_mbps=(10.0, 5.0))

    def test_invalid_rtt_range(self):
        with pytest.raises(ValueError):
            OrcaEnvConfig(rtt_range_s=(0.0, 0.1))

    def test_invalid_buffer(self):
        with pytest.raises(ValueError):
            OrcaEnvConfig(buffer_bdp=0.0)

    def test_monitor_interval_smaller_than_tick(self):
        with pytest.raises(ValueError):
            OrcaEnvConfig(monitor_interval=0.001, tick=0.01)


class TestEnvironment:
    def test_step_before_reset_raises(self):
        env = make_env()
        with pytest.raises(RuntimeError):
            env.step(np.array([0.0]))

    def test_reset_returns_state_of_right_dim(self):
        env = make_env()
        state = env.reset()
        assert state.shape == (env.state_dim,)

    def test_episode_terminates_after_configured_intervals(self):
        env = make_env(episode_intervals=4)
        env.reset()
        done = False
        steps = 0
        while not done:
            _, _, done, _ = env.step(np.array([0.0]))
            steps += 1
            assert steps <= 10
        assert steps == 4

    def test_simulator_attaches_active_profiler(self):
        env = make_env()
        profiler = activate_profiler(TickProfiler())
        try:
            env.reset()
            env.step(np.array([0.0]))
        finally:
            deactivate_profiler()
        ticks_per_interval = round(env.config.monitor_interval / env.config.tick)
        assert profiler.ticks == 2 * ticks_per_interval
        env.reset()
        assert profiler.ticks == 2 * ticks_per_interval

    def test_build_simulator_builds_the_family_with_the_active_profiler(self):
        trace = BandwidthTrace.constant(24.0, duration=10.0)
        expected = build_topology("chain(3)", trace, min_rtt=0.05, buffer_bdp=2.0, seed=11)
        profiler = activate_profiler(TickProfiler())
        try:
            sim = build_simulator("chain(3)", trace, [Flow(0, CubicController())], dt=0.01,
                                  min_rtt=0.05, buffer_bdp=2.0, seed=11)
            sim.tick()
        finally:
            deactivate_profiler()
        assert profiler.ticks == 1
        assert ([(link.name, link.queue.seed) for link in sim.topology.ordered_links]
                == [(link.name, link.queue.seed) for link in expected.ordered_links])

    def test_info_contains_decision_context(self):
        env = make_env()
        env.reset()
        _, _, _, info = env.step(np.array([0.3]))
        for key in ("report", "cwnd_tcp", "cwnd_prev", "cwnd_enforced", "action", "raw_reward"):
            assert key in info
        assert info["cwnd_enforced"] == pytest.approx(2 ** (2 * 0.3) * info["cwnd_tcp"], rel=1e-6)

    def test_action_clipping(self):
        env = make_env()
        env.reset()
        _, _, _, info = env.step(np.array([5.0]))
        assert info["action"] == pytest.approx(1.0)

    def test_rewards_are_finite(self):
        env = make_env(episode_intervals=8)
        env.reset()
        for _ in range(8):
            _, reward, done, _ = env.step(np.array([0.0]))
            assert np.isfinite(reward)

    def test_seeded_reset_is_reproducible(self):
        env_a = make_env(seed=9)
        env_b = make_env(seed=9)
        state_a = env_a.reset()
        state_b = env_b.reset()
        assert np.allclose(state_a, state_b)

    def test_explicit_trace_list_is_used(self):
        trace = BandwidthTrace.constant(24.0, duration=60.0, name="fixed-24")
        env = make_env(traces=[trace])
        env.reset()
        _, _, _, info = env.step(np.array([0.0]))
        assert info["link_capacity_mbps"] == pytest.approx(24.0)

    def test_observation_noise_option(self):
        env = make_env(observation_noise=0.05)
        state = env.reset()
        assert state.shape == (env.state_dim,)

    def test_cubic_property_requires_reset(self):
        env = make_env()
        with pytest.raises(RuntimeError):
            _ = env.cubic
        env.reset()
        assert env.cubic.cwnd >= 2.0

    def test_aggressive_action_raises_enforced_window(self):
        env = make_env()
        env.reset()
        _, _, _, info_up = env.step(np.array([1.0]))
        assert info_up["cwnd_enforced"] == pytest.approx(4.0 * info_up["cwnd_tcp"], rel=1e-6)


class TestTopologyScenarios:
    FAMILIES = ("single_bottleneck", "chain(2)", "dumbbell")

    def test_empty_topologies_rejected(self):
        with pytest.raises(ValueError):
            OrcaEnvConfig(topologies=())

    def test_malformed_spec_rejected_at_config_time(self):
        with pytest.raises(ValueError):
            OrcaEnvConfig(topologies=("not_a_family",))
        with pytest.raises(ValueError):
            OrcaEnvConfig(topologies=("chain(0)",))

    def test_scenario_requires_reset(self):
        env = make_env()
        with pytest.raises(RuntimeError):
            _ = env.scenario

    def test_default_catalog_is_single_bottleneck(self):
        env = make_env()
        env.reset()
        assert env.scenario.spec == "single_bottleneck"
        assert env.scenario.hop_seeds == (("bottleneck", env.scenario.hop_seeds[0][1]),)

    def test_same_seed_same_scenario_sequence(self):
        env_a = make_env(seed=13, topologies=self.FAMILIES)
        env_b = make_env(seed=13, topologies=self.FAMILIES)
        for _ in range(8):
            env_a.reset()
            env_b.reset()
        assert env_a.scenario_history == env_b.scenario_history
        assert len(env_a.scenario_history) == 8
        assert [scenario.episode for scenario in env_a.scenario_history] == list(range(8))

    def test_domain_randomization_samples_every_family(self):
        env = make_env(seed=3, topologies=self.FAMILIES)
        seen = set()
        for _ in range(32):
            env.reset()
            seen.add(env.scenario.spec)
        assert seen == set(self.FAMILIES)

    def test_episode_seed_follows_derive_seed_convention(self):
        # Per-hop loss-RNG seeds must derive from the episode seed and the
        # (spec, trace, link) coordinates, exactly like evaluation-side grids.
        env = make_env(seed=7, topologies=("chain(2)",))
        env.reset()
        scenario = env.scenario
        assert len(scenario.hop_seeds) == 2
        for link_name, hop_seed in scenario.hop_seeds:
            assert hop_seed == derive_seed(scenario.seed, "topology", scenario.spec,
                                           scenario.trace_name, link_name)

    def test_multi_hop_info_fields(self):
        env = make_env(seed=2, topologies=("chain(2)",))
        env.reset()
        _, _, _, info = env.step(np.array([0.0]))
        assert info["topology"] == "chain(2)"
        assert info["n_hops"] == 2
        assert info["episode_seed"] == env.scenario.seed
        assert np.isfinite(info["min_rtt"]) and info["min_rtt"] > 0.0

    def test_scenario_as_dict_round_trip(self):
        env = make_env(seed=4, topologies=("parking_lot(2)",))
        env.reset()
        payload = env.scenario.as_dict()
        assert payload["topology"] == "parking_lot(2)"
        assert payload["episode"] == 0
        assert set(payload["hop_seeds"]) == {"seg1", "seg2"}

    def test_multi_hop_episode_runs_to_completion(self):
        env = make_env(seed=6, episode_intervals=4, topologies=("dumbbell",))
        env.reset()
        done = False
        steps = 0
        while not done:
            _, reward, done, _ = env.step(np.array([0.0]))
            assert np.isfinite(reward)
            steps += 1
        assert steps == 4
