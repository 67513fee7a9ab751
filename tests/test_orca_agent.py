"""Tests for the two-level LearnedController and the cwnd map."""

import numpy as np
import pytest

from repro.cc.cubic import CubicController
from repro.cc.flow import Flow
from repro.cc.link import BottleneckLink
from repro.cc.netsim import NetworkSimulator
from repro.orca.agent import LearnedController, action_step, cwnd_from_action
from repro.orca.observations import ObservationConfig
from repro.traces.trace import BandwidthTrace


def constant_policy(value: float):
    return lambda state: np.array([value])


def _picklable_policy(state):
    return np.array([0.3])


def run_learned(policy, duration=3.0, monitor_interval=0.2, decision_filter=None,
                observation_noise=0.0, mbps=24.0):
    controller = LearnedController(policy, observation_config=ObservationConfig(),
                                   monitor_interval=monitor_interval,
                                   decision_filter=decision_filter,
                                   observation_noise=observation_noise, noise_seed=0)
    trace = BandwidthTrace.constant(mbps, duration=duration + 5)
    link = BottleneckLink(trace, min_rtt=0.04, buffer_bdp=2.0)
    sim = NetworkSimulator(link, [Flow(0, controller)], dt=0.01)
    sim.run(duration)
    return controller, sim


class TestCwndMap:
    def test_equation_one(self):
        assert cwnd_from_action(0.0, 10.0) == pytest.approx(10.0)
        assert cwnd_from_action(1.0, 10.0) == pytest.approx(40.0)
        assert cwnd_from_action(-1.0, 10.0) == pytest.approx(2.5)

    def test_action_clipped(self):
        assert cwnd_from_action(10.0, 10.0) == pytest.approx(40.0)

    def test_minimum_window_enforced(self):
        assert cwnd_from_action(-1.0, 0.5) >= 2.0

    def test_action_step_returns_the_clipped_action_with_its_window(self):
        assert action_step(3.0, 10.0) == (1.0, cwnd_from_action(1.0, 10.0))
        assert action_step(-7.5, 10.0) == (-1.0, cwnd_from_action(-1.0, 10.0))
        assert action_step(0.25, 10.0) == (0.25, cwnd_from_action(0.25, 10.0))
        assert all(isinstance(value, float) for value in action_step(np.float32(0.5), 10.0))


class TestLearnedController:
    def test_invalid_monitor_interval(self):
        with pytest.raises(ValueError):
            LearnedController(constant_policy(0.0), monitor_interval=0.0)

    def test_decisions_made_every_monitor_interval(self):
        controller, sim = run_learned(constant_policy(0.0), duration=2.0, monitor_interval=0.2)
        assert len(controller.decisions) == pytest.approx(10, abs=1)

    def test_neutral_action_keeps_cubic_window(self):
        controller, _ = run_learned(constant_policy(0.0), duration=2.0)
        for decision in controller.decisions:
            assert decision.cwnd_after == pytest.approx(decision.cwnd_tcp, rel=1e-6)

    def test_positive_action_multiplies_window(self):
        controller, _ = run_learned(constant_policy(0.5), duration=2.0)
        for decision in controller.decisions:
            assert decision.cwnd_after == pytest.approx(2.0 * decision.cwnd_tcp, rel=1e-6)

    def test_aggressive_negative_action_hurts_throughput(self):
        neutral, sim_neutral = run_learned(constant_policy(0.0), duration=4.0)
        throttled, sim_throttled = run_learned(constant_policy(-1.0), duration=4.0)
        neutral_acked = sim_neutral.stats[0].acked.sum()
        throttled_acked = sim_throttled.stats[0].acked.sum()
        assert throttled_acked < neutral_acked

    def test_decision_filter_forces_fallback(self):
        filter_calls = []

        def deny_all(state, cwnd_tcp, cwnd_prev):
            filter_calls.append(cwnd_tcp)
            return False, 0.1

        controller, _ = run_learned(constant_policy(1.0), duration=2.0, decision_filter=deny_all)
        assert len(filter_calls) == len(controller.decisions)
        assert controller.fallback_fraction == pytest.approx(1.0)
        # With the learned action vetoed, the CUBIC window is left untouched.
        for decision in controller.decisions:
            assert decision.cwnd_after == pytest.approx(decision.cwnd_tcp)
        assert controller.mean_qc == pytest.approx(0.1)

    def test_observation_noise_changes_states_not_crash(self):
        noisy, _ = run_learned(constant_policy(0.0), duration=2.0, observation_noise=0.05)
        clean, _ = run_learned(constant_policy(0.0), duration=2.0, observation_noise=0.0)
        assert len(noisy.decisions) == len(clean.decisions)

    def test_reset_clears_decisions(self):
        controller, _ = run_learned(constant_policy(0.0), duration=1.0)
        controller.reset()
        assert controller.decisions == []
        assert controller.fallback_fraction == 0.0
        assert controller.mean_qc == 1.0

    @pytest.mark.parametrize("clone", ("deepcopy", "pickle"))
    def test_a_copied_controller_ticks_its_own_inner_controller(self, clone):
        import copy
        import pickle

        controller, _ = run_learned(_picklable_policy, duration=1.05)
        twin = copy.deepcopy(controller) if clone == "deepcopy" else pickle.loads(pickle.dumps(controller))
        feedback = controller._interval[-1]
        before = (controller.inner.cwnd, len(controller._interval), len(controller.decisions))
        for step in range(1, 41):
            twin.on_tick(feedback._replace(now=feedback.now + 0.01 * step))
        assert (controller.inner.cwnd, len(controller._interval), len(controller.decisions)) == before
        assert len(twin.decisions) > len(controller.decisions)
        assert twin.cwnd == twin.inner.cwnd != before[0]

    def test_cwnd_property_delegates_to_inner(self):
        inner = CubicController(initial_cwnd=17.0)
        controller = LearnedController(constant_policy(0.0), inner=inner)
        assert controller.cwnd == pytest.approx(17.0)
        controller.set_cwnd(42.0)
        assert inner.cwnd == pytest.approx(42.0)

    def test_decision_records_contain_state_vectors(self):
        controller, _ = run_learned(constant_policy(0.2), duration=1.0)
        config = ObservationConfig()
        for decision in controller.decisions:
            assert decision.state.shape == (config.state_dim,)
            assert -1.0 <= decision.action <= 1.0
