"""Tests for the runtime QC monitor and fallback."""

import numpy as np
import pytest

from repro.core.monitor import QCRuntimeMonitor
from repro.core.properties import shallow_buffer_properties
from repro.core.verifier import Verifier, VerifierConfig
from repro.nn import make_actor
from repro.orca.observations import ObservationConfig


@pytest.fixture
def setup():
    obs_config = ObservationConfig()
    actor = make_actor(obs_config.state_dim, hidden_sizes=(16, 8), rng=np.random.default_rng(0))
    verifier = Verifier(actor, obs_config, VerifierConfig(n_components=5))
    state = np.clip(np.random.default_rng(1).uniform(0, 1, obs_config.state_dim), 0, 1)
    return actor, verifier, state


def make_biased_verifier(obs_config, bias):
    actor = make_actor(obs_config.state_dim, hidden_sizes=(8,), rng=np.random.default_rng(0))
    dense = actor.layers[-2]
    dense.weight[...] = 0.0
    dense.bias[...] = bias
    return Verifier(actor, obs_config, VerifierConfig(n_components=5))


class TestValidation:
    def test_invalid_threshold(self, setup):
        _, verifier, _ = setup
        with pytest.raises(ValueError):
            QCRuntimeMonitor(verifier, shallow_buffer_properties(), threshold=1.5)


class TestDecisions:
    def test_evaluate_returns_per_property(self, setup):
        _, verifier, state = setup
        monitor = QCRuntimeMonitor(verifier, shallow_buffer_properties(), threshold=0.5)
        value, per_property = monitor.evaluate(state, 20.0, 20.0)
        assert 0.0 <= value <= 1.0
        assert set(per_property) == {"P1", "P2"}

    def test_threshold_zero_always_allows(self, setup):
        _, verifier, state = setup
        monitor = QCRuntimeMonitor(verifier, shallow_buffer_properties(), threshold=0.0)
        allow, _ = monitor.decision_filter(state, 20.0, 20.0)
        assert allow

    def test_disabled_monitor_always_allows(self, setup):
        _, verifier, state = setup
        monitor = QCRuntimeMonitor(verifier, shallow_buffer_properties(), threshold=1.0, enabled=False)
        allow, _ = monitor.decision_filter(state, 20.0, 20.0)
        assert allow

    def test_high_threshold_triggers_fallback_for_violating_policy(self, setup):
        # A policy pinned at a=-1 always shrinks cwnd, so P1's QC feedback is
        # ~0.5 (P1 violated, P2 satisfied); a 0.9 threshold must trip fallback.
        _, _, state = setup
        verifier = make_biased_verifier(ObservationConfig(), bias=-10.0)
        monitor = QCRuntimeMonitor(verifier, shallow_buffer_properties(), threshold=0.9)
        allow, value = monitor.decision_filter(state, 20.0, 20.0)
        assert not allow
        assert value < 0.9
        assert monitor.fallback_fraction == pytest.approx(1.0)

    def test_satisfying_policy_never_falls_back(self, setup):
        # A neutral-constant policy (a=0, cwnd == cwnd_tcp == cwnd_prev) satisfies
        # both shallow-buffer properties, so feedback is 1.0 everywhere.
        _, _, state = setup
        verifier = make_biased_verifier(ObservationConfig(), bias=0.0)
        monitor = QCRuntimeMonitor(verifier, shallow_buffer_properties(), threshold=0.9)
        allow, value = monitor.decision_filter(state, 20.0, 20.0)
        assert allow
        assert value == pytest.approx(1.0)

    def test_records_and_reset(self, setup):
        _, verifier, state = setup
        monitor = QCRuntimeMonitor(verifier, shallow_buffer_properties(), threshold=0.5)
        monitor.decision_filter(state, 20.0, 20.0)
        monitor.decision_filter(state, 25.0, 20.0)
        assert len(monitor.records) == 2
        assert 0.0 <= monitor.mean_qc <= 1.0
        monitor.reset()
        assert monitor.records == []
        assert monitor.mean_qc == pytest.approx(1.0)


class TestEmptyRecordGuards:
    """Regression: summary properties on a monitor that never decided must
    return their neutral values, not raise ZeroDivisionError (ISSUE 7 #3)."""

    def test_empty_monitor_summaries_are_neutral(self, setup):
        _, verifier, _ = setup
        monitor = QCRuntimeMonitor(verifier, shallow_buffer_properties(), threshold=0.5)
        assert monitor.records == []
        assert monitor.fallback_fraction == 0.0
        assert monitor.mean_qc == pytest.approx(1.0)
        assert monitor.n_fallback_episodes == 0
        assert monitor.longest_fallback_run == 0

    def test_guards_hold_after_reset(self, setup):
        _, verifier, state = setup
        verifier = make_biased_verifier(ObservationConfig(), bias=-10.0)
        monitor = QCRuntimeMonitor(verifier, shallow_buffer_properties(), threshold=0.9)
        monitor.decision_filter(state, 20.0, 20.0)
        assert monitor.fallback_fraction == pytest.approx(1.0)
        monitor.reset()
        assert monitor.fallback_fraction == 0.0
        assert monitor.mean_qc == pytest.approx(1.0)


class TestTelemetryEmission:
    """The monitor's qc_decision / fallback_enter / fallback_exit stream."""

    def test_vetoing_monitor_emits_decision_and_fallback_enter(self, setup):
        from repro.telemetry import EventTrace

        _, _, state = setup
        verifier = make_biased_verifier(ObservationConfig(), bias=-10.0)
        trace = EventTrace()
        trace.advance(1.0)
        monitor = QCRuntimeMonitor(verifier, shallow_buffer_properties(), threshold=0.9, telemetry=trace)
        monitor.decision_filter(state, 20.0, 20.0)
        kinds = [event["kind"] for event in trace.events]
        assert kinds == ["qc_decision", "fallback_enter"]
        decision = trace.events[0]
        assert decision["t"] == 1.0
        assert decision["allowed"] is False
        assert decision["margin"] == pytest.approx(decision["qc"] - 0.9)
        # Staying in fallback must not re-emit fallback_enter.
        monitor.decision_filter(state, 20.0, 20.0)
        kinds = [event["kind"] for event in trace.events]
        assert kinds == ["qc_decision", "fallback_enter", "qc_decision"]
        assert monitor.n_fallback_episodes == 1
        assert monitor.longest_fallback_run == 2

    def test_allowing_monitor_exits_fallback(self, setup):
        from repro.telemetry import EventTrace

        _, _, state = setup
        trace = EventTrace()
        verifier = make_biased_verifier(ObservationConfig(), bias=0.0)
        monitor = QCRuntimeMonitor(verifier, shallow_buffer_properties(), threshold=0.9, telemetry=trace)
        monitor._in_fallback = True  # as if a storm were in progress
        monitor.decision_filter(state, 20.0, 20.0)
        kinds = [event["kind"] for event in trace.events]
        assert kinds == ["qc_decision", "fallback_exit"]
        assert trace.events[0]["allowed"] is True

    def test_untraced_monitor_emits_nothing(self, setup):
        _, verifier, state = setup
        monitor = QCRuntimeMonitor(verifier, shallow_buffer_properties(), threshold=0.5)
        monitor.decision_filter(state, 20.0, 20.0)  # telemetry=None: no-op path
