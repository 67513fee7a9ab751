"""Tests for the IBP verifier: certification soundness and aggregation."""

import dataclasses
from functools import partial

import numpy as np
import pytest

from oracle import certify_reference
from repro.core.monitor import QCRuntimeMonitor
from repro.core.properties import (
    all_properties,
    deep_buffer_properties,
    property_p1,
    property_p2,
    property_p5,
    shallow_buffer_properties,
)
from repro.core.reward import CanopyRewardShaper
from repro.core.verifier import Verifier, VerifierConfig
from repro.harness.evaluate import certificates_for_decisions
from repro.nn import make_actor
from repro.orca.agent import DecisionRecord, cwnd_from_action
from repro.orca.observations import ObservationConfig


@pytest.fixture
def obs_config():
    return ObservationConfig()


@pytest.fixture
def actor(obs_config):
    return make_actor(obs_config.state_dim, hidden_sizes=(16, 8), rng=np.random.default_rng(7))


@pytest.fixture
def verifier(actor, obs_config):
    return Verifier(actor, obs_config, VerifierConfig(n_components=5))


@pytest.fixture
def state(obs_config):
    rng = np.random.default_rng(3)
    return np.clip(rng.uniform(0.0, 1.0, size=obs_config.state_dim), 0.0, 1.0)


class TestConfig:
    def test_invalid_components(self):
        with pytest.raises(ValueError):
            VerifierConfig(n_components=0)

    def test_invalid_context(self, verifier, state):
        with pytest.raises(ValueError):
            verifier.certify(property_p1(), state, cwnd_tcp=0.0, cwnd_prev=10.0)
        with pytest.raises(ValueError):
            verifier.certify(property_p1(), state[None], [0.0], [10.0])
        with pytest.raises(ValueError):
            verifier.certify(property_p1(), state[None], [20.0, 20.0], [10.0, 10.0])

    @pytest.mark.parametrize("bad", (np.nan, np.inf, -np.inf))
    @pytest.mark.parametrize("field", ("state", "cwnd_tcp", "cwnd_prev"))
    def test_non_finite_inputs_are_rejected(self, verifier, state, field, bad):
        # NaN passes every `<=` check, so these used to come back as an
        # unsatisfied certificate with feedback 0.0 instead of an error.
        single = {"state": state.copy(), "cwnd_tcp": 20.0, "cwnd_prev": 10.0}
        stack = {"state": np.tile(state, (3, 1)), "cwnd_tcp": np.full(3, 20.0), "cwnd_prev": np.full(3, 10.0)}
        if field == "state":
            single["state"][0] = bad
            stack["state"][1, 0] = bad
        else:
            single[field] = bad
            stack[field][1] = bad
        for prop in (property_p1(), property_p5()):
            for certify in (verifier.certify, partial(certify_reference, verifier)):
                with pytest.raises(ValueError, match=f"{field} must be finite"):
                    certify(prop, **single)
            with pytest.raises(ValueError, match=f"{field} must be finite"):
                verifier.certify(prop, **stack)

    def test_non_finite_input_region_is_rejected(self, verifier, state):
        unbounded = dataclasses.replace(property_p1(), delay_range=(0.0, np.inf))
        with pytest.raises(ValueError, match="input region"):
            verifier.certify(unbounded, state, 20.0, 10.0)
        with pytest.raises(ValueError, match="input region"):
            verifier.certify(unbounded, state[None], [20.0], [10.0])

    @pytest.mark.parametrize("n_components", (0, -3))
    def test_non_positive_component_count_is_rejected(self, verifier, state, n_components):
        # A count of 0 used to fall back silently to the configured default.
        for certify in (verifier.certify, partial(certify_reference, verifier)):
            with pytest.raises(ValueError):
                certify(property_p1(), state, 20.0, 20.0, n_components=n_components)
        with pytest.raises(ValueError):
            verifier.certify(property_p1(), state[None], [20.0], [20.0], n_components=n_components)


class TestCertification:
    def test_certificate_structure(self, verifier, state):
        cert = verifier.certify(property_p1(), state, cwnd_tcp=20.0, cwnd_prev=20.0, n_components=7)
        assert cert.property_name == "P1"
        assert cert.n_components == 7
        assert 0.0 <= cert.feedback <= 1.0
        assert 0.0 <= cert.satisfied_fraction <= 1.0
        bounds = cert.output_bounds()
        assert bounds.shape == (7, 2)
        assert np.all(bounds[:, 0] <= bounds[:, 1] + 1e-12)

    def test_components_cover_delay_dimension(self, verifier, state):
        prop = property_p1()
        cert = verifier.certify(prop, state, cwnd_tcp=20.0, cwnd_prev=20.0, n_components=4)
        observer = verifier.observer
        delay_dim = observer.feature_indices("delay")[0]
        lows = sorted(c.input_lo[delay_dim] for c in cert.components)
        highs = sorted(c.input_hi[delay_dim] for c in cert.components)
        assert lows[0] == pytest.approx(0.0)
        assert highs[-1] == pytest.approx(prop.delay_range[1])

    def test_soundness_against_concrete_samples(self, verifier, actor, state):
        """Concrete Δcwnd for points in each component lies inside its bounds."""
        prop = property_p1()
        cwnd_tcp, cwnd_prev = 25.0, 22.0
        cert = verifier.certify(prop, state, cwnd_tcp, cwnd_prev, n_components=3)
        rng = np.random.default_rng(11)
        for component in cert.components:
            for _ in range(5):
                point = component.input_lo + rng.random(state.shape[0]) * (
                    component.input_hi - component.input_lo)
                action = float(actor.forward(point.reshape(1, -1))[0, 0])
                delta = cwnd_from_action(action, cwnd_tcp) - cwnd_prev
                assert component.output_lo - 1e-6 <= delta <= component.output_hi + 1e-6

    def test_finer_partition_gives_tighter_output_bounds(self, verifier, state):
        """The hull of the fine-partition outputs lies inside the coarse bounds."""
        prop = property_p2()
        coarse = verifier.certify(prop, state, 20.0, 20.0, n_components=1)
        fine = verifier.certify(prop, state, 20.0, 20.0, n_components=10)
        coarse_lo = coarse.components[0].output_lo
        coarse_hi = coarse.components[0].output_hi
        fine_bounds = fine.output_bounds()
        assert fine_bounds[:, 0].min() >= coarse_lo - 1e-9
        assert fine_bounds[:, 1].max() <= coarse_hi + 1e-9

    def test_robustness_property_uses_reference_cwnd(self, verifier, actor, state):
        prop = property_p5(mu=0.05, epsilon=0.01)
        cert = verifier.certify(prop, state, cwnd_tcp=30.0, cwnd_prev=30.0, n_components=5)
        assert cert.n_components == 5
        # The allowed region is the +-epsilon band.
        assert cert.allowed_lo == pytest.approx(-0.01)
        assert cert.allowed_hi == pytest.approx(0.01)

    def test_zero_noise_state_is_trivially_robust(self, verifier, obs_config):
        # With an all-zero state the multiplicative perturbation has no effect,
        # so the certified change fraction must be exactly zero.
        state = np.zeros(obs_config.state_dim)
        cert = verifier.certify(property_p5(), state, cwnd_tcp=20.0, cwnd_prev=20.0)
        assert cert.proof
        assert cert.feedback == pytest.approx(1.0)

    def test_applicability_gating_optional(self, actor, obs_config, state):
        gated = Verifier(actor, obs_config, VerifierConfig(n_components=3, check_applicability=True))
        state_increasing = state.copy()
        observer = gated.observer
        for idx in observer.feature_indices("dcwnd"):
            state_increasing[idx] = 0.5  # history of increases
        cert = gated.certify(property_p1(), state_increasing, 20.0, 20.0)
        assert not cert.applicable
        assert cert.feedback == pytest.approx(1.0)

    def test_concrete_action_and_cwnd(self, verifier, state):
        action = verifier.concrete_action(state)
        assert -1.0 <= action <= 1.0
        cwnd = verifier.concrete_cwnd(state, cwnd_tcp=10.0)
        assert cwnd == pytest.approx(cwnd_from_action(action, 10.0))


class TestAggregation:
    def test_verifier_feedback_weighted_average(self, verifier, state):
        props = shallow_buffer_properties()
        value = verifier.verifier_feedback(props, state, 20.0, 20.0)
        per_prop = [verifier.certify(p, state, 20.0, 20.0).feedback for p in props]
        assert value == pytest.approx(np.mean(per_prop))

    def test_verifier_feedback_respects_weights(self, verifier, state):
        props = deep_buffer_properties().reweighted({"P3": 3.0})
        value = verifier.verifier_feedback(props, state, 20.0, 20.0)
        certificates = {p.name: verifier.certify(p, state, 20.0, 20.0).feedback for p in props}
        expected = (3.0 * certificates["P3"] + certificates["P4i"] + certificates["P4ii"]) / 5.0
        assert value == pytest.approx(expected)

    def test_empty_property_list_rejected(self, verifier, state):
        with pytest.raises(ValueError):
            verifier.verifier_feedback([], state, 20.0, 20.0)

    def test_certify_all_returns_per_property(self, verifier, state):
        certificates = verifier.certify_all(shallow_buffer_properties(), state, 20.0, 20.0)
        assert set(certificates) == {"P1", "P2"}


class TestSemantics:
    def test_always_increase_policy_satisfies_p1_violates_p2(self, obs_config, state):
        """A policy pinned at a=+1 always grows cwnd: P1 holds, P2 fails."""
        actor = make_actor(obs_config.state_dim, hidden_sizes=(8,), rng=np.random.default_rng(0))
        # Force a large positive bias on the output layer so tanh saturates at +1.
        output_dense = actor.layers[-2]
        output_dense.weight[...] = 0.0
        output_dense.bias[...] = 10.0
        verifier = Verifier(actor, obs_config, VerifierConfig(n_components=4))
        cert_p1 = verifier.certify(property_p1(), state, cwnd_tcp=20.0, cwnd_prev=20.0)
        cert_p2 = verifier.certify(property_p2(), state, cwnd_tcp=20.0, cwnd_prev=20.0)
        assert cert_p1.proof
        assert cert_p1.feedback == pytest.approx(1.0)
        assert not cert_p2.proof
        assert cert_p2.feedback == pytest.approx(0.0, abs=1e-6)

    def test_always_decrease_policy_satisfies_p2_violates_p1(self, obs_config, state):
        actor = make_actor(obs_config.state_dim, hidden_sizes=(8,), rng=np.random.default_rng(0))
        output_dense = actor.layers[-2]
        output_dense.weight[...] = 0.0
        output_dense.bias[...] = -10.0
        verifier = Verifier(actor, obs_config, VerifierConfig(n_components=4))
        assert verifier.certify(property_p2(), state, 20.0, 20.0).proof
        assert not verifier.certify(property_p1(), state, 20.0, 20.0).proof

    def test_constant_policy_is_perfectly_robust(self, obs_config, state):
        actor = make_actor(obs_config.state_dim, hidden_sizes=(8,), rng=np.random.default_rng(0))
        output_dense = actor.layers[-2]
        output_dense.weight[...] = 0.0
        output_dense.bias[...] = 0.3
        verifier = Verifier(actor, obs_config, VerifierConfig(n_components=4))
        cert = verifier.certify(property_p5(), state, cwnd_tcp=20.0, cwnd_prev=20.0)
        assert cert.proof


class TestOneCertifyPerCallSite:
    """Every caller that needs several properties makes one
    ``Verifier.certify`` call over all of them (a profiler patching
    ``Verifier.certify`` sees each of them)."""

    @pytest.fixture
    def calls(self, monkeypatch):
        calls = []
        certify = Verifier.certify

        def counting(self, prop, *args, **kwargs):
            calls.append(prop)
            return certify(self, prop, *args, **kwargs)

        monkeypatch.setattr(Verifier, "certify", counting)
        return calls

    def per_property(self, verifier, properties, *args, **kwargs):
        return {prop.name: Verifier.certify(verifier, prop, *args, **kwargs) for prop in properties}

    def test_reward_shaper(self, verifier, state, calls):
        properties = shallow_buffer_properties()
        shaped = CanopyRewardShaper(verifier, properties, lam=0.5).shape(0.25, state, 20.0, 30.0)
        assert calls == [properties]
        expected = self.per_property(verifier, properties, state, 20.0, 30.0)
        assert shaped.per_property == {name: cert.feedback for name, cert in expected.items()}
        assert shaped.verifier == (expected["P1"].feedback + expected["P2"].feedback) / 2.0

    def test_runtime_monitor(self, verifier, state, calls):
        properties = deep_buffer_properties()
        monitor = QCRuntimeMonitor(verifier, properties, n_components=7)
        value, per_property = monitor.evaluate(state, 20.0, 30.0)
        assert calls == [properties]
        expected = self.per_property(verifier, properties, state, 20.0, 30.0, n_components=7)
        assert per_property == {name: cert.feedback for name, cert in expected.items()}

    def test_verifier_feedback_and_certify_all(self, verifier, state, calls):
        properties = all_properties()
        verifier.verifier_feedback(properties, state, 20.0, 30.0)
        certificates = verifier.certify_all(properties, state, 20.0, 30.0)
        assert calls == [properties, properties]
        assert certificates.applicable

    def test_certificates_for_decisions(self, verifier, state, calls):
        properties = shallow_buffer_properties()
        decisions = [DecisionRecord(time=0.1 * i, state=state * (1.0 - 0.1 * i), action=0.0, cwnd_tcp=20.0 + i,
                                    cwnd_before=10.0 + i, cwnd_after=11.0 + i, used_fallback=False, qc_value=1.0)
                     for i in range(4)]
        batches = certificates_for_decisions(verifier, properties, decisions, n_components=3)
        assert calls == [properties]
        assert list(batches) == ["P1", "P2"]
