"""Tests for the IBP verifier: certification soundness and aggregation."""

import dataclasses
from functools import partial

import numpy as np
import pytest

from oracle import certify_reference
from repro.cc.netsim import MonitorReport
from repro.core.monitor import QCRuntimeMonitor
from repro.core.properties import (
    PropertySet,
    all_properties,
    deep_buffer_properties,
    property_p1,
    property_p2,
    property_p5,
    shallow_buffer_properties,
)
from repro.core.reward import CanopyRewardShaper
from repro.core.verifier import Verifier, VerifierConfig, weighted_feedback
from repro.harness.evaluate import certificates_for_decisions
from repro.nn import make_actor
from repro.orca.agent import DecisionRecord, cwnd_from_action
from repro.orca.observations import ObservationBuilder, ObservationConfig


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
    @pytest.mark.parametrize("n_components", (0, -3))
    def test_invalid_components(self, n_components):
        with pytest.raises(ValueError, match="n_components must be positive"):
            VerifierConfig(n_components=n_components)

    def test_config_is_frozen(self, verifier):
        # N is fixed once the verifier is built: no call can change it.
        with pytest.raises(dataclasses.FrozenInstanceError):
            verifier.config.n_components = 7

    def test_invalid_context(self, verifier, state):
        with pytest.raises(ValueError):
            verifier.certify(property_p1(), state, cwnd_tcp=0.0, cwnd_prev=10.0)
        with pytest.raises(ValueError):
            verifier.certify(property_p1(), state[None], [0.0], [10.0])
        with pytest.raises(ValueError):
            verifier.certify(property_p1(), state[None], [20.0, 20.0], [10.0, 10.0])
        with pytest.raises(ValueError, match="one cwnd_tcp and one cwnd_prev per decision"):
            verifier.certify(property_p1(), state, [20.0], 10.0)

    @pytest.mark.parametrize("prop", (property_p1(), property_p5()))
    def test_wrong_state_dim_is_rejected(self, verifier, prop):
        d = verifier.observer.state_dim
        for bad in (np.zeros(3), np.zeros(d + 1), np.zeros((2, 3)), np.zeros((2, 2, d))):
            with pytest.raises(ValueError, match=rf"state must have shape \(d,\) or \(D, d\) with d = {d}"):
                verifier.certify(prop, bad, 20.0, 10.0)

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

    @pytest.mark.parametrize("prop, feature", [
        (property_p5(), "delay"),
        (property_p1(), "throughput"),
        (property_p2(), "throughput"),
    ])
    def test_overflowing_region_is_rejected(self, verifier, state, prop, feature):
        # 1e308 is finite, so it passes the input check, but the region's
        # centre (lo + hi) / 2 (or P5's hi = 1.05e308) overflows.  This used
        # to come back as NaN/inf bounds with feedback 0.0.
        index = verifier.observer.feature_indices(feature)[1]
        single = state.copy()
        single[index] = 1e308
        stack = np.tile(state, (3, 1))
        stack[2, index] = 1e308
        with pytest.raises(ValueError, match=rf"{prop.name}: input region .* decision 0, state index {index}$"):
            verifier.certify(prop, single, 20.0, 10.0)
        with pytest.raises(ValueError, match=rf"{prop.name}: input region .* decision 2, state index {index}$"):
            verifier.certify([prop], stack, np.full(3, 20.0), np.full(3, 10.0))
        # In a stack of properties the error names the first one whose region fails.
        first = "P1" if feature == "throughput" else "P5"
        with pytest.raises(ValueError, match=rf"{first}: input region .* decision 2, state index {index}$"):
            verifier.certify(all_properties(), stack, np.full(3, 20.0), np.full(3, 10.0))

    def test_largest_safe_region_is_certified(self, verifier, state):
        # Just below the overflow, the region's arithmetic is finite and so is the certificate.
        single = state.copy()
        single[verifier.observer.feature_indices("throughput")[0]] = 8e307
        batch = verifier.certify(property_p1(), single, 20.0, 10.0)
        assert np.isfinite(batch.input_hi).all() and np.isfinite(batch.feedback).all()


def with_components(verifier, n_components):
    """``verifier``'s actor and observer under another N."""
    return Verifier(verifier.actor, verifier.observer.config, VerifierConfig(n_components=n_components))


class TestCertification:
    def test_certificate_structure(self, verifier, state):
        cert = with_components(verifier, 7).certify(property_p1(), state, cwnd_tcp=20.0, cwnd_prev=20.0)
        assert cert.property_name == "P1"
        assert cert.n_decisions == 1 and cert.applicable
        assert cert.input_lo.shape == (1, 7, state.shape[0])
        assert cert.output_lo.shape == cert.satisfied.shape == cert.component_feedback.shape == (1, 7)
        assert 0.0 <= cert.feedback[0] <= 1.0
        assert np.all(cert.output_lo <= cert.output_hi + 1e-12)

    def test_components_cover_delay_dimension(self, verifier, state):
        prop = property_p1()
        cert = with_components(verifier, 4).certify(prop, state, cwnd_tcp=20.0, cwnd_prev=20.0)
        delay_dim = verifier.observer.feature_indices("delay")[0]
        assert cert.input_lo[0, :, delay_dim].min() == pytest.approx(0.0)
        assert cert.input_hi[0, :, delay_dim].max() == pytest.approx(prop.delay_range[1])

    def test_soundness_against_concrete_samples(self, verifier, actor, state):
        """Concrete Δcwnd for points in each component lies inside its bounds."""
        prop = property_p1()
        cwnd_tcp, cwnd_prev = 25.0, 22.0
        cert = with_components(verifier, 3).certify(prop, state, cwnd_tcp, cwnd_prev)
        rng = np.random.default_rng(11)
        for input_lo, input_hi, output_lo, output_hi in zip(cert.input_lo[0], cert.input_hi[0],
                                                            cert.output_lo[0], cert.output_hi[0]):
            for _ in range(5):
                point = input_lo + rng.random(state.shape[0]) * (input_hi - input_lo)
                action = float(actor.forward(point.reshape(1, -1))[0, 0])
                delta = cwnd_from_action(action, cwnd_tcp) - cwnd_prev
                assert output_lo - 1e-6 <= delta <= output_hi + 1e-6

    def test_finer_partition_gives_tighter_output_bounds(self, verifier, state):
        """The hull of the fine-partition outputs lies inside the coarse bounds."""
        prop = property_p2()
        coarse = with_components(verifier, 1).certify(prop, state, 20.0, 20.0)
        fine = with_components(verifier, 10).certify(prop, state, 20.0, 20.0)
        assert fine.output_lo.min() >= coarse.output_lo[0, 0] - 1e-9
        assert fine.output_hi.max() <= coarse.output_hi[0, 0] + 1e-9

    def test_robustness_property_uses_reference_cwnd(self, verifier, actor, state):
        prop = property_p5(mu=0.05, epsilon=0.01)
        cert = verifier.certify(prop, state, cwnd_tcp=30.0, cwnd_prev=30.0)
        assert cert.output_lo.shape == (1, 5)
        # The allowed region is the +-epsilon band.
        assert cert.allowed_lo == pytest.approx(-0.01)
        assert cert.allowed_hi == pytest.approx(0.01)

    def test_zero_noise_state_is_trivially_robust(self, verifier, obs_config):
        # With an all-zero state the multiplicative perturbation has no effect,
        # so the certified change fraction must be exactly zero.
        state = np.zeros(obs_config.state_dim)
        cert = verifier.certify(property_p5(), state, cwnd_tcp=20.0, cwnd_prev=20.0)
        assert cert.satisfied.all()
        assert cert.feedback[0] == pytest.approx(1.0)

    def test_applicability_gating_optional(self, actor, obs_config, state):
        gated = Verifier(actor, obs_config, VerifierConfig(n_components=3, check_applicability=True))
        state_increasing = state.copy()
        observer = gated.observer
        for idx in observer.feature_indices("dcwnd"):
            state_increasing[idx] = 0.5  # history of increases
        cert = gated.certify(property_p1(), state_increasing, 20.0, 20.0)
        assert not cert.applicable
        assert cert.feedback[0] == pytest.approx(1.0)

    def test_applicability_follows_the_observed_dcwnd_history(self, actor, obs_config):
        """On a decreasing cwnd history P1 applies, P2 (which needs an
        increasing one) does not, and P5 applies at every state."""
        observer = ObservationBuilder(obs_config)
        for cwnd in (10.0, 9.0, 8.0, 7.0):
            observer.observe(MonitorReport(throughput_pps=100.0, loss_rate=0.0, avg_queuing_delay=0.0,
                                           n_acks=10.0, interval=0.2, srtt=0.05, min_rtt=0.05,
                                           avg_rtt=0.05, cwnd=cwnd))
        gated = Verifier(actor, obs_config, VerifierConfig(n_components=3, check_applicability=True))
        certificates = gated.certify([property_p1(), property_p2(), property_p5()], observer.state(), 20.0, 20.0)
        assert [certificates[name].applicable for name in ("P1", "P2", "P5")] == [True, False, True]

    def test_spec_with_list_ranges_is_certified(self, verifier, state):
        """Ranges given as lists are kept as tuples, so the spec stays hashable
        (plans are keyed by specs) and certifies like its tuple twin."""
        p1 = property_p1()
        listed = dataclasses.replace(p1, delay_range=list(p1.delay_range), loss_range=list(p1.loss_range),
                                     noise_features=list(p1.noise_features))
        assert listed == p1 and hash(listed) == hash(p1)
        assert isinstance(listed.delay_range, tuple) and isinstance(listed.noise_features, tuple)
        got, expected = verifier.certify(listed, state, 20.0, 20.0), verifier.certify(p1, state, 20.0, 20.0)
        np.testing.assert_array_equal(got.component_feedback, expected.component_feedback)
        np.testing.assert_array_equal(got.output_lo, expected.output_lo)

    def test_concrete_action_and_cwnd(self, verifier, state):
        action = verifier.concrete_action(state)
        assert -1.0 <= action <= 1.0
        cwnd = verifier.concrete_cwnd(state, cwnd_tcp=10.0)
        assert cwnd == pytest.approx(cwnd_from_action(action, 10.0))


class TestAggregation:
    def test_weighted_feedback_average(self, verifier, state):
        props = shallow_buffer_properties()
        value, per_property = weighted_feedback(props, verifier.certify(props, state, 20.0, 20.0))
        per_prop = [verifier.certify(p, state, 20.0, 20.0).feedback[0] for p in props]
        assert value == pytest.approx(np.mean(per_prop))
        assert per_property == dict(zip(("P1", "P2"), per_prop))

    def test_weighted_feedback_respects_weights(self, verifier, state):
        props = PropertySet("deep", [dataclasses.replace(p, weight=3.0) if p.name == "P3"
                                     else p for p in deep_buffer_properties()])
        value, _ = weighted_feedback(props, verifier.certify(props, state, 20.0, 20.0))
        certificates = {p.name: verifier.certify(p, state, 20.0, 20.0).feedback[0] for p in props}
        expected = (3.0 * certificates["P3"] + certificates["P4i"] + certificates["P4ii"]) / 5.0
        assert value == pytest.approx(expected)

    def test_empty_property_list_rejected(self, verifier, state):
        with pytest.raises(ValueError):
            verifier.certify([], state, 20.0, 20.0)
        with pytest.raises(ValueError):
            weighted_feedback([], {})

    def test_property_sequence_returns_per_property(self, verifier, state):
        certificates = verifier.certify(shallow_buffer_properties(), state, 20.0, 20.0)
        assert list(certificates) == ["P1", "P2"]


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
        assert cert_p1.satisfied.all()
        assert cert_p1.feedback[0] == pytest.approx(1.0)
        assert not cert_p2.satisfied.all()
        assert cert_p2.feedback[0] == pytest.approx(0.0, abs=1e-6)

    def test_always_decrease_policy_satisfies_p2_violates_p1(self, obs_config, state):
        actor = make_actor(obs_config.state_dim, hidden_sizes=(8,), rng=np.random.default_rng(0))
        output_dense = actor.layers[-2]
        output_dense.weight[...] = 0.0
        output_dense.bias[...] = -10.0
        verifier = Verifier(actor, obs_config, VerifierConfig(n_components=4))
        assert verifier.certify(property_p2(), state, 20.0, 20.0).satisfied.all()
        assert not verifier.certify(property_p1(), state, 20.0, 20.0).satisfied.all()

    def test_constant_policy_is_perfectly_robust(self, obs_config, state):
        actor = make_actor(obs_config.state_dim, hidden_sizes=(8,), rng=np.random.default_rng(0))
        output_dense = actor.layers[-2]
        output_dense.weight[...] = 0.0
        output_dense.bias[...] = 0.3
        verifier = Verifier(actor, obs_config, VerifierConfig(n_components=4))
        cert = verifier.certify(property_p5(), state, cwnd_tcp=20.0, cwnd_prev=20.0)
        assert cert.satisfied.all()


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

    def per_property(self, verifier, properties, *args):
        return {prop.name: float(Verifier.certify(verifier, prop, *args).feedback[0]) for prop in properties}

    def test_reward_shaper(self, verifier, state, calls):
        properties = shallow_buffer_properties()
        shaped = CanopyRewardShaper(verifier, properties, lam=0.5).shape(0.25, state, 20.0, 30.0)
        assert calls == [properties]
        expected = self.per_property(verifier, properties, state, 20.0, 30.0)
        assert shaped.per_property == expected
        assert shaped.verifier == (expected["P1"] + expected["P2"]) / 2.0

    def test_runtime_monitor(self, verifier, state, calls):
        properties = deep_buffer_properties()
        monitor = QCRuntimeMonitor(verifier, properties)
        value, per_property = monitor.evaluate(state, 20.0, 30.0)
        assert calls == [properties]
        assert per_property == self.per_property(verifier, properties, state, 20.0, 30.0)

    def test_property_sequence(self, verifier, state, calls):
        properties = all_properties()
        certificates = verifier.certify(properties, state, 20.0, 30.0)
        assert calls == [properties]
        assert certificates.applicable

    def test_certificates_for_decisions(self, verifier, state, calls):
        properties = shallow_buffer_properties()
        decisions = [DecisionRecord(time=0.1 * i, state=state * (1.0 - 0.1 * i), action=0.0, cwnd_tcp=20.0 + i,
                                    cwnd_before=10.0 + i, cwnd_after=11.0 + i, used_fallback=False, qc_value=1.0)
                     for i in range(4)]
        batches = certificates_for_decisions(verifier, properties, decisions)
        assert calls == [properties]
        assert list(batches) == ["P1", "P2"]


class TestOneComponentCount:
    """The verifier's ``VerifierConfig.n_components`` is the only N: every
    caller's certificates have that many components."""

    @pytest.fixture
    def batches(self, monkeypatch):
        batches = []
        certify = Verifier.certify

        def recording(self, *args):
            result = certify(self, *args)
            batches.extend(result.values())
            return result

        monkeypatch.setattr(Verifier, "certify", recording)
        return batches

    def test_every_caller_uses_the_configured_n(self, actor, obs_config, state, batches):
        verifier = Verifier(actor, obs_config, VerifierConfig(n_components=7))
        properties = shallow_buffer_properties()
        CanopyRewardShaper(verifier, properties).shape(0.0, state, 20.0, 30.0)
        QCRuntimeMonitor(verifier, properties).decision_filter(state, 20.0, 30.0)
        decisions = [DecisionRecord(time=0.1 * i, state=state, action=0.0, cwnd_tcp=20.0, cwnd_before=10.0,
                                    cwnd_after=11.0, used_fallback=False, qc_value=1.0) for i in range(3)]
        certificates_for_decisions(verifier, properties, decisions)
        assert [batch.output_lo.shape for batch in batches] == [(1, 7)] * 4 + [(3, 7)] * 2
        assert all(batch.input_lo.shape[1] == batch.component_feedback.shape[1] == 7 for batch in batches)
