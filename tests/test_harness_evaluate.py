"""Tests for the evaluation harness: scheme runs, summaries, QC_sat."""

import pytest

from repro.harness.evaluate import (
    CLASSICAL_SCHEMES,
    EvaluationSettings,
    certificates_for_decisions,
    evaluate_qcsat,
    run_scheme_on_trace,
    scheme_factory,
)
from repro.traces.trace import BandwidthTrace


@pytest.fixture
def settings():
    return EvaluationSettings(duration=4.0, buffer_bdp=1.0, seed=1)


@pytest.fixture
def trace():
    return BandwidthTrace.constant(24.0, duration=30.0, name="const-24")


class TestSettings:
    def test_invalid_duration(self):
        with pytest.raises(ValueError):
            EvaluationSettings(duration=0.0)

    def test_invalid_buffer(self):
        with pytest.raises(ValueError):
            EvaluationSettings(buffer_bdp=0.0)


class TestSchemeFactory:
    @pytest.mark.parametrize("name", CLASSICAL_SCHEMES)
    def test_classical_factories(self, name):
        controller = scheme_factory(name)()
        assert controller.cwnd >= 2.0

    def test_learned_scheme_requires_model(self):
        with pytest.raises(ValueError):
            scheme_factory("canopy")

    def test_factories_produce_fresh_instances(self):
        factory = scheme_factory("cubic")
        assert factory() is not factory()


class TestRunScheme:
    def test_cubic_run_summary(self, settings, trace):
        result = run_scheme_on_trace(scheme_factory("cubic"), trace, settings, scheme_name="cubic")
        assert result.scheme == "cubic"
        assert result.trace == "const-24"
        assert 0.0 < result.summary.utilization <= 1.5
        assert result.summary.avg_queuing_delay_ms >= 0.0
        assert result.decisions == []

    def test_learned_run_collects_decisions(self, settings, trace, quick_model):
        factory = scheme_factory("canopy", model=quick_model, seed=1)
        result = run_scheme_on_trace(factory, trace, settings, scheme_name="canopy")
        assert len(result.decisions) > 5
        assert result.scheme == "canopy"

    def test_random_loss_setting_increases_losses(self, trace):
        clean = run_scheme_on_trace(scheme_factory("cubic"), trace,
                                    EvaluationSettings(duration=4.0, random_loss_rate=0.0, seed=1))
        lossy = run_scheme_on_trace(scheme_factory("cubic"), trace,
                                    EvaluationSettings(duration=4.0, random_loss_rate=0.01, seed=1))
        assert lossy.summary.loss_rate >= clean.summary.loss_rate


class TestQCSat:
    def test_certificates_for_decisions_chain_prev_cwnd(self, settings, trace, quick_model):
        factory = scheme_factory("canopy", model=quick_model, seed=1)
        run = run_scheme_on_trace(factory, trace, settings, scheme_name="canopy")
        verifier = quick_model.make_verifier(n_components=4)
        decisions = run.decisions[:5]
        batches = certificates_for_decisions(verifier, quick_model.properties,
                                             decisions, n_components=4)
        assert set(batches) == {p.name for p in quick_model.properties}
        for prop in quick_model.properties:
            batch = batches[prop.name]
            assert batch.n_decisions == 5
            for index, decision in enumerate(decisions):
                cwnd_prev = decisions[index - 1].cwnd_after if index else decision.cwnd_before
                expected = verifier.certify(prop, decision.state, decision.cwnd_tcp, cwnd_prev,
                                            n_components=4)
                got = batch.certificate(index)
                assert got.output_bounds().tolist() == expected.output_bounds().tolist()
                assert got.feedback == expected.feedback == batch.feedback[index]

    def test_evaluate_qcsat_bounds(self, settings, trace, quick_model):
        result = evaluate_qcsat(quick_model, trace, settings, n_components=6)
        assert 0.0 <= result.mean <= 1.0
        assert result.std >= 0.0
        assert result.n_decisions > 0
        assert len(result.per_decision) > 0
        assert result.property_names == ["P1", "P2"]

    def test_evaluate_qcsat_with_explicit_properties(self, settings, trace, quick_orca_model):
        from repro.core.properties import robustness_properties

        result = evaluate_qcsat(quick_orca_model, trace, settings,
                                properties=robustness_properties(), n_components=4,
                                scheme_name="orca")
        assert result.scheme == "orca"
        assert result.property_names == ["P5"]
        assert 0.0 <= result.mean <= 1.0
