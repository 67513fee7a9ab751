"""Tests for the evaluation harness: scheme runs, summaries, QC_sat."""

from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest

from repro.harness.evaluate import (
    CLASSICAL_SCHEMES,
    EvaluationSettings,
    certificates_for_decisions,
    qcsat_columns,
    run_scheme_on_trace,
    scheme_factory,
)
from repro.harness.parallel import PROPERTY_FAMILIES, ExperimentTask, run_task
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

    def test_duration_must_exceed_skip_seconds(self):
        # The summary window starts at skip_seconds: an empty one scored all zeros.
        with pytest.raises(ValueError, match=r"duration \(1 s\).*skip_seconds \(1 s\)"):
            EvaluationSettings(duration=1.0, skip_seconds=1.0)


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
        batches = certificates_for_decisions(verifier, quick_model.properties, decisions)
        assert set(batches) == {p.name for p in quick_model.properties}
        for prop in quick_model.properties:
            batch = batches[prop.name]
            assert batch.n_decisions == 5
            for index, decision in enumerate(decisions):
                cwnd_prev = decisions[index - 1].cwnd_after if index else decision.cwnd_before
                expected = verifier.certify(prop, decision.state, decision.cwnd_tcp, cwnd_prev)
                assert batch.output_lo[index].tolist() == expected.output_lo[0].tolist()
                assert batch.output_hi[index].tolist() == expected.output_hi[0].tolist()
                assert batch.feedback[index] == expected.feedback[0]

    def test_certified_cell_qcsat_bounds(self, settings, trace, quick_model):
        task = ExperimentTask(scheme="canopy-shallow", trace=trace, settings=settings,
                              model_kind="canopy-shallow", training_steps=150, model_seed=11,
                              certify=True, n_components=6)
        row = run_task(task)
        assert 0.0 <= row["qcsat"] <= 1.0
        assert row["qcsat_decision_std"] >= 0.0
        assert row["n_decisions"] > 0
        assert 0 <= row["n_applicable"] <= row["n_decisions"]
        # Without a property family the model's own set (P1, P2) is certified.
        assert [prop.name for prop in quick_model.properties] == ["P1", "P2"]
        assert row["n_certificates"] == 2 * row["n_decisions"]

    def test_certified_cell_with_explicit_properties(self, settings, trace, quick_orca_model):
        task = ExperimentTask(scheme="orca", trace=trace, settings=settings, model_kind="orca",
                              training_steps=150, model_seed=11, certify=True,
                              property_family="robustness", n_components=4)
        row = run_task(task)
        assert row["scheme"] == "orca"
        assert [prop.name for prop in PROPERTY_FAMILIES["robustness"]()] == ["P5"]
        assert row["n_certificates"] == row["n_decisions"] > 0
        assert 0.0 <= row["qcsat"] <= 1.0

    def test_certified_cell_reports_the_run_it_certified(self, settings, trace, quick_model):
        task = ExperimentTask(scheme="canopy", trace=trace, settings=settings,
                              model_kind="canopy-shallow", training_steps=150, model_seed=11,
                              n_components=6)
        plain = run_task(task)
        certified = run_task(replace(task, certify=True))
        # Certification adds the QC_sat columns and leaves the run untouched.
        assert {key: certified[key] for key in plain} == plain
        run = run_scheme_on_trace(scheme_factory("canopy", model=quick_model, seed=settings.seed),
                                  trace, settings, scheme_name="canopy")
        expected = qcsat_columns(certificates_for_decisions(
            quick_model.make_verifier(n_components=6), quick_model.properties, run.decisions))
        assert {key: certified[key] for key in expected} == expected


class TestQCSatColumns:
    @staticmethod
    def batch(feedback, applicable):
        return SimpleNamespace(feedback=np.array(feedback, dtype=np.float64),
                               applicable_mask=np.array(applicable, dtype=bool))

    def test_mean_over_applicable_properties_per_decision(self):
        batches = {"A": self.batch([0.2, 0.4, 1.0], [True, True, False]),
                   "B": self.batch([0.6, 1.0, 1.0], [True, False, False])}
        columns = qcsat_columns(batches)
        # Decision 0 averages both properties, decision 1 only A, decision 2 none.
        per_decision = [np.mean([0.2, 0.6]), 0.4]
        assert columns == {"qcsat": float(np.mean(per_decision)),
                           "qcsat_decision_std": float(np.std(per_decision)),
                           "n_decisions": 3, "n_applicable": 2, "n_certificates": 6}

    def test_matches_the_per_decision_loop(self):
        """The masked sums give, bit for bit, the per-decision loop they
        replaced: the mean of each decision's applicable feedbacks, then
        the mean and std over those decisions."""
        rng = np.random.default_rng(7)
        for case in range(2000):
            n_properties, n_decisions = int(rng.integers(1, 6)), int(rng.integers(0, 80))
            feedback = rng.random((n_decisions, n_properties))
            if case % 2:
                feedback = np.round(feedback * 8) / 8  # ties and exact 0.0 and 1.0
            applicable = rng.random((n_decisions, n_properties)) < rng.choice([0.0, 0.3, 0.7, 1.0])
            applicable[rng.random(n_decisions) < 0.2] = False  # rows no property applies at
            batches = {f"P{i}": self.batch(feedback[:, i], applicable[:, i]) for i in range(n_properties)}
            per_decision = [float(np.mean(values[mask])) for values, mask in zip(feedback, applicable)
                            if mask.any()]
            n_applicable = len(per_decision)
            if not per_decision:
                per_decision = [float(np.mean(values)) for values in feedback]
            expected = {"qcsat": float(np.mean(per_decision)) if per_decision else 1.0,
                        "qcsat_decision_std": float(np.std(per_decision)) if per_decision else 0.0,
                        "n_decisions": n_decisions, "n_applicable": n_applicable,
                        "n_certificates": n_decisions * n_properties}
            columns = qcsat_columns(batches)
            assert columns == expected
            assert [float(columns[key]).hex() for key in ("qcsat", "qcsat_decision_std")] == [
                float(expected[key]).hex() for key in ("qcsat", "qcsat_decision_std")]

    def test_never_applicable_falls_back_to_unconditioned_feedback(self):
        columns = qcsat_columns({"A": self.batch([0.5, 1.0], [False, False])})
        assert columns["qcsat"] == 0.75
        assert columns["n_applicable"] == 0
        assert columns["n_certificates"] == 2
