"""End-to-end integration tests spanning training, verification and evaluation."""

import numpy as np
import pytest

from repro.core.config import CanopyConfig
from repro.core.monitor import QCRuntimeMonitor
from repro.core.trainer import CanopyTrainer, TrainerConfig
from repro.core.verifier import Verifier, VerifierConfig
from repro.harness.evaluate import EvaluationSettings, run_scheme_on_trace, scheme_factory
from repro.harness.parallel import ExperimentTask, run_task
from repro.traces.synthetic import make_synthetic_trace


@pytest.mark.slow
def test_full_canopy_pipeline(quick_model, quick_orca_model):
    """Train (session fixture), evaluate on a trace, certify, and use the runtime monitor."""
    trace = make_synthetic_trace("step-12-48")
    settings = EvaluationSettings(duration=5.0, buffer_bdp=0.5, seed=3)

    # 1. Empirical evaluation of the learned controller against CUBIC.
    canopy_run = run_scheme_on_trace(scheme_factory("canopy", model=quick_model, seed=3),
                                     trace, settings, scheme_name="canopy")
    cubic_run = run_scheme_on_trace(scheme_factory("cubic"), trace, settings, scheme_name="cubic")
    assert canopy_run.summary.utilization > 0.05
    assert cubic_run.summary.utilization > 0.05

    # 2. QC_sat evaluation for both learned models on the same trace.
    canopy_qc = run_task(ExperimentTask(scheme="canopy", trace=trace, settings=settings,
                                        model_kind="canopy-shallow", training_steps=150,
                                        model_seed=11, certify=True, n_components=8))
    orca_qc = run_task(ExperimentTask(scheme="orca", trace=trace, settings=settings,
                                      model_kind="orca", training_steps=150, model_seed=11,
                                      certify=True, property_family="shallow", n_components=8))
    assert 0.0 <= canopy_qc["qcsat"] <= 1.0
    assert 0.0 <= orca_qc["qcsat"] <= 1.0
    # The certified canopy cell is the run evaluated in step 1.
    assert canopy_qc["utilization"] == canopy_run.summary.utilization

    # 3. Runtime monitor gating the learned decisions.
    monitor = QCRuntimeMonitor(quick_model.make_verifier(n_components=4), quick_model.properties, threshold=0.5)
    guarded = run_scheme_on_trace(
        scheme_factory("canopy-guarded", model=quick_model, decision_filter=monitor.decision_filter, seed=3),
        trace, settings, scheme_name="canopy-guarded")
    assert len(monitor.records) == len(guarded.decisions)
    assert 0.0 <= monitor.fallback_fraction <= 1.0


@pytest.mark.slow
def test_canopy_training_improves_property_satisfaction_over_orca():
    """The headline claim at CI scale: Canopy training yields higher QC feedback
    on the trained properties than the Orca baseline with the same budget."""
    steps = 500
    canopy = CanopyTrainer(CanopyConfig.shallow(seed=41),
                           TrainerConfig(total_steps=steps, log_every=steps // 4)).train()
    orca = CanopyTrainer(CanopyConfig.orca_baseline(seed=41),
                         TrainerConfig(total_steps=steps, log_every=steps // 4,
                                       use_verifier_reward=False)).train()
    assert canopy.history[-1].verifier_reward > orca.history[-1].verifier_reward


@pytest.mark.slow
def test_verifier_certifies_trained_model_on_fresh_states(quick_model):
    """Certification of the trained model works on states never seen in training."""
    verifier = Verifier(quick_model.actor, quick_model.observation_config,
                        VerifierConfig(n_components=10))
    rng = np.random.default_rng(5)
    feedbacks = []
    for _ in range(10):
        state = np.clip(rng.uniform(0.0, 1.0, quick_model.observation_config.state_dim), 0, 1)
        cwnd_tcp = float(rng.uniform(5.0, 200.0))
        cwnd_prev = float(rng.uniform(5.0, 200.0))
        for prop in quick_model.properties:
            cert = verifier.certify(prop, state, cwnd_tcp, cwnd_prev)
            assert 0.0 <= cert.feedback[0] <= 1.0
            feedbacks.append(cert.feedback[0])
    assert len(feedbacks) == 20
