"""Ablation — smoothed QC feedback (Eq. 6) vs boolean per-component certification.

The smoothing of the QC feedback is a load-bearing design choice of the
paper (Section 2.2 / Section 4.3.2; implemented by
``repro.core.qc.interval_feedback_batch``): boolean per-component feedback
(1 iff the component is fully certified) is sparse and rarely positive early
in training.  This ablation measures, over a set of random
decision contexts and an untrained controller, how often each signal is
exactly zero and its variance — the smoothed signal should be informative
(non-degenerate) on far more states.
"""

import numpy as np
from benchconfig import run_once

from repro.core.properties import shallow_buffer_properties
from repro.core.verifier import Verifier, VerifierConfig
from repro.nn import make_actor
from repro.orca.observations import ObservationConfig


def test_ablation_smoothed_vs_boolean_feedback(benchmark):
    obs_config = ObservationConfig()
    actor = make_actor(obs_config.state_dim, rng=np.random.default_rng(3))
    verifier = Verifier(actor, obs_config, VerifierConfig(n_components=5))
    properties = shallow_buffer_properties()
    rng = np.random.default_rng(5)

    def run_ablation():
        states, cwnd_tcp, cwnd_prev = [], [], []
        for _ in range(100):
            states.append(np.clip(rng.uniform(0.0, 1.0, obs_config.state_dim), 0.0, 1.0))
            cwnd_tcp.append(float(rng.uniform(5.0, 200.0)))
            cwnd_prev.append(float(rng.uniform(5.0, 200.0)))
        batches = verifier.certify(properties, np.array(states), np.array(cwnd_tcp), np.array(cwnd_prev)).values()
        # (draw, property) order; a proof is a decision whose every component is satisfied.
        smoothed = np.stack([batch.feedback for batch in batches], axis=-1).ravel()
        boolean = np.stack([batch.satisfied.all(axis=-1) for batch in batches], axis=-1).ravel().astype(float)
        return smoothed, boolean

    smoothed, boolean = run_once(benchmark, run_ablation)

    def describe(name, values):
        zero_fraction = float(np.mean(values <= 1e-9))
        print(f"{name:<10} mean={values.mean():.3f}  std={values.std():.3f}  "
              f"fraction exactly zero={zero_fraction:.2f}")
        return zero_fraction

    print("\nAblation: smoothed (Eq. 6) vs boolean per-step property feedback, untrained controller")
    smoothed_zero = describe("smoothed", smoothed)
    boolean_zero = describe("boolean", boolean)
    # The smoothed signal is dense: it is zero on no more states than the
    # boolean proof signal, and carries strictly more gradations.
    assert smoothed_zero <= boolean_zero + 1e-9
    assert len(np.unique(np.round(smoothed, 6))) >= len(np.unique(np.round(boolean, 6)))
