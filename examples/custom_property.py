#!/usr/bin/env python3
"""Define a custom property and train a Canopy model against it.

The paper emphasizes that P1–P5 are not exhaustive: operators craft properties
matching their deployment.  This example defines a new property —

    "If the past k observed loss rates are all above 50%, the controller must
     not increase cwnd, regardless of the delay signal."

— expresses it in Canopy's property format, trains a controller with it in the
loop, and prints its QC_sat before and after training.

Run with::

    python examples/custom_property.py [training_steps]
"""

from __future__ import annotations

import sys

import numpy as np

from repro.core.config import CanopyConfig
from repro.core.properties import ActionKind, PropertySet, PropertySpec
from repro.core.trainer import CanopyTrainer, TrainerConfig
from repro.core.verifier import Verifier, VerifierConfig
from repro.nn import make_actor
from repro.orca.observations import ObservationConfig


def make_custom_property() -> PropertySpec:
    """'Severe loss => never grow the window', independent of queuing delay."""
    return PropertySpec(
        name="NoGrowthUnderSevereLoss",
        description="If the past k loss rates all exceed 50%, do not increase cwnd",
        kind=ActionKind.DELTA_CWND,
        delay_range=(0.0, 1.0),      # any delay — the property only cares about loss
        loss_range=(0.5, 1.0),
        dcwnd_sign=+1,
        allowed_direction=-1,
    )


def average_qcsat(verifier: Verifier, prop: PropertySpec, n_states: int = 50, seed: int = 0) -> float:
    """Mean QC feedback over random decision contexts, certified in one stacked call."""
    rng = np.random.default_rng(seed)
    obs_dim = verifier.observer.state_dim
    states, cwnd_tcp, cwnd_prev = [], [], []
    for _ in range(n_states):
        states.append(np.clip(rng.uniform(0.0, 1.0, obs_dim), 0.0, 1.0))
        cwnd_tcp.append(rng.uniform(10.0, 150.0))
        cwnd_prev.append(rng.uniform(10.0, 150.0))
    batch = verifier.certify(prop, np.array(states), np.array(cwnd_tcp), np.array(cwnd_prev))
    return float(np.mean(batch.feedback))


def main(training_steps: int = 600) -> None:
    custom = make_custom_property()
    properties = PropertySet("custom", [custom])
    obs_config = ObservationConfig()

    # QC_sat of an untrained controller, for reference.
    untrained_actor = make_actor(obs_config.state_dim, rng=np.random.default_rng(0))
    untrained_verifier = Verifier(untrained_actor, obs_config, VerifierConfig(n_components=20))
    before = average_qcsat(untrained_verifier, custom)

    # Train with the custom property in the loop.
    config = CanopyConfig(name="canopy-custom", properties=properties, lam=0.25,
                          n_components=5, buffer_bdp=1.0, observation=obs_config, seed=5)
    trainer = CanopyTrainer(config, TrainerConfig(total_steps=training_steps,
                                                  log_every=max(20, training_steps // 10)))
    result = trainer.train()

    trained_verifier = Verifier(result.agent.actor, obs_config, VerifierConfig(n_components=20))
    after = average_qcsat(trained_verifier, custom)

    print(f"Custom property: {custom.description}")
    print(f"  QC feedback before training: {before:.3f}")
    print(f"  QC feedback after  training: {after:.3f}")
    print(f"  final raw reward: {result.final_metrics()['raw_reward']:.3f}")
    print("\nAny property expressible as (precondition over observed features, forbidden "
          "action region) can be plugged into the same pipeline.")


if __name__ == "__main__":
    steps = int(sys.argv[1]) if len(sys.argv) > 1 else 600
    main(steps)
