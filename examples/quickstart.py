#!/usr/bin/env python3
"""Quickstart: train a small Canopy model, certify it, and compare it to CUBIC.

This walks through the whole pipeline in a couple of minutes on a laptop:

1. train a Canopy model for the shallow-buffer properties (P1 + P2) with the
   quantitative-certificate feedback in the loop,
2. evaluate it on an unseen synthetic trace against TCP CUBIC,
3. compute QC_sat — the certified fraction of the property input region —
   over the decisions of the evaluated Canopy run.

Run with::

    python examples/quickstart.py [training_steps]
"""

from __future__ import annotations

import sys

from repro.core import CanopyConfig, CanopyTrainer, TrainerConfig
from repro.harness.evaluate import (
    EvaluationSettings,
    certificates_for_decisions,
    qcsat_columns,
    run_scheme_on_trace,
    scheme_factory,
)
from repro.harness.models import TrainedModel
from repro.harness.reporting import format_rows
from repro.traces.synthetic import make_synthetic_trace


def main(training_steps: int = 600) -> None:
    # 1. Train -----------------------------------------------------------------
    print(f"Training a Canopy shallow-buffer model for {training_steps} steps ...")
    config = CanopyConfig.shallow(seed=7)
    trainer = CanopyTrainer(config, TrainerConfig(total_steps=training_steps,
                                                  log_every=max(20, training_steps // 10)))
    training = trainer.train()
    for log in training.history:
        print(f"  step {log.step:4d}  raw reward {log.raw_reward:6.3f}  "
              f"verifier reward {log.verifier_reward:6.3f}")
    model = TrainedModel(kind="canopy-shallow", config=config, training=training)

    # 2. Evaluate against CUBIC on an unseen trace ------------------------------
    trace = make_synthetic_trace("sawtooth-12-60")
    settings = EvaluationSettings(duration=15.0, buffer_bdp=0.5, min_rtt=0.04, seed=7)
    runs = {name: run_scheme_on_trace(factory, trace, settings, scheme_name=name)
            for name, factory in (("canopy", scheme_factory("canopy", model=model, seed=7)),
                                  ("cubic", scheme_factory("cubic")))}
    rows = [{"scheme": name, **run.summary.as_dict()} for name, run in runs.items()]
    print(f"\nEmpirical performance on trace {trace.name!r} (shallow 0.5 BDP buffer):")
    print(format_rows(rows, columns=["scheme", "utilization", "avg_queuing_delay_ms",
                                     "p95_queuing_delay_ms", "loss_rate"]))

    # 3. Certify the Canopy run of step 2 --------------------------------------
    batches = certificates_for_decisions(model.make_verifier(n_components=50), model.properties,
                                         runs["canopy"].decisions)
    qcsat = qcsat_columns(batches)
    print(f"\nQC_sat for properties {list(batches)} over {qcsat['n_decisions']} decisions: "
          f"{qcsat['qcsat']:.3f} +/- {qcsat['qcsat_decision_std']:.3f}")
    print("A QC_sat of 1.0 would be a full boolean proof that the controller always "
          "satisfies the properties over the certified input region.")


if __name__ == "__main__":
    steps = int(sys.argv[1]) if len(sys.argv) > 1 else 600
    main(steps)
