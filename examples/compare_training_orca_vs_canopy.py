#!/usr/bin/env python3
"""Reproduce the training-curve comparison (Figure 17) at example scale.

Trains the Orca baseline (raw reward only) and Canopy (QC-shaped reward) with
the same budget, prints both training curves, and then evaluates the QC_sat of
both resulting models on a few traces (the Figure 5 comparison).

Run with::

    python examples/compare_training_orca_vs_canopy.py [training_steps]
"""

from __future__ import annotations

import sys

from repro.harness.models import get_trained_model
from repro.harness.registry import REGISTRY
from repro.harness.reporting import print_experiment


def main(training_steps: int = 800) -> None:
    print(f"=== Training curves (Figure 17), {training_steps} steps per model ===")
    training = {scheme: get_trained_model(kind, training_steps=training_steps, seed=3).training
                for scheme, kind in (("canopy", "canopy-shallow"), ("orca", "orca"))}
    for scheme in ("orca", "canopy"):
        series = training[scheme].reward_curves()
        print(f"\n{scheme}:")
        print(f"  {'step':>6} {'raw':>8} {'verifier':>10}")
        for step, raw, verifier in zip(series["step"], series["raw"], series["verifier"]):
            print(f"  {int(step):>6} {raw:>8.3f} {verifier:>10.3f}")
    print("\nfinal metrics:", {scheme: result.final_metrics() for scheme, result in training.items()})

    print("\n=== QC_sat comparison (Figure 5), shallow & deep properties ===")
    qcsat = REGISTRY.run("qcsat_buffers", {"training_steps": training_steps, "duration": 10.0,
                                           "n_components": 50, "n_synthetic": 3,
                                           "n_cellular": 2, "seeds": (3,)})
    print_experiment("QC_sat per property family / trace kind", qcsat,
                     columns=["property_family", "trace_kind", "scheme", "qcsat_mean", "qcsat_std"])


if __name__ == "__main__":
    steps = int(sys.argv[1]) if len(sys.argv) > 1 else 800
    main(steps)
