"""Figure 6 — certified-component distribution (Δcwnd bounds), shallow buffers.

Paper claim: for the shallow-buffer properties Canopy's per-component Δcwnd
bounds mostly lie on the desirable side of zero (above for the good-condition
case, below for the bad-condition case), whereas Orca's components frequently
cross into the undesired region.  The benchmark prints, for the first 50
decisions on two traces, the fraction of certified components per scheme.
"""

import numpy as np
from benchconfig import DURATION, N_JOBS, SEED, TRAINING_STEPS, run_once

from repro.harness.registry import REGISTRY

TRACES = ("step-12-48", "pulse-drop-48-12")


def _summarize(row: dict) -> dict:
    feedbacks = [step["feedback"] for step in row["steps"]]
    satisfied = [step["satisfied_fraction"] for step in row["steps"]]
    return {
        "mean_feedback": float(np.mean(feedbacks)) if feedbacks else 1.0,
        "mean_satisfied_fraction": float(np.mean(satisfied)) if satisfied else 1.0,
        "steps": len(feedbacks),
    }


def test_fig06_certified_components_shallow(benchmark):
    result = run_once(
        benchmark, REGISTRY.run, "certified_components",
        {"model_kind": ("canopy-shallow", "orca"), "property_family": "shallow",
         "trace_name": TRACES, "duration": DURATION, "n_components": 50,
         "max_steps": 50, "buffer_bdp": 0.5,
         "training_steps": TRAINING_STEPS, "seeds": (SEED,)},
        n_jobs=N_JOBS,
    )

    print("\nFigure 6: certified component distribution (shallow-buffer properties)")
    print(f"{'model':<16} {'trace':<20} {'mean QC feedback':>18} {'certified fraction':>20}")
    summary = {}
    for row in result["rows"]:
        stats = _summarize(row)
        summary[(row["model"], row["trace"])] = stats
        print(f"{row['model']:<16} {row['trace']:<20} {stats['mean_feedback']:>18.3f} "
              f"{stats['mean_satisfied_fraction']:>20.3f}")

    canopy_mean = np.mean([summary[("canopy-shallow", t)]["mean_feedback"] for t in TRACES])
    orca_mean = np.mean([summary[("orca", t)]["mean_feedback"] for t in TRACES])
    print(f"mean feedback over both traces  canopy: {canopy_mean:.3f}  orca: {orca_mean:.3f}")
    assert canopy_mean >= orca_mean - 0.05
