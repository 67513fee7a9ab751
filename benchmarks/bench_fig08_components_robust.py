"""Figure 8 — certified-component distribution of the cwnd-change fraction (P5).

Paper claim: Canopy bounds the per-component cwnd-change fraction within the
±ε band (the horizontal red lines at y = ±0.01 in the figure) for most
components, while Orca's components spill far outside the band.  The
benchmark prints the fraction of components inside the band and the widest
certified change fraction observed for each scheme.
"""

import numpy as np
from benchconfig import DURATION, N_JOBS, SEED, TRAINING_STEPS, run_once

from repro.harness.registry import REGISTRY

TRACES = ("step-12-48", "flux-mid")


def _band_statistics(row: dict, epsilon: float = 0.01) -> dict:
    inside = []
    widest = 0.0
    for step in row["steps"]:
        bounds = np.asarray(step["output_bounds"])
        if bounds.size == 0:
            continue
        in_band = np.mean((bounds[:, 0] >= -epsilon) & (bounds[:, 1] <= epsilon))
        inside.append(float(in_band))
        widest = max(widest, float(np.max(np.abs(bounds))))
    return {
        "fraction_in_band": float(np.mean(inside)) if inside else 1.0,
        "widest_change_fraction": widest,
        "steps": len(inside),
    }


def test_fig08_certified_components_robustness(benchmark):
    result = run_once(
        benchmark, REGISTRY.run, "certified_components",
        {"model_kind": ("canopy-robust", "orca"), "property_family": "robustness",
         "trace_name": TRACES, "duration": DURATION, "n_components": 50,
         "max_steps": 50, "buffer_bdp": 2.0,
         "training_steps": TRAINING_STEPS, "seeds": (SEED,)},
        n_jobs=N_JOBS,
    )

    print("\nFigure 8: certified cwnd-change components (robustness property, eps = 0.01)")
    print(f"{'model':<16} {'trace':<14} {'in +-eps band':>14} {'widest |change|':>18}")
    summary = {}
    for row in result["rows"]:
        stats = _band_statistics(row)
        summary[(row["model"], row["trace"])] = stats
        print(f"{row['model']:<16} {row['trace']:<14} {stats['fraction_in_band']:>14.3f} "
              f"{stats['widest_change_fraction']:>18.4f}")

    canopy = np.mean([summary[("canopy-robust", t)]["fraction_in_band"] for t in TRACES])
    orca = np.mean([summary[("orca", t)]["fraction_in_band"] for t in TRACES])
    print(f"mean in-band fraction  canopy: {canopy:.3f}  orca: {orca:.3f}")
    assert canopy >= orca - 0.05
