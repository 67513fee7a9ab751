"""Figure 13 — runtime performance with the QC_sat-guided fallback.

Paper claim: consulting QC_sat before every decision and falling back to
CUBIC below a threshold improves Orca's utilization (QC_sat is a useful
runtime signal), while Canopy's performance is largely unaffected because it
rarely trips the threshold.  The benchmark prints, per buffer family, scheme
and threshold, the utilization / delays / fallback fraction, and asserts that
Canopy falls back no more often than Orca at the strictest threshold.
"""

from benchconfig import DURATION, SEED, TRAINING_STEPS, run_once

from repro.harness.registry import REGISTRY
from repro.harness.reporting import print_experiment

THRESHOLDS = (0.0, 0.5, 0.8)


def test_fig13_runtime_fallback(benchmark):
    result = run_once(
        benchmark, REGISTRY.run, "fallback_runtime",
        {"duration": DURATION, "thresholds": THRESHOLDS, "n_components": 10, "n_traces": 2,
         "training_steps": TRAINING_STEPS, "seeds": (SEED,)},
    )
    print_experiment(
        "Figure 13: runtime fallback guided by QC_sat (threshold 0.0 = fallback disabled)",
        result,
        columns=["buffer_family", "scheme", "threshold", "utilization",
                 "avg_delay_ms", "p95_delay_ms", "fallback_fraction"],
    )
    strict = max(THRESHOLDS)
    rows = {(r["buffer_family"], r["scheme"], r["threshold"]): r for r in result["rows"]}
    for family in ("shallow", "deep"):
        canopy_fb = rows[(family, "canopy", strict)]["fallback_fraction"]
        orca_fb = rows[(family, "orca", strict)]["fallback_fraction"]
        print(f"{family}: fallback fraction at threshold {strict}  canopy: {canopy_fb:.2f}  orca: {orca_fb:.2f}")
        assert canopy_fb <= orca_fb + 0.15
