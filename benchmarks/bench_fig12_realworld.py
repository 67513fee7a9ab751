"""Figure 12 — performance on emulated wide-area ("real world") paths.

Paper claim: across intra- and inter-continental paths the Canopy shallow
model provides higher bandwidth than Orca, the Canopy deep model provides
lower delays than Orca, and both dominate CUBIC on the throughput/delay
tradeoff.  The real testbed (CloudLab sender + nine Azure regions) is
substituted by the heterogeneous WAN profile set in
``repro.traces.realworld`` (see DESIGN.md).
"""

from benchconfig import DURATION, N_JOBS, SEED, TRAINING_STEPS, run_once

from repro.harness.registry import REGISTRY
from repro.harness.reporting import print_experiment


def test_fig12_realworld_deployment(benchmark):
    result = run_once(
        benchmark, REGISTRY.run, "realworld_deployment",
        {"duration": DURATION, "profiles_per_category": 2,
         "training_steps": TRAINING_STEPS, "seeds": (SEED,)},
        n_jobs=N_JOBS,
    )
    print_experiment(
        "Figure 12: emulated wide-area deployment (normalized per path)",
        result,
        columns=["category", "scheme", "normalized_throughput", "normalized_delay", "n_paths"],
    )
    rows = {(row["category"], row["scheme"]): row for row in result["rows"]}
    for category in ("intra", "inter"):
        canopy_shallow = rows[(category, "canopy-shallow")]["normalized_throughput"]
        cubic = rows[(category, "cubic")]["normalized_throughput"]
        print(f"{category}: canopy-shallow normalized throughput {canopy_shallow:.3f} vs cubic {cubic:.3f}")
        assert 0.0 < canopy_shallow <= 1.0 + 1e-9
        assert rows[(category, "canopy-deep")]["normalized_delay"] >= 1.0 - 1e-9
