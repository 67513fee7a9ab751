"""Figure 1 — Orca vs Canopy sending rate under ±5% observation noise.

Paper claim: adding small uniform noise to the observed queuing delay makes
Orca collapse its sending rate (severe under-utilization) while the
Canopy-trained controller stays close to its noise-free behaviour.
The benchmark prints per-scheme utilization/delay with and without noise and
the utilization drop caused by the noise.
"""

from benchconfig import DURATION, N_JOBS, SEED, TRAINING_STEPS, run_once

from repro.harness.registry import REGISTRY
from repro.harness.reporting import print_experiment


def test_fig01_noise_motivation(benchmark):
    result = run_once(
        benchmark, REGISTRY.run, "motivation_noise",
        {"duration": DURATION, "noise": 0.05,
         "training_steps": TRAINING_STEPS, "seeds": (SEED,)},
        n_jobs=N_JOBS,
    )
    print_experiment(
        "Figure 1: Orca vs Canopy under +-5% delay noise",
        result,
        columns=["scheme", "utilization", "avg_queuing_delay_ms", "p95_queuing_delay_ms", "loss_rate"],
    )
    print(f"utilization drop under noise  orca: {result['orca_noise_drop']:+.3f}  "
          f"canopy: {result['canopy_noise_drop']:+.3f}")

    rows = {row["scheme"]: row for row in result["rows"]}
    # Shape check: Canopy's utilization is at least as noise-stable as Orca's.
    assert result["canopy_noise_drop"] <= result["orca_noise_drop"] + 0.05
    assert rows["canopy-noise"]["utilization"] > 0.0
