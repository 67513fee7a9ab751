"""Figure 16 — sensitivity of Canopy to the hyperparameters N and λ.

Paper claims: N = 1 yields loose certificates and ~1.88x higher p95 delays,
N = 10 yields very tight feedback (27% lower delays than N = 5) but loses
utilization and costs more compute; larger λ (0.5 / 0.75) trades utilization
(-8 to -10%) for lower delays (-32 to -42%).  N = 5, λ = 0.25 is the balanced
default.  The benchmark trains a Canopy shallow model per configuration and
prints the utilization / delay rows.
"""

from benchconfig import DURATION, N_JOBS, SEED, TRAINING_STEPS, run_once

from repro.harness.registry import REGISTRY
from repro.harness.reporting import print_experiment


def test_fig16_sensitivity(benchmark):
    result = run_once(
        benchmark, REGISTRY.run, "sensitivity",
        {"n_values": (1, 5, 10), "lambda_values": (0.25, 0.5, 0.75),
         "training_steps": max(200, TRAINING_STEPS // 2),
         "duration": DURATION, "n_traces": 2, "seeds": (SEED,)},
        n_jobs=N_JOBS,
    )
    print_experiment(
        "Figure 16: sensitivity to the number of partitions N and the weight lambda",
        result,
        columns=["label", "n_components", "lambda", "utilization", "avg_delay_ms", "p95_delay_ms"],
    )
    rows = {row["label"]: row for row in result["rows"]}
    assert "N5-lam0.25" in rows
    for row in result["rows"]:
        assert 0.0 < row["utilization"] <= 1.5
        assert row["p95_delay_ms"] >= 0.0
