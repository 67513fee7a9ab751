"""Figure 11 — percentage change of the metrics under 5% observation noise.

Paper claim: under ±5% delay noise Orca is unpredictable (up to an 18% drop
in utilization), whereas the Canopy robustness model sustains at most a ~2%
drop while keeping ~95% utilization.  The benchmark prints the per-scheme
percentage changes of utilization / average delay / p95 delay and asserts that
Canopy's worst-case utilization change is no worse than Orca's.
"""

from benchconfig import DURATION, N_JOBS, SEED, TRAINING_STEPS, run_once

from repro.harness.registry import REGISTRY
from repro.harness.reporting import print_experiment


def test_fig11_noise_robustness(benchmark):
    result = run_once(
        benchmark, REGISTRY.run, "noise_sensitivity",
        {"duration": DURATION, "noise": 0.05, "n_traces": 3,
         "training_steps": TRAINING_STEPS, "seeds": (SEED,)},
        n_jobs=N_JOBS,
    )
    print_experiment(
        "Figure 11: % change of metrics under 5% delay noise (closer to zero is better)",
        result,
        columns=["scheme", "utilization_change_pct", "avg_delay_change_pct",
                 "p95_delay_change_pct", "max_abs_utilization_change_pct"],
    )
    rows = {row["scheme"]: row for row in result["rows"]}
    canopy = rows["canopy"]["max_abs_utilization_change_pct"]
    orca = rows["orca"]["max_abs_utilization_change_pct"]
    print(f"worst-case |utilization change|  canopy: {canopy:.2f}%  orca: {orca:.2f}%")
    assert canopy <= orca + 5.0
