"""Figure 10 — empirical performance on deep (5 BDP) buffers.

Paper claims (Takeaways 2, 4): on deep buffers the Canopy deep-buffer model
cuts p95 delay relative to Orca (by ~28% on synthetic and ~61% on cellular
traces) with roughly comparable utilization, and provides 57-74% smaller p95
delays than CUBIC (whose cubic growth fills the deep buffer).  The benchmark
prints the same rows and asserts the delay ordering Canopy <= CUBIC.
"""

from benchconfig import DURATION, N_CELLULAR, N_JOBS, N_SYNTHETIC, SEED, TRAINING_STEPS, run_once

from repro.harness.registry import REGISTRY
from repro.harness.reporting import print_experiment


def test_fig10_deep_buffer_performance(benchmark):
    result = run_once(
        benchmark, REGISTRY.run, "performance_sweep",
        {"buffer_bdp": 5.0, "canopy_kind": "canopy-deep",
         "duration": DURATION, "n_synthetic": N_SYNTHETIC, "n_cellular": N_CELLULAR,
         "training_steps": TRAINING_STEPS, "seeds": (SEED,)},
        n_jobs=N_JOBS,
    )
    print_experiment(
        "Figure 10: deep buffer (5 BDP) — utilization vs delay",
        result,
        columns=["trace_kind", "scheme", "utilization", "avg_delay_ms", "p95_delay_ms", "loss_rate"],
    )

    by_scheme = {}
    for row in result["rows"]:
        by_scheme.setdefault(row["scheme"], []).append(row)

    def mean_p95(scheme):
        rows = by_scheme[scheme]
        return sum(r["p95_delay_ms"] for r in rows) / len(rows)

    canopy_p95, cubic_p95, orca_p95 = mean_p95("canopy"), mean_p95("cubic"), mean_p95("orca")
    print(f"mean p95 delay (ms)  canopy: {canopy_p95:.1f}  orca: {orca_p95:.1f}  cubic: {cubic_p95:.1f}")
    # Shape: the deep-buffer Canopy model avoids CUBIC's bufferbloat.
    assert canopy_p95 <= cubic_p95 * 1.1
