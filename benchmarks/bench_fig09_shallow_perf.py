"""Figure 9 — empirical performance on shallow (1 BDP) buffers.

Paper claims (Takeaways 1, 3, 4): the Canopy shallow-buffer model improves
bandwidth utilization over Orca by ~4-10% (at the cost of somewhat higher p95
delay), and provides delays better than CUBIC while staying within ~0.92-0.98x
of BBR's utilization.  The benchmark prints the utilization / avg-delay /
p95-delay rows for every scheme on synthetic and cellular traces.
"""

from benchconfig import DURATION, N_CELLULAR, N_JOBS, N_SYNTHETIC, SEED, TRAINING_STEPS, run_once

from repro.harness.registry import REGISTRY
from repro.harness.reporting import print_experiment


def test_fig09_shallow_buffer_performance(benchmark):
    result = run_once(
        benchmark, REGISTRY.run, "performance_sweep",
        {"buffer_bdp": 1.0, "canopy_kind": "canopy-shallow",
         "duration": DURATION, "n_synthetic": N_SYNTHETIC, "n_cellular": N_CELLULAR,
         "training_steps": TRAINING_STEPS, "seeds": (SEED,)},
        n_jobs=N_JOBS,
    )
    print_experiment(
        "Figure 9: shallow buffer (1 BDP) — utilization vs delay",
        result,
        columns=["trace_kind", "scheme", "utilization", "avg_delay_ms", "p95_delay_ms", "loss_rate"],
    )

    by_scheme = {}
    for row in result["rows"]:
        by_scheme.setdefault(row["scheme"], []).append(row)

    def mean_util(scheme):
        rows = by_scheme[scheme]
        return sum(r["utilization"] for r in rows) / len(rows)

    canopy_util, orca_util = mean_util("canopy"), mean_util("orca")
    print(f"mean utilization  canopy: {canopy_util:.3f}  orca: {orca_util:.3f}  "
          f"cubic: {mean_util('cubic'):.3f}  bbr: {mean_util('bbr'):.3f}  vegas: {mean_util('vegas'):.3f}")
    # Shape: the Canopy shallow model does not lose utilization relative to Orca.
    assert canopy_util >= orca_util - 0.1
    # Every scheme produces a sane utilization value.
    for scheme, rows in by_scheme.items():
        assert all(0.0 < r["utilization"] <= 1.5 for r in rows), scheme
