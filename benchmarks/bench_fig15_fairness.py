"""Figure 15 — convergence behaviour with homogeneous flows joining over time.

Paper claim: when flows of the same scheme join every 12 s on a 48 Mbps /
20 ms / 1 BDP link, the Canopy shallow model converges like Orca (which in
turn behaves like CUBIC); the deep-buffer model converges more slowly but
eventually.  The benchmark prints the per-flow final throughputs and the
Jain fairness index per scheme.

Every scheme is an ``ExperimentTask`` cell of the registered ``fairness``
experiment: flow 0 of the scheme starts at once, and two more flows of the
same scheme join at 12 s and 24 s as the ``step(12-:24-:self)`` workload.
The runner adds per-flow ``throughputs_mbps`` over the window in which all
three flows are active, and ``jain_index``.  The grid shards across a process
pool via ``REPRO_BENCH_JOBS`` with rows identical to a serial run (and is
reachable generically as ``python -m repro run fairness``).
"""

from benchconfig import N_JOBS, SEED, TRAINING_STEPS, run_once

from repro.harness.registry import REGISTRY
from repro.harness.reporting import format_rows

SCHEMES = ("cubic", "orca", "canopy-shallow", "canopy-deep")


def test_fig15_fairness_convergence(benchmark):
    result = run_once(
        benchmark, REGISTRY.run, "fairness",
        {"schemes": SCHEMES, "n_flows": 3, "join_interval": 12.0,
         "training_steps": TRAINING_STEPS, "seeds": (SEED,)},
        n_jobs=N_JOBS,
    )
    grid_rows = result["rows"]

    print("\nFigure 15: fairness convergence (3 flows joining every 12 s, 48 Mbps / 20 ms / 1 BDP)")
    rows = []
    for grid_row in grid_rows:
        throughputs = grid_row["throughputs_mbps"]
        rows.append({
            "scheme": grid_row["scheme"],
            "flow0_mbps": throughputs[0],
            "flow1_mbps": throughputs[1],
            "flow2_mbps": throughputs[2],
            "jain_index": grid_row["jain_index"],
        })
    print(format_rows(rows))

    for row in rows:
        assert 1.0 / 3.0 <= row["jain_index"] <= 1.0 + 1e-9
    # Canopy's shallow model stays within a reasonable band of Orca's fairness.
    by_scheme = {row["scheme"]: row for row in rows}
    assert by_scheme["canopy-shallow"]["jain_index"] >= by_scheme["orca"]["jain_index"] - 0.3
