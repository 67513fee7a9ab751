"""Figure 14 — TCP friendliness against competing CUBIC flows.

Paper claim: because Canopy (like Orca) delegates fine-grained control to
CUBIC, its throughput ratio against competing CUBIC flows stays close to
Orca's and to CUBIC-vs-CUBIC, on both shallow (1 BDP) and deep (5 BDP)
bottlenecks, and across propagation delays.  The benchmark prints the
throughput ratios for an increasing number of competing CUBIC flows and for
a range of RTTs.

Every sweep point is an ``ExperimentTask`` cell of the registered
``friendliness`` experiment: the scheme under test on a constant 48 Mbps
bottleneck, with its CUBIC competitors given as the ``responsive(cubic:n)``
workload.  The runner adds per-flow ``throughputs_mbps`` (flow 0 is the
scheme) and ``throughput_ratio``.  The grid shards across a process pool via
``REPRO_BENCH_JOBS`` with rows identical to a serial run (and is reachable
generically as ``python -m repro run friendliness``).
"""

from benchconfig import N_JOBS, SEED, TRAINING_STEPS, run_once

from repro.harness.registry import REGISTRY
from repro.harness.reporting import format_rows


def test_fig14_friendliness(benchmark):
    result = run_once(
        benchmark, REGISTRY.run, "friendliness",
        {"flows": (1, 2, 4), "rtts_ms": (20.0, 50.0, 100.0),
         "training_steps": TRAINING_STEPS, "duration": 15.0, "seeds": (SEED,)},
        n_jobs=N_JOBS,
    )
    for row in result["rows"]:
        scheme_mbps, *cubic_mbps = row["throughputs_mbps"]
        row["scheme_mbps"] = scheme_mbps
        row["mean_cubic_mbps"] = sum(cubic_mbps) / len(cubic_mbps)
    flow_rows = [row for row in result["rows"] if row["sweep"] == "flows"]
    rtt_rows = [row for row in result["rows"] if row["sweep"] == "rtt"]

    print("\nFigure 14a/b: throughput ratio vs number of competing CUBIC flows")
    print(format_rows(flow_rows, columns=["buffer_family", "scheme", "competing_flows",
                                          "scheme_mbps", "mean_cubic_mbps",
                                          "throughput_ratio"]))
    print("\nFigure 14 (RTT friendliness, shallow buffers)")
    print(format_rows(rtt_rows, columns=["scheme", "rtt_ms", "scheme_mbps",
                                         "mean_cubic_mbps", "throughput_ratio"]))

    # Shape: Canopy's friendliness stays within a small factor of CUBIC-vs-CUBIC.
    by_key = {}
    for row in flow_rows:
        by_key.setdefault((row["buffer_family"], row["scheme"]), []).append(row["throughput_ratio"])
    for family in ("shallow", "deep"):
        canopy_mean = sum(by_key[(family, "canopy")]) / len(by_key[(family, "canopy")])
        cubic_mean = sum(by_key[(family, "cubic")]) / len(by_key[(family, "cubic")])
        print(f"{family}: mean ratio canopy {canopy_mean:.2f} vs cubic {cubic_mean:.2f}")
        assert canopy_mean <= cubic_mean * 4.0 + 0.5
