"""Workload-stress sweep — dynamic workloads as a first-class scenario axis.

The paper evaluates a single flow on a quiet path; this benchmark drives the
``workload_stress`` grid — (scheme × topology family × workload) with
certification on the learned cells — and records, in the bench JSON
(``extra_info``):

* the certificate throughput of the contended grid (certificates/sec), and
* one utilization / delay / loss (+ QC_sat) row per (scheme, family,
  workload) cell group.

Workloads and families can be overridden through ``REPRO_BENCH_WORKLOADS`` /
``REPRO_BENCH_WORKLOAD_TOPOLOGIES`` (comma separated — the workload grammar
is comma-free precisely so these lists split cleanly).  The differential
suite (``tests/test_workload.py``) pins the ``static`` workload to the legacy
single-flow trajectory, so static rows here are directly comparable with
every historical figure.
"""

import os

from benchconfig import DURATION, N_JOBS, SEED, run_once

from repro.harness.registry import REGISTRY
from repro.harness.reporting import format_rows
from repro.harness.spec import parse_topologies
from repro.workload.spec import canonical_workload

TOPOLOGIES = parse_topologies(os.environ.get(
    "REPRO_BENCH_WORKLOAD_TOPOLOGIES", "single_bottleneck,fan_in(3),shared_segment"))

WORKLOADS = tuple(
    canonical_workload(spec) for spec in os.environ.get(
        "REPRO_BENCH_WORKLOADS", "static,responsive(cubic),poisson(0.25)").split(","))

TRAINING_STEPS = int(os.environ.get("REPRO_BENCH_WORKLOAD_STEPS", "200"))


def test_workload_stress_grid(benchmark):
    result = run_once(
        benchmark, REGISTRY.run, "workload_stress",
        {"schemes": ("canopy-shallow",), "topology": TOPOLOGIES, "workload": WORKLOADS,
         "training_steps": TRAINING_STEPS, "duration": DURATION, "n_components": 8,
         "n_traces": 1, "seeds": (SEED,)},
        n_jobs=N_JOBS,
    )

    print("\nWorkload-stress sweep: certified safety + performance under contention")
    print(format_rows(result["rows"], columns=["scheme", "topology", "workload",
                                               "utilization", "avg_delay_ms",
                                               "loss_rate", "qcsat"]))
    print(f"certificates: {result['certificates']} "
          f"({result['certificates_per_sec']:,.1f}/s, n_jobs={result['n_jobs']})")

    benchmark.extra_info["workloads"] = list(WORKLOADS)
    benchmark.extra_info["topologies"] = list(TOPOLOGIES)
    benchmark.extra_info["rows"] = result["rows"]

    assert len(result["rows"]) == len(TOPOLOGIES) * len(WORKLOADS)
    assert result["certificates"] > 0
    by_workload = {}
    for row in result["rows"]:
        by_workload.setdefault(row["workload"], []).append(row)
        assert 0.0 <= row["utilization"] <= 1.5, (row["topology"], row["workload"])
        assert 0.0 <= row["qcsat"] <= 1.0
    assert set(by_workload) == set(WORKLOADS)

    # Shape: a responsive competitor costs the flow under test capacity
    # relative to the quiet static workload on the same families.
    if "static" in by_workload and "responsive(cubic)" in by_workload:
        static_util = {row["topology"]: row["utilization"]
                       for row in by_workload["static"]}
        for row in by_workload["responsive(cubic)"]:
            assert row["utilization"] <= static_util[row["topology"]] + 0.05, (
                f"{row['topology']}: contended flow should not beat the quiet run")
