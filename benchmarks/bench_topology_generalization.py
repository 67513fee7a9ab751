"""Cross-family generalization — train on topologies, certify everywhere.

The ROADMAP's training-side topology axis: one Canopy model is trained per
topology family (plus a domain-randomized ``mixed`` model trained across all
of them), then every model is certified on every family.  The benchmark
records, in the bench JSON (``extra_info``):

* the certificate throughput of the (train-family × eval-family) grid
  (certificates/sec — the verification hot-path number), and
* one QC_sat / utilization / delay row per (train family, eval family) cell.

Scale knobs (all override the benchmark defaults, which favor coverage over
speed):

* ``REPRO_BENCH_GEN_FAMILIES`` — comma-separated family specs (default
  ``single_bottleneck,chain(2),parking_lot(2)``),
* ``REPRO_BENCH_GEN_STEPS`` — per-model training budget (default 200),
* ``REPRO_BENCH_GEN_MIXED`` — 0 disables the domain-randomized model (the CI
  smoke job trains one short model per family only).
"""

import os

from benchconfig import DURATION, N_JOBS, SEED, run_once

from repro.harness.experiments import MIXED_TRAINING_LABEL
from repro.harness.registry import REGISTRY
from repro.harness.reporting import format_rows
from repro.harness.spec import parse_bool, parse_topologies

FAMILIES = parse_topologies(os.environ.get(
    "REPRO_BENCH_GEN_FAMILIES",
    "single_bottleneck,chain(2),parking_lot(2)",
))
TRAINING_STEPS = int(os.environ.get("REPRO_BENCH_GEN_STEPS", "200"))
INCLUDE_MIXED = parse_bool(os.environ.get("REPRO_BENCH_GEN_MIXED", "1"))


def test_topology_generalization_grid(benchmark):
    result = run_once(
        benchmark, REGISTRY.run, "topology_generalization",
        {"families": FAMILIES, "include_mixed": INCLUDE_MIXED,
         "training_steps": TRAINING_STEPS, "duration": DURATION,
         "n_components": 10, "n_traces": 2, "seeds": (SEED,)},
        n_jobs=N_JOBS,
    )

    print("\nCross-family generalization: certified safety per (train, eval) cell")
    print(format_rows(result["rows"], columns=["train_family", "eval_family", "qcsat",
                                               "utilization", "avg_delay_ms", "loss_rate"]))
    print(f"certificate throughput: {result['certificates_per_sec']:,.0f} certs/s "
          f"({result['certificates']} certificates over {result['wall_clock_s']:.2f}s, "
          f"n_jobs={result['n_jobs']})")

    # Per-cell rows land in the bench JSON alongside the certificate throughput.
    benchmark.extra_info["families"] = list(FAMILIES)
    benchmark.extra_info["train_families"] = result["train_families"]
    benchmark.extra_info["rows"] = result["rows"]

    expected_train = list(FAMILIES) + ([MIXED_TRAINING_LABEL] if INCLUDE_MIXED else [])
    assert result["train_families"] == expected_train
    assert len(result["rows"]) == len(expected_train) * len(FAMILIES)
    assert result["certificates"] > 0 and result["certificates_per_sec"] > 0.0

    by_cell = {(row["train_family"], row["eval_family"]): row for row in result["rows"]}
    assert len(by_cell) == len(result["rows"]), "duplicate (train, eval) cells"
    for row in result["rows"]:
        assert 0.0 <= row["qcsat"] <= 1.0, row
        assert 0.0 < row["utilization"] <= 1.5, row
        assert row["avg_delay_ms"] >= 0.0, row
