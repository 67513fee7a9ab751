"""Self-test of the benchmark, at a tiny size against a reference it writes.

Every workload runs once untraced and once traced, in this process; the
tests check the metric vocabulary against ``BENCHMARK.json``, the span
accounting, and that a corrupted output is counted as failed.
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from perfbench.checks import row_violations
from perfbench.run import END_TO_END_UNITS, end_to_end_metrics, per_layer_metrics, wall_clock
from perfbench.spans import SPANS, per_layer_units
from perfbench.workloads import WORKLOADS, measure

ROOT = Path(__file__).resolve().parents[2]
NAME = re.compile(r"[A-Za-z0-9_.-]+")


@pytest.fixture(scope="module")
def reference(tmp_path_factory):
    from repro.harness.models import clear_model_cache

    directory = tmp_path_factory.mktemp("reference")
    work = tmp_path_factory.mktemp("work")
    for name, workload in WORKLOADS.items():
        measure(workload, 0, work / name, directory, tiny=True, write_reference=True)
    yield directory
    clear_model_cache()


def _run(name: str, reference: Path, work: Path, **options):
    return measure(WORKLOADS[name], 0, work, reference, tiny=True, count=1, **options)


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_every_metric_is_emitted_by_name_with_a_unit(name, reference, tmp_path):
    untraced = _run(name, reference, tmp_path / "untraced")
    traced = _run(name, reference, tmp_path / "traced", trace=True)
    assert untraced["failures"] == {} and traced["failures"] == {}
    assert untraced["attempted"] == traced["attempted"] > 0

    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in declared["workloads"]] == list(WORKLOADS)
    assert {m["name"]: m["unit"] for m in declared["end_to_end"]} == END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in declared["per_layer"]} == per_layer_units()
    for metric, unit in {**END_TO_END_UNITS, **per_layer_units()}.items():
        assert NAME.fullmatch(metric), metric
        assert unit, metric

    end_to_end = end_to_end_metrics([untraced])
    assert set(end_to_end) == set(END_TO_END_UNITS)
    assert all(value > 0 for value in end_to_end.values()), end_to_end
    layers = per_layer_metrics(untraced, traced)
    assert set(layers) == set(per_layer_units())

    # Self times partition the time covered by root spans, inside the window.
    self_total = sum(layers[f"{span}.self_s"] for span in SPANS)
    assert 0 < self_total <= traced["window_s"]
    assert 0 <= layers["unattributed_frac"] < 1
    if name == "classical_grid":
        assert layers["core.certify.count"] == 0
        assert layers["cc.tick.count"] > 0 and layers["cc.phase.drain_s"] > 0
    if name == "certified_grid":
        assert layers["core.certify.count"] > 0 and layers["abstract.ibp.count"] > 0
    if name == "train_canopy":
        assert min(layers["core.reward_shape.count"], layers["rl.td3_update.count"],
                   layers["orca.env_step.count"]) > 0
        assert traced["notes"]


def test_wrappers_are_removed_after_a_traced_run(reference, tmp_path):
    from repro.cc.netsim import NetworkSimulator
    from repro.core import verifier
    from repro.harness.registry import REGISTRY
    from repro.telemetry.profiler import active_profiler

    before = (NetworkSimulator.tick, verifier.propagate_mlp_batched,
              REGISTRY.get("workload_stress"))
    _run("classical_grid", reference, tmp_path, trace=True)
    assert (NetworkSimulator.tick, verifier.propagate_mlp_batched,
            REGISTRY.get("workload_stress")) == before
    assert active_profiler() is None


def test_a_corrupted_row_counts_as_failed(reference, tmp_path):
    corrupted = tmp_path / "reference"
    shutil.copytree(reference, corrupted)
    records = corrupted / "classical_grid" / "all" / "records.jsonl"
    lines = records.read_text().splitlines()
    record = json.loads(lines[0])
    record["row"]["utilization"] += 1e-9
    lines[0] = json.dumps(record, sort_keys=True)
    records.write_text("\n".join(lines) + "\n")

    result = _run("classical_grid", corrupted, tmp_path / "work")
    assert result["failed"] == 1
    assert 0 < result["failed"] / result["attempted"] < 1
    [reason] = result["failures"].values()
    assert "utilization" in reason


def test_a_wrong_training_digest_counts_as_failed(reference, tmp_path):
    corrupted = tmp_path / "reference"
    shutil.copytree(reference, corrupted)
    digest = corrupted / "train_canopy" / "v0" / "digest.json"
    digest.write_text(json.dumps({"digest": "0" * 64}))
    result = _run("train_canopy", corrupted, tmp_path / "work")
    assert result["failed"] == result["attempted"] == 1


def test_row_invariants():
    good = {"utilization": 0.9, "loss_rate": 0.01, "avg_queuing_delay_ms": 3.0,
            "p95_queuing_delay_ms": 9.0, "avg_rtt_ms": 50.0, "qcsat": 0.7,
            "n_decisions": 5, "n_certificates": 10}
    assert row_violations(good, 2) == []
    for column, value in (("utilization", 0.0), ("utilization", 1.6), ("loss_rate", -0.1),
                          ("avg_rtt_ms", float("nan")), ("qcsat", 1.2), ("n_certificates", 9)):
        assert row_violations({**good, column: value}, 2), (column, value)


def test_rates_are_unit_medians_and_latencies_cell_percentiles():
    def unit(wall_s, factor, cell_ms):
        return {"raw_wall_s": wall_s, "wall_s": wall_s / factor, "cells": len(cell_ms),
                "steps": 10 * len(cell_ms), "raw_cell_ms": cell_ms,
                "cell_ms": [ms / factor for ms in cell_ms]}

    results = [{"setup_s": 1.0, "raw_setup_s": 2.0, "peak_rss_mb": 50.0,
                "units": [unit(1.0, 1.0, [400.0, 600.0]), unit(4.0, 2.0, [1000.0, 3000.0])]},
               {"setup_s": 3.0, "raw_setup_s": 3.0, "peak_rss_mb": 60.0,
                "units": [unit(2.0, 1.0, [900.0, 1100.0])]}]
    metrics = end_to_end_metrics(results)
    assert metrics["cells_per_s"] == 1.0  # median of 2/1, 2/2, 2/2
    assert metrics["train_steps_per_s"] == 10.0
    assert metrics["cell_ms_p50"] == 750.0  # median of 400 500 600 900 1100 1500
    assert (metrics["setup_s"], metrics["peak_rss_mb"]) == (2.0, 60.0)
    raw = end_to_end_metrics(wall_clock(results))
    assert raw["cells_per_s"] == 1.0 and raw["setup_s"] == 2.5


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    completed = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "classical_grid", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert completed.returncode != 0
    assert completed.stdout == ""
