"""Reference gate: recompute the committed references at atol 0.

``perfbench/reference`` holds the rows of the full-size certified Fig. 5 grid
(400-step models, N=50 components) and the actor digests of 400-step
canopy-shallow trainings, one per input variant.  Each perfbench test runs
one benchmark pass through the frozen :func:`perfbench.workloads.measure`
and requires every cell and training run to match its reference: a
certified row field by field at atol 0, a training run by the SHA-256 of its
actor.  Variant 0 of each workload runs in every suite.  Variants 1-3 take
about 20 s together and run only when selected with ``-m slow``.

``tests/golden`` holds small run stores.  :data:`GOLDEN_STORES` names the
registry runs that regenerate each one; every suite recomputes them into a
fresh store and diffs it against the committed one with
:func:`~repro.harness.benchjson.store_diff` at atol 0.
"""

from __future__ import annotations

from pathlib import Path

import pytest

from perfbench.workloads import WORKLOADS, measure
from repro.harness.benchjson import store_diff
from repro.harness.registry import REGISTRY
from repro.harness.store import RunStore

REFERENCE_DIR = Path(__file__).resolve().parent.parent / "perfbench" / "reference"
GOLDEN_DIR = Path(__file__).resolve().parent / "golden"

BY_HAND = [pytest.param(seed, marks=pytest.mark.slow) for seed in (1, 2, 3)]

#: Committed golden store -> the ``REGISTRY.run`` calls (experiment, axis
#: overrides) that regenerate it; each store's README gives the same runs as
#: ``python -m repro run`` command lines.
GOLDEN_STORES = {
    "qcsat_mini": [
        ("qcsat_buffers", {"training_steps": 30, "duration": 2.0, "n_components": 8,
                           "n_synthetic": 1, "n_cellular": 1}),
    ],
    "figures_mini": [
        ("motivation_noise", {"training_steps": 30, "duration": 3.0}),
        ("motivation_bad_state", {"training_steps": 30, "duration": 3.0}),
        ("certified_components", {"model_kind": "canopy-shallow,orca", "training_steps": 30,
                                  "duration": 3.0, "n_components": 8, "max_steps": 5}),
        ("noise_sensitivity", {"training_steps": 30, "duration": 3.0, "n_traces": 1}),
        ("sensitivity", {"n_values": (1, 5), "training_steps": 30, "duration": 3.0,
                         "n_traces": 1}),
    ],
    "workload_stress_mini": [
        ("workload_stress", {"schemes": "cubic,vegas", "topology": "chain(3),fan_in(3)",
                             "workload": "static,poisson(0.25)", "duration": 3.0}),
    ],
    "monitor_mini": [
        ("fallback_runtime", {"training_steps": 30, "duration": 3.0, "thresholds": (0.0, 0.5),
                              "n_traces": 1, "n_components": 4, "telemetry": "on(25)"}),
    ],
    "multiflow_mini": [
        ("friendliness", {"training_steps": 30, "duration": 4.0, "flows": 1,
                          "rtts_ms": 20.0}),
        ("fairness", {"schemes": "cubic,orca,canopy-shallow", "training_steps": 30,
                      "n_flows": 3, "join_interval": 2.0}),
    ],
}


@pytest.mark.parametrize("seed", [0, *BY_HAND])
@pytest.mark.parametrize("workload", ("certified_grid", "train_canopy"))
def test_recomputed_outputs_match_the_committed_reference(workload, seed, tmp_path, request):
    if seed and "slow" not in request.config.option.markexpr:
        pytest.skip("variants 1-3 run with -m slow")
    result = measure(WORKLOADS[workload], seed, tmp_path, REFERENCE_DIR, count=1)
    assert result["attempted"] > 0
    assert result["failed"] == 0, (
        f"{workload} variant {seed}: {result['failed']} of {result['attempted']} outputs "
        f"differ from {REFERENCE_DIR / workload}: {result['failures']}")


def _first_difference(store: str, diff: dict) -> str:
    if diff["added"] or diff["removed"]:
        return (f"{store}: cells only in the recomputed store {diff['added']}, "
                f"only in the committed store {diff['removed']}")
    change = diff["changed"][0]
    return (f"{store}: {len(diff['changed'])} metric(s) differ; first: cell "
            f"{change['key']!r}, {change['metric']} expected {change['a']!r}, "
            f"got {change['b']!r}")


@pytest.mark.parametrize("store", sorted(GOLDEN_STORES))
def test_recomputed_golden_store_matches(store, tmp_path):
    fresh = RunStore(tmp_path / store)
    for experiment, overrides in GOLDEN_STORES[store]:
        REGISTRY.run(experiment, overrides, n_jobs=1, store=fresh)
    committed = RunStore(GOLDEN_DIR / store)
    diff = store_diff(committed, fresh, atol=0.0)
    assert diff["n_cells_a"] > 0
    assert diff["identical"], _first_difference(store, diff)
