"""Reference gate: recompute the committed perfbench references at atol 0.

``perfbench/reference`` holds the rows of the full-size certified Fig. 5 grid
(400-step models, N=50 components) and the actor digests of 400-step
canopy-shallow trainings, one per input variant.  Each test runs one
benchmark pass through the frozen :func:`perfbench.workloads.measure` and
requires every cell and training run to match its reference: a certified
row field by field at atol 0, a training run by the SHA-256 of its actor.

Variant 0 of each workload runs in every suite.  Variants 1-3 take about
20 s together and run only when selected with ``-m slow``.
"""

from __future__ import annotations

from pathlib import Path

import pytest

from perfbench.workloads import WORKLOADS, measure

REFERENCE_DIR = Path(__file__).resolve().parent.parent / "perfbench" / "reference"

BY_HAND = [pytest.param(seed, marks=pytest.mark.slow) for seed in (1, 2, 3)]


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
