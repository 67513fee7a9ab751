"""Delta-debugging reduction of counterexamples to minimal replayable cells.

A raw counterexample found by the search is usually over-complicated — a
four-flow churn workload on a fan-in(4) over a cellular trace, when the
violation really only needs one background flow on a single bottleneck.
:func:`shrink_counterexample` greedily applies the classic delta-debugging
loop: propose an ordered list of *reductions* (most aggressive first — drop
the whole workload before trimming it, collapse the topology before shaving
one branch), keep the first one that still violates the objective, restart
the scan from the reduced cell, and stop when no reduction survives or the
attempt budget runs out.

Every attempt — accepted or not — is journaled as a ``phase="shrink"`` line
through the caller's emitter, so the shrink trace is part of the campaign
journal and byte-identically replayable.  Evaluation goes through the same
store-backed evaluator as the search, so shrink attempts are cached cells
like any other.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Callable, Dict, List, Optional, Tuple

from repro.falsify.objective import Objective
from repro.harness.parallel import ExperimentTask
from repro.harness.spec import resolve_trace
from repro.topology.families import parse_topology
from repro.workload.spec import WorkloadSpec, parse_workload
from repro.traces.synthetic import SYNTHETIC_TRACE_NAMES

__all__ = ["shrink_counterexample", "shrink_reductions"]

#: Shrinking never shortens a run below this (seconds) — enough sim time for
#: a violation to still be observable after the warmup skip.
_MIN_DURATION = 2.0


def _reduced_workloads(workload: WorkloadSpec) -> List[WorkloadSpec]:
    """Ordered workload reductions: drop everything first, then halve."""
    reductions: List[WorkloadSpec] = []
    if workload.kind != "static":
        reductions.append(WorkloadSpec(kind="static"))
    if workload.kind == "responsive" and workload.count > 1:
        reductions.append(replace(workload, count=workload.count // 2))
    if workload.kind == "poisson" and workload.rate > 0.05:
        reductions.append(replace(workload, rate=workload.rate / 2.0))
    if workload.kind == "step":
        if len(workload.windows) > 1:
            reductions.append(replace(workload, windows=workload.windows[:-1]))
        else:
            start, stop = workload.windows[0]
            if stop is not None and stop - start > 2.0:
                reductions.append(replace(
                    workload, windows=((start, start + (stop - start) / 2.0),)))
    return reductions


def shrink_reductions(task: ExperimentTask) -> List[Tuple[str, ExperimentTask]]:
    """The ordered reduction candidates for one cell (aggressive cuts first).

    Workload cuts, topology collapse/shaving, duration halving, then a move
    to the canonical first synthetic trace.  Every candidate is a valid cell
    (invalid topology shaves — fixed-shape families, branch minimums — and
    durations not longer than the cell's ``skip_seconds`` are skipped), so the
    shrink loop never proposes something the harness would reject.
    """
    reductions: List[Tuple[str, ExperimentTask]] = []
    settings = task.settings

    def with_settings(**changes) -> ExperimentTask:
        return replace(task, settings=replace(settings, **changes))

    for workload in _reduced_workloads(parse_workload(settings.workload)):
        spec = workload.canonical()
        reductions.append((f"workload={spec}", with_settings(workload=spec)))
    family, n_hops = parse_topology(settings.topology)
    if family != "single_bottleneck":
        reductions.append(("topology=single_bottleneck",
                           with_settings(topology="single_bottleneck")))
        smaller = f"{family}({n_hops - 1})"
        try:
            parse_topology(smaller)
        except ValueError:
            pass
        else:
            reductions.append((f"topology={smaller}", with_settings(topology=smaller)))
    shorter = max(_MIN_DURATION, settings.duration / 2.0)
    if settings.duration > _MIN_DURATION and shorter > settings.skip_seconds:
        reductions.append((f"duration={shorter:g}", with_settings(duration=shorter)))
    baseline_trace = SYNTHETIC_TRACE_NAMES[0]
    if task.trace.name != baseline_trace:
        reductions.append((f"trace={baseline_trace}",
                           replace(task, trace=resolve_trace(baseline_trace))))
    return reductions


def shrink_counterexample(
    task: ExperimentTask,
    objective: Objective,
    evaluate: Callable[[ExperimentTask], Dict],
    emit: Optional[Callable[[Dict], None]] = None,
    budget: int = 48,
) -> Tuple[ExperimentTask, List[Dict]]:
    """Greedily reduce a violating cell while the objective stays violated.

    ``evaluate`` maps a task to its (canonical) row — the campaign passes its
    store-backed evaluator, so repeated attempts are cache hits.  Returns the
    minimal cell reached plus the full attempt trail (each entry carries the
    action, the from/to keys, the score, and whether it was accepted); the
    same entries go through ``emit`` as they happen for live journaling.
    """
    current = task
    trail: List[Dict] = []
    attempts = 0
    reduced = True
    while reduced and attempts < budget:
        reduced = False
        for action, smaller in shrink_reductions(current):
            if attempts >= budget:
                break
            attempts += 1
            row = evaluate(smaller)
            score = objective(row)
            accepted = objective.violated(row)
            step = {"phase": "shrink", "action": action, "from": current.cell_key(),
                    "to": smaller.cell_key(), "score": score, "accepted": accepted}
            if emit is not None:
                emit(step)
            trail.append(step)
            if accepted:
                current = smaller
                reduced = True
                break
    return current, trail
