"""Evaluation experiments — one registered grid per figure of the paper.

Every simulated figure (1, 2, 5–16), the beyond-the-paper grids
(``topology_sweep``, ``topology_generalization``, ``workload_stress``) and
``scheme_grid`` (schemes × named traces × seeds on one path, which ``python -m
repro evaluate``, ``certify`` and ``compare-classical`` preset) is
*declared* in :data:`repro.harness.registry.REGISTRY` — named axes, a
grid-expansion build hook, and an aggregator — and runs only through
``REGISTRY.run(name, axes, n_jobs=..., store=...)`` (or ``python -m repro run
<name> --set axis=value``; ``python -m repro figure <id>`` names the same
grids).  That one front door persists per-cell
:class:`~repro.harness.store.RunRecord`\\ s, resumes interrupted sweeps,
shards cells over ``n_jobs`` worker processes (serial and parallel runs
produce identical rows), and can serve the grid to a lease-based worker
fleet (``python -m repro serve``).  The aggregators report the grid
wall-clock and, for the certificate grids, certificates/sec, so the
benchmark JSON captures verification throughput alongside the figures.

Every grid is a list of :class:`~repro.harness.parallel.ExperimentTask`
cells.  A grid that needs more than the summary row registers
``functools.partial(run_task, columns=...)``: ``friendliness`` and
``fairness`` add per-flow columns (:mod:`repro.harness.fairness`), Figs. 1
and 2 the per-tick series, Figs. 6/8 the per-component certificates of the
first decisions.  Training curves (Fig. 17) print from ``python -m repro
train``; Table 4 times training and lives in
``benchmarks/bench_table4_overhead.py``.
"""

from __future__ import annotations

import functools
from typing import Dict, List, Optional, Sequence

import numpy as np

from repro.harness.evaluate import (
    EvaluationSettings,
    SchemeResult,
    certificates_for_decisions,
    default_model_kind,
)
from repro.harness.fairness import multiflow_columns
from repro.harness.models import DEFAULT_TRAINING_STEPS, model_for_task
from repro.harness.parallel import ExperimentTask, run_task
from repro.harness.registry import REGISTRY
from repro.harness.spec import PROPERTY_FAMILIES, resolve_trace, trace_subset
from repro.telemetry.events import canonical_telemetry
from repro.topology.families import canonical_topology, topology_family_specs
from repro.workload.spec import SELF_SCHEME, WorkloadSpec, canonical_workload
from repro.traces.realworld import intercontinental_profiles, intracontinental_profiles
from repro.traces.synthetic import make_synthetic_trace
from repro.traces.trace import BandwidthTrace

__all__ = ["GENERALIZATION_FAMILIES", "MIXED_TRAINING_LABEL"]

#: Default family catalog of the cross-family generalization grid (>= 3
#: families, kept multi-hop-light so the grid stays CI-affordable).
GENERALIZATION_FAMILIES = ("single_bottleneck", "chain(2)", "parking_lot(2)")

#: Label of the domain-randomized model trained on every family at once.
MIXED_TRAINING_LABEL = "mixed"


def _qc_grid_summary(figure: str, rows: List[Dict], grid) -> Dict:
    """Figure payload plus the certificate-throughput accounting shared by the
    QC_sat grids (certificates/sec and grid wall-clock land in the bench JSON)."""
    certificates = int(sum(cell["n_certificates"] for cell in grid.rows))
    return {
        "figure": figure,
        "rows": rows,
        "wall_clock_s": grid.wall_clock_s,
        "n_jobs": grid.n_jobs,
        "certificates": certificates,
        "certificates_per_sec": certificates / grid.wall_clock_s if grid.wall_clock_s > 0 else 0.0,
    }


def _performance_means(cells: Sequence[Dict]) -> Dict[str, float]:
    """Mean utilization, delays and loss of the cells behind one report row."""
    return {
        "utilization": float(np.mean([c["utilization"] for c in cells])),
        "avg_delay_ms": float(np.mean([c["avg_queuing_delay_ms"] for c in cells])),
        "p95_delay_ms": float(np.mean([c["p95_queuing_delay_ms"] for c in cells])),
        "loss_rate": float(np.mean([c["loss_rate"] for c in cells])),
    }


# ---------------------------------------------------------------------- #
# Figures 1 & 2 — motivation: Orca vs Canopy under noise and on a high BDP
# ---------------------------------------------------------------------- #
def _rate_series(task: ExperimentTask, run: SchemeResult) -> Dict:
    """Flow 0's per-tick throughput (packets/s) and cwnd (Figs. 1 and 2)."""
    stats = run.simulation.stats_for(0)
    return {"series": {
        "time": stats.times.tolist(),
        "throughput_pps": (stats.acked / run.simulation.dt).tolist(),
        "cwnd": stats.cwnd.tolist(),
    }}


def _decision_series(task: ExperimentTask, run: SchemeResult) -> Dict:
    """The rate series plus the TCP-suggested and enforced window of every
    decision (Fig. 2)."""
    columns = _rate_series(task, run)
    columns["series"].update({
        "decision_time": [d.time for d in run.decisions],
        "cwnd_tcp": [d.cwnd_tcp for d in run.decisions],
        "cwnd_enforced": [d.cwnd_after for d in run.decisions],
    })
    return columns


def _series_rows(grid, axes: Dict, tasks: Sequence) -> Dict:
    """The summary rows and, keyed by scheme label (``label/seed=<seed>``
    when several seeds run), the per-tick series they carried."""
    rows, series = [], {}
    for row in grid.rows:
        row = dict(row)
        label = (row["scheme"] if len(axes["seeds"]) == 1
                 else f"{row['scheme']}/seed={row['seed']}")
        series[label] = row.pop("series")
        rows.append(row)
    return {"trace": tasks[0].trace.name, "rows": rows, "series": series,
            "wall_clock_s": grid.wall_clock_s, "n_jobs": grid.n_jobs}


def _motivation_noise_aggregate(grid, axes: Dict, tasks: Sequence) -> Dict:
    result = _series_rows(grid, axes, tasks)

    def utilization(label: str) -> float:
        return float(np.mean([row["utilization"] for row in result["rows"]
                              if row["scheme"] == label]))

    return {"figure": "1", **result,
            "orca_noise_drop": utilization("orca") - utilization("orca-noise"),
            "canopy_noise_drop": utilization("canopy") - utilization("canopy-noise")}


@REGISTRY.register(
    "motivation_noise",
    axes={"training_steps": 400, "duration": 12.0, "noise": 0.05, "seeds": (1,)},
    aggregate=_motivation_noise_aggregate,
    runner=functools.partial(run_task, columns=_rate_series),
    description="sending rate of Orca and Canopy-robust with and without delay noise (Fig. 1)",
)
def _motivation_noise_build(axes: Dict) -> List[ExperimentTask]:
    trace = make_synthetic_trace("step-12-48")
    tasks = []
    for seed in axes["seeds"]:
        for label, model_kind in (("orca", "orca"), ("canopy", "canopy-robust")):
            for suffix, noise in (("", 0.0), ("-noise", axes["noise"])):
                settings = EvaluationSettings(duration=axes["duration"], buffer_bdp=2.0,
                                              observation_noise=noise, seed=seed)
                tasks.append(ExperimentTask(
                    scheme=label + suffix, trace=trace, settings=settings,
                    model_kind=model_kind, training_steps=axes["training_steps"],
                    model_seed=seed,
                ))
    return tasks


def _motivation_bad_state_aggregate(grid, axes: Dict, tasks: Sequence) -> Dict:
    return {"figure": "2", **_series_rows(grid, axes, tasks)}


@REGISTRY.register(
    "motivation_bad_state",
    axes={"training_steps": 400, "duration": 15.0, "seeds": (1,)},
    aggregate=_motivation_bad_state_aggregate,
    runner=functools.partial(run_task, columns=_decision_series),
    description="Orca vs Canopy-deep windows on a high-BDP path (Fig. 2)",
)
def _motivation_bad_state_build(axes: Dict) -> List[ExperimentTask]:
    trace = make_synthetic_trace("square-48-96")
    tasks = []
    for seed in axes["seeds"]:
        settings = EvaluationSettings(duration=axes["duration"], buffer_bdp=5.0,
                                      min_rtt=0.08, seed=seed)
        for label, model_kind in (("orca", "orca"), ("canopy", "canopy-deep")):
            tasks.append(ExperimentTask(
                scheme=label, trace=trace, settings=settings, model_kind=model_kind,
                training_steps=axes["training_steps"], model_seed=seed,
            ))
    return tasks


# ---------------------------------------------------------------------- #
# Figure 5 — QC_sat for the shallow/deep buffer properties
# ---------------------------------------------------------------------- #
#: The (property family, buffer depth, canopy model) cases of the Fig. 5 grid.
_QCSAT_BUFFER_CASES = (("shallow", 0.5, "canopy-shallow"), ("deep", 5.0, "canopy-deep"))


def _qcsat_buffers_aggregate(grid, axes: Dict, tasks: Sequence) -> Dict:
    # Mean/std across traces of the per-trace QC_sat means, per grid cell group.
    rows = grid.aggregate(group_by=["property_family", "trace_kind", "scheme"], metrics=["qcsat"])
    for row in rows:
        row["n_traces"] = row.pop("n_cells")
    return _qc_grid_summary("5", rows, grid)


@REGISTRY.register(
    "qcsat_buffers",
    axes={
        "training_steps": 400,
        "duration": 10.0,
        "n_components": 50,
        "n_synthetic": 3,
        "n_cellular": 2,
        "seeds": (1,),
    },
    aggregate=_qcsat_buffers_aggregate,
    description="QC_sat of Canopy vs Orca, shallow & deep buffer properties (Fig. 5)",
)
def _qcsat_buffers_build(axes: Dict) -> List[ExperimentTask]:
    tasks = []
    for family, buffer_bdp, canopy_kind in _QCSAT_BUFFER_CASES:
        for trace_kind, count in (("synthetic", axes["n_synthetic"]),
                                  ("cellular", axes["n_cellular"])):
            for seed in axes["seeds"]:
                settings = EvaluationSettings(duration=axes["duration"],
                                              buffer_bdp=buffer_bdp, seed=seed)
                for scheme_label, model_kind in (("canopy", canopy_kind), ("orca", "orca")):
                    for trace in trace_subset(trace_kind, count):
                        tasks.append(ExperimentTask(
                            scheme=scheme_label, trace=trace, settings=settings,
                            model_kind=model_kind, training_steps=axes["training_steps"],
                            model_seed=seed,
                            certify=True, property_family=family,
                            n_components=axes["n_components"],
                            tags={"property_family": family, "trace_kind": trace_kind},
                        ))
    return tasks


# ---------------------------------------------------------------------- #
# Figures 6 & 8 — certified-component distributions
# ---------------------------------------------------------------------- #
def _component_columns(task: ExperimentTask, run: SchemeResult) -> Dict:
    """Per-component output bounds of the first ``max_steps`` decisions."""
    decisions = run.decisions[:task.tags["max_steps"]]
    verifier = model_for_task(task).make_verifier(n_components=task.n_components)
    batches = certificates_for_decisions(verifier, PROPERTY_FAMILIES[task.property_family](), decisions)
    steps = []
    for step_index in range(len(decisions)):
        for name, batch in batches.items():
            # A non-applicable decision has no components: vacuous 1.0 values.
            applicable = bool(batch.applicable_mask[step_index])
            satisfied = batch.satisfied[step_index]
            steps.append({
                "step": step_index,
                "property": name,
                "applicable": applicable,
                "feedback": float(batch.feedback[step_index]),
                "satisfied_fraction": float(satisfied.mean()) if applicable else 1.0,
                "output_bounds": (np.stack([batch.output_lo[step_index], batch.output_hi[step_index]], axis=-1)
                                  .tolist() if applicable else []),
            })
    mean_feedback = float(np.mean([s["feedback"] for s in steps])) if steps else 1.0
    return {"steps": steps, "mean_feedback": mean_feedback}


def _certified_components_aggregate(grid, axes: Dict, tasks: Sequence) -> Dict:
    # One row per (model, trace, seed) cell, each with its certified steps.
    return {"figure": "6/8", "rows": [{"model": row["scheme"], **row} for row in grid.rows],
            "wall_clock_s": grid.wall_clock_s, "n_jobs": grid.n_jobs}


@REGISTRY.register(
    "certified_components",
    axes={
        "model_kind": ("canopy-shallow",),
        "property_family": "shallow",
        "trace_name": ("step-12-48",),
        "training_steps": 400,
        "duration": 10.0,
        "n_components": 50,
        "max_steps": 50,
        "buffer_bdp": 0.5,
        "seeds": (1,),
    },
    aggregate=_certified_components_aggregate,
    runner=functools.partial(run_task, columns=_component_columns),
    description="per-component certified output bounds of the first decisions (Figs. 6/8)",
)
def _certified_components_build(axes: Dict) -> List[ExperimentTask]:
    tasks = []
    for model_kind in axes["model_kind"]:
        for trace_name in axes["trace_name"]:
            trace = make_synthetic_trace(trace_name)
            for seed in axes["seeds"]:
                settings = EvaluationSettings(duration=axes["duration"],
                                              buffer_bdp=axes["buffer_bdp"], seed=seed)
                tasks.append(ExperimentTask(
                    scheme=model_kind, trace=trace, settings=settings, model_kind=model_kind,
                    training_steps=axes["training_steps"], model_seed=seed,
                    property_family=axes["property_family"],
                    n_components=axes["n_components"],
                    tags={"max_steps": axes["max_steps"]},
                ))
    return tasks


# ---------------------------------------------------------------------- #
# Figure 7 — QC_sat for the robustness property
# ---------------------------------------------------------------------- #
def _qcsat_robustness_aggregate(grid, axes: Dict, tasks: Sequence) -> Dict:
    rows = grid.aggregate(group_by=["trace_kind", "scheme"], metrics=["qcsat"])
    for row in rows:
        row["n_traces"] = row.pop("n_cells")
    return _qc_grid_summary("7", rows, grid)


@REGISTRY.register(
    "qcsat_robustness",
    axes={
        "training_steps": 400,
        "duration": 10.0,
        "n_components": 50,
        "n_synthetic": 3,
        "n_cellular": 2,
        "noise": 0.05,
        "seeds": (1,),
    },
    aggregate=_qcsat_robustness_aggregate,
    description="QC_sat of Canopy-robust vs Orca under observation noise (Fig. 7)",
)
def _qcsat_robustness_build(axes: Dict) -> List[ExperimentTask]:
    tasks = []
    for trace_kind, count in (("synthetic", axes["n_synthetic"]),
                              ("cellular", axes["n_cellular"])):
        for seed in axes["seeds"]:
            settings = EvaluationSettings(duration=axes["duration"], buffer_bdp=2.0,
                                          observation_noise=axes["noise"], seed=seed)
            for scheme_label, model_kind in (("canopy", "canopy-robust"), ("orca", "orca")):
                for trace in trace_subset(trace_kind, count):
                    tasks.append(ExperimentTask(
                        scheme=scheme_label, trace=trace, settings=settings,
                        model_kind=model_kind, training_steps=axes["training_steps"],
                        model_seed=seed,
                        certify=True, property_family="robustness",
                        n_components=axes["n_components"],
                        tags={"trace_kind": trace_kind},
                    ))
    return tasks


# ---------------------------------------------------------------------- #
# Figures 9, 10 — empirical performance sweeps
# ---------------------------------------------------------------------- #
def _performance_sweep_labels(axes: Dict) -> Dict[str, Optional[str]]:
    return {
        "canopy": axes["canopy_kind"],
        "orca": "orca",
        "cubic": None,
        "vegas": None,
        "bbr": None,
    }


def _performance_sweep_aggregate(grid, axes: Dict, tasks: Sequence) -> Dict:
    scheme_kinds = _performance_sweep_labels(axes)
    topologies = list(axes["topologies"])
    rows = []
    for topology in topologies:
        for trace_kind in ("synthetic", "cellular"):
            for label in scheme_kinds:
                cells = grid.select(topology=topology, trace_kind=trace_kind, scheme=label)
                row = {
                    "trace_kind": trace_kind,
                    "scheme": label,
                    **_performance_means(cells),
                    "n_traces": len(cells),
                }
                if len(topologies) > 1:
                    row = {"topology": topology, **row}
                rows.append(row)
    figure = "9" if axes["buffer_bdp"] <= 1.0 else "10"
    return {"figure": figure, "buffer_bdp": axes["buffer_bdp"], "rows": rows,
            "topologies": topologies,
            "wall_clock_s": grid.wall_clock_s, "n_jobs": grid.n_jobs}


@REGISTRY.register(
    "performance_sweep",
    axes={
        "buffer_bdp": 1.0,
        "canopy_kind": "canopy-shallow",
        "training_steps": 400,
        "duration": 15.0,
        "n_synthetic": 3,
        "n_cellular": 2,
        "seeds": (1,),
        "topologies": ("single_bottleneck",),
    },
    aggregate=_performance_sweep_aggregate,
    description="utilization vs delay for every scheme (Fig. 9 shallow / Fig. 10 deep)",
)
def _performance_sweep_build(axes: Dict) -> List[ExperimentTask]:
    scheme_kinds = _performance_sweep_labels(axes)
    tasks = []
    for topology in axes["topologies"]:
        for trace_kind, count in (("synthetic", axes["n_synthetic"]),
                                  ("cellular", axes["n_cellular"])):
            for seed in axes["seeds"]:
                settings = EvaluationSettings(duration=axes["duration"],
                                              buffer_bdp=axes["buffer_bdp"],
                                              topology=topology, seed=seed)
                for trace in trace_subset(trace_kind, count):
                    for label, model_kind in scheme_kinds.items():
                        tasks.append(ExperimentTask(
                            scheme=label, trace=trace, settings=settings,
                            model_kind=model_kind, training_steps=axes["training_steps"],
                            model_seed=seed,
                            tags={"trace_kind": trace_kind},
                        ))
    return tasks


# ---------------------------------------------------------------------- #
# Topology-family sweep — multi-bottleneck scenarios (beyond the paper)
# ---------------------------------------------------------------------- #
def _topology_sweep_labels(axes: Dict) -> Dict[str, Optional[str]]:
    scheme_kinds: Dict[str, Optional[str]] = {name: None for name in axes["schemes"]}
    if axes["canopy_kind"]:
        scheme_kinds["canopy"] = axes["canopy_kind"]
    return scheme_kinds


def _topology_sweep_aggregate(grid, axes: Dict, tasks: Sequence) -> Dict:
    n_seeds = max(len(axes["seeds"]), 1)
    rows = []
    for family in axes["families"]:
        for label in _topology_sweep_labels(axes):
            cells = grid.select(topology=family, scheme=label)
            rows.append({
                "topology": family,
                "scheme": label,
                **_performance_means(cells),
                "n_traces": len(cells) // n_seeds,
                "n_cells": len(cells),
            })
    # Derived from the settings the tasks actually ran with, so the reported
    # tick throughput stays in sync with the simulated work; cells served
    # from a resume store did not tick this run, so the throughput only
    # counts the computed fraction (all cells share one duration/dt).
    ticks = sum(int(round(task.settings.duration / task.settings.dt)) for task in tasks)
    computed = grid.n_tasks - grid.n_cached
    ticks_computed = ticks * computed // grid.n_tasks if grid.n_tasks else 0
    return {
        "figure": "topology",
        "families": list(axes["families"]),
        "rows": rows,
        "wall_clock_s": grid.wall_clock_s,
        "n_jobs": grid.n_jobs,
        "ticks": ticks,
        "ticks_per_sec": (ticks_computed / grid.wall_clock_s
                          if grid.wall_clock_s > 0 and computed > 0 else 0.0),
    }


@REGISTRY.register(
    "topology_sweep",
    axes={
        "families": tuple(topology_family_specs()),
        "schemes": ("cubic", "vegas", "bbr"),
        "canopy_kind": None,
        "training_steps": 400,
        "duration": 10.0,
        "n_synthetic": 2,
        "buffer_bdp": 1.0,
        "seeds": (1,),
    },
    aggregate=_topology_sweep_aggregate,
    description="every scheme on every topology family (+ per-family rows and ticks/sec)",
)
def _topology_sweep_build(axes: Dict) -> List[ExperimentTask]:
    scheme_kinds = _topology_sweep_labels(axes)
    traces = trace_subset("synthetic", axes["n_synthetic"])
    tasks = []
    for family in axes["families"]:
        for seed in axes["seeds"]:
            settings = EvaluationSettings(duration=axes["duration"],
                                          buffer_bdp=axes["buffer_bdp"],
                                          topology=family, seed=seed)
            for trace in traces:
                for label, model_kind in scheme_kinds.items():
                    tasks.append(ExperimentTask(
                        scheme=label, trace=trace, settings=settings,
                        model_kind=model_kind, training_steps=axes["training_steps"],
                        model_seed=seed,
                    ))
    return tasks


# ---------------------------------------------------------------------- #
# Cross-family generalization — train on topologies, certify everywhere
# ---------------------------------------------------------------------- #
def _generalization_catalogs(families: Sequence[str], include_mixed: bool) -> Dict[str, tuple]:
    """Validate the family axis and derive one training catalog per model."""
    families = list(families)
    if len(families) < 2:
        raise ValueError("topology_generalization needs at least 2 families")
    if len(set(families)) != len(families):
        raise ValueError("topology_generalization families must be unique")
    if MIXED_TRAINING_LABEL in families:
        raise ValueError(f"{MIXED_TRAINING_LABEL!r} is reserved for the mixed model")
    # One catalog per trained model: each family alone, plus the mixed model.
    catalogs: Dict[str, tuple] = {family: (family,) for family in families}
    if include_mixed:
        catalogs[MIXED_TRAINING_LABEL] = tuple(families)
    return catalogs


def _topology_generalization_aggregate(grid, axes: Dict, tasks: Sequence) -> Dict:
    families = list(axes["families"])
    catalogs = _generalization_catalogs(families, axes["include_mixed"])
    property_families = list(axes["property_family"])
    sweep_properties = len(property_families) > 1
    n_seeds = max(len(axes["seeds"]), 1)

    def cells_for(property_family, train_label, eval_family):
        # Grouped through the task list (rows come back in task order) rather
        # than a property_family tag: tags enter the cell fingerprint, so a
        # tag would stop a product-axis run from reusing cells cached by a
        # single-family run of the same store.  The scenario key already
        # carries the family, so store cells never collide.
        return [grid.rows[index] for index, task in enumerate(tasks)
                if task.property_family == property_family
                and task.tags["train_family"] == train_label
                and task.tags["eval_family"] == eval_family]

    rows = []
    for property_family in property_families:
        for train_label in catalogs:
            for eval_family in families:
                cells = cells_for(property_family, train_label, eval_family)
                row = {
                    "train_family": train_label,
                    "eval_family": eval_family,
                    "qcsat": float(np.mean([c["qcsat"] for c in cells])),
                    "qcsat_std": float(np.std([c["qcsat"] for c in cells])),
                    **_performance_means(cells),
                    "n_traces": len(cells) // n_seeds,
                    "n_cells": len(cells),
                }
                if sweep_properties:
                    row = {"property_family": property_family, **row}
                rows.append(row)
    certificates = int(sum(cell["n_certificates"] for cell in grid.rows))
    # Cells served from a resume store did not certify anything this run, and
    # per-cell certificate counts vary, so no throughput is claimed unless
    # every cell was computed live.
    live = grid.wall_clock_s > 0 and grid.n_cached == 0
    return {
        "figure": "topology_generalization",
        "families": families,
        "train_families": list(catalogs),
        "model_kind": axes["model_kind"],
        # Backward shape: a single family reports as the plain string it
        # always did; a swept product axis reports the list.
        "property_family": (property_families[0] if not sweep_properties
                            else property_families),
        "rows": rows,
        "wall_clock_s": grid.wall_clock_s,
        "n_jobs": grid.n_jobs,
        "certificates": certificates,
        "certificates_per_sec": certificates / grid.wall_clock_s if live else 0.0,
    }


@REGISTRY.register(
    "topology_generalization",
    axes={
        "families": GENERALIZATION_FAMILIES,
        "model_kind": "canopy-shallow",
        # A sequence axis: --set property_family=shallow,deep certifies both
        # families within one grid (and one resumable store).
        "property_family": ("shallow",),
        "include_mixed": True,
        "training_steps": 300,
        "duration": 8.0,
        "n_components": 10,
        "trace": ("synthetic",),
        "n_traces": 2,
        "buffer_bdp": 1.0,
        "seeds": (1,),
    },
    aggregate=_topology_generalization_aggregate,
    description="(train-family x eval-family) certified-safety + performance grid",
)
def _topology_generalization_build(axes: Dict) -> List[ExperimentTask]:
    """One model per family (trained on that family only) plus, with
    ``include_mixed``, a ``mixed`` model trained across all of them; every
    model is certified and measured on every family."""
    families = list(axes["families"])
    catalogs = _generalization_catalogs(families, axes["include_mixed"])
    tasks = []
    for property_family in axes["property_family"]:
        for train_label, catalog in catalogs.items():
            for eval_family in families:
                for seed in axes["seeds"]:
                    settings = EvaluationSettings(duration=axes["duration"],
                                                  buffer_bdp=axes["buffer_bdp"],
                                                  topology=eval_family, seed=seed)
                    for trace_kind in axes["trace"]:
                        for trace in trace_subset(trace_kind, axes["n_traces"]):
                            # Tags stay exactly the pre-product pair: the
                            # property family lives in the scenario key (and
                            # task.property_family, which the aggregator
                            # groups on), so single-family rows — and their
                            # cached store cells — are byte-identical whether
                            # or not the product axis sweeps.
                            tasks.append(ExperimentTask(
                                scheme="canopy", trace=trace, settings=settings,
                                model_kind=axes["model_kind"],
                                training_steps=axes["training_steps"], model_seed=seed,
                                model_topologies=catalog,
                                certify=True, property_family=property_family,
                                n_components=axes["n_components"],
                                tags={"train_family": train_label,
                                      "eval_family": eval_family},
                            ))
    return tasks


# ---------------------------------------------------------------------- #
# Workload stress — scheme x topology-family x workload certified grid
# ---------------------------------------------------------------------- #
def _workload_stress_aggregate(grid, axes: Dict, tasks: Sequence) -> Dict:
    n_seeds = max(len(axes["seeds"]), 1)
    rows = []
    for scheme in axes["schemes"]:
        for family in axes["topology"]:
            for workload in axes["workload"]:
                cells = grid.select(scheme=scheme, topology=canonical_topology(family),
                                    workload=canonical_workload(workload))
                row = {
                    "scheme": scheme,
                    "topology": canonical_topology(family),
                    "workload": canonical_workload(workload),
                    **_performance_means(cells),
                    "n_traces": len(cells) // n_seeds,
                    "n_cells": len(cells),
                }
                if all("qcsat" in c for c in cells):
                    row["qcsat"] = float(np.mean([c["qcsat"] for c in cells]))
                    row["qcsat_std"] = float(np.std([c["qcsat"] for c in cells]))
                rows.append(row)
    certificates = int(sum(cell.get("n_certificates", 0) for cell in grid.rows))
    live = grid.wall_clock_s > 0 and grid.n_cached == 0
    return {
        "figure": "workload_stress",
        "schemes": list(axes["schemes"]),
        "topologies": [canonical_topology(f) for f in axes["topology"]],
        "workloads": [canonical_workload(w) for w in axes["workload"]],
        "property_family": axes["property_family"],
        "rows": rows,
        "wall_clock_s": grid.wall_clock_s,
        "n_jobs": grid.n_jobs,
        "certificates": certificates,
        "certificates_per_sec": certificates / grid.wall_clock_s if live else 0.0,
    }


@REGISTRY.register(
    "workload_stress",
    axes={
        "schemes": ("canopy-shallow",),
        "topology": ("single_bottleneck", "fan_in(3)", "shared_segment"),
        "workload": ("static", "responsive(cubic)", "poisson(0.25)"),
        "property_family": "shallow",
        "training_steps": 200,
        "duration": 6.0,
        "n_components": 8,
        "n_traces": 1,
        "buffer_bdp": 1.0,
        "seeds": (1,),
        # "off" keeps every pre-telemetry cell key (and the committed golden
        # store) intact; --set telemetry=on(10) turns on event tracing.
        "telemetry": "off",
    },
    aggregate=_workload_stress_aggregate,
    description="scheme x topology-family x workload certified stress grid "
                "(incast, responsive contention, churn)",
)
def _workload_stress_build(axes: Dict) -> List[ExperimentTask]:
    traces = trace_subset("synthetic", axes["n_traces"])
    tasks = []
    for scheme in axes["schemes"]:
        model_kind = default_model_kind(scheme)
        for family in axes["topology"]:
            for workload in axes["workload"]:
                for seed in axes["seeds"]:
                    # Canonicalized up front so the report rows, the aggregate
                    # selectors, and the scenario keys all carry one spelling.
                    settings = EvaluationSettings(
                        duration=axes["duration"], buffer_bdp=axes["buffer_bdp"],
                        topology=canonical_topology(family),
                        workload=canonical_workload(workload),
                        telemetry=canonical_telemetry(axes["telemetry"]), seed=seed)
                    for trace in traces:
                        tasks.append(ExperimentTask(
                            scheme=scheme, trace=trace, settings=settings,
                            model_kind=model_kind,
                            training_steps=axes["training_steps"], model_seed=seed,
                            # Classical schemes stress-test uncertified; every
                            # learned cell carries its QC_sat certificates.
                            certify=model_kind is not None,
                            property_family=(axes["property_family"]
                                             if model_kind is not None else None),
                            n_components=axes["n_components"],
                            tags={"workload": canonical_workload(workload)},
                        ))
    return tasks


# ---------------------------------------------------------------------- #
# Figure 11 — robustness to observation noise
# ---------------------------------------------------------------------- #
#: The (scheme label, model kind) pairs of the Fig. 11 grid.
_NOISE_SCHEMES = (("orca", "orca"), ("canopy", "canopy-robust"))


def _noise_sensitivity_aggregate(grid, axes: Dict, tasks: Sequence) -> Dict:
    def pct(new: float, old: float) -> float:
        return 100.0 * (new - old) / old if old > 0 else 0.0

    rows = []
    for label, _model_kind in _NOISE_SCHEMES:
        pairs = list(zip(grid.select(scheme=label, noisy=False),
                         grid.select(scheme=label, noisy=True)))
        changes = {metric: [pct(noisy[metric], clean[metric]) for clean, noisy in pairs]
                   for metric in ("utilization", "avg_queuing_delay_ms", "p95_queuing_delay_ms")}
        rows.append({
            "scheme": label,
            "utilization_change_pct": float(np.mean(changes["utilization"])),
            "avg_delay_change_pct": float(np.mean(changes["avg_queuing_delay_ms"])),
            "p95_delay_change_pct": float(np.mean(changes["p95_queuing_delay_ms"])),
            "max_abs_utilization_change_pct": float(np.max(np.abs(changes["utilization"]))),
        })
    return {"figure": "11", "noise": axes["noise"], "rows": rows,
            "wall_clock_s": grid.wall_clock_s, "n_jobs": grid.n_jobs}


@REGISTRY.register(
    "noise_sensitivity",
    axes={"training_steps": 400, "duration": 12.0, "noise": 0.05, "n_traces": 3,
          "seeds": (1,)},
    aggregate=_noise_sensitivity_aggregate,
    description="percentage change of each metric under delay noise (Fig. 11)",
)
def _noise_sensitivity_build(axes: Dict) -> List[ExperimentTask]:
    traces = trace_subset("synthetic", axes["n_traces"])
    tasks = []
    for label, model_kind in _NOISE_SCHEMES:
        for seed in axes["seeds"]:
            for trace in traces:
                for noisy, noise in ((False, 0.0), (True, axes["noise"])):
                    settings = EvaluationSettings(duration=axes["duration"], buffer_bdp=2.0,
                                                  observation_noise=noise, seed=seed)
                    # The tag pairs the cells and keeps the clean ones apart
                    # from Fig. 1's (same run, but Fig. 1 rows carry series).
                    tasks.append(ExperimentTask(
                        scheme=label, trace=trace, settings=settings, model_kind=model_kind,
                        training_steps=axes["training_steps"], model_seed=seed,
                        tags={"noisy": noisy},
                    ))
    return tasks


# ---------------------------------------------------------------------- #
# Figure 12 — wide-area ("real world") deployment
# ---------------------------------------------------------------------- #
#: The fixed scheme → model-kind map of the Fig. 12 deployment grid.
_REALWORLD_SCHEME_KINDS: Dict[str, Optional[str]] = {
    "canopy-shallow": "canopy-shallow",
    "canopy-deep": "canopy-deep",
    "orca": "orca",
    "cubic": None,
}


def _realworld_categories(axes: Dict) -> Dict[str, list]:
    return {
        "intra": intracontinental_profiles()[: axes["profiles_per_category"]],
        "inter": intercontinental_profiles()[: axes["profiles_per_category"]],
    }


def _realworld_deployment_aggregate(grid, axes: Dict, tasks: Sequence) -> Dict:
    rows = []
    for category, profiles in _realworld_categories(axes).items():
        normalized: Dict[str, Dict[str, List[float]]] = {
            name: {"throughput": [], "delay": []} for name in _REALWORLD_SCHEME_KINDS
        }
        for profile in profiles:
            cells = {cell["scheme"]: cell
                     for cell in grid.select(category=category, path=profile.region)}
            max_throughput = max(c["throughput_mbps"] for c in cells.values()) or 1.0
            min_delay = min(c["avg_rtt_ms"] for c in cells.values()) or 1.0
            for name, cell in cells.items():
                normalized[name]["throughput"].append(cell["throughput_mbps"] / max_throughput)
                normalized[name]["delay"].append(cell["avg_rtt_ms"] / max(min_delay, 1e-6))
        for name, values in normalized.items():
            rows.append({
                "category": category,
                "scheme": name,
                "normalized_throughput": float(np.mean(values["throughput"])),
                "normalized_delay": float(np.mean(values["delay"])),
                "n_paths": len(values["throughput"]),
            })
    return {"figure": "12", "rows": rows,
            "wall_clock_s": grid.wall_clock_s, "n_jobs": grid.n_jobs}


@REGISTRY.register(
    "realworld_deployment",
    axes={
        "training_steps": 400,
        "duration": 12.0,
        "profiles_per_category": 2,
        "seeds": (1,),
    },
    aggregate=_realworld_deployment_aggregate,
    description="normalized throughput/delay over emulated WAN paths (Fig. 12)",
)
def _realworld_deployment_build(axes: Dict) -> List[ExperimentTask]:
    tasks = []
    for category, profiles in _realworld_categories(axes).items():
        for profile in profiles:
            trace = profile.make_trace(duration=axes["duration"])
            for seed in axes["seeds"]:
                settings = EvaluationSettings(
                    duration=axes["duration"], min_rtt=profile.min_rtt_s,
                    buffer_bdp=profile.buffer_bdp,
                    random_loss_rate=profile.loss_rate, seed=seed,
                )
                for label, model_kind in _REALWORLD_SCHEME_KINDS.items():
                    tasks.append(ExperimentTask(
                        scheme=label, trace=trace, settings=settings,
                        model_kind=model_kind, training_steps=axes["training_steps"],
                        model_seed=seed,
                        tags={"category": category, "path": profile.region},
                    ))
    return tasks


# ---------------------------------------------------------------------- #
# Figure 13 — runtime fallback guided by QC_sat
# ---------------------------------------------------------------------- #
#: The (buffer family, buffer depth, canopy model) cases of the fallback grid.
_FALLBACK_CASES = (("shallow", 1.0, "canopy-shallow"), ("deep", 5.0, "canopy-deep"))


def _fallback_runtime_aggregate(grid, axes: Dict, tasks: Sequence) -> Dict:
    rows = []
    for family, _buffer_bdp, _canopy_kind in _FALLBACK_CASES:
        for scheme_label in ("orca", "canopy"):
            for threshold in axes["thresholds"]:
                cells = grid.select(buffer_family=family, scheme=scheme_label,
                                    threshold=threshold)
                rows.append({
                    "buffer_family": family,
                    "scheme": scheme_label,
                    "threshold": threshold,
                    "utilization": float(np.mean([c["utilization"] for c in cells])),
                    "avg_delay_ms": float(np.mean([c["avg_queuing_delay_ms"] for c in cells])),
                    "p95_delay_ms": float(np.mean([c["p95_queuing_delay_ms"] for c in cells])),
                    "fallback_fraction": float(np.mean([c["fallback_fraction"] for c in cells])),
                })
    return {"figure": "13", "rows": rows,
            "wall_clock_s": grid.wall_clock_s, "n_jobs": grid.n_jobs}


@REGISTRY.register(
    "fallback_runtime",
    axes={
        "training_steps": 400,
        "duration": 12.0,
        "thresholds": (0.0, 0.5, 0.8),
        "n_components": 10,
        "n_traces": 2,
        "seeds": (1,),
        # "off" keeps every pre-telemetry cell key intact; --set telemetry=on
        # records the qc_decision / fallback_enter / fallback_exit stream the
        # `python -m repro trace` fallback timeline renders.
        "telemetry": "off",
    },
    aggregate=_fallback_runtime_aggregate,
    description="QC_sat-guided runtime fallback grid (Fig. 13)",
)
def _fallback_runtime_build(axes: Dict) -> List[ExperimentTask]:
    traces = trace_subset("synthetic", axes["n_traces"])
    tasks = []
    for family, buffer_bdp, canopy_kind in _FALLBACK_CASES:
        for seed in axes["seeds"]:
            settings = EvaluationSettings(duration=axes["duration"],
                                          buffer_bdp=buffer_bdp, seed=seed,
                                          telemetry=canonical_telemetry(axes["telemetry"]))
            for scheme_label, model_kind in (("orca", "orca"), ("canopy", canopy_kind)):
                for threshold in axes["thresholds"]:
                    for trace in traces:
                        tasks.append(ExperimentTask(
                            scheme=scheme_label, trace=trace, settings=settings,
                            model_kind=model_kind, training_steps=axes["training_steps"],
                            model_seed=seed,
                            monitor_threshold=threshold, monitor_family=family,
                            monitor_components=axes["n_components"],
                            tags={"buffer_family": family, "threshold": threshold},
                        ))
    return tasks


# ---------------------------------------------------------------------- #
# Figures 14 & 15 — TCP friendliness and fairness convergence (multi-flow)
# ---------------------------------------------------------------------- #
#: The (buffer family, scheme label, model kind, buffer depth) cases of Fig. 14.
_FRIENDLINESS_CASES = (
    ("shallow", "canopy", "canopy-shallow", 1.0),
    ("shallow", "orca", "orca", 1.0),
    ("shallow", "cubic", None, 1.0),
    ("deep", "canopy", "canopy-deep", 5.0),
    ("deep", "orca", "orca", 5.0),
    ("deep", "cubic", None, 5.0),
)


def _multiflow_task(scheme: str, model_kind: Optional[str], seed: int, training_steps: int,
                    workload: str, duration: float, min_rtt: float, buffer_bdp: float,
                    bandwidth_mbps: float = 48.0, tags: Optional[Dict] = None) -> ExperimentTask:
    """One Fig. 14/15 cell: the scheme plus its workload on a constant-capacity
    single bottleneck, throughputs averaged from 2 s after the last flow joins."""
    settings = EvaluationSettings(duration=duration, min_rtt=min_rtt, buffer_bdp=buffer_bdp,
                                  skip_seconds=2.0, workload=workload, seed=seed)
    return ExperimentTask(scheme=scheme, trace=BandwidthTrace.constant(bandwidth_mbps, duration),
                          settings=settings, model_kind=model_kind,
                          training_steps=training_steps, model_seed=seed, tags=tags or {})


@REGISTRY.register(
    "friendliness",
    axes={
        "flows": (1, 2, 4),
        "rtts_ms": (20.0, 50.0, 100.0),
        "training_steps": 400,
        "duration": 15.0,
        "seeds": (1,),
    },
    runner=functools.partial(run_task, columns=multiflow_columns),
    description="throughput ratio vs competing CUBIC flows and RTTs (Fig. 14)",
)
def _friendliness_build(axes: Dict) -> List[ExperimentTask]:
    tasks = []
    for family, scheme, model_kind, buffer_bdp in _FRIENDLINESS_CASES:
        for seed in axes["seeds"]:
            for n_cubic in axes["flows"]:
                tasks.append(_multiflow_task(
                    scheme, model_kind, seed, axes["training_steps"],
                    canonical_workload(f"responsive(cubic:{n_cubic})"), axes["duration"],
                    min_rtt=0.02, buffer_bdp=buffer_bdp,
                    tags={"sweep": "flows", "buffer_family": family,
                          "competing_flows": n_cubic}))
    for family, scheme, model_kind, buffer_bdp in _FRIENDLINESS_CASES:
        if family != "shallow":
            continue
        for seed in axes["seeds"]:
            for rtt_ms in axes["rtts_ms"]:
                tasks.append(_multiflow_task(
                    scheme, model_kind, seed, axes["training_steps"], "responsive(cubic)",
                    axes["duration"], min_rtt=rtt_ms / 1000.0, buffer_bdp=buffer_bdp,
                    tags={"sweep": "rtt", "buffer_family": family, "rtt_ms": rtt_ms}))
    return tasks


@REGISTRY.register(
    "fairness",
    axes={
        "schemes": ("cubic", "orca", "canopy-shallow", "canopy-deep"),
        "n_flows": 3,
        "join_interval": 12.0,
        "bandwidth_mbps": 48.0,
        "min_rtt": 0.02,
        "buffer_bdp": 1.0,
        "training_steps": 400,
        "seeds": (1,),
    },
    runner=functools.partial(run_task, columns=multiflow_columns),
    description="fairness convergence of homogeneous flows joining over time (Fig. 15)",
)
def _fairness_build(axes: Dict) -> List[ExperimentTask]:
    n_flows, join = axes["n_flows"], axes["join_interval"]
    if n_flows < 2:
        raise ValueError("fairness needs n_flows >= 2")
    # Flow i of the scheme under test joins at i * join_interval.
    joiners = WorkloadSpec(kind="step", scheme=SELF_SCHEME,
                           windows=tuple((i * join, None) for i in range(1, n_flows)))
    return [
        _multiflow_task(scheme, default_model_kind(scheme), seed, axes["training_steps"],
                        joiners.canonical(), n_flows * join + join, axes["min_rtt"],
                        axes["buffer_bdp"], axes["bandwidth_mbps"])
        for scheme in axes["schemes"]
        for seed in axes["seeds"]
    ]


# ---------------------------------------------------------------------- #
# Figure 16 — sensitivity to N and λ
# ---------------------------------------------------------------------- #
def _sensitivity_configurations(axes: Dict) -> List[tuple]:
    """The (N, λ) models of Fig. 16: N swept at λ = 0.25, λ swept at N = 5,
    each model once, in first-seen order."""
    configurations = ([(n, 0.25) for n in axes["n_values"]]
                      + [(5, lam) for lam in axes["lambda_values"]])
    return list(dict.fromkeys(configurations))


def _sensitivity_aggregate(grid, axes: Dict, tasks: Sequence) -> Dict:
    rows = []
    for n_components, lam in _sensitivity_configurations(axes):
        cells = [row for row, task in zip(grid.rows, tasks)
                 if (task.model_components, task.lam) == (n_components, lam)]
        rows.append({
            "label": f"N{n_components}-lam{lam:g}",
            "n_components": n_components,
            "lambda": lam,
            **_performance_means(cells),
        })
    return {"figure": "16", "rows": rows,
            "wall_clock_s": grid.wall_clock_s, "n_jobs": grid.n_jobs}


@REGISTRY.register(
    "sensitivity",
    axes={
        "n_values": (1, 5, 10),
        "lambda_values": (0.25, 0.5, 0.75),
        "training_steps": 300,
        "duration": 10.0,
        "n_traces": 2,
        "seeds": (1,),
    },
    aggregate=_sensitivity_aggregate,
    description="Canopy-shallow performance for different N and lambda (Fig. 16)",
)
def _sensitivity_build(axes: Dict) -> List[ExperimentTask]:
    traces = trace_subset("synthetic", axes["n_traces"])
    tasks = []
    for n_components, lam in _sensitivity_configurations(axes):
        for seed in axes["seeds"]:
            settings = EvaluationSettings(duration=axes["duration"], buffer_bdp=1.0, seed=seed)
            for trace in traces:
                tasks.append(ExperimentTask(
                    scheme="canopy", trace=trace, settings=settings,
                    model_kind="canopy-shallow", training_steps=axes["training_steps"],
                    model_seed=seed, lam=lam, model_components=n_components,
                ))
    return tasks


# ---------------------------------------------------------------------- #
# Scheme grid — the CLI's evaluate, certify and compare-classical
# ---------------------------------------------------------------------- #
@REGISTRY.register(
    "scheme_grid",
    axes={
        "schemes": ("cubic", "newreno", "vegas", "bbr"),
        "traces": ("step-12-48",),
        "topology": "single_bottleneck",
        "workload": "static",
        "duration": 15.0,
        "buffer_bdp": 1.0,
        "min_rtt": 0.04,
        "training_steps": DEFAULT_TRAINING_STEPS,
        "certify": False,
        "n_components": 50,
        "seeds": (1,),
    },
    description="schemes x named traces x seeds on one path; certify=true certifies "
                "the learned cells (evaluate / certify / compare-classical)",
)
def _scheme_grid_build(axes: Dict) -> List[ExperimentTask]:
    traces = [resolve_trace(name) for name in axes["traces"]]
    tasks = []
    # Scheme-major, so the CLI tables print grouped by scheme.
    for scheme in axes["schemes"]:
        model_kind = default_model_kind(scheme)
        for trace in traces:
            for seed in axes["seeds"]:
                settings = EvaluationSettings(
                    duration=axes["duration"], buffer_bdp=axes["buffer_bdp"],
                    min_rtt=axes["min_rtt"], topology=canonical_topology(axes["topology"]),
                    workload=canonical_workload(axes["workload"]), seed=seed)
                tasks.append(ExperimentTask(
                    scheme=scheme, trace=trace, settings=settings, model_kind=model_kind,
                    training_steps=axes["training_steps"], model_seed=seed,
                    certify=axes["certify"] and model_kind is not None,
                    n_components=axes["n_components"],
                ))
    return tasks
