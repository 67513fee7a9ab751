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
produce identical rows), can serve the grid to a lease-based worker fleet
(``python -m repro serve``), and reports the grid wall-clock; the
certificate grids add certificates/sec, so the benchmark JSON captures
verification throughput alongside the figures.

Every build hook is one call of :func:`_grid`, which turns a list of
*levels* into :class:`~repro.harness.parallel.ExperimentTask` cells.  A level
is a list of field dicts, or a function of the fields chosen above it that
returns one (Fig. 13 pairs each buffer family with its Canopy model through
``lambda f: _schemes(...)``).  Levels are walked outermost first, like
nested loops, so the first level varies slowest.  At each leaf the chosen
fields (over the fixed keyword fields) become one cell: :class:`~repro.harness.evaluate.EvaluationSettings` fields
build its settings, ``seed`` also sets ``model_seed``, ``training_steps``
comes from the axes, the names in ``tags`` become its tags in that order,
the remaining :class:`ExperimentTask` fields go to the task, and any other
name raises.

A grid that needs more than the summary row registers
``functools.partial(run_task, columns=...)``: ``friendliness`` and
``fairness`` add per-flow columns (:mod:`repro.harness.fairness`), Figs. 1
and 2 the per-tick series, Figs. 6/8 the per-component certificates of the
first decisions.  Training curves (Fig. 17) print from ``python -m repro
train``; Table 4 times training and lives in
``benchmarks/bench_table4_overhead.py``.
"""

from __future__ import annotations

import dataclasses
import functools
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Union

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


# ---------------------------------------------------------------------- #
# The one build path: levels of field dicts walked into cells
# ---------------------------------------------------------------------- #
_Level = Union[Sequence[Dict], Callable[[Dict], Sequence[Dict]]]

_SETTINGS_FIELDS = frozenset(f.name for f in dataclasses.fields(EvaluationSettings))
_TASK_FIELDS = (frozenset(f.name for f in dataclasses.fields(ExperimentTask))
                - {"settings", "training_steps", "model_seed", "tags"})


def _grid(axes: Dict, *levels: _Level, tags: Sequence[str] = (), **fixed) -> List[ExperimentTask]:
    """The cells of ``levels``, outermost first (see the module docstring)."""
    cells = [fixed]
    for level in levels:
        cells = [{**cell, **choice} for cell in cells
                 for choice in (level(cell) if callable(level) else level)]
    tasks = []
    for cell in cells:
        unknown = cell.keys() - _SETTINGS_FIELDS - _TASK_FIELDS - set(tags)
        if unknown:
            raise ValueError(f"unknown grid field(s) {sorted(unknown)}")
        tasks.append(ExperimentTask(
            settings=EvaluationSettings(**{k: v for k, v in cell.items() if k in _SETTINGS_FIELDS}),
            training_steps=axes["training_steps"], model_seed=cell["seed"],
            tags={name: cell[name] for name in tags},
            **{k: v for k, v in cell.items() if k in _TASK_FIELDS}))
    return tasks


def _each(name: str, values: Iterable) -> List[Dict]:
    """A level setting ``name`` to each of ``values`` in turn."""
    return [{name: value} for value in values]


def _schemes(pairs: Iterable) -> List[Dict]:
    """A level of ``(scheme label, model kind)`` pairs."""
    return [{"scheme": label, "model_kind": kind} for label, kind in pairs]


def _named_schemes(schemes: Iterable[str], **learned) -> List[Dict]:
    """A level of scheme names, each backed by its default model kind; the
    ``learned`` fields apply to the learned schemes only."""
    return [{"scheme": scheme, "model_kind": kind, **(learned if kind is not None else {})}
            for scheme, kind in ((s, default_model_kind(s)) for s in schemes)]


def _traces(kind: str, count: int) -> List[Dict]:
    """A level over the first ``count`` bundled traces of ``kind``."""
    return _each("trace", trace_subset(kind, count))


#: The trace kinds of the Figs. 5, 7, 9 and 10 grids, each sized by its
#: ``n_<kind>`` axis through :func:`_traces_of_kind`.
_TRACE_KINDS = _each("trace_kind", ("synthetic", "cellular"))


def _traces_of_kind(axes: Dict) -> Callable[[Dict], List[Dict]]:
    """A level over the traces of the cell's ``trace_kind``, built once per
    plan (a cellular suite takes milliseconds to generate)."""
    traces = {kind: _traces(kind, axes[f"n_{kind}"]) for kind in ("synthetic", "cellular")}
    return lambda fields: traces[fields["trace_kind"]]


#: The Canopy model certified against (and trained for) each buffer family.
_CANOPY_KINDS = {"shallow": "canopy-shallow", "deep": "canopy-deep"}

#: The buffer families and depths of the Figs. 13 and 14 grids.
_BUFFER_CASES = ({"buffer_family": "shallow", "buffer_bdp": 1.0},
                 {"buffer_family": "deep", "buffer_bdp": 5.0})


def _certificates(grid) -> Dict:
    """The grid's certificate count and, when every cell was computed live,
    certificates/sec.  Cached cells of a resumed grid certified nothing this
    run and per-cell counts vary, so a resumed grid claims no throughput."""
    certificates = int(sum(cell.get("n_certificates", 0) for cell in grid.rows))
    live = grid.n_cached == 0 and grid.wall_clock_s > 0
    return {"certificates": certificates,
            "certificates_per_sec": certificates / grid.wall_clock_s if live else 0.0}


def _qcsat_aggregate(figure: str, group_by: List[str], grid, axes: Dict,
                     tasks: Sequence) -> Dict:
    """Mean/std across traces of the per-trace QC_sat means (Figs. 5, 7)."""
    rows = grid.aggregate(group_by=[*group_by, "scheme"], metrics=["qcsat"])
    for row in rows:
        row["n_traces"] = row.pop("n_cells")
    return {"figure": figure, "rows": rows, **_certificates(grid)}


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
    return {"trace": tasks[0].trace.name, "rows": rows, "series": series}


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
    return _grid(
        axes, _each("seed", axes["seeds"]),
        _schemes((("orca", "orca"), ("canopy", "canopy-robust"))),
        lambda f: [{"observation_noise": 0.0},
                   {"scheme": f["scheme"] + "-noise", "observation_noise": axes["noise"]}],
        trace=make_synthetic_trace("step-12-48"), duration=axes["duration"], buffer_bdp=2.0)


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
    return _grid(
        axes, _each("seed", axes["seeds"]),
        _schemes((("orca", "orca"), ("canopy", "canopy-deep"))),
        trace=make_synthetic_trace("square-48-96"), duration=axes["duration"],
        buffer_bdp=5.0, min_rtt=0.08)


# ---------------------------------------------------------------------- #
# Figure 5 — QC_sat for the shallow/deep buffer properties
# ---------------------------------------------------------------------- #
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
    aggregate=functools.partial(_qcsat_aggregate, "5", ["property_family", "trace_kind"]),
    description="QC_sat of Canopy vs Orca, shallow & deep buffer properties (Fig. 5)",
)
def _qcsat_buffers_build(axes: Dict) -> List[ExperimentTask]:
    return _grid(
        axes,
        [{"property_family": "shallow", "buffer_bdp": 0.5},
         {"property_family": "deep", "buffer_bdp": 5.0}],
        _TRACE_KINDS, _each("seed", axes["seeds"]),
        lambda f: _schemes((("canopy", _CANOPY_KINDS[f["property_family"]]), ("orca", "orca"))),
        _traces_of_kind(axes),
        tags=("property_family", "trace_kind"),
        duration=axes["duration"], certify=True, n_components=axes["n_components"])


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
    return {"figure": "6/8", "rows": [{"model": row["scheme"], **row} for row in grid.rows]}


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
    return _grid(
        axes, _schemes((kind, kind) for kind in axes["model_kind"]),
        _each("trace", [make_synthetic_trace(name) for name in axes["trace_name"]]),
        _each("seed", axes["seeds"]),
        tags=("max_steps",), max_steps=axes["max_steps"],
        duration=axes["duration"], buffer_bdp=axes["buffer_bdp"],
        property_family=axes["property_family"], n_components=axes["n_components"])


# ---------------------------------------------------------------------- #
# Figure 7 — QC_sat for the robustness property
# ---------------------------------------------------------------------- #
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
    aggregate=functools.partial(_qcsat_aggregate, "7", ["trace_kind"]),
    description="QC_sat of Canopy-robust vs Orca under observation noise (Fig. 7)",
)
def _qcsat_robustness_build(axes: Dict) -> List[ExperimentTask]:
    return _grid(
        axes, _TRACE_KINDS, _each("seed", axes["seeds"]),
        _schemes((("canopy", "canopy-robust"), ("orca", "orca"))), _traces_of_kind(axes),
        tags=("trace_kind",),
        duration=axes["duration"], buffer_bdp=2.0, observation_noise=axes["noise"],
        certify=True, property_family="robustness", n_components=axes["n_components"])


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
            "topologies": topologies}


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
    return _grid(
        axes, _each("topology", axes["topologies"]), _TRACE_KINDS,
        _each("seed", axes["seeds"]), _traces_of_kind(axes),
        _schemes(_performance_sweep_labels(axes).items()),
        tags=("trace_kind",), duration=axes["duration"], buffer_bdp=axes["buffer_bdp"])


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
    return _grid(
        axes, _each("topology", axes["families"]), _each("seed", axes["seeds"]),
        _traces("synthetic", axes["n_synthetic"]),
        _schemes(_topology_sweep_labels(axes).items()),
        duration=axes["duration"], buffer_bdp=axes["buffer_bdp"])


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
        **_certificates(grid),
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
    # Tags stay exactly the pre-product pair: the property family lives in
    # the scenario key (and task.property_family, which the aggregator groups
    # on), so single-family rows — and their cached store cells — are
    # byte-identical whether or not the product axis sweeps.
    return _grid(
        axes, _each("property_family", axes["property_family"]),
        [{"train_family": label, "model_topologies": catalog}
         for label, catalog in catalogs.items()],
        [{"eval_family": family, "topology": family} for family in families],
        _each("seed", axes["seeds"]),
        [trace for kind in axes["trace"] for trace in _traces(kind, axes["n_traces"])],
        tags=("train_family", "eval_family"),
        scheme="canopy", model_kind=axes["model_kind"], certify=True,
        n_components=axes["n_components"], duration=axes["duration"],
        buffer_bdp=axes["buffer_bdp"])


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
    return {
        "figure": "workload_stress",
        "schemes": list(axes["schemes"]),
        "topologies": [canonical_topology(f) for f in axes["topology"]],
        "workloads": [canonical_workload(w) for w in axes["workload"]],
        "property_family": axes["property_family"],
        "rows": rows,
        **_certificates(grid),
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
    # Classical schemes stress-test uncertified; every learned cell carries
    # its QC_sat certificates.  Topology and workload are canonicalized up
    # front so the report rows, the aggregate selectors, and the scenario
    # keys all carry one spelling.
    return _grid(
        axes, _named_schemes(axes["schemes"], certify=True,
                             property_family=axes["property_family"]),
        _each("topology", [canonical_topology(family) for family in axes["topology"]]),
        _each("workload", [canonical_workload(workload) for workload in axes["workload"]]),
        _each("seed", axes["seeds"]), _traces("synthetic", axes["n_traces"]),
        tags=("workload",),
        duration=axes["duration"], buffer_bdp=axes["buffer_bdp"],
        telemetry=canonical_telemetry(axes["telemetry"]), n_components=axes["n_components"])


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
    return {"figure": "11", "noise": axes["noise"], "rows": rows}


@REGISTRY.register(
    "noise_sensitivity",
    axes={"training_steps": 400, "duration": 12.0, "noise": 0.05, "n_traces": 3,
          "seeds": (1,)},
    aggregate=_noise_sensitivity_aggregate,
    description="percentage change of each metric under delay noise (Fig. 11)",
)
def _noise_sensitivity_build(axes: Dict) -> List[ExperimentTask]:
    # The noisy tag pairs the cells and keeps the clean ones apart from
    # Fig. 1's (same run, but Fig. 1 rows carry series).
    return _grid(
        axes, _schemes(_NOISE_SCHEMES), _each("seed", axes["seeds"]),
        _traces("synthetic", axes["n_traces"]),
        [{"noisy": False, "observation_noise": 0.0},
         {"noisy": True, "observation_noise": axes["noise"]}],
        tags=("noisy",), duration=axes["duration"], buffer_bdp=2.0)


# ---------------------------------------------------------------------- #
# Figure 12 — wide-area ("real world") deployment
# ---------------------------------------------------------------------- #
#: The schemes of the Fig. 12 deployment grid, each on its default model.
_REALWORLD_SCHEMES = ("canopy-shallow", "canopy-deep", "orca", "cubic")


def _realworld_categories(axes: Dict) -> Dict[str, list]:
    return {
        "intra": intracontinental_profiles()[: axes["profiles_per_category"]],
        "inter": intercontinental_profiles()[: axes["profiles_per_category"]],
    }


def _realworld_deployment_aggregate(grid, axes: Dict, tasks: Sequence) -> Dict:
    rows = []
    for category, profiles in _realworld_categories(axes).items():
        normalized: Dict[str, Dict[str, List[float]]] = {
            name: {"throughput": [], "delay": []} for name in _REALWORLD_SCHEMES
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
    return {"figure": "12", "rows": rows}


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
    return _grid(
        axes,
        [{"category": category, "path": profile.region,
          "trace": profile.make_trace(duration=axes["duration"]),
          "min_rtt": profile.min_rtt_s, "buffer_bdp": profile.buffer_bdp,
          "random_loss_rate": profile.loss_rate}
         for category, profiles in _realworld_categories(axes).items() for profile in profiles],
        _each("seed", axes["seeds"]), _named_schemes(_REALWORLD_SCHEMES),
        tags=("category", "path"), duration=axes["duration"])


# ---------------------------------------------------------------------- #
# Figure 13 — runtime fallback guided by QC_sat
# ---------------------------------------------------------------------- #
def _fallback_runtime_aggregate(grid, axes: Dict, tasks: Sequence) -> Dict:
    rows = []
    for family in _CANOPY_KINDS:
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
    return {"figure": "13", "rows": rows}


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
    return _grid(
        axes, [{**case, "monitor_family": case["buffer_family"]} for case in _BUFFER_CASES],
        _each("seed", axes["seeds"]),
        lambda f: _schemes((("orca", "orca"), ("canopy", _CANOPY_KINDS[f["buffer_family"]]))),
        [{"threshold": threshold, "monitor_threshold": threshold}
         for threshold in axes["thresholds"]],
        _traces("synthetic", axes["n_traces"]),
        tags=("buffer_family", "threshold"),
        duration=axes["duration"], telemetry=canonical_telemetry(axes["telemetry"]),
        monitor_components=axes["n_components"])


# ---------------------------------------------------------------------- #
# Figures 14 & 15 — TCP friendliness and fairness convergence (multi-flow)
# ---------------------------------------------------------------------- #
#: Seconds after the last flow joins before a multi-flow cell is scored.
_MULTIFLOW_SKIP_S = 2.0


def _multiflow(duration: float, bandwidth_mbps: float = 48.0) -> Dict:
    """The fields every Fig. 14/15 cell shares: a constant-capacity single
    bottleneck, throughputs averaged from 2 s after the last flow joins."""
    return {"trace": BandwidthTrace.constant(bandwidth_mbps, duration),
            "duration": duration, "skip_seconds": _MULTIFLOW_SKIP_S}


def _friendliness_schemes(fields: Dict) -> List[Dict]:
    return _schemes((("canopy", _CANOPY_KINDS[fields["buffer_family"]]),
                     ("orca", "orca"), ("cubic", None)))


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
    shared = _multiflow(axes["duration"])
    flows = _grid(
        axes, _BUFFER_CASES, _friendliness_schemes, _each("seed", axes["seeds"]),
        [{"competing_flows": n_cubic,
          "workload": canonical_workload(f"responsive(cubic:{n_cubic})")}
         for n_cubic in axes["flows"]],
        tags=("sweep", "buffer_family", "competing_flows"),
        sweep="flows", min_rtt=0.02, **shared)
    rtts = _grid(
        axes, _BUFFER_CASES[:1], _friendliness_schemes, _each("seed", axes["seeds"]),
        [{"rtt_ms": rtt_ms, "min_rtt": rtt_ms / 1000.0} for rtt_ms in axes["rtts_ms"]],
        tags=("sweep", "buffer_family", "rtt_ms"),
        sweep="rtt", workload="responsive(cubic)", **shared)
    return flows + rtts


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
    # A cell runs (n_flows + 1) * join s and scores from the last join
    # ((n_flows - 1) * join) plus the skip, a window of 2 * join - skip s.
    window = 2 * join - _MULTIFLOW_SKIP_S
    if window <= 0:
        raise ValueError(f"join_interval ({join:g} s) leaves no scoring window "
                         f"(2 * join_interval - {_MULTIFLOW_SKIP_S:g} s = {window:g} s); "
                         f"join_interval must exceed {_MULTIFLOW_SKIP_S / 2:g} s")
    # Flow i of the scheme under test joins at i * join_interval.
    joiners = WorkloadSpec(kind="step", scheme=SELF_SCHEME,
                           windows=tuple((i * join, None) for i in range(1, n_flows)))
    return _grid(
        axes, _named_schemes(axes["schemes"]), _each("seed", axes["seeds"]),
        workload=joiners.canonical(), min_rtt=axes["min_rtt"], buffer_bdp=axes["buffer_bdp"],
        **_multiflow(n_flows * join + join, axes["bandwidth_mbps"]))


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
    return {"figure": "16", "rows": rows}


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
    return _grid(
        axes, [{"model_components": n_components, "lam": lam}
               for n_components, lam in _sensitivity_configurations(axes)],
        _each("seed", axes["seeds"]), _traces("synthetic", axes["n_traces"]),
        scheme="canopy", model_kind="canopy-shallow", duration=axes["duration"],
        buffer_bdp=1.0)


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
    # Scheme-major, so the CLI tables print grouped by scheme.
    return _grid(
        axes, _named_schemes(axes["schemes"], certify=axes["certify"]),
        _each("trace", [resolve_trace(name) for name in axes["traces"]]),
        _each("seed", axes["seeds"]),
        duration=axes["duration"], buffer_bdp=axes["buffer_bdp"], min_rtt=axes["min_rtt"],
        topology=canonical_topology(axes["topology"]),
        workload=canonical_workload(axes["workload"]), n_components=axes["n_components"])
