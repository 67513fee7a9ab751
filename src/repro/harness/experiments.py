"""Experiment drivers — one function per figure/table of the evaluation.

Every driver accepts scale knobs (training steps, run duration, number of
traces, number of QC components) so the same code can run at CI scale inside
the benchmark suite or at larger scale from the example scripts.  Each driver
returns plain dictionaries / lists so the reporting module (and the
benchmarks) can render them as the rows/series the paper reports.

The grid-shaped drivers (``qcsat_buffers``, ``qcsat_robustness``,
``performance_sweep``, ``topology_sweep``, ``realworld_deployment``,
``fallback_runtime``) shard their (scheme × trace) cells through
:class:`repro.harness.parallel.ParallelRunner` and accept an ``n_jobs`` knob
(default 1 = serial; parallel and serial runs produce identical rows).  They also report the grid wall-clock — and, for the
certificate grids, certificates/sec — so the benchmark JSON captures
verification throughput alongside the figures.

Every grid-shaped experiment (``qcsat_buffers``, ``qcsat_robustness``,
``performance_sweep``, ``topology_sweep``, ``topology_generalization``,
``workload_stress``, ``realworld_deployment``, ``fallback_runtime``,
``friendliness``, ``fairness``) is additionally *declared* in
:data:`repro.harness.registry.REGISTRY` — named axes, a grid-expansion build
hook, and an aggregator — so they are reachable generically via
``python -m repro run <name> --set axis=value``, persist per-cell
:class:`~repro.harness.store.RunRecord`\\ s, resume interrupted sweeps, and
can be served to a lease-based worker fleet (``python -m repro serve``).
The driver functions of those experiments are thin shims over the registry
(rows are byte-identical through either entry point).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

import numpy as np

from repro.core.properties import (
    deep_buffer_properties,
    robustness_properties,
    shallow_buffer_properties,
)
from repro.core.trainer import CanopyTrainer, TrainerConfig
from repro.core.config import CanopyConfig
from repro.harness.evaluate import (
    EvaluationSettings,
    certificates_for_decisions,
    default_model_kind,
    run_scheme_on_trace,
    scheme_factory,
)
from repro.harness.fairness import MultiFlowTask, run_multiflow_task
from repro.harness.models import get_trained_model
from repro.harness.parallel import ExperimentTask
from repro.harness.registry import REGISTRY
from repro.harness.spec import trace_subset
from repro.telemetry.events import canonical_telemetry
from repro.topology.families import canonical_topology, topology_family_specs
from repro.workload.spec import canonical_workload
from repro.traces.realworld import intercontinental_profiles, intracontinental_profiles
from repro.traces.synthetic import make_synthetic_trace

__all__ = [
    "motivation_noise",
    "motivation_bad_state",
    "qcsat_buffers",
    "certified_components",
    "qcsat_robustness",
    "performance_sweep",
    "topology_sweep",
    "topology_generalization",
    "workload_stress",
    "noise_sensitivity",
    "realworld_deployment",
    "fallback_runtime",
    "friendliness_grid",
    "fairness_grid",
    "sensitivity",
    "training_curves",
    "verification_overhead",
]

#: Default family catalog of the cross-family generalization grid (>= 3
#: families, kept multi-hop-light so the grid stays CI-affordable).
GENERALIZATION_FAMILIES = ("single_bottleneck", "chain(2)", "parking_lot(2)")

#: Label of the domain-randomized model trained on every family at once.
MIXED_TRAINING_LABEL = "mixed"


#: Backward-compatible alias — the one trace-suite resolver lives in
#: :func:`repro.harness.spec.trace_subset`.
_trace_subset = trace_subset


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


# ---------------------------------------------------------------------- #
# Figure 1 — Orca vs Canopy under observation noise (motivation)
# ---------------------------------------------------------------------- #
def motivation_noise(
    training_steps: int = 400,
    duration: float = 12.0,
    noise: float = 0.05,
    seed: int = 1,
) -> Dict:
    """Sending rate of Orca and Canopy with and without ±5% delay noise (Fig. 1)."""
    orca = get_trained_model("orca", training_steps=training_steps, seed=seed)
    canopy = get_trained_model("canopy-robust", training_steps=training_steps, seed=seed)
    trace = make_synthetic_trace("step-12-48")
    settings_clean = EvaluationSettings(duration=duration, buffer_bdp=2.0, observation_noise=0.0, seed=seed)
    settings_noisy = EvaluationSettings(duration=duration, buffer_bdp=2.0, observation_noise=noise, seed=seed)

    rows = []
    series = {}
    for label, model, settings in (
        ("orca", orca, settings_clean),
        ("orca-noise", orca, settings_noisy),
        ("canopy", canopy, settings_clean),
        ("canopy-noise", canopy, settings_noisy),
    ):
        result = run_scheme_on_trace(
            scheme_factory(label, model=model, observation_noise=settings.observation_noise, seed=seed),
            trace, settings, scheme_name=label,
        )
        stats = result.simulation.stats_for(0)
        series[label] = {
            "time": stats.times.tolist(),
            "throughput_pps": (stats.acked / result.simulation.dt).tolist(),
            "cwnd": stats.cwnd.tolist(),
        }
        rows.append({"scheme": label, **result.summary.as_dict()})

    def _util(name: str) -> float:
        return next(r["utilization"] for r in rows if r["scheme"] == name)

    return {
        "figure": "1",
        "trace": trace.name,
        "rows": rows,
        "series": series,
        "orca_noise_drop": _util("orca") - _util("orca-noise"),
        "canopy_noise_drop": _util("canopy") - _util("canopy-noise"),
    }


# ---------------------------------------------------------------------- #
# Figure 2 — Orca entering bad states on a high-BDP path (motivation)
# ---------------------------------------------------------------------- #
def motivation_bad_state(
    training_steps: int = 400,
    duration: float = 15.0,
    seed: int = 1,
) -> Dict:
    """Orca vs Canopy (deep-buffer model) on a high-BDP trace (Fig. 2)."""
    orca = get_trained_model("orca", training_steps=training_steps, seed=seed)
    canopy = get_trained_model("canopy-deep", training_steps=training_steps, seed=seed)
    trace = make_synthetic_trace("square-48-96")
    settings = EvaluationSettings(duration=duration, buffer_bdp=5.0, min_rtt=0.08, seed=seed)

    rows = []
    series = {}
    for label, model in (("orca", orca), ("canopy", canopy)):
        result = run_scheme_on_trace(
            scheme_factory(label, model=model, seed=seed), trace, settings, scheme_name=label
        )
        stats = result.simulation.stats_for(0)
        decisions = result.decisions
        series[label] = {
            "time": stats.times.tolist(),
            "throughput_pps": (stats.acked / result.simulation.dt).tolist(),
            "cwnd": stats.cwnd.tolist(),
            "decision_time": [d.time for d in decisions],
            "cwnd_tcp": [d.cwnd_tcp for d in decisions],
            "cwnd_enforced": [d.cwnd_after for d in decisions],
        }
        rows.append({"scheme": label, **result.summary.as_dict()})
    return {"figure": "2", "trace": trace.name, "rows": rows, "series": series}


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
                    for trace in _trace_subset(trace_kind, count):
                        tasks.append(ExperimentTask(
                            scheme=scheme_label, trace=trace, settings=settings,
                            model_kind=model_kind, training_steps=axes["training_steps"],
                            model_seed=seed,
                            certify=True, property_family=family,
                            n_components=axes["n_components"],
                            tags={"property_family": family, "trace_kind": trace_kind},
                        ))
    return tasks


def qcsat_buffers(
    training_steps: int = 400,
    duration: float = 10.0,
    n_components: int = 50,
    n_synthetic: int = 3,
    n_cellular: int = 2,
    seed: int = 1,
    n_jobs: int = 1,
) -> Dict:
    """Mean/std of QC_sat for Canopy vs Orca, shallow & deep properties (Fig. 5).

    Thin shim over the registered ``qcsat_buffers`` experiment — the registry
    pre-trains the models the pending cells name, shards the grid, and
    aggregates; rows are byte-identical to the historical bespoke driver.
    """
    return REGISTRY.run("qcsat_buffers", {
        "training_steps": training_steps,
        "duration": duration,
        "n_components": n_components,
        "n_synthetic": n_synthetic,
        "n_cellular": n_cellular,
        "seeds": (seed,),
    }, n_jobs=n_jobs)


# ---------------------------------------------------------------------- #
# Figures 6 & 8 — certified-component distributions
# ---------------------------------------------------------------------- #
def certified_components(
    model_kind: str = "canopy-shallow",
    property_family: str = "shallow",
    trace_name: str = "step-12-48",
    training_steps: int = 400,
    duration: float = 10.0,
    n_components: int = 50,
    max_steps: int = 50,
    buffer_bdp: float = 0.5,
    seed: int = 1,
) -> Dict:
    """Per-component output bounds over the first ``max_steps`` decisions (Figs. 6/8)."""
    families = {
        "shallow": shallow_buffer_properties(),
        "deep": deep_buffer_properties(),
        "robustness": robustness_properties(),
    }
    properties = families[property_family]
    model = get_trained_model(model_kind, training_steps=training_steps, seed=seed)
    trace = make_synthetic_trace(trace_name)
    settings = EvaluationSettings(duration=duration, buffer_bdp=buffer_bdp, seed=seed)

    run = run_scheme_on_trace(scheme_factory(model_kind, model=model, seed=seed), trace, settings,
                              scheme_name=model_kind)
    verifier = model.make_verifier(n_components=n_components)
    decisions = run.decisions[:max_steps]
    batches = certificates_for_decisions(verifier, properties, decisions, n_components=n_components)

    steps = []
    for step_index in range(len(decisions)):
        for name, batch in batches.items():
            certificate = batch.certificate(step_index)
            steps.append({
                "step": step_index,
                "property": name,
                "applicable": certificate.applicable,
                "feedback": certificate.feedback,
                "satisfied_fraction": certificate.satisfied_fraction,
                "output_bounds": certificate.output_bounds().tolist(),
            })
    mean_feedback = float(np.mean([s["feedback"] for s in steps])) if steps else 1.0
    return {
        "figure": "6/8",
        "model": model_kind,
        "trace": trace.name,
        "steps": steps,
        "mean_feedback": mean_feedback,
    }


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
                for trace in _trace_subset(trace_kind, count):
                    tasks.append(ExperimentTask(
                        scheme=scheme_label, trace=trace, settings=settings,
                        model_kind=model_kind, training_steps=axes["training_steps"],
                        model_seed=seed,
                        certify=True, property_family="robustness",
                        n_components=axes["n_components"],
                        tags={"trace_kind": trace_kind},
                    ))
    return tasks


def qcsat_robustness(
    training_steps: int = 400,
    duration: float = 10.0,
    n_components: int = 50,
    n_synthetic: int = 3,
    n_cellular: int = 2,
    noise: float = 0.05,
    seed: int = 1,
    n_jobs: int = 1,
) -> Dict:
    """QC_sat of Canopy-robust vs Orca for P5 on 2 BDP buffers (Fig. 7).

    Thin shim over the registered ``qcsat_robustness`` experiment.
    """
    return REGISTRY.run("qcsat_robustness", {
        "training_steps": training_steps,
        "duration": duration,
        "n_components": n_components,
        "n_synthetic": n_synthetic,
        "n_cellular": n_cellular,
        "noise": noise,
        "seeds": (seed,),
    }, n_jobs=n_jobs)


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
                    "utilization": float(np.mean([c["utilization"] for c in cells])),
                    "avg_delay_ms": float(np.mean([c["avg_queuing_delay_ms"] for c in cells])),
                    "p95_delay_ms": float(np.mean([c["p95_queuing_delay_ms"] for c in cells])),
                    "loss_rate": float(np.mean([c["loss_rate"] for c in cells])),
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
                for trace in _trace_subset(trace_kind, count):
                    for label, model_kind in scheme_kinds.items():
                        tasks.append(ExperimentTask(
                            scheme=label, trace=trace, settings=settings,
                            model_kind=model_kind, training_steps=axes["training_steps"],
                            model_seed=seed,
                            tags={"trace_kind": trace_kind},
                        ))
    return tasks


def performance_sweep(
    buffer_bdp: float = 1.0,
    canopy_kind: str = "canopy-shallow",
    training_steps: int = 400,
    duration: float = 15.0,
    n_synthetic: int = 3,
    n_cellular: int = 2,
    seed: int = 1,
    n_jobs: int = 1,
    topologies: Sequence[str] = ("single_bottleneck",),
) -> Dict:
    """Utilization vs avg/p95 delay for all schemes (Fig. 9 shallow, Fig. 10 deep).

    ``topologies`` adds a topology axis to the grid: every (trace, scheme)
    cell is replicated per family spec, and — when more than one family is
    swept — the report rows carry a ``topology`` column.  The default single
    family reproduces the paper's single-bottleneck figures unchanged.  Thin
    shim over the registered ``performance_sweep`` experiment.
    """
    return REGISTRY.run("performance_sweep", {
        "buffer_bdp": buffer_bdp,
        "canopy_kind": canopy_kind,
        "training_steps": training_steps,
        "duration": duration,
        "n_synthetic": n_synthetic,
        "n_cellular": n_cellular,
        "seeds": (seed,),
        "topologies": tuple(topologies),
    }, n_jobs=n_jobs)


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
                "utilization": float(np.mean([c["utilization"] for c in cells])),
                "avg_delay_ms": float(np.mean([c["avg_queuing_delay_ms"] for c in cells])),
                "p95_delay_ms": float(np.mean([c["p95_queuing_delay_ms"] for c in cells])),
                "loss_rate": float(np.mean([c["loss_rate"] for c in cells])),
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


def topology_sweep(
    families: Optional[Sequence[str]] = None,
    schemes: Sequence[str] = ("cubic", "vegas", "bbr"),
    canopy_kind: Optional[str] = None,
    training_steps: int = 400,
    duration: float = 10.0,
    n_synthetic: int = 2,
    buffer_bdp: float = 1.0,
    seed: int = 1,
    n_jobs: int = 1,
) -> Dict:
    """Every scheme on every topology family (chains, parking lots, dumbbells).

    The paper evaluates a single shared bottleneck; this sweep drives the same
    schemes over the multi-bottleneck family catalog — per-hop buffers,
    parking-lot cross traffic, dumbbell bursts — and reports per-family
    utilization/delay rows plus the simulator tick throughput (grid ticks per
    wall-clock second, recorded in the bench JSON).

    ``canopy_kind`` optionally adds a learned scheme (trained up front so pool
    workers inherit the warm model cache) under the label ``canopy``.  Thin
    shim over the registered ``topology_sweep`` experiment (``python -m repro
    run topology_sweep --set seeds=0..4 --resume`` is the generic front door).
    """
    overrides: Dict[str, object] = {
        "schemes": tuple(schemes),
        "canopy_kind": canopy_kind,
        "training_steps": training_steps,
        "duration": duration,
        "n_synthetic": n_synthetic,
        "buffer_bdp": buffer_bdp,
        "seeds": (seed,),
    }
    if families is not None:
        overrides["families"] = tuple(families)
    return REGISTRY.run("topology_sweep", overrides, n_jobs=n_jobs)


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


def _generalization_property_families(axes: Dict) -> List[str]:
    """The property-family product axis, normalized to a list (a plain string
    from the driver shims is one family)."""
    value = axes["property_family"]
    return [value] if isinstance(value, str) else list(value)


def _topology_generalization_aggregate(grid, axes: Dict, tasks: Sequence) -> Dict:
    families = list(axes["families"])
    catalogs = _generalization_catalogs(families, axes["include_mixed"])
    property_families = _generalization_property_families(axes)
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
                    "utilization": float(np.mean([c["utilization"] for c in cells])),
                    "avg_delay_ms": float(np.mean([c["avg_queuing_delay_ms"] for c in cells])),
                    "p95_delay_ms": float(np.mean([c["p95_queuing_delay_ms"] for c in cells])),
                    "loss_rate": float(np.mean([c["loss_rate"] for c in cells])),
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
    families = list(axes["families"])
    catalogs = _generalization_catalogs(families, axes["include_mixed"])
    property_families = _generalization_property_families(axes)
    tasks = []
    for property_family in property_families:
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


def topology_generalization(
    families: Optional[Sequence[str]] = None,
    model_kind: str = "canopy-shallow",
    property_family: str = "shallow",
    include_mixed: bool = True,
    training_steps: int = 300,
    duration: float = 8.0,
    n_components: int = 10,
    n_synthetic: int = 2,
    buffer_bdp: float = 1.0,
    seed: int = 1,
    n_jobs: int = 1,
) -> Dict:
    """The (train-family × eval-family) certified-safety + performance grid.

    One model is trained per topology family (its training episodes sample
    that family only) plus, with ``include_mixed``, one domain-randomized
    ``mixed`` model whose episodes sample uniformly across *all* families.
    Every model is then evaluated — with ``certify=True`` — on every family,
    so each grid row carries both QC_sat (certified safety) and the empirical
    utilization/delay/loss of the same run.  Cells shard through
    :class:`ParallelRunner`; serial and parallel runs produce identical rows.

    Thin shim over the registered ``topology_generalization`` experiment:
    the generic front door scales the grid with no code change, e.g.
    ``python -m repro run topology_generalization --set seeds=0..2 --set
    trace=cellular --jobs 4``.
    """
    overrides: Dict[str, object] = {
        "model_kind": model_kind,
        "property_family": property_family,
        "include_mixed": include_mixed,
        "training_steps": training_steps,
        "duration": duration,
        "n_components": n_components,
        "n_traces": n_synthetic,
        "buffer_bdp": buffer_bdp,
        "seeds": (seed,),
    }
    if families is not None:
        overrides["families"] = tuple(families)
    return REGISTRY.run("topology_generalization", overrides, n_jobs=n_jobs)


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
                    "utilization": float(np.mean([c["utilization"] for c in cells])),
                    "avg_delay_ms": float(np.mean([c["avg_queuing_delay_ms"] for c in cells])),
                    "p95_delay_ms": float(np.mean([c["p95_queuing_delay_ms"] for c in cells])),
                    "loss_rate": float(np.mean([c["loss_rate"] for c in cells])),
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


def workload_stress(
    schemes: Sequence[str] = ("canopy-shallow",),
    topologies: Optional[Sequence[str]] = None,
    workloads: Optional[Sequence[str]] = None,
    property_family: str = "shallow",
    training_steps: int = 200,
    duration: float = 6.0,
    n_components: int = 8,
    n_traces: int = 1,
    buffer_bdp: float = 1.0,
    seed: int = 1,
    n_jobs: int = 1,
    telemetry: str = "off",
) -> Dict:
    """The (scheme × topology family × workload) certified stress grid.

    Opens the scenario classes the paper cannot express: incast storms
    (``fan_in(n)`` + a responsive workload bringing several flows up at
    once), certified safety *under churn* (``poisson(λ)`` arrivals and
    departures mid-run), and learned-vs-classical contention on shared
    segments.  Learned schemes run with ``certify=True``, so every cell
    carries QC_sat next to the empirical utilization/delay/loss of the same
    contended run.  Thin shim over the registered ``workload_stress``
    experiment — ``python -m repro run workload_stress --set
    workload=poisson(0.1) --set topology=fan_in(3) --jobs 2 --resume`` is the
    generic front door.
    """
    overrides: Dict[str, object] = {
        "schemes": tuple(schemes),
        "property_family": property_family,
        "training_steps": training_steps,
        "duration": duration,
        "n_components": n_components,
        "n_traces": n_traces,
        "buffer_bdp": buffer_bdp,
        "seeds": (seed,),
    }
    if topologies is not None:
        overrides["topology"] = tuple(topologies)
    if workloads is not None:
        overrides["workload"] = tuple(workloads)
    return REGISTRY.run("workload_stress", overrides, n_jobs=n_jobs)


# ---------------------------------------------------------------------- #
# Figure 11 — robustness to observation noise
# ---------------------------------------------------------------------- #
def noise_sensitivity(
    training_steps: int = 400,
    duration: float = 12.0,
    noise: float = 0.05,
    n_traces: int = 3,
    seed: int = 1,
) -> Dict:
    """Percentage change of metrics when ±5% delay noise is added (Fig. 11)."""
    orca = get_trained_model("orca", training_steps=training_steps, seed=seed)
    canopy = get_trained_model("canopy-robust", training_steps=training_steps, seed=seed)
    traces = _trace_subset("synthetic", n_traces)
    rows = []
    for scheme_label, model in (("orca", orca), ("canopy", canopy)):
        changes = {"utilization": [], "avg_delay": [], "p95_delay": []}
        for trace in traces:
            base_settings = EvaluationSettings(duration=duration, buffer_bdp=2.0, seed=seed)
            noisy_settings = EvaluationSettings(duration=duration, buffer_bdp=2.0,
                                                observation_noise=noise, seed=seed)
            base = run_scheme_on_trace(scheme_factory(scheme_label, model=model, seed=seed),
                                       trace, base_settings, scheme_name=scheme_label).summary
            noisy = run_scheme_on_trace(
                scheme_factory(scheme_label, model=model, observation_noise=noise, seed=seed),
                trace, noisy_settings, scheme_name=scheme_label).summary

            def pct(new: float, old: float) -> float:
                return 100.0 * (new - old) / old if old > 0 else 0.0

            changes["utilization"].append(pct(noisy.utilization, base.utilization))
            changes["avg_delay"].append(pct(noisy.avg_queuing_delay_ms, base.avg_queuing_delay_ms))
            changes["p95_delay"].append(pct(noisy.p95_queuing_delay_ms, base.p95_queuing_delay_ms))
        rows.append({
            "scheme": scheme_label,
            "utilization_change_pct": float(np.mean(changes["utilization"])),
            "avg_delay_change_pct": float(np.mean(changes["avg_delay"])),
            "p95_delay_change_pct": float(np.mean(changes["p95_delay"])),
            "max_abs_utilization_change_pct": float(np.max(np.abs(changes["utilization"]))),
        })
    return {"figure": "11", "noise": noise, "rows": rows}


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


def realworld_deployment(
    training_steps: int = 400,
    duration: float = 12.0,
    profiles_per_category: int = 2,
    seed: int = 1,
    n_jobs: int = 1,
) -> Dict:
    """Normalized throughput/delay over emulated WAN paths (Fig. 12).

    Every (scheme, path) cell runs independently on the pool; the per-path
    normalization (best throughput / lowest delay across schemes) happens at
    merge time on the collected rows.  Thin shim over the registered
    ``realworld_deployment`` experiment.
    """
    return REGISTRY.run("realworld_deployment", {
        "training_steps": training_steps,
        "duration": duration,
        "profiles_per_category": profiles_per_category,
        "seeds": (seed,),
    }, n_jobs=n_jobs)


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


def fallback_runtime(
    training_steps: int = 400,
    duration: float = 12.0,
    thresholds: Sequence[float] = (0.0, 0.5, 0.8),
    n_components: int = 10,
    n_traces: int = 2,
    seed: int = 1,
    n_jobs: int = 1,
) -> Dict:
    """Performance of Orca and Canopy with the QC_sat-guided fallback (Fig. 13).

    Every (family, scheme, threshold, trace) cell carries a *declarative*
    monitor spec — the worker rebuilds the ``QCRuntimeMonitor`` (verifier
    closure and all) from the model zoo — so the grid shards through
    :class:`ParallelRunner` like any other.  Thin shim over the registered
    ``fallback_runtime`` experiment.
    """
    return REGISTRY.run("fallback_runtime", {
        "training_steps": training_steps,
        "duration": duration,
        "thresholds": tuple(thresholds),
        "n_components": n_components,
        "n_traces": n_traces,
        "seeds": (seed,),
    }, n_jobs=n_jobs)


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


@REGISTRY.register(
    "friendliness",
    axes={
        "flows": (1, 2, 4),
        "rtts_ms": (20.0, 50.0, 100.0),
        "training_steps": 400,
        "duration": 15.0,
        "seed": 1,
    },
    runner=run_multiflow_task,
    description="throughput ratio vs competing CUBIC flows and RTTs (Fig. 14)",
)
def _friendliness_build(axes: Dict) -> List[MultiFlowTask]:
    tasks = []
    for family, scheme, model_kind, buffer_bdp in _FRIENDLINESS_CASES:
        for n_cubic in axes["flows"]:
            tasks.append(MultiFlowTask(
                mode="friendliness", scheme=scheme, value=n_cubic,
                model_kind=model_kind, training_steps=axes["training_steps"],
                model_seed=axes["seed"], buffer_bdp=buffer_bdp,
                duration=axes["duration"], tags={"buffer_family": family}))
    for family, scheme, model_kind, buffer_bdp in _FRIENDLINESS_CASES:
        if family != "shallow":
            continue
        for rtt_ms in axes["rtts_ms"]:
            tasks.append(MultiFlowTask(
                mode="rtt_friendliness", scheme=scheme, value=rtt_ms,
                model_kind=model_kind, training_steps=axes["training_steps"],
                model_seed=axes["seed"], buffer_bdp=buffer_bdp,
                duration=axes["duration"], tags={"buffer_family": family}))
    return tasks


def friendliness_grid(
    flows: Sequence[int] = (1, 2, 4),
    rtts_ms: Sequence[float] = (20.0, 50.0, 100.0),
    training_steps: int = 400,
    duration: float = 15.0,
    seed: int = 1,
    n_jobs: int = 1,
) -> Dict:
    """TCP friendliness against competing CUBIC flows and across RTTs (Fig. 14).

    Thin shim over the registered ``friendliness`` experiment: every sweep
    point is a declarative :class:`~repro.harness.fairness.MultiFlowTask`, so
    the grid shards, persists, and resumes like any other.
    """
    return REGISTRY.run("friendliness", {
        "flows": tuple(flows),
        "rtts_ms": tuple(rtts_ms),
        "training_steps": training_steps,
        "duration": duration,
        "seed": seed,
    }, n_jobs=n_jobs)


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
        "seed": 1,
    },
    runner=run_multiflow_task,
    description="fairness convergence of homogeneous flows joining over time (Fig. 15)",
)
def _fairness_build(axes: Dict) -> List[MultiFlowTask]:
    return [
        MultiFlowTask(
            mode="fairness_convergence", scheme=scheme, value=axes["n_flows"],
            model_kind=default_model_kind(scheme), training_steps=axes["training_steps"],
            model_seed=axes["seed"], join_interval=axes["join_interval"],
            bandwidth_mbps=axes["bandwidth_mbps"], min_rtt=axes["min_rtt"],
            buffer_bdp=axes["buffer_bdp"])
        for scheme in axes["schemes"]
    ]


def fairness_grid(
    schemes: Sequence[str] = ("cubic", "orca", "canopy-shallow", "canopy-deep"),
    n_flows: int = 3,
    join_interval: float = 12.0,
    training_steps: int = 400,
    seed: int = 1,
    n_jobs: int = 1,
) -> Dict:
    """Fairness convergence of homogeneous flows joining over time (Fig. 15).

    Thin shim over the registered ``fairness`` experiment.
    """
    return REGISTRY.run("fairness", {
        "schemes": tuple(schemes),
        "n_flows": n_flows,
        "join_interval": join_interval,
        "training_steps": training_steps,
        "seed": seed,
    }, n_jobs=n_jobs)


# ---------------------------------------------------------------------- #
# Figure 16 — sensitivity to N and λ
# ---------------------------------------------------------------------- #
def sensitivity(
    n_values: Sequence[int] = (1, 5, 10),
    lambda_values: Sequence[float] = (0.25, 0.5, 0.75),
    training_steps: int = 300,
    duration: float = 10.0,
    n_traces: int = 2,
    seed: int = 1,
) -> Dict:
    """Performance of Canopy-shallow for different N and λ (Fig. 16)."""
    traces = _trace_subset("synthetic", n_traces)
    settings = EvaluationSettings(duration=duration, buffer_bdp=1.0, seed=seed)
    rows = []

    configurations = [("N", n, 0.25) for n in n_values] + [("lambda", 5, lam) for lam in lambda_values]
    seen = set()
    for axis, n_components, lam in configurations:
        key = (n_components, lam)
        if key in seen:
            continue
        seen.add(key)
        model = get_trained_model("canopy-shallow", training_steps=training_steps, seed=seed,
                                  lam=lam, n_components=n_components)
        summaries = []
        for trace in traces:
            result = run_scheme_on_trace(scheme_factory("canopy", model=model, seed=seed),
                                         trace, settings, scheme_name="canopy")
            summaries.append(result.summary.as_dict())
        rows.append({
            "label": f"N{n_components}-lam{lam:g}",
            "n_components": n_components,
            "lambda": lam,
            "utilization": float(np.mean([s["utilization"] for s in summaries])),
            "avg_delay_ms": float(np.mean([s["avg_queuing_delay_ms"] for s in summaries])),
            "p95_delay_ms": float(np.mean([s["p95_queuing_delay_ms"] for s in summaries])),
        })
    return {"figure": "16", "rows": rows}


# ---------------------------------------------------------------------- #
# Figure 17 — training curves (appendix A.1)
# ---------------------------------------------------------------------- #
def training_curves(training_steps: int = 400, seed: int = 1) -> Dict:
    """Raw / verifier / total reward over training for Orca and Canopy (Fig. 17)."""
    canopy = get_trained_model("canopy-shallow", training_steps=training_steps, seed=seed)
    orca = get_trained_model("orca", training_steps=training_steps, seed=seed)
    curves = {
        "canopy": {k: v.tolist() for k, v in canopy.training.reward_curves().items()},
        "orca": {k: v.tolist() for k, v in orca.training.reward_curves().items()},
    }
    return {
        "figure": "17",
        "curves": curves,
        "final": {
            "canopy": canopy.training.final_metrics(),
            "orca": orca.training.final_metrics(),
        },
    }


# ---------------------------------------------------------------------- #
# Table 4 — training overhead of verification (appendix A.2)
# ---------------------------------------------------------------------- #
def verification_overhead(
    n_values: Sequence[int] = (1, 5, 10),
    training_steps: int = 150,
    seed: int = 1,
) -> Dict:
    """Environment-step rate with and without in-loop verification (Table 4)."""
    rows = []

    orca_config = CanopyConfig.orca_baseline(seed=seed)
    orca_trainer = CanopyTrainer(orca_config, TrainerConfig(
        total_steps=training_steps, log_every=training_steps,
        use_verifier_reward=False, verifier_every=10 ** 9,
    ))
    orca_result = orca_trainer.train()
    rows.append({"scheme": "orca", "n_components": 0, "steps_per_second": orca_result.steps_per_second,
                 "verifier_seconds": orca_result.verifier_seconds})

    for n in n_values:
        config = CanopyConfig.shallow(n_components=n, seed=seed)
        trainer = CanopyTrainer(config, TrainerConfig(total_steps=training_steps, log_every=training_steps))
        result = trainer.train()
        rows.append({"scheme": f"canopy-N{n}", "n_components": n,
                     "steps_per_second": result.steps_per_second,
                     "verifier_seconds": result.verifier_seconds})
    return {"table": "4", "rows": rows}
