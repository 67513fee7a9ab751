"""The experiment registry: declarative experiments over named axes.

Historically every experiment was a bespoke ~100-line driver function in
:mod:`repro.harness.experiments` that hand-rolled the same four steps:
pre-train models, expand a Cartesian grid into tasks, shard it through
:class:`~repro.harness.parallel.ParallelRunner`, and aggregate the rows.
The registry factors that shape out.  An :class:`Experiment` is:

* **named axes** — a dict of axis name → default value.  Sequence-valued
  axes are grid axes, scalars are run-time knobs; either can be overridden
  from the CLI (``--set seeds=0..9 --set trace=cellular``) or from code,
  and an unknown axis name raises immediately with the list of valid ones
  (typos can no longer vanish into a silently-unchanged grid).
* a **build** hook — axes → the list of
  :class:`~repro.harness.parallel.ExperimentTask` cells,
* an optional **setup** hook — pre-trains models in-process so forked pool
  workers inherit the warm zoo cache,
* an **aggregate** hook — ``(grid, axes, tasks) -> result dict`` (defaults
  to the plain rows; :meth:`ExperimentRegistry.finalize` adds the grid
  accounting),
* a **runner** — the per-cell function, :func:`~repro.harness.parallel.run_task`
  or, for a grid whose rows carry extra columns,
  ``functools.partial(run_task, columns=...)``.

:meth:`ExperimentRegistry.run` executes an experiment with optional
:class:`~repro.harness.store.RunStore` persistence: every completed cell is
written incrementally, ``resume=True`` skips cells whose key is already
stored, and every row — fresh or cached — is canonicalized through JSON, so
serial, sharded (``n_jobs``), and interrupted-then-resumed runs produce
byte-identical rows.

Registering a new experiment is ~20 lines (see
``examples/custom_experiment.py``)::

    from repro.harness.registry import REGISTRY

    @REGISTRY.register("buffer_sweep", axes={"buffers": (0.5, 1.0), ...})
    def _build(axes):
        return [ExperimentTask(...) for ... in axes["buffers"]]

    result = REGISTRY.run("buffer_sweep", {"buffers": "0.25,4.0"}, n_jobs=4)
"""

from __future__ import annotations

import functools
import numbers
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Mapping, Optional, Sequence

from repro.harness.parallel import GridResult, ParallelRunner, run_profiled, run_task
from repro.harness.spec import coerce_scalar
from repro.harness.store import RunRecord, RunStore, canonical_json
from repro.telemetry import log

__all__ = [
    "Experiment",
    "ExperimentPlan",
    "ExperimentRegistry",
    "REGISTRY",
    "pretrain_models",
    "parse_set_overrides",
]

def default_aggregate(grid: GridResult, axes: Dict, tasks: Sequence) -> Dict:
    """Plain rows — enough for most custom experiments."""
    return {"rows": grid.rows}


@dataclass(frozen=True)
class Experiment:
    """One declarative experiment definition (see the module docstring)."""

    name: str
    build: Callable[[Dict], Sequence]
    axes: Mapping[str, object] = field(default_factory=dict)
    aggregate: Callable[[GridResult, Dict, Sequence], Dict] = default_aggregate
    setup: Optional[Callable[[Dict], None]] = None
    runner: Callable = run_task
    description: str = ""


# ---------------------------------------------------------------------- #
# Axis override parsing / coercion
# ---------------------------------------------------------------------- #
def parse_set_overrides(pairs: Sequence[str]) -> Dict[str, str]:
    """Parse repeated ``--set axis=value`` flags into an override dict."""
    overrides: Dict[str, str] = {}
    for pair in pairs:
        name, sep, value = pair.partition("=")
        name = name.strip()
        if not sep or not name:
            raise ValueError(f"malformed --set {pair!r}; expected axis=value")
        if name in overrides:
            raise ValueError(f"duplicate --set for axis {name!r}")
        overrides[name] = value.strip()
    return overrides


def _element_template(default: Sequence):
    for element in default:
        return element
    return ""


def _coerce_sequence(value: str, default: Sequence):
    template = _element_template(default)
    # Ranges expand for both int- and float-typed axes (cast to the axis
    # type), so `--set thresholds=0..1` is not rejected just because the
    # defaults happen to be floats.  Endpoints are always whole numbers.
    ranged = isinstance(template, (int, float)) and not isinstance(template, bool)
    elements: List = []
    for part in value.split(","):
        part = part.strip()
        if not part:
            continue
        start, sep, stop = part.partition("..")
        if sep and ranged and "." not in start and "." not in stop:
            first, last = int(start), int(stop)
            step = 1 if last >= first else -1
            elements.extend(type(template)(element)
                            for element in range(first, last + step, step))
        else:
            elements.append(coerce_scalar(part, template))
    if not elements:
        raise ValueError(f"empty sequence for axis override {value!r}")
    return tuple(elements)


def _cast_number(name: str, value: object, template: object):
    """Cast one typed numeric override to its axis's numeric type, so a
    library call keys its cells exactly like the same ``--set``: ``20`` on a
    float axis becomes ``20.0``, ``2.0`` on an integer axis ``2``.  Booleans
    and non-numeric axes pass through."""
    if (isinstance(value, bool) or isinstance(template, bool)
            or not isinstance(value, numbers.Real)
            or not isinstance(template, (int, float))):
        return value
    if isinstance(template, float):
        return float(value)
    if not float(value).is_integer():
        raise ValueError(f"axis {name!r}: expected an integer, got the fractional "
                         f"value {value!r} (this axis is integer-typed)")
    return int(value)


def coerce_axis_value(name: str, value: object, default: object):
    """Coerce one override to its axis's shape, using the default as template.

    String overrides (from ``--set``) are parsed by
    :func:`repro.harness.spec.coerce_scalar` — the one scalar-coercion rule
    of the repo, so int/float/bool handling matches everywhere; sequence axes
    split on commas, with ``a..b`` expanding to an inclusive whole-number
    range cast to the axis's element type.  Typed overrides (from library
    callers) are normalized to tuples for sequence axes, and numbers (each
    element of a sequence) are cast to the axis's numeric type, so both
    spellings of an override plan the same cell keys.
    """
    is_sequence_axis = isinstance(default, (tuple, list))
    if isinstance(value, str):
        try:
            return _coerce_sequence(value, default) if is_sequence_axis \
                else coerce_scalar(value, default)
        except ValueError as exc:
            raise ValueError(f"axis {name!r}: cannot parse {value!r}: {exc}") from exc
    if is_sequence_axis:
        template = _element_template(default)
        values = value if isinstance(value, (tuple, list)) else (value,)
        return tuple(_cast_number(name, element, template) for element in values)
    return _cast_number(name, value, default)


# ---------------------------------------------------------------------- #
# Registry
# ---------------------------------------------------------------------- #
def pretrain_models(tasks: Sequence) -> None:
    """Train (in-process) every distinct model the given tasks name.

    Runs in the coordinating parent before the pool (or the serve daemon's
    worker fleet) forks, so workers inherit the warm zoo cache instead of
    retraining — and, on resume, only the models the *pending* cells actually
    need are trained.  With ``REPRO_MODEL_ZOO`` set, each freshly-trained
    model is also published to the on-disk zoo (see
    :mod:`repro.harness.models`), so even workers spawned later — or entirely
    separate processes sharing the zoo directory — reuse one training run per
    cache key.
    """
    # Imported lazily so the registry stays importable without the trainer stack.
    from repro.harness.models import model_for_task

    seen = set()
    for task in tasks:
        if task.model_kind is None:
            continue
        identity = (task.model_kind, task.training_steps, task.model_seed,
                    task.lam, task.model_components, task.model_topologies)
        if identity in seen:
            continue
        seen.add(identity)
        model_for_task(task)


@dataclass(frozen=True)
class ExperimentPlan:
    """One resolved experiment invocation: the grid, before any execution.

    The plan is the shared contract between the in-process runner
    (:meth:`ExperimentRegistry.run`) and the lease-based serve daemon
    (:mod:`repro.serve.daemon`): both expand the same axes into the same task
    list with the same cell keys, so a cell computed under either path lands
    in the store under the same identity with a byte-identical row.
    """

    experiment: Experiment
    axes: Dict
    tasks: List
    keys: List[str]


class ExperimentRegistry:
    """Name → :class:`Experiment` mapping with a store-aware generic runner.

    The process-wide :data:`REGISTRY` lazily imports
    :mod:`repro.harness.experiments` on first lookup so the built-in
    experiments are always available without dragging the full experiment
    stack into lightweight imports of this module.
    """

    def __init__(self) -> None:
        self._experiments: Dict[str, Experiment] = {}

    def _load_builtins(self) -> None:
        global _BUILTINS_LOADED
        if self is not REGISTRY or _BUILTINS_LOADED:
            return
        _BUILTINS_LOADED = True
        import repro.harness.experiments  # noqa: F401  (registers into REGISTRY)

    # ------------------------------------------------------------------ #
    def register(self, name: str, axes: Optional[Mapping[str, object]] = None,
                 setup: Optional[Callable[[Dict], None]] = None,
                 aggregate: Optional[Callable[[GridResult, Dict, Sequence], Dict]] = None,
                 runner: Callable = run_task,
                 description: str = ""):
        """Decorator registering a build hook as an experiment.

        Re-registering a name replaces the previous definition (latest wins),
        so example scripts and notebooks can be re-imported freely.
        """
        def decorator(build: Callable[[Dict], Sequence]) -> Callable[[Dict], Sequence]:
            doc_lines = (build.__doc__ or "").strip().splitlines()
            self._experiments[name] = Experiment(
                name=name,
                build=build,
                axes=dict(axes or {}),
                aggregate=aggregate or default_aggregate,
                setup=setup,
                runner=runner,
                description=description or (doc_lines[0] if doc_lines else ""),
            )
            return build

        return decorator

    def get(self, name: str) -> Experiment:
        self._load_builtins()
        try:
            return self._experiments[name]
        except KeyError:
            raise ValueError(f"no experiment named {name!r}; "
                             f"known: {', '.join(self.names())}") from None

    def names(self) -> List[str]:
        self._load_builtins()
        return sorted(self._experiments)

    def describe(self) -> List[Dict[str, object]]:
        """One row per experiment (name, description, axes with defaults)."""
        return [{"experiment": exp.name, "description": exp.description,
                 "axes": {axis: default for axis, default in exp.axes.items()}}
                for exp in (self._experiments[name] for name in self.names())]

    # ------------------------------------------------------------------ #
    def resolve_axes(self, name: str, overrides: Optional[Mapping[str, object]] = None) -> Dict:
        """Defaults merged with coerced overrides; unknown axis names raise."""
        experiment = self.get(name)
        axes = dict(experiment.axes)
        overrides = dict(overrides or {})
        unknown = sorted(set(overrides) - set(axes))
        if unknown:
            raise ValueError(f"unknown axis name(s) {unknown} for experiment {name!r}; "
                             f"valid axes: {sorted(axes)}")
        for axis, value in overrides.items():
            axes[axis] = coerce_axis_value(axis, value, experiment.axes[axis])
        return axes

    def plan(self, name: str,
             overrides: Optional[Mapping[str, object]] = None) -> ExperimentPlan:
        """Resolve axes and expand the grid without running anything.

        Both :meth:`run` and the serve daemon start from the same plan, which
        is what guarantees their cell identities (and therefore store keys)
        agree.
        """
        experiment = self.get(name)
        axes = self.resolve_axes(name, overrides)
        tasks = list(experiment.build(axes))
        return ExperimentPlan(experiment=experiment, axes=axes, tasks=tasks,
                              keys=[task.cell_key() for task in tasks])

    def finalize(self, plan: ExperimentPlan, rows: List[Optional[Dict]],
                 wall_clock_s: float, n_jobs: int, n_cached: int) -> Dict:
        """Aggregate completed rows into the experiment's result dict.

        ``rows`` must be in plan-task order.  Shared by :meth:`run` and the
        serve daemon so a served sweep reports the identical result shape
        (aggregated rows, figure id, grid wall-clock and jobs, axes echo,
        cache accounting) as an in-process one.
        """
        grid = GridResult(
            rows=rows,
            wall_clock_s=wall_clock_s,
            n_tasks=len(plan.tasks),
            n_jobs=n_jobs,
            n_cached=n_cached,
        )
        result = plan.experiment.aggregate(grid, plan.axes, plan.tasks)
        result["wall_clock_s"] = wall_clock_s
        result["n_jobs"] = n_jobs
        result["experiment"] = plan.experiment.name
        result["axes"] = {axis: list(value) if isinstance(value, tuple) else value
                          for axis, value in plan.axes.items()}
        result["cached_cells"] = n_cached
        result["computed_cells"] = len(plan.tasks) - n_cached
        return result

    def run(self, name: str, overrides: Optional[Mapping[str, object]] = None,
            n_jobs: int = 1, store: Optional[RunStore] = None,
            resume: bool = False, profile: bool = False) -> Dict:
        """Run one experiment end to end, optionally persisted and resumable.

        With a ``store``, every completed cell is written incrementally (an
        interrupted run keeps its finished cells); with ``resume=True``,
        cells whose key the store already holds are served from disk instead
        of recomputed.  Rows — cached or fresh — are canonicalized through
        JSON, so serial, sharded, and resumed runs are byte-identical.

        ``profile=True`` runs every cell (serial or pooled) under a
        :class:`~repro.telemetry.profiler.TickProfiler` and returns the
        merged phase report under ``result["profile"]``; with a ``store`` it
        also streams one cumulative metric frame per cell into the store's
        ``metrics.jsonl`` (same stream the serve daemon writes).  Profiling
        is wall-clock observability only: rows and cell keys are identical
        with it on or off.
        """
        plan = self.plan(name, overrides)
        experiment, axes, tasks, keys = plan.experiment, plan.axes, plan.tasks, plan.keys

        cached: Dict[str, Dict] = {}
        if store is not None and resume:
            records = store.load()
            cached = {key: records[key].row for key in keys if key in records}

        pending = [(index, task) for index, task in enumerate(tasks)
                   if keys[index] not in cached]
        rows: List[Optional[Dict]] = [cached.get(key) for key in keys]
        # Model training is the dominant cost of learned grids, so it is
        # driven by the *pending* cells only: a fully-cached --resume trains
        # nothing, a 95%-done resume trains just the models its remaining
        # cells name.  The setup hook (for anything beyond training) is
        # likewise skipped when no cell needs computing.
        log.info("experiment_start", logger="harness", experiment=name,
                 cells=len(tasks), cached=len(cached), pending=len(pending),
                 n_jobs=n_jobs)
        if pending:
            if experiment.setup is not None:
                experiment.setup(axes)
            pretrain_models([task for _, task in pending])

        runner = ParallelRunner(n_jobs)
        producer = "serial" if runner.n_jobs <= 1 else "pool"

        map_fn = experiment.runner
        profile_reports: List[Dict] = []
        sampler = metrics_journal = None
        if profile:
            # Imported lazily so the registry stays importable without the
            # observability plane.
            from repro.obs.metrics import MetricsJournal, MetricsSampler

            map_fn = functools.partial(run_profiled, experiment.runner)
            sampler = MetricsSampler("run")
            if store is not None:
                metrics_journal = MetricsJournal(store.path)

        def on_result(pending_index: int, task, row) -> None:
            if profile:
                # Unwrap before canonicalization: the profile report rides
                # next to the row, never inside it, so profiled rows stay
                # byte-identical to unprofiled ones.
                report, row = row["profile"], row["row"]
                profile_reports.append(report)
                sampler.absorb_report(report)
                sampler.note_cell_done(row)
                if metrics_journal is not None:
                    metrics_journal.append(sampler.sample(current_key=task.cell_key()))
            row = canonical_json(row)
            rows[pending[pending_index][0]] = row
            if store is not None:
                store.put(RunRecord.for_task(task, row, experiment=name,
                                             producer=producer))
            log.debug("cell_done", logger="harness", experiment=name,
                      key=task.cell_key())

        start = time.perf_counter()
        runner.map(map_fn, [task for _, task in pending], on_result=on_result)
        wall_clock_s = time.perf_counter() - start
        log.info("experiment_done", logger="harness", experiment=name,
                 computed=len(pending), cached=len(cached),
                 wall_clock_s=wall_clock_s)
        result = self.finalize(plan, rows, wall_clock_s, runner.n_jobs, len(cached))
        if profile:
            from repro.obs.aggregate import merge_phase_reports

            result["profile"] = merge_phase_reports(profile_reports)
        return result


#: Whether the built-in experiments module has been imported into REGISTRY.
_BUILTINS_LOADED = False

#: The process-wide registry every built-in experiment registers into.
REGISTRY = ExperimentRegistry()
