"""Parallel experiment sharding: a process pool over (scheme, trace, seed) grids.

The benchmark harness evaluates Cartesian grids of (scheme × trace × seed)
cells; every cell is independent, so the grid shards naturally across worker
processes.  This module provides the three pieces the experiment registry (and so
every CLI grid) builds on:

* :class:`ExperimentTask` — one picklable grid cell: which scheme to run, on
  which trace, with which :class:`~repro.harness.evaluate.EvaluationSettings`
  and seed, and whether to additionally compute QC_sat certificates.
* :func:`run_task` — the module-level worker: builds the controller (fetching
  the trained model from the per-process model zoo), simulates the cell once,
  derives every row column (summary, QC_sat, monitor, telemetry) from that
  run, and returns a plain-dict row, so nothing non-picklable crosses the
  process boundary.
* :class:`ParallelRunner` — maps a cell function over a task list on a
  ``concurrent.futures.ProcessPoolExecutor`` and returns the rows **in task
  order**, so serial (``n_jobs=1``) and parallel runs produce identical
  reports.

Determinism
-----------

Each task carries its own seeds (the link/noise seed inside ``settings`` and
the model-training seed) — worker identity never influences results, and rows
come back ordered by task index regardless of completion order.  Use
:func:`derive_seed` to derive stable per-cell seeds from a base seed and the
cell coordinates.  Learned models are trained in the parent process before
the pool forks (:func:`~repro.harness.registry.pretrain_models`), so forked
workers inherit the warm model cache instead of retraining.

Usage (a grid with a store, resume and aggregation is a registered
experiment run by ``REGISTRY.run``; this is the layer beneath it)::

    tasks = [ExperimentTask(scheme="cubic", trace=trace, settings=settings)
             for trace in traces]
    rows = ParallelRunner(n_jobs=4).map(run_task, tasks)  # in task order
"""

from __future__ import annotations

import os
import pickle
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, field
from multiprocessing import get_all_start_methods, get_context
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.monitor import QCRuntimeMonitor
from repro.harness.evaluate import (
    EvaluationSettings,
    SchemeResult,
    certificates_for_decisions,
    qcsat_columns,
    run_scheme_on_trace,
    scheme_factory,
)
from repro.harness.spec import PROPERTY_FAMILIES, ScenarioSpec
from repro.harness.store import fingerprint
from repro.seeding import derive_seed
from repro.telemetry import log
from repro.telemetry.events import DEFAULT_TELEMETRY, EventTrace, canonical_telemetry
from repro.telemetry.summary import summarize_events
from repro.workload.spec import DEFAULT_WORKLOAD
from repro.traces.trace import BandwidthTrace

__all__ = [
    "ExperimentTask",
    "GridResult",
    "ParallelRunner",
    "run_profiled",
    "run_task",
    "derive_seed",
    "PROPERTY_FAMILIES",
]


@dataclass(frozen=True)
class ExperimentTask:
    """One (scheme, trace, seed) cell of an experiment grid.

    For classical schemes leave ``model_kind`` as None; for learned schemes the
    worker fetches ``model_kind`` from the model zoo (instant when the parent
    trained it before forking).  With ``certify=True`` the cell additionally
    certifies every decision of its run and reports QC_sat columns next to
    the summary (and any ``columns`` a grid's runner adds) of that same run.

    ``monitor_threshold``/``monitor_family``/``monitor_components`` describe a
    :class:`repro.core.monitor.QCRuntimeMonitor` *declaratively*: the worker
    rebuilds the monitor (and its verifier closure) from the model zoo, so the
    task stays picklable and fallback grids shard like any other grid.  A
    threshold of 0.0 installs the monitor in record-only mode (the learned
    action is never vetoed), matching the figure-13 baseline.

    ``model_topologies`` selects the *training-time* scenario catalog of the
    learned model (topology family specs sampled per training episode; None
    keeps the preset's single-bottleneck training), independently of the
    *evaluation* topology carried by ``settings.topology`` — the axis pair the
    cross-family generalization grid sweeps.
    """

    scheme: str
    trace: BandwidthTrace
    settings: EvaluationSettings
    model_kind: Optional[str] = None
    training_steps: int = 800
    model_seed: int = 1
    lam: Optional[float] = None
    model_components: Optional[int] = None
    model_topologies: Optional[Tuple[str, ...]] = None
    certify: bool = False
    property_family: Optional[str] = None
    n_components: int = 50
    monitor_threshold: Optional[float] = None
    monitor_family: Optional[str] = None
    monitor_components: int = 10
    tags: Dict[str, object] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.certify and self.model_kind is None:
            raise ValueError("certify=True requires a learned model_kind")
        for name, count in (("n_components", self.n_components), ("monitor_components", self.monitor_components)):
            if count <= 0:
                raise ValueError(f"{name} must be positive, got {count}")
        if self.model_topologies is not None:
            if self.model_kind is None:
                raise ValueError("model_topologies requires a learned model_kind")
            object.__setattr__(self, "model_topologies",
                               tuple(str(spec) for spec in self.model_topologies))
        for family in (self.property_family, self.monitor_family):
            if family is not None and family not in PROPERTY_FAMILIES:
                raise ValueError(f"unknown property family {family!r}; "
                                 f"known: {sorted(PROPERTY_FAMILIES)}")
        if self.monitor_threshold is not None:
            if self.model_kind is None:
                raise ValueError("a monitor spec requires a learned model_kind")
            if self.monitor_family is None:
                raise ValueError("a monitor spec requires monitor_family")
            if not 0.0 <= self.monitor_threshold <= 1.0:
                raise ValueError("monitor_threshold must be in [0, 1]")

    # ------------------------------------------------------------------ #
    # Scenario identity (the RunStore / registry currency)
    # ------------------------------------------------------------------ #
    def scenario(self) -> ScenarioSpec:
        """The declarative identity of this cell (scheme/trace/topology/seed/...)."""
        return ScenarioSpec(
            scheme=self.scheme,
            trace=self.trace.name,
            topology=self.settings.topology,
            workload=self.settings.workload,
            seed=self.settings.seed,
            model_kind=self.model_kind,
            model_topologies=self.model_topologies,
            property_family=self.property_family,
            certify=self.certify,
        )

    def cell_key(self) -> str:
        """The resumable-store key: scenario key + a digest of run-time knobs.

        The digest covers everything outside the scenario identity that can
        change the row — run length, buffer depth, noise/loss settings, the
        model's training budget/seed/overrides, certification and monitor
        knobs, and the tags — so a cached row is only ever reused for an
        *exactly* matching cell.
        """
        settings = self.settings
        extras = {
            "duration": settings.duration,
            "dt": settings.dt,
            "min_rtt": settings.min_rtt,
            "buffer_bdp": settings.buffer_bdp,
            "monitor_interval": settings.monitor_interval,
            "skip_seconds": settings.skip_seconds,
            "observation_noise": settings.observation_noise,
            "random_loss_rate": settings.random_loss_rate,
            "stochastic_loss": settings.stochastic_loss,
            "training_steps": self.training_steps,
            "model_seed": self.model_seed,
            "lam": self.lam,
            "model_components": self.model_components,
            "n_components": self.n_components,
            "monitor_threshold": self.monitor_threshold,
            "monitor_family": self.monitor_family,
            "monitor_components": self.monitor_components,
            "tags": dict(self.tags),
        }
        # Like the workload column in rows: the telemetry knob only enters the
        # digest when enabled, so every pre-telemetry store key — including the
        # committed golden stores — stays valid verbatim.
        if settings.telemetry != DEFAULT_TELEMETRY:
            extras["telemetry"] = canonical_telemetry(settings.telemetry)
        return f"{self.scenario().key()} #{fingerprint(extras)}"


@dataclass
class GridResult:
    """Rows for every task (in task order) plus grid-level accounting.

    ``n_cached`` counts rows served from a resumable run store rather than
    computed in this run (``wall_clock_s`` covers only the computed cells), so
    throughput aggregates can avoid dividing cached work by live wall-clock.
    """

    rows: List[Dict]
    wall_clock_s: float
    n_tasks: int
    n_jobs: int
    n_cached: int = 0

    def _check_columns(self, names: Sequence[str]) -> None:
        """Reject axis/column names no row carries (typos would silently match
        nothing and vanish into empty aggregates)."""
        if not self.rows:
            return
        valid = set()
        for row in self.rows:
            valid.update(row.keys())
        unknown = sorted(name for name in names if name not in valid)
        if unknown:
            raise ValueError(f"unknown grid column(s) {unknown}; "
                             f"valid columns: {sorted(valid)}")

    @staticmethod
    def _values_match(row_value, wanted) -> bool:
        """One value-equality rule for row selection: numeric values compare
        across int/float (a ``seeds=1`` override must match a row whose seed
        round-tripped through JSON as ``1.0``, and ``poisson(0.1)`` float rates
        select regardless of spelling), but bools never match their 0/1
        integer aliases (``certify=True`` must not select ``certify=1``)."""
        if isinstance(row_value, bool) != isinstance(wanted, bool):
            return False
        return row_value == wanted

    def select(self, **tags) -> List[Dict]:
        """Rows whose tag columns match every given key/value.

        Unknown column names raise (listing the valid ones) instead of
        silently selecting nothing.
        """
        self._check_columns(list(tags))
        return [row for row in self.rows
                if all(self._values_match(row.get(key), value)
                       for key, value in tags.items())]

    def aggregate(self, group_by: Sequence[str], metrics: Sequence[str]) -> List[Dict]:
        """Mean/std of ``metrics`` per distinct ``group_by`` tuple (in first-seen order)."""
        self._check_columns(list(group_by) + list(metrics))
        groups: Dict[tuple, List[Dict]] = {}
        order: List[tuple] = []
        for row in self.rows:
            key = tuple(row.get(column) for column in group_by)
            if key not in groups:
                groups[key] = []
                order.append(key)
            groups[key].append(row)
        aggregated = []
        for key in order:
            members = groups[key]
            entry = dict(zip(group_by, key))
            for metric in metrics:
                values = [row[metric] for row in members]
                entry[f"{metric}_mean"] = float(np.mean(values))
                entry[f"{metric}_std"] = float(np.std(values))
            entry["n_cells"] = len(members)
            aggregated.append(entry)
        return aggregated


def _task_model(task: ExperimentTask):
    # Imported here (not at module top) to keep the worker import graph slim
    # and avoid a models<->parallel cycle if the zoo ever grows runner hooks.
    from repro.harness.models import model_for_task

    return model_for_task(task)


def _embed_telemetry(row: Dict, trace: Optional[EventTrace],
                     settings: EvaluationSettings) -> None:
    """Fold a cell's telemetry into its row: summary scalars + raw events.

    The ``tele_*`` scalars flow into the RunRecord (and from there into
    BENCH_ci.json trajectory rows); the raw event list rides along as the
    non-scalar ``telemetry_events`` entry, which the bench layer excludes by
    construction.  Disabled telemetry adds nothing, keeping legacy row shapes.
    """
    if trace is None:
        return
    row["telemetry"] = canonical_telemetry(settings.telemetry)
    row.update(summarize_events(trace.events, duration=settings.duration))
    row["telemetry_events"] = trace.to_json()


def run_task(task: ExperimentTask,
             columns: Optional[Callable[[ExperimentTask, SchemeResult], Dict]] = None
             ) -> Dict:
    """Run one grid cell and return its report row (module-level: picklable).

    Every cell takes one path: build the optional runtime monitor, simulate
    once, then derive every column from that run — the performance summary,
    the QC_sat columns of its decisions (``certify=True``), the ``columns``
    callback, the monitor's fallback statistics and the telemetry summary.
    A certified cell thus reports certified safety and performance of the
    same run, and its certificates cover the decisions a monitor filtered.

    ``columns(task, run)`` derives extra row columns from the cell's
    :class:`~repro.harness.evaluate.SchemeResult`: its simulation (the
    multi-flow grids' per-flow throughputs, see :mod:`repro.harness.fairness`;
    the per-tick series of Figs. 1 and 2) or its decisions (the per-component
    certificates of Figs. 6 and 8).  A grid registers it as
    ``functools.partial(run_task, columns=...)``.
    """
    model = _task_model(task) if task.model_kind is not None else None
    row: Dict = {"scheme": task.scheme, "trace": task.trace.name, "seed": task.settings.seed,
                 "topology": task.settings.topology}
    # The workload column only appears for non-static cells, so legacy grids
    # (and their stored rows) keep their exact shape.
    if task.settings.workload != DEFAULT_WORKLOAD:
        row["workload"] = task.settings.workload
    row.update(task.tags)
    # One shared trace per cell: the monitor and the simulator emit into the
    # same stream, ordered by the simulator's tick clock.  None when off.
    telemetry = EventTrace.from_spec(task.settings.telemetry)

    monitor = None
    decision_filter = None
    if task.monitor_threshold is not None:
        monitor = QCRuntimeMonitor(
            model.make_verifier(n_components=task.monitor_components),
            PROPERTY_FAMILIES[task.monitor_family](),
            threshold=task.monitor_threshold,
            enabled=task.monitor_threshold > 0.0,
            telemetry=telemetry,
        )
        decision_filter = monitor.decision_filter
    if model is None:
        factory = scheme_factory(task.scheme)
    else:
        factory = scheme_factory(task.scheme, model=model,
                                 observation_noise=task.settings.observation_noise,
                                 decision_filter=decision_filter,
                                 monitor_interval=task.settings.monitor_interval,
                                 seed=task.settings.seed)
    result = run_scheme_on_trace(factory, task.trace, task.settings, scheme_name=task.scheme,
                                 telemetry=telemetry)
    row.update(result.summary.as_dict())
    if task.certify:
        properties = (model.properties if task.property_family is None
                      else PROPERTY_FAMILIES[task.property_family]())
        verifier = model.make_verifier(n_components=task.n_components)
        row.update(qcsat_columns(certificates_for_decisions(verifier, properties, result.decisions)))
    if columns is not None:
        row.update(columns(task, result))
    if monitor is not None:
        row["fallback_fraction"] = monitor.fallback_fraction
        row["mean_qc"] = monitor.mean_qc
    _embed_telemetry(row, telemetry, task.settings)
    return row


def run_profiled(runner: Callable, task) -> Dict:
    """Run one cell under a fresh process-wide :class:`TickProfiler`.

    The ``--profile`` wrapper for pool workers: module-level (so a
    ``functools.partial`` of it pickles into the pool), it activates a
    profiler for the duration of one cell and hands back
    ``{"row": ..., "profile": ...}``.  The caller unwraps the row *before*
    canonicalization/storage, so profiled and unprofiled rows stay
    byte-identical — the profile report travels next to the row, never
    inside it.
    """
    from repro.telemetry.profiler import (TickProfiler, activate_profiler,
                                          deactivate_profiler)

    profiler = activate_profiler(TickProfiler())
    try:
        row = runner(task)
    finally:
        deactivate_profiler()
    return {"row": row, "profile": profiler.report()}


class ParallelRunner:
    """Shards independent experiment tasks across a process pool.

    ``n_jobs`` resolution: an explicit value wins; ``None`` reads the
    ``REPRO_JOBS`` environment variable (default 1, i.e. serial); any value
    <= 0 means "one worker per CPU".  With one job (or one task) everything
    runs in-process — no pool, no pickling — which is also the fallback when a
    pool cannot be created or a task does not survive the process boundary.
    """

    def __init__(self, n_jobs: Optional[int] = None):
        if n_jobs is None:
            n_jobs = int(os.environ.get("REPRO_JOBS", "1"))
        if n_jobs <= 0:
            n_jobs = os.cpu_count() or 1
        self.n_jobs = int(n_jobs)

    # ------------------------------------------------------------------ #
    def map(self, fn: Callable, items: Iterable,
            on_result: Optional[Callable[[int, object, object], None]] = None) -> List:
        """``[fn(x) for x in items]`` sharded over the pool, results in order.

        ``fn`` must be a module-level callable and every item picklable when
        the pool is used; the serial path has no such requirement.  Only pool
        *infrastructure* failures (unpicklable work, no fork permission, the
        pool dying mid-run) degrade to the serial path, each with a
        ``pool_degraded`` warning naming the reason — an exception raised by
        ``fn`` itself propagates immediately, exactly as it would serially.

        ``on_result(index, item, result)`` is invoked for every result *in
        item order, as soon as it is available* — the hook the resumable
        :class:`~repro.harness.store.RunStore` uses to persist each cell
        incrementally.  It must be idempotent per index: when a dying pool
        degrades to the serial retry, already-notified prefixes are notified
        again.
        """
        items = list(items)
        if self.n_jobs <= 1 or len(items) <= 1:
            return self._serial(fn, items, on_result)
        error = self._pickle_error(fn, items)
        if error is not None:
            return self._degrade("unpicklable", error, fn, items, on_result)
        # Prefer fork so workers inherit the parent's trained-model cache.
        context = get_context("fork") if "fork" in get_all_start_methods() else get_context()
        try:
            pool = ProcessPoolExecutor(max_workers=min(self.n_jobs, len(items)),
                                       mp_context=context)
        except OSError as exc:
            return self._degrade("pool_create", exc, fn, items, on_result)
        try:
            # Executor.map submits eagerly, so worker spawn failures (fork
            # denied in sandboxes, process limits) raise OSError *here* —
            # before any task runs — and select the serial path.  An OSError
            # raised by a task itself surfaces later, from the result
            # iteration below, and propagates to the caller.
            results = pool.map(fn, items)
        except OSError as exc:
            pool.shutdown(wait=False, cancel_futures=True)
            return self._degrade("submit", exc, fn, items, on_result)
        try:
            with pool:
                collected = []
                for index, result in enumerate(results):
                    if on_result is not None:
                        on_result(index, items[index], result)
                    collected.append(result)
                return collected
        except (BrokenProcessPool, pickle.PicklingError) as exc:
            # The pool died mid-run (OOM, kill) or a straggler task defeated
            # the pre-flight pickle check; retry the whole grid serially
            # instead of failing the experiment.
            return self._degrade("pool_broken", exc, fn, items, on_result)

    @classmethod
    def _degrade(cls, reason: str, error: BaseException, fn: Callable, items: List,
                 on_result: Optional[Callable[[int, object, object], None]]) -> List:
        """Run the grid serially after a pool failure, saying so: the rows
        are the same, but the run lost its parallelism."""
        log.warn("pool_degraded", logger="harness", reason=reason,
                 error=f"{type(error).__name__}: {error}")
        return cls._serial(fn, items, on_result)

    @staticmethod
    def _serial(fn: Callable, items: List,
                on_result: Optional[Callable[[int, object, object], None]]) -> List:
        results = []
        for index, item in enumerate(items):
            result = fn(item)
            if on_result is not None:
                on_result(index, item, result)
            results.append(result)
        return results

    @staticmethod
    def _pickle_error(fn: Callable, items: List) -> Optional[Exception]:
        """Why the work does not survive the process boundary, or None.

        A cheap pre-flight: serializes the callable and one representative
        item (grids are homogeneous) rather than re-pickling the entire task
        list the pool is about to pickle anyway.  Heterogeneous stragglers
        that slip through are caught at result time and fall back serially.
        """
        try:
            pickle.dumps(fn)
            if items:
                pickle.dumps(items[0])
            return None
        except (pickle.PicklingError, AttributeError, TypeError) as exc:
            return exc
