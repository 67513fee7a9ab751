"""Evaluation harness regenerating the paper's tables and figures.

* :mod:`repro.harness.models` — trains (and caches) the Canopy / Orca models
  used across experiments.
* :mod:`repro.harness.evaluate` — runs a congestion-control scheme over a
  trace and computes the empirical metrics and QC_sat.
* :mod:`repro.harness.experiments` — the evaluation: every simulated figure
  (1, 2, 5–16, plus the topology and workload grids) registered as a
  :data:`~repro.harness.registry.REGISTRY` experiment.
* :mod:`repro.harness.spec` — :class:`~repro.harness.spec.ScenarioSpec`, the
  declarative scenario identity (scheme × trace × topology × seed × model ×
  property family × certify) with canonical string/JSON round-trips — the
  single currency flowing through tasks, shard keys, run records, and CLI
  flags.
* :mod:`repro.harness.registry` — the declarative experiment registry
  (named axes → grid expansion → per-cell runner → aggregators);
  ``REGISTRY.run`` is the one way to run a grid experiment, and
  ``python -m repro run`` its command-line form.
* :mod:`repro.harness.store` — the resumable
  :class:`~repro.harness.store.RunStore` writing one provenance-stamped
  :class:`~repro.harness.store.RunRecord` per completed cell.
* :mod:`repro.harness.parallel` — :class:`~repro.harness.parallel.ParallelRunner`,
  which shards (scheme × trace × seed) experiment grids across a process pool
  with deterministic seeding and in-order merged reporting.
* :mod:`repro.harness.fairness` — the per-flow columns of the multi-flow
  friendliness and fairness grids (Figures 14 and 15).
* :mod:`repro.harness.reporting` — plain-text rendering of result tables.
"""

from repro.harness.evaluate import (
    EvaluationSettings,
    SchemeResult,
    run_scheme_on_trace,
    scheme_factory,
)
from repro.harness.models import TrainedModel, get_trained_model, clear_model_cache
from repro.harness.checkpoints import SavedModel, load_model, save_model
from repro.harness.parallel import ExperimentTask, GridResult, ParallelRunner, derive_seed
# REGISTRY lazily imports repro.harness.experiments on first lookup, so the
# built-in experiments are always available without this package import
# paying for the experiment definitions.
from repro.harness.registry import REGISTRY
from repro.harness.spec import ScenarioSpec
from repro.harness.store import RunRecord, RunStore

__all__ = [
    "SavedModel",
    "save_model",
    "load_model",
    "EvaluationSettings",
    "SchemeResult",
    "run_scheme_on_trace",
    "scheme_factory",
    "TrainedModel",
    "get_trained_model",
    "clear_model_cache",
    "ExperimentTask",
    "GridResult",
    "ParallelRunner",
    "derive_seed",
    "ScenarioSpec",
    "RunRecord",
    "RunStore",
    "REGISTRY",
]
