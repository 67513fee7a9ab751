"""Evaluation harness regenerating the paper's tables and figures.

* :mod:`repro.harness.models` — trains (and caches) the Canopy / Orca models
  used across experiments.
* :mod:`repro.harness.evaluate` — runs a congestion-control scheme over a
  trace and computes the empirical metrics and QC_sat.
* :mod:`repro.harness.experiments` — the evaluation: every simulated figure
  (1, 2, 5–16, plus the topology and workload grids) registered as a
  :data:`~repro.harness.registry.REGISTRY` experiment, and ``scheme_grid``,
  which the CLI's ``evaluate``, ``certify`` and ``compare-classical`` preset.
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
* :mod:`repro.harness.parallel` — the grid cell
  (:class:`~repro.harness.parallel.ExperimentTask`), its one cell path
  (:func:`~repro.harness.parallel.run_task`), and
  :class:`~repro.harness.parallel.ParallelRunner`, whose ``map`` shards cells
  across a process pool and returns rows in task order (the registry, falsify
  and promote run through it).
* :mod:`repro.harness.fairness` — the per-flow columns of the multi-flow
  friendliness and fairness grids (Figures 14 and 15).
* :mod:`repro.harness.reporting` — plain-text rendering of result tables.

Import names from their modules (``from repro.harness.store import
RunStore``).  The package itself imports no submodule, so
``python -m repro.harness.store`` runs a module that is not yet loaded.
"""
