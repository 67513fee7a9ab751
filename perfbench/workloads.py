"""The benchmark workloads and the measurement one benchmark process makes.

Each workload runs through a public entry point of the program:
``REGISTRY.run`` for the two grids, ``get_trained_model`` for training.  On
``certified_grid`` and ``train_canopy`` the benchmark's seed picks one of
:data:`VARIANTS` input variants (``seed % VARIANTS``): the training seed of
every model.  On ``classical_grid`` one Poisson churn realization moves the
cost of a cell by tens of percent, so every pass runs the same three grid
seeds and the benchmark's seed shuffles their order.  The reference outputs
of every variant are committed under ``perfbench/reference``.

:func:`measure` is one benchmark process: set up, run whole grid passes (or
whole training runs) for a time share or a fixed count, then check every
output.  ``perfbench/run.py`` starts one fresh process per call, so the
in-process model cache never turns set-up into a cache hit.
"""

from __future__ import annotations

import contextlib
import json
import os
import platform
import random
import resource
import shutil
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter
from typing import Dict, List, Mapping, Optional, Tuple

from perfbench.checks import actor_digest, grid_failures, training_failures
from perfbench.gauge import SpeedGauge
from perfbench.spans import Instrumentation, SpanRecorder, layer_metrics

__all__ = ["VARIANTS", "Workload", "WORKLOADS", "variant_of", "measure"]

#: Number of input variants with a committed reference; the seed picks one.
VARIANTS = 4


def variant_of(seed: int) -> int:
    return seed % VARIANTS


@dataclass(frozen=True)
class Workload:
    """One workload: a registry grid (``experiment``) or a training run."""

    name: str
    experiment: Optional[str] = None
    overrides: Mapping[str, object] = field(default_factory=dict)
    model_kind: Optional[str] = None
    training_steps: int = 0
    #: Overrides of the self-test size (grid axes, or ``training_steps``).
    tiny: Mapping[str, object] = field(default_factory=dict)
    #: Grid seeds run in every pass, in an order the benchmark seed shuffles;
    #: empty: the benchmark seed picks one variant.
    fixed_seeds: Tuple[int, ...] = ()

    def variant(self, seed: int) -> str:
        """The name of the input variant (and reference) ``seed`` selects."""
        return "all" if self.fixed_seeds else f"v{variant_of(seed)}"

    def grid_overrides(self, seed: int, tiny: bool = False) -> Dict[str, object]:
        overrides = dict(self.overrides)
        if tiny:
            overrides.update(self.tiny)
        if self.fixed_seeds:
            order = list(self.fixed_seeds)
            random.Random(seed).shuffle(order)
            overrides["seeds"] = tuple(order)
        else:
            overrides["seeds"] = (variant_of(seed) + 1,)
        return overrides

    def steps(self, tiny: bool = False) -> int:
        return int(self.tiny["training_steps"]) if tiny else self.training_steps


WORKLOADS: Dict[str, Workload] = {
    "classical_grid": Workload(
        name="classical_grid",
        experiment="workload_stress",
        overrides={
            "schemes": ("cubic", "bbr", "vegas"),
            "topology": ("chain(3)", "parking_lot(3)", "fan_in(3)", "shared_segment"),
            "workload": ("static", "responsive(cubic:2)", "poisson(0.25)"),
            "duration": 6.0, "n_traces": 1, "buffer_bdp": 1.0, "telemetry": "off",
        },
        tiny={"schemes": ("cubic",), "topology": ("chain(3)", "fan_in(3)"),
              "workload": ("static", "poisson(0.25)"), "duration": 2.0},
        fixed_seeds=(1, 2, 3),
    ),
    "certified_grid": Workload(
        name="certified_grid",
        experiment="qcsat_buffers",
        overrides={"training_steps": 400, "duration": 10.0, "n_components": 50,
                   "n_synthetic": 3, "n_cellular": 2},
        tiny={"training_steps": 30, "duration": 2.0, "n_components": 8,
              "n_synthetic": 1, "n_cellular": 1},
    ),
    "train_canopy": Workload(
        name="train_canopy",
        model_kind="canopy-shallow",
        training_steps=400,
        tiny={"training_steps": 30},
    ),
}


def _describe(exc: BaseException) -> str:
    """One line naming an exception and the innermost frame that raised it."""
    frame = traceback.extract_tb(exc.__traceback__)[-1]
    return f"{type(exc).__name__}: {exc} (at {frame.filename}:{frame.lineno} in {frame.name})"


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def fingerprint() -> Dict[str, object]:
    """The machine and library facts a result depends on."""
    import numpy

    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS", "unset"),
        "machine": platform.machine(),
    }


@contextlib.contextmanager
def _runner_bound(registry, name: str, wrap):
    """Re-register experiment ``name`` with ``wrap(runner)``; restore after.

    The registry captures the cell runner when an experiment is registered,
    so the wrapper has to go into the registered definition itself.
    """
    original = registry.get(name)

    def register(runner) -> None:
        registry.register(name, axes=original.axes, setup=original.setup,
                          aggregate=original.aggregate, runner=runner,
                          description=original.description)(original.build)

    register(wrap(original.runner))
    try:
        yield
    finally:
        register(original.runner)


class _Budget:
    """Whole units for a time share (calibrated on the first) or a count."""

    def __init__(self, share_s: float, count: int) -> None:
        self.share_s = share_s
        self.count = count

    def more(self, units: List[Dict[str, object]]) -> bool:
        if not units:
            return True
        if not self.count:
            self.count = max(1, round(self.share_s / max(units[0]["raw_wall_s"], 1e-9)))
        return len(units) < self.count


class _Tally:
    """What one benchmark process measured and checked."""

    def __init__(self, timer: bool) -> None:
        #: One entry per timed unit (grid pass or training run), see :meth:`add`.
        self.units: List[Dict[str, object]] = []
        #: Failed cell or run → reason; every entry counts as failed.
        self.failures: Dict[str, str] = {}
        #: Passes that raised; their unfinished cells appear in ``failures``.
        self.errors: Dict[str, str] = {}
        self.attempted = 0
        self.gauge = SpeedGauge(timer)

    def setup_s(self, t0_wall: float) -> Tuple[float, float]:
        """``(raw, rescaled)`` seconds from process start to now, gauge excluded."""
        count, spent = self.gauge.mark()
        raw = time.time() - t0_wall - spent
        return raw, raw / self.gauge.factor(0, count)

    def add(self, mark: Tuple[int, float], elapsed_s: float, steps: float,
            cells: List[Tuple[float, int, int]]) -> None:
        """Record one unit timed from gauge ``mark``: its elapsed seconds, its
        decision steps, and ``(ms, first, last)`` of every completed cell
        (its gauge time already taken out; the gauge's sample counts at its
        start and end).  ``wall_s`` and ``cell_ms`` are rescaled to the quiet
        machine (see :class:`~perfbench.gauge.SpeedGauge`); the ``raw_``
        entries are not."""
        gauge = self.gauge
        count, spent = gauge.mark()
        raw_wall_s = elapsed_s - (spent - mark[1])
        factor = gauge.factor(mark[0], count)
        self.units.append({
            "factor": factor,
            "raw_wall_s": raw_wall_s,
            "wall_s": raw_wall_s / factor,
            "cells": len(cells),
            "steps": steps,
            "raw_cell_ms": [ms for ms, _, _ in cells],
            "cell_ms": [ms / gauge.factor(first, last) for ms, first, last in cells],
        })


def _grid(workload: Workload, seed: int, tiny: bool, budget: _Budget, work_dir: Path,
          recorder: Optional[SpanRecorder], stack: contextlib.ExitStack, tally: _Tally,
          t0_wall: float):
    """Set up and run grid passes; return ``(setup_s, check)``."""
    from repro.harness.registry import REGISTRY, pretrain_models
    from repro.harness.spec import PROPERTY_FAMILIES
    from repro.harness.store import RunStore

    overrides = workload.grid_overrides(seed, tiny)
    plan = REGISTRY.plan(workload.experiment, overrides)
    pretrain_models(plan.tasks)
    n_properties = {key: len(PROPERTY_FAMILIES[task.property_family]()) if task.certify else None
                    for key, task in zip(plan.keys, plan.tasks)}
    # Monitor intervals per cell: the decision steps of flow 0.
    steps_per_cell = sum(task.settings.duration / task.settings.monitor_interval
                         for task in plan.tasks) / len(plan.tasks)
    gauge = tally.gauge
    cells: List[Tuple[float, int, int]] = []

    def timed(runner):
        if recorder is not None:
            runner = recorder.wrap("harness.cell", runner)

        def run_cell(task):
            first, spent = gauge.mark()
            start = perf_counter()
            row = runner(task)
            elapsed = perf_counter() - start
            last, spent_after = gauge.mark()
            cells.append(((elapsed - (spent_after - spent)) * 1e3, first, last))
            return row

        return run_cell

    stack.enter_context(_runner_bound(REGISTRY, workload.experiment, timed))
    setup = tally.setup_s(t0_wall)
    pass_dirs: List[Path] = []
    while budget.more(tally.units):
        pass_dir = work_dir / f"pass{len(pass_dirs)}"
        pass_dirs.append(pass_dir)
        cells.clear()
        gauge.sample()
        mark = gauge.mark()
        start = perf_counter()
        try:
            REGISTRY.run(workload.experiment, overrides, n_jobs=1, store=RunStore(pass_dir))
        except Exception as exc:  # noqa: BLE001 - its unfinished cells fail the check
            tally.errors[f"pass{len(pass_dirs) - 1}"] = _describe(exc)
        elapsed = perf_counter() - start
        if not gauge.timer:
            gauge.sample()  # the traced run samples only between units
        tally.add(mark, elapsed, len(cells) * steps_per_cell, list(cells))
        if tally.errors:
            break  # a raising program would only raise again
    tally.attempted = len(plan.keys) * len(pass_dirs)

    def check(reference: Path, write_reference: bool) -> None:
        if write_reference:
            reference.mkdir(parents=True, exist_ok=True)
            shutil.copyfile(pass_dirs[0] / "records.jsonl", reference / "records.jsonl")
            return
        for index, pass_dir in enumerate(pass_dirs):
            for key, reason in grid_failures(plan.keys, n_properties, pass_dir,
                                             reference).items():
                tally.failures[f"pass{index}:{key}"] = reason

    return setup, check


def _training(workload: Workload, seed: int, tiny: bool, budget: _Budget, reference: Path,
              tally: _Tally, t0_wall: float):
    """Run whole training runs, each checked right after it; return ``(setup_s, check)``."""
    from repro.harness import models

    setup = tally.setup_s(t0_wall)
    model_seed = variant_of(seed) + 1
    n_steps = workload.steps(tiny)
    digest_path = reference / "digest.json"
    expected = json.loads(digest_path.read_text())["digest"] if digest_path.is_file() else None
    digests: List[str] = []
    while budget.more(tally.units):
        models.clear_model_cache()
        tally.attempted += 1
        tally.gauge.sample()
        mark = tally.gauge.mark()
        start = perf_counter()
        try:
            # Looked up on the module at call time, so the traced run's
            # wrapper sees it.
            model = models.get_trained_model(workload.model_kind, training_steps=n_steps,
                                             seed=model_seed)
        except Exception as exc:  # noqa: BLE001 - counted as a failed run
            tally.add(mark, perf_counter() - start, 0, [])
            tally.failures[f"run{tally.attempted}"] = _describe(exc)
            break  # a raising program would only raise again
        elapsed = perf_counter() - start
        if not tally.gauge.timer:
            tally.gauge.sample()  # the traced run samples only between units
        last, spent = tally.gauge.mark()
        tally.add(mark, elapsed, model.training.env_steps,
                  [((elapsed - (spent - mark[1])) * 1e3, mark[0], last)])
        # Checked now, outside the timed call, so no model outlives its run.
        digests.append(actor_digest(model))
        problems = training_failures(model, n_steps, expected)
        if problems:
            tally.failures[f"run{tally.attempted}"] = "; ".join(problems)
        del model
    models.clear_model_cache()

    def check(reference: Path, write_reference: bool) -> None:
        if write_reference:
            tally.failures.clear()
            reference.mkdir(parents=True, exist_ok=True)
            digest_path.write_text(json.dumps(
                {"kind": workload.model_kind, "training_steps": n_steps,
                 "seed": model_seed, "digest": digests[0]}, indent=2) + "\n")

    return setup, check


def measure(workload: Workload, seed: int, work_dir: Path, reference_dir: Path, *,
            tiny: bool = False, trace: bool = False, share_s: float = 0.0,
            count: int = 0, t0_wall: Optional[float] = None,
            write_reference: bool = False) -> Dict[str, object]:
    """Set up, measure and check one benchmark process's share of a run.

    ``count`` fixes the number of grid passes (or training runs); otherwise
    as many as fit ``share_s`` are run, judged by the first.  ``t0_wall`` is
    the wall-clock time the process was started (set-up is measured from it).
    With ``write_reference`` one pass (or run) is made and its output becomes
    the reference of this seed's variant.
    """
    t0_wall = time.time() if t0_wall is None else t0_wall
    # Everything the measurement uses is imported before the window opens.
    from repro.harness import models
    from repro.harness.registry import REGISTRY

    if models.zoo_root() is not None:
        raise RuntimeError(f"unset {models.ZOO_ENV}: set-up must train, not load")
    REGISTRY.names()  # imports the built-in experiments
    budget = _Budget(share_s, 1 if write_reference else count)
    reference = reference_dir / workload.name / workload.variant(seed)
    recorder = SpanRecorder() if trace else None
    # The traced run's spans must not contain the gauge's loop.
    tally = _Tally(timer=not trace)

    window_start = perf_counter()
    with contextlib.ExitStack() as stack:
        stack.enter_context(tally.gauge)
        instrumentation = stack.enter_context(Instrumentation(recorder)) if trace else None
        if workload.experiment is not None:
            setup, check = _grid(workload, seed, tiny, budget, work_dir, recorder, stack,
                                 tally, t0_wall)
        else:
            setup, check = _training(workload, seed, tiny, budget, reference, tally, t0_wall)
    # The gauge's loops are the benchmark's own work, not the program's.
    window_s = perf_counter() - window_start - tally.gauge.spent_s
    peak_rss_mb = _peak_rss_mb()
    check(reference, write_reference)

    notes = []
    per_layer = None
    if trace:
        per_layer = layer_metrics(recorder, instrumentation.profiler, window_s)
        if workload.experiment is None:
            notes.append("orca/env.py builds its simulator without the active tick "
                         "profiler: cc.tick comes from the wrapper only and the "
                         "cc.phase.* split stays 0 on this workload")
    return {
        "workload": workload.name,
        "seed": seed,
        "raw_setup_s": setup[0],
        "setup_s": setup[1],
        "window_s": window_s,
        "window_factor": tally.gauge.factor(0, len(tally.gauge.factors)),
        "units": tally.units,
        "attempted": tally.attempted,
        "failed": len(tally.failures),
        "failures": dict(list({**tally.errors, **tally.failures}.items())[:20]),
        "peak_rss_mb": peak_rss_mb,
        "per_layer": per_layer,
        "notes": notes,
        "fingerprint": fingerprint(),
    }
