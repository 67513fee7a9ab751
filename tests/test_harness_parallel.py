"""Tests for the ParallelRunner: determinism, sharding, merged reporting."""

import logging
from concurrent.futures.process import BrokenProcessPool
from dataclasses import replace

import numpy as np
import pytest

from repro.harness import parallel
from repro.harness.evaluate import EvaluationSettings
from repro.harness.parallel import (
    ExperimentTask,
    GridResult,
    ParallelRunner,
    derive_seed,
    run_task,
)
from repro.traces.trace import BandwidthTrace


def _square(x):
    return x * x


def _boom(x):
    raise ValueError(f"boom {x}")


def make_tasks(duration=2.0, seed=7):
    trace = BandwidthTrace.constant(12.0, duration=30.0, name="const-12")
    settings = EvaluationSettings(duration=duration, buffer_bdp=1.0, seed=seed)
    return [
        ExperimentTask(scheme=scheme, trace=trace, settings=settings, tags={"cell": index})
        for index, scheme in enumerate(("cubic", "vegas", "newreno"))
    ]


class TestRunnerBasics:
    def test_map_preserves_order_serial_and_parallel(self):
        items = list(range(10))
        expected = [x * x for x in items]
        assert ParallelRunner(1).map(_square, items) == expected
        assert ParallelRunner(2).map(_square, items) == expected

    def test_map_unpicklable_callable_falls_back_to_serial(self):
        items = [1, 2, 3]
        assert ParallelRunner(2).map(lambda x: x + 1, items) == [2, 3, 4]

    def test_task_exceptions_propagate_instead_of_serial_retry(self):
        with pytest.raises(ValueError, match="boom"):
            ParallelRunner(1).map(_boom, [1, 2])
        with pytest.raises(ValueError, match="boom"):
            ParallelRunner(2).map(_boom, [1, 2])

    def test_n_jobs_resolution(self, monkeypatch):
        assert ParallelRunner(3).n_jobs == 3
        assert ParallelRunner(0).n_jobs >= 1  # one worker per CPU
        monkeypatch.setenv("REPRO_JOBS", "5")
        assert ParallelRunner().n_jobs == 5

    def test_map_on_result_streams_in_item_order(self):
        for n_jobs in (1, 2):
            seen = []
            out = ParallelRunner(n_jobs).map(
                _square, [1, 2, 3],
                on_result=lambda index, item, result: seen.append((index, item, result)))
            assert out == [1, 4, 9]
            assert seen == [(0, 1, 1), (1, 2, 4), (2, 3, 9)]

    def test_derive_seed_stable_and_distinct(self):
        assert derive_seed(1, "trace-a", "cubic") == derive_seed(1, "trace-a", "cubic")
        seeds = {derive_seed(1, trace, scheme)
                 for trace in ("a", "b", "c") for scheme in ("cubic", "vegas")}
        assert len(seeds) == 6
        assert all(0 <= seed < 2 ** 31 - 1 for seed in seeds)


class _FakePool:
    """A pool whose ``map`` fails the way a real one can."""

    def __init__(self, error):
        self.error = error

    def map(self, fn, items):
        if isinstance(self.error, OSError):
            raise self.error

        def results():
            raise self.error
            yield

        return results()

    def shutdown(self, wait=True, cancel_futures=False):
        pass

    def __enter__(self):
        return self

    def __exit__(self, *exc_info):
        self.shutdown()


class TestLoudDegradation:
    """Every pool failure that reruns the grid serially says so."""

    def _map_warns(self, caplog, reason, fn=_square):
        with caplog.at_level(logging.WARNING, logger="repro.harness"):
            assert ParallelRunner(2).map(fn, [1, 2, 3]) == [fn(x) for x in (1, 2, 3)]
        [message] = [r.message for r in caplog.records if r.name == "repro.harness"]
        assert message.startswith(f"pool_degraded reason={reason} error=")
        return message

    def test_unpicklable_work_warns(self, caplog):
        message = self._map_warns(caplog, "unpicklable", fn=lambda x: x + 1)
        assert "lambda" in message

    def test_pool_creation_oserror_warns(self, caplog, monkeypatch):
        def refuse(*args, **kwargs):
            raise OSError("fork denied")

        monkeypatch.setattr(parallel, "ProcessPoolExecutor", refuse)
        assert "OSError: fork denied" in self._map_warns(caplog, "pool_create")

    def test_submit_oserror_warns(self, caplog, monkeypatch):
        monkeypatch.setattr(parallel, "ProcessPoolExecutor",
                            lambda *args, **kwargs: _FakePool(OSError("no processes")))
        assert "OSError: no processes" in self._map_warns(caplog, "submit")

    def test_broken_pool_mid_run_warns(self, caplog, monkeypatch):
        monkeypatch.setattr(parallel, "ProcessPoolExecutor",
                            lambda *args, **kwargs: _FakePool(BrokenProcessPool("worker died")))
        assert "BrokenProcessPool: worker died" in self._map_warns(caplog, "pool_broken")

    def test_a_healthy_pool_does_not_warn(self, caplog):
        with caplog.at_level(logging.WARNING, logger="repro.harness"):
            assert ParallelRunner(2).map(_square, [1, 2, 3]) == [1, 4, 9]
        assert not [r for r in caplog.records if r.name == "repro.harness"]


class TestExperimentTask:
    def test_certify_requires_model(self):
        task = make_tasks()[0]
        with pytest.raises(ValueError):
            ExperimentTask(scheme="cubic", trace=task.trace, settings=task.settings, certify=True)

    def test_unknown_property_family_rejected(self):
        task = make_tasks()[0]
        with pytest.raises(ValueError):
            ExperimentTask(scheme="canopy", trace=task.trace, settings=task.settings,
                           model_kind="canopy-shallow", certify=True, property_family="nope")

    @pytest.mark.parametrize("field", ("n_components", "monitor_components"))
    @pytest.mark.parametrize("count", (0, -2))
    def test_non_positive_component_counts_rejected(self, field, count):
        # These used to fail only inside run_task, after the simulation.
        with pytest.raises(ValueError, match=f"{field} must be positive"):
            replace(make_tasks()[0], **{field: count})

    def test_model_topologies_requires_model(self):
        task = make_tasks()[0]
        with pytest.raises(ValueError):
            ExperimentTask(scheme="cubic", trace=task.trace, settings=task.settings,
                           model_topologies=("chain(2)",))

    def test_model_topologies_normalized_to_string_tuple(self):
        task = make_tasks()[0]
        with_catalog = ExperimentTask(scheme="canopy", trace=task.trace, settings=task.settings,
                                      model_kind="canopy-shallow",
                                      model_topologies=["single_bottleneck", "chain(2)"])
        assert with_catalog.model_topologies == ("single_bottleneck", "chain(2)")

    def test_run_task_classical_row(self):
        row = run_task(make_tasks()[0])
        assert row["scheme"] == "cubic"
        assert row["trace"] == "const-12"
        assert row["cell"] == 0
        assert 0.0 < row["utilization"] <= 1.5


class TestGridDeterminism:
    def test_serial_and_parallel_grids_identical(self):
        tasks = make_tasks()
        serial = ParallelRunner(1).map(run_task, tasks)
        parallel = ParallelRunner(2).map(run_task, tasks)
        assert len(serial) == len(parallel) == len(tasks)
        assert serial == parallel
        assert [row["cell"] for row in serial] == [0, 1, 2]


class TestGridResultReporting:
    def make_grid(self):
        rows = [
            {"scheme": "a", "kind": "x", "metric": 1.0},
            {"scheme": "a", "kind": "x", "metric": 3.0},
            {"scheme": "b", "kind": "x", "metric": 5.0},
        ]
        return GridResult(rows=rows, wall_clock_s=1.0, n_tasks=3, n_jobs=1)

    def test_select(self):
        grid = self.make_grid()
        assert len(grid.select(scheme="a")) == 2
        assert grid.select(scheme="b", kind="x")[0]["metric"] == 5.0
        assert grid.select(scheme="missing") == []

    def test_select_unknown_column_raises_with_valid_names(self):
        # A typo'd axis name must not silently select nothing.
        grid = self.make_grid()
        with pytest.raises(ValueError) as excinfo:
            grid.select(shceme="a")
        message = str(excinfo.value)
        assert "shceme" in message and "scheme" in message and "kind" in message
        # Empty grids have no columns to check against.
        from repro.harness.parallel import GridResult as GR
        assert GR(rows=[], wall_clock_s=0.0, n_tasks=0, n_jobs=1).select(anything=1) == []

    def test_aggregate_unknown_column_raises(self):
        grid = self.make_grid()
        with pytest.raises(ValueError, match="unknown grid column"):
            grid.aggregate(group_by=["schem"], metrics=["metric"])
        with pytest.raises(ValueError, match="unknown grid column"):
            grid.aggregate(group_by=["scheme"], metrics=["metrik"])

    def test_aggregate(self):
        grid = self.make_grid()
        aggregated = grid.aggregate(group_by=["scheme"], metrics=["metric"])
        assert aggregated[0] == {
            "scheme": "a",
            "metric_mean": 2.0,
            "metric_std": pytest.approx(np.std([1.0, 3.0])),
            "n_cells": 2,
        }
        assert aggregated[1]["scheme"] == "b"
        assert aggregated[1]["n_cells"] == 1


class TestDeclarativeMonitorSpec:
    def test_monitor_spec_requires_model_and_family(self):
        task = make_tasks()[0]
        with pytest.raises(ValueError, match="learned model_kind"):
            ExperimentTask(scheme="cubic", trace=task.trace, settings=task.settings,
                           monitor_threshold=0.5, monitor_family="shallow")
        with pytest.raises(ValueError, match="monitor_family"):
            ExperimentTask(scheme="canopy", trace=task.trace, settings=task.settings,
                           model_kind="canopy-shallow", monitor_threshold=0.5)
        with pytest.raises(ValueError, match="unknown property family"):
            ExperimentTask(scheme="canopy", trace=task.trace, settings=task.settings,
                           model_kind="canopy-shallow", monitor_threshold=0.5,
                           monitor_family="nope")
        with pytest.raises(ValueError, match="monitor_threshold"):
            ExperimentTask(scheme="canopy", trace=task.trace, settings=task.settings,
                           model_kind="canopy-shallow", monitor_threshold=1.5,
                           monitor_family="shallow")

    @pytest.mark.slow
    def test_monitor_spec_reports_fallback_columns(self):
        trace = BandwidthTrace.constant(24.0, duration=30.0, name="const-24")
        settings = EvaluationSettings(duration=3.0, buffer_bdp=1.0, seed=7)
        task = ExperimentTask(
            scheme="canopy", trace=trace, settings=settings,
            model_kind="canopy-shallow", training_steps=40, model_seed=31,
            monitor_threshold=0.8, monitor_family="shallow", monitor_components=4,
        )
        row = run_task(task)
        assert 0.0 <= row["fallback_fraction"] <= 1.0
        assert 0.0 <= row["mean_qc"] <= 1.0
        assert row["topology"] == "single_bottleneck"
        # Record-only mode (threshold 0.0) never vetoes the learned action.
        baseline = run_task(ExperimentTask(
            scheme="canopy", trace=trace, settings=settings,
            model_kind="canopy-shallow", training_steps=40, model_seed=31,
            monitor_threshold=0.0, monitor_family="shallow", monitor_components=4,
        ))
        assert baseline["fallback_fraction"] == 0.0

    def test_certified_cell_keeps_its_monitor(self):
        # One path: the monitor filters the run, and the certificates cover
        # the decisions of that same monitored run.
        trace = BandwidthTrace.constant(24.0, duration=30.0, name="const-24")
        settings = EvaluationSettings(duration=3.0, buffer_bdp=1.0, seed=7)
        monitored = ExperimentTask(
            scheme="canopy", trace=trace, settings=settings,
            model_kind="canopy-shallow", training_steps=30, model_seed=31,
            monitor_threshold=0.8, monitor_family="shallow", monitor_components=4,
        )
        plain = run_task(monitored)
        row = run_task(replace(monitored, certify=True, n_components=4))
        assert 0.0 <= row["qcsat"] <= 1.0 and row["n_decisions"] > 0
        assert row["fallback_fraction"] > 0.0
        assert {key: row[key] for key in plain} == plain

    @pytest.mark.slow
    def test_monitor_grid_rows_identical_serial_and_parallel(self):
        from repro.harness.models import get_trained_model

        get_trained_model("canopy-shallow", training_steps=40, seed=31)
        trace = BandwidthTrace.constant(24.0, duration=30.0, name="const-24")
        settings = EvaluationSettings(duration=3.0, buffer_bdp=1.0, seed=7)
        tasks = [
            ExperimentTask(scheme="canopy", trace=trace, settings=settings,
                           model_kind="canopy-shallow", training_steps=40, model_seed=31,
                           monitor_threshold=threshold, monitor_family="shallow",
                           monitor_components=4, tags={"threshold": threshold})
            for threshold in (0.0, 0.5, 0.8)
        ]
        serial = ParallelRunner(1).map(run_task, tasks)
        parallel = ParallelRunner(2).map(run_task, tasks)
        assert serial == parallel


class TestShardedSeedReproducibility:
    def test_random_loss_rows_identical_serial_and_parallel(self):
        # Per-hop RNG seeds derive from the task coordinates, so sharding the
        # grid over a pool cannot perturb random-loss runs.
        trace = BandwidthTrace.constant(24.0, duration=30.0, name="const-24")
        settings = EvaluationSettings(duration=3.0, buffer_bdp=1.0,
                                      random_loss_rate=0.02, seed=7)
        tasks = [ExperimentTask(scheme=scheme, trace=trace, settings=settings)
                 for scheme in ("cubic", "vegas", "newreno", "bbr")]
        serial = ParallelRunner(1).map(run_task, tasks)
        parallel = ParallelRunner(2).map(run_task, tasks)
        assert serial == parallel
        assert all(row["loss_rate"] > 0.0 for row in serial)

    def test_topology_tasks_shard_identically(self):
        trace = BandwidthTrace.constant(24.0, duration=30.0, name="const-24")
        tasks = []
        for topology in ("chain(2)", "parking_lot(2)", "dumbbell"):
            settings = EvaluationSettings(duration=3.0, buffer_bdp=1.0,
                                          topology=topology, seed=7)
            tasks.append(ExperimentTask(scheme="cubic", trace=trace, settings=settings))
        serial = ParallelRunner(1).map(run_task, tasks)
        parallel = ParallelRunner(3).map(run_task, tasks)
        assert serial == parallel
        assert [row["topology"] for row in serial] == [
            "chain(2)", "parking_lot(2)", "dumbbell"]

    def test_derive_seed_import_location_is_stable(self):
        # derive_seed moved to repro.seeding; the harness re-export must stay.
        from repro.seeding import derive_seed as canonical

        assert canonical is derive_seed
