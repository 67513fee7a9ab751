"""Tests for the multi-flow friendliness (Fig. 14) and fairness (Fig. 15) grids.

Both grids are registry experiments of plain ``ExperimentTask`` cells whose
competing flows come from the workload; their runner adds per-flow columns.
"""

from dataclasses import replace

import pytest

from repro.harness.evaluate import run_scheme_on_trace, scheme_factory
from repro.harness.fairness import multiflow_columns
from repro.harness.parallel import ParallelRunner, run_profiled, run_task
from repro.harness.registry import REGISTRY
from repro.traces.trace import pps_to_mbps

MULTIFLOW_COLUMNS = {"throughputs_mbps", "throughput_ratio", "jain_index", "series_mbps"}

#: The registered runner of both multi-flow grids.
run_multiflow_cell = REGISTRY.get("friendliness").runner


def friendliness_cells(overrides, scheme="cubic", family="shallow"):
    """The planned friendliness cells of one (scheme, buffer family) case."""
    plan = REGISTRY.plan("friendliness", overrides)
    return [task for task in plan.tasks
            if task.scheme == scheme and task.tags["buffer_family"] == family]


def run_cells(tasks):
    return ParallelRunner(1).map(run_multiflow_cell, tasks)


@pytest.fixture(scope="module")
def fairness_rows():
    """Two flows of one scheme, the second joining at 5 s, for 15 s."""
    result = REGISTRY.run("fairness", {"schemes": "cubic,vegas", "n_flows": 2,
                                       "join_interval": 5.0})
    return {row["scheme"]: row for row in result["rows"]}


class TestFriendliness:
    def test_cubic_vs_cubic_is_roughly_fair(self):
        (task,) = friendliness_cells({"flows": 1, "rtts_ms": (), "duration": 12.0})
        (row,) = run_cells([task])
        assert row["competing_flows"] == 1 and row["workload"] == "responsive(cubic)"
        assert len(row["throughputs_mbps"]) == 2
        assert 0.4 <= row["throughput_ratio"] <= 2.5

    def test_one_row_per_flow_count_and_rtt(self):
        overrides = {"flows": "1,2", "rtts_ms": "20,50", "duration": 4.0}
        plan = REGISTRY.plan("friendliness", overrides)
        # Six (family, scheme) cases per flow count, three shallow ones per RTT.
        assert [task.tags["sweep"] for task in plan.tasks] == ["flows"] * 12 + ["rtt"] * 6
        tasks = friendliness_cells(overrides)
        assert [task.settings.workload for task in tasks] == [
            "responsive(cubic)", "responsive(cubic:2)", "responsive(cubic)",
            "responsive(cubic)"]
        rows = run_cells(tasks)
        assert [row["competing_flows"] for row in rows[:2]] == [1, 2]
        assert [len(row["throughputs_mbps"]) for row in rows[:2]] == [2, 3]
        assert [row["rtt_ms"] for row in rows[2:]] == [20.0, 50.0]
        for row in rows[2:]:
            scheme_mbps, cubic_mbps = row["throughputs_mbps"]
            assert scheme_mbps > 0.0 and cubic_mbps > 0.0

    def test_rtt_cells_set_the_path_rtt(self):
        tasks = friendliness_cells({"flows": "1", "rtts_ms": "20,100"})
        assert [task.settings.min_rtt for task in tasks] == [0.02, 0.02, 0.1]


class TestFairness:
    def test_flows_join_and_share(self, fairness_rows):
        row = fairness_rows["cubic"]
        assert row["workload"] == "step(5-:self)"
        assert len(row["throughputs_mbps"]) == 2
        # The late-joining flow eventually gets a nontrivial share.
        assert min(row["throughputs_mbps"]) > 1.0

    @pytest.mark.parametrize("scheme", ["cubic", "vegas"])
    def test_jain_index_is_bounded(self, fairness_rows, scheme):
        row = fairness_rows[scheme]
        n_flows = len(row["throughputs_mbps"])
        assert 1.0 / n_flows <= row["jain_index"] <= 1.0 + 1e-12

    def test_series_has_one_entry_per_flow(self, fairness_rows):
        # Flow ids are stringified so the row shape survives JSON round-trips
        # (run-store rows and in-process rows must be identical).
        series = fairness_rows["vegas"]["series_mbps"]
        assert set(series) == {"0", "1"}
        assert len(series["0"]) == 15  # (n_flows + 1) * join_interval seconds

    def test_late_flow_idle_before_join(self, fairness_rows):
        early_buckets = fairness_rows["cubic"]["series_mbps"]["1"][:5]
        assert max(early_buckets) == pytest.approx(0.0, abs=1e-6)
        assert fairness_rows["cubic"]["series_mbps"]["1"][5] > 0.0

    def test_a_single_flow_is_rejected(self):
        with pytest.raises(ValueError, match="n_flows >= 2"):
            REGISTRY.plan("fairness", {"n_flows": 1})

    def test_an_empty_scoring_window_is_rejected(self):
        # The window is 2 * join_interval - 2 s: empty at join_interval 1 s.
        with pytest.raises(ValueError, match=r"join_interval \(1 s\) leaves no scoring window"):
            REGISTRY.plan("fairness", {"schemes": "cubic", "n_flows": 2, "join_interval": 1.0})
        # A run that ends before its window opens raises instead of scoring 0.0.
        (task,) = REGISTRY.plan("fairness", {"schemes": "cubic", "n_flows": 2,
                                             "join_interval": 1.5}).tasks
        task = replace(task, settings=replace(task.settings, duration=3.0))
        run = run_scheme_on_trace(scheme_factory("cubic"), task.trace, task.settings)
        with pytest.raises(ValueError, match="no samples in the scoring window"):
            multiflow_columns(task, run)


class TestMultiFlowRunner:
    @pytest.mark.parametrize("name, overrides", [
        ("friendliness", {"flows": "1", "rtts_ms": "20", "duration": 3.0}),
        ("fairness", {"schemes": "cubic", "n_flows": 2, "join_interval": 1.5}),
    ])
    def test_profiled_cell_counts_its_ticks(self, name, overrides):
        # The shared simulator construction attaches the active profiler, and
        # the profiled row is the unprofiled one.
        task = next(task for task in REGISTRY.plan(name, overrides).tasks
                    if task.model_kind is None)
        profiled = run_profiled(run_multiflow_cell, task)
        assert profiled["profile"]["ticks"] == round(task.settings.duration / task.settings.dt)
        assert profiled["profile"]["drain_s"] > 0.0
        assert profiled["row"] == run_multiflow_cell(task)

    def test_columns_are_added_to_the_run_task_row_only(self):
        (task,) = friendliness_cells({"flows": "2", "rtts_ms": (), "duration": 3.0})
        plain = run_task(task)
        row = run_multiflow_cell(task)
        assert not MULTIFLOW_COLUMNS & set(plain)
        assert set(row) - set(plain) == MULTIFLOW_COLUMNS
        assert {key: row[key] for key in plain} == plain

    def test_window_starts_skip_seconds_after_the_last_join(self):
        (task,) = REGISTRY.plan("fairness", {"schemes": "cubic", "n_flows": 2,
                                             "join_interval": 3.0}).tasks
        run = run_scheme_on_trace(scheme_factory("cubic"), task.trace, task.settings)
        result = run.simulation
        columns = multiflow_columns(task, run)
        for flow_id, mbps in enumerate(columns["throughputs_mbps"]):
            stats = result.stats_for(flow_id)
            window = stats.times >= 3.0 + task.settings.skip_seconds
            assert mbps == pytest.approx(pps_to_mbps(stats.acked[window].mean() / result.dt),
                                         rel=1e-12)
        assert columns["throughput_ratio"] == pytest.approx(
            columns["throughputs_mbps"][0] / columns["throughputs_mbps"][1], rel=1e-12)

    def test_certified_cell_columns_see_the_certified_run(self):
        (cell,) = friendliness_cells({"flows": "1", "rtts_ms": (), "duration": 3.0,
                                      "training_steps": 30}, scheme="canopy")
        task = replace(cell, certify=True, n_components=4)
        runs = []

        def columns(task, run):
            runs.append(run)
            return multiflow_columns(task, run)

        row = run_task(task, columns=columns)
        (run,) = runs
        assert len(run.decisions) == row["n_decisions"] > 0
        assert MULTIFLOW_COLUMNS <= set(row)

    @pytest.mark.parametrize("name", ["friendliness", "fairness"])
    def test_grid_registers_the_multiflow_columns(self, name):
        runner = REGISTRY.get(name).runner
        assert runner.func is run_task
        assert runner.keywords == {"columns": multiflow_columns}

    def test_grid_rows_identical_serial_and_parallel(self):
        overrides = {"training_steps": 30, "duration": 3.0, "flows": "1", "rtts_ms": "20"}
        serial = REGISTRY.run("friendliness", overrides)
        parallel = REGISTRY.run("friendliness", overrides, n_jobs=2)
        assert serial["rows"] == parallel["rows"]
        assert len(serial["rows"]) == 9
        assert {row["seed"] for row in serial["rows"]} == {1}
