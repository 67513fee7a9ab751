"""Tests for the multi-flow friendliness and fairness experiments."""

import pytest

from repro.cc.cubic import CubicController
from repro.cc.vegas import VegasController
from repro.harness.fairness import (
    MultiFlowTask,
    fairness_convergence,
    friendliness,
    rtt_friendliness,
    run_multiflow_task,
)
from repro.harness.parallel import ParallelRunner


class TestFriendliness:
    def test_cubic_vs_cubic_is_roughly_fair(self):
        result = friendliness(CubicController, "cubic", competing_flows=(1,), duration=12.0)
        row = result["rows"][0]
        assert row["competing_cubic_flows"] == 1
        assert 0.4 <= row["throughput_ratio"] <= 2.5

    def test_ratio_reported_for_each_flow_count(self):
        result = friendliness(CubicController, "cubic", competing_flows=(1, 2), duration=8.0)
        assert len(result["rows"]) == 2
        assert result["figure"] == "14"

    def test_rtt_friendliness_rows(self):
        result = rtt_friendliness(CubicController, "cubic", rtts_ms=(20.0, 50.0), duration=8.0)
        assert len(result["rows"]) == 2
        for row in result["rows"]:
            assert row["scheme_throughput_mbps"] > 0.0
            assert row["cubic_throughput_mbps"] > 0.0


class TestFairnessConvergence:
    def test_flows_join_and_share(self):
        result = fairness_convergence(CubicController, "cubic", n_flows=2, join_interval=5.0,
                                      duration=15.0)
        assert result["figure"] == "15"
        assert len(result["final_throughputs_mbps"]) == 2
        assert 0.5 <= result["jain_index"] <= 1.0
        # The late-joining flow eventually gets a nontrivial share.
        assert min(result["final_throughputs_mbps"]) > 1.0

    def test_series_has_one_entry_per_flow(self):
        result = fairness_convergence(VegasController, "vegas", n_flows=2, join_interval=4.0,
                                      duration=12.0)
        # Flow ids are stringified so the row shape survives JSON round-trips
        # (run-store rows and in-process rows must be identical).
        assert set(result["series_mbps"]) == {"0", "1"}
        assert len(result["series_mbps"]["0"]) == 12

    def test_late_flow_idle_before_join(self):
        result = fairness_convergence(CubicController, "cubic", n_flows=2, join_interval=6.0,
                                      duration=14.0)
        early_buckets = result["series_mbps"]["1"][:5]
        assert max(early_buckets) == pytest.approx(0.0, abs=1e-6)


class TestDeclarativeMultiFlowGrid:
    def test_task_validation(self):
        with pytest.raises(ValueError):
            MultiFlowTask(mode="nope", scheme="cubic", value=1)
        with pytest.raises(ValueError):
            MultiFlowTask(mode="friendliness", scheme="cubic", value=0)

    def test_task_row_matches_direct_call(self):
        task = MultiFlowTask(mode="friendliness", scheme="cubic", value=2, duration=8.0)
        row = run_multiflow_task(task)
        direct = friendliness(CubicController, "cubic", competing_flows=(2,), duration=8.0)
        for key, value in direct["rows"][0].items():
            assert row[key] == value
        assert row["mode"] == "friendliness"

    def test_fairness_mode_reports_jain_index(self):
        task = MultiFlowTask(mode="fairness_convergence", scheme="cubic", value=2,
                             join_interval=5.0, duration=15.0)
        row = run_multiflow_task(task)
        assert 0.5 <= row["jain_index"] <= 1.0
        assert len(row["final_throughputs_mbps"]) == 2

    def test_grid_rows_identical_serial_and_parallel(self):
        tasks = [
            MultiFlowTask(mode="friendliness", scheme="cubic", value=n, duration=6.0,
                          tags={"cell": index})
            for index, n in enumerate((1, 2))
        ] + [
            MultiFlowTask(mode="rtt_friendliness", scheme="vegas", value=rtt, duration=6.0,
                          tags={"cell": 2 + index})
            for index, rtt in enumerate((20.0, 50.0))
        ]
        serial = ParallelRunner(1).run(tasks, fn=run_multiflow_task)
        parallel = ParallelRunner(2).run(tasks, fn=run_multiflow_task)
        assert serial.rows == parallel.rows
        assert [row["cell"] for row in serial.rows] == [0, 1, 2, 3]
        assert serial.n_tasks == 4
