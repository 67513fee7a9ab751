"""Tests for the workload subsystem: specs, arrivals, responsive flows, churn.

Covers the comma-free spec grammar and its canonical forms, the determinism
of seeded Poisson arrival schedules, responsive cross flows actually
competing (and churned flows actually arriving/leaving) inside the
simulator, partial-lifetime handling in ``SimulationResult`` /
``monitor_report``, and the two reproducibility pins the ISSUE names:

* churn determinism — a churned grid produces byte-identical rows whether it
  runs serially or sharded over a process pool, and
* a differential pin — linear-chain routes plus the ``static`` workload
  reproduce the pre-workload trajectories exactly (atol=1e-12).
"""

import logging

import numpy as np
import pytest

from repro.cc.cubic import CubicController
from repro.cc.flow import Flow
from repro.cc.metrics import summarize_result
from repro.cc.netsim import NetworkSimulator
from repro.harness.evaluate import EvaluationSettings, run_scheme_on_trace, scheme_factory
from repro.harness.parallel import ExperimentTask, ParallelRunner, run_task
from repro.topology import build_topology
from repro.traces.trace import BandwidthTrace
from repro.workload import (
    ArrivalSchedule,
    ResponsiveCrossFlow,
    WorkloadSpec,
    build_workload,
    canonical_workload,
    parse_workload,
    workload_specs,
)

RECORD_FIELDS = ("time", "sent", "acked", "lost", "rtt", "queuing_delay", "cwnd", "inflight")


def constant_trace(mbps=24.0, duration=60.0, name="const"):
    return BandwidthTrace.constant(mbps, duration=duration, name=name)


# ---------------------------------------------------------------------- #
# Spec grammar
# ---------------------------------------------------------------------- #
class TestParseWorkload:
    def test_kinds_parse(self):
        assert parse_workload("static") == WorkloadSpec(kind="static")
        assert parse_workload("responsive(cubic)") == WorkloadSpec(kind="responsive",
                                                                   scheme="cubic", count=1)
        assert parse_workload("responsive(bbr:3)") == WorkloadSpec(kind="responsive",
                                                                   scheme="bbr", count=3)
        assert parse_workload("poisson(0.25)") == WorkloadSpec(kind="poisson", rate=0.25)
        assert parse_workload("poisson(1:vegas)") == WorkloadSpec(kind="poisson", rate=1.0,
                                                                  scheme="vegas")
        assert parse_workload("step(2-6)") == WorkloadSpec(kind="step", windows=((2.0, 6.0),))
        assert parse_workload("step(2-6:4-)") == WorkloadSpec(
            kind="step", windows=((2.0, 6.0), (4.0, None)))

    def test_whitespace_tolerated(self):
        assert parse_workload(" responsive( cubic:2 ) ").count == 2

    def test_malformed_rejected(self):
        for bad in ("", "surge", "responsive", "responsive()", "responsive(quic)",
                    "responsive(cubic:0)", "responsive(cubic:two)", "poisson()",
                    "poisson(zero)", "poisson(0)", "poisson(-2)", "step()", "step(6-2)",
                    "step(2:6)", "step(-1-3)", "static(1)"):
            with pytest.raises(ValueError):
                parse_workload(bad)

    def test_step_takes_a_trailing_scheme(self):
        assert parse_workload("step(12-:24-:self)") == WorkloadSpec(
            kind="step", scheme="self", windows=((12.0, None), (24.0, None)))
        assert parse_workload("step(2-6:vegas)").scheme == "vegas"
        # The default scheme stays elided, so every existing key is unchanged.
        assert canonical_workload("step(2-6:cubic)") == "step(2-6)"
        assert canonical_workload("step(2-6:4-:bbr)") == "step(2-6:4-:bbr)"
        assert canonical_workload("responsive(self:2)") == "responsive(self:2)"
        for bad in ("step(self)", "step(2-6:quic)", "step(2-6:self:4-)"):
            with pytest.raises(ValueError):
                parse_workload(bad)

    def test_canonical_forms(self):
        assert canonical_workload("responsive(cubic:1)") == "responsive(cubic)"
        assert canonical_workload("poisson(0.10:cubic)") == "poisson(0.1)"
        assert canonical_workload("poisson(0.5:bbr)") == "poisson(0.5:bbr)"
        assert canonical_workload("step(2.0-6.00)") == "step(2-6)"
        # Canonical forms are fixed points and comma-free (so axis lists split
        # cleanly on commas).
        for spec in workload_specs():
            assert canonical_workload(spec) == spec
            assert "," not in spec


# ---------------------------------------------------------------------- #
# Seeded mutation (the falsification search's workload axis)
# ---------------------------------------------------------------------- #
class TestMutateWorkload:
    def test_mutations_stay_inside_grammar_and_canonical(self):
        from repro.workload.spec import mutate_workload
        rng = np.random.default_rng(3)
        spec = "static"
        for _ in range(60):
            spec = mutate_workload(spec, rng)
            # Round trip: every mutated spec parses and is already canonical.
            assert parse_workload(spec).canonical() == spec

    def test_mutation_sequence_is_seed_deterministic(self):
        from repro.workload.spec import mutate_workload
        sequences = []
        for _ in range(2):
            rng = np.random.default_rng(17)
            spec, seen = "static", []
            for _ in range(25):
                spec = mutate_workload(spec, rng)
                seen.append(spec)
            sequences.append(seen)
        assert sequences[0] == sequences[1]
        # The walk actually moves (not a constant sequence).
        assert len(set(sequences[0])) > 1

    def test_every_kind_reachable_from_static(self):
        from repro.workload.spec import mutate_workload
        rng = np.random.default_rng(1)
        kinds = {parse_workload(mutate_workload("static", rng)).kind
                 for _ in range(40)}
        assert kinds == {"responsive", "poisson", "step"}

    def test_self_is_never_proposed_and_step_keeps_its_scheme(self):
        from repro.workload.spec import SELF_SCHEME, WORKLOAD_SCHEMES, mutate_workload
        assert SELF_SCHEME not in WORKLOAD_SCHEMES
        rng = np.random.default_rng(5)
        spec = "static"
        for _ in range(200):
            spec = mutate_workload(spec, rng)
            assert SELF_SCHEME not in spec
        for _ in range(20):
            assert parse_workload(mutate_workload("step(2-6:vegas)", rng)).scheme == "vegas"

    def test_bounds_respected(self):
        from repro.workload.spec import mutate_workload
        rng = np.random.default_rng(23)
        spec = "responsive(cubic:4)"
        for _ in range(80):
            spec = mutate_workload(spec, rng)
            parsed = parse_workload(spec)
            if parsed.kind == "responsive":
                assert 1 <= parsed.count <= 4
            if parsed.kind == "poisson":
                assert 0.05 <= parsed.rate <= 2.0
            if parsed.kind == "step":
                assert 1 <= len(parsed.windows) <= 3
                for start, stop in parsed.windows:
                    assert start >= 0.0 and stop > start


# ---------------------------------------------------------------------- #
# Arrival schedules
# ---------------------------------------------------------------------- #
class TestArrivalSchedule:
    def test_always_and_scripted(self):
        assert [w.start for w in ArrivalSchedule.always(3)] == [0.0, 0.0, 0.0]
        scripted = ArrivalSchedule.scripted([(1.0, 3.0), (2.0, None)])
        assert [(w.start, w.stop) for w in scripted] == [(1.0, 3.0), (2.0, None)]
        with pytest.raises(ValueError):
            ArrivalSchedule.scripted([(3.0, 1.0)])

    def test_poisson_deterministic_per_seed(self):
        a = ArrivalSchedule.poisson(rate=1.0, duration=20.0, seed=9)
        b = ArrivalSchedule.poisson(rate=1.0, duration=20.0, seed=9)
        c = ArrivalSchedule.poisson(rate=1.0, duration=20.0, seed=10)
        assert a.windows == b.windows
        assert a.windows != c.windows

    def test_poisson_windows_inside_run(self):
        schedule = ArrivalSchedule.poisson(rate=2.0, duration=10.0, seed=4)
        assert len(schedule) > 0
        for window in schedule:
            assert 0.0 <= window.start < 10.0
            if window.stop is not None:
                assert window.stop > window.start

    def test_poisson_flow_cap_warns_instead_of_truncating_silently(self, caplog):
        # The MAX_FLOWS guard still bites, but it must name the requested vs
        # generated flow counts instead of silently dropping arrivals — now a
        # structured warning on the repro.workload logger.
        with caplog.at_level(logging.WARNING, logger="repro.workload"):
            schedule = ArrivalSchedule.poisson(rate=1e6, duration=10.0, seed=1)
        assert len(schedule) == 64
        messages = [r.message for r in caplog.records
                    if r.name == "repro.workload"]
        assert len(messages) == 1
        assert "poisson_schedule_truncated" in messages[0]
        assert "max_flows=64" in messages[0]
        assert "requested=10000000" in messages[0]
        assert "generated=64" in messages[0]

    def test_poisson_below_cap_does_not_warn(self, caplog):
        with caplog.at_level(logging.WARNING, logger="repro.workload"):
            schedule = ArrivalSchedule.poisson(rate=1.0, duration=10.0, seed=1)
        assert 0 < len(schedule) < 64
        assert not [r for r in caplog.records if r.name == "repro.workload"]

    def test_poisson_windows_unchanged_by_cap_detection(self, caplog):
        # The truncation probe draws one extra arrival *after* the cap is
        # reached; the windows returned for the capped prefix must be exactly
        # the windows an uncapped schedule starts with.
        with caplog.at_level(logging.WARNING, logger="repro.workload"):
            capped = ArrivalSchedule.poisson(rate=30.0, duration=10.0, seed=3, max_flows=8)
        assert any("poisson_schedule_truncated" in r.message
                   for r in caplog.records if r.name == "repro.workload")
        uncapped = ArrivalSchedule.poisson(rate=30.0, duration=10.0, seed=3, max_flows=1000)
        assert len(uncapped) > 8
        assert capped.windows == uncapped.windows[:8]


# ---------------------------------------------------------------------- #
# build_workload expansion
# ---------------------------------------------------------------------- #
class TestBuildWorkload:
    def test_static_builds_nothing(self):
        assert build_workload("static", duration=10.0, seed=1) == []

    def test_responsive_ids_and_lifetimes(self):
        flows = build_workload("responsive(vegas:2)", duration=10.0, seed=1)
        assert [f.flow_id for f in flows] == [1, 2]
        assert all(f.scheme == "vegas" for f in flows)
        assert all(f.start_time == 0.0 and f.stop_time is None for f in flows)

    def test_poisson_seed_derives_from_cell_coordinates(self):
        kwargs = dict(duration=20.0, seed=3, trace_name="t", topology="fan_in(3)")
        same = [build_workload("poisson(1.0)", **kwargs) for _ in range(2)]
        assert same[0] == same[1]
        other_cell = build_workload("poisson(1.0)", duration=20.0, seed=3,
                                    trace_name="t", topology="chain(2)")
        assert other_cell != same[0]

    def test_self_flows_run_the_cell_controller(self):
        from repro.cc.vegas import VegasController

        (flow,) = build_workload("step(3-:self)", duration=10.0, seed=1)
        assert flow.scheme == "self" and flow.flow_id == 1
        with pytest.raises(ValueError, match="factory"):
            flow.build()
        built = flow.build(VegasController)
        assert isinstance(built.controller, VegasController)
        assert built.start_time == 3.0 and built.stop_time is None

    def test_cross_flow_validation(self):
        with pytest.raises(ValueError):
            ResponsiveCrossFlow(scheme="cubic", flow_id=0)
        with pytest.raises(ValueError):
            ResponsiveCrossFlow(scheme="quic", flow_id=1)
        with pytest.raises(ValueError):
            ResponsiveCrossFlow(scheme="cubic", flow_id=1,
                                start_time=4.0, stop_time=2.0)


# ---------------------------------------------------------------------- #
# Responsive competition and churn inside the simulator
# ---------------------------------------------------------------------- #
class TestResponsiveCompetition:
    def run_flow0(self, workload, topology="single_bottleneck", duration=8.0, seed=5):
        settings = EvaluationSettings(duration=duration, buffer_bdp=1.0,
                                      topology=topology, workload=workload, seed=seed)
        return run_scheme_on_trace(scheme_factory("cubic"),
                                   constant_trace(name="const-24"), settings,
                                   scheme_name="cubic")

    def test_responsive_competitor_takes_capacity(self):
        quiet = self.run_flow0("static")
        contended = self.run_flow0("responsive(cubic:2)")
        assert contended.summary.utilization < quiet.summary.utilization * 0.9
        # The background flows are real closed-loop flows with stats.
        assert set(contended.simulation.flow_stats) == {0, 1, 2}
        for fid in (1, 2):
            assert contended.simulation.stats_for(fid).acked.sum() > 0.0

    def test_fan_in_incast_spreads_flows_over_leaves(self):
        result = self.run_flow0("responsive(cubic:2)", topology="fan_in(3)")
        sim_flows = result.simulation.flow_stats
        assert set(sim_flows) == {0, 1, 2}
        # Every flow pushed data through its own leaf into the shared root.
        for fid in sim_flows:
            assert sim_flows[fid].acked.sum() > 0.0

    def test_churned_flows_start_and_stop_mid_run(self):
        result = self.run_flow0("step(2-5)", duration=8.0)
        lifetimes = result.simulation.lifetimes
        assert lifetimes[1] == (2.0, 5.0)
        stats = result.simulation.stats_for(1)
        # Silent before arrival, active inside the window, silent after
        # departure (plus the ack tail draining one RTT past the stop).
        # Tick times accumulate float error (0.01 * 500 != 5.0 exactly), so
        # the last active send can land in the tick ending one dt past the
        # stop; allow that one tick of slack on the boundaries.
        dt = result.simulation.dt
        assert stats.sent[stats.times <= 2.0 + dt / 2].sum() == 0.0
        window = (stats.times > 2.0 + dt / 2) & (stats.times <= 5.0 + 3 * dt / 2)
        assert stats.sent[window].sum() > 0.0
        assert stats.sent[stats.times > 5.0 + 3 * dt / 2].sum() == 0.0

    def test_partial_lifetime_summary_scores_active_window_only(self):
        result = self.run_flow0("step(3-6)", duration=9.0)
        summary = summarize_result(result.simulation, flow_id=1, skip_seconds=0.5)
        # Scoring the 3s active window against the whole 9s run would dilute
        # throughput by ~3x; the windowed summary must not.
        from repro.traces.trace import pps_to_mbps

        stats = result.simulation.stats_for(1)
        window = (stats.times > 3.5) & (stats.times <= 6.0)
        window_rate = stats.acked[window].sum() / (window.sum() * result.simulation.dt)
        assert summary.throughput_mbps == pytest.approx(pps_to_mbps(window_rate), rel=0.05)
        assert summary.total_acked > 0.0

    def test_monitor_report_interval_starts_at_flow_start(self):
        topo = build_topology("single_bottleneck", constant_trace(), min_rtt=0.04, seed=3)
        late = Flow(1, CubicController(), start_time=1.0)
        sim = NetworkSimulator(topo, [Flow(0, CubicController()), late])
        for _ in range(150):  # 1.5 s
            sim.tick()
        report = sim.monitor_report(1)
        assert report.interval == pytest.approx(0.5, abs=0.02)


# ---------------------------------------------------------------------- #
# Determinism: churned grids shard identically (ISSUE satellite)
# ---------------------------------------------------------------------- #
class TestChurnDeterminism:
    def test_serial_and_sharded_rows_identical(self):
        trace = constant_trace(name="const-24")
        tasks = []
        for workload in ("poisson(0.6)", "responsive(cubic)", "step(1-3)"):
            for topology in ("fan_in(2)", "shared_segment"):
                settings = EvaluationSettings(duration=3.0, buffer_bdp=1.0,
                                              topology=topology, workload=workload,
                                              seed=7)
                tasks.append(ExperimentTask(scheme="cubic", trace=trace,
                                            settings=settings))
        serial = ParallelRunner(1).map(run_task, tasks)
        sharded = ParallelRunner(2).map(run_task, tasks)
        assert serial == sharded
        assert all(row["workload"] in ("poisson(0.6)", "responsive(cubic)", "step(1-3)")
                   for row in serial)


# ---------------------------------------------------------------------- #
# Differential pin: static workload == pre-workload trajectories
# ---------------------------------------------------------------------- #
class TestStaticWorkloadDifferential:
    def collect(self, sim, n_ticks):
        rows = []
        for _ in range(n_ticks):
            record = sim.tick()[0]
            rows.append([getattr(record, name) for name in RECORD_FIELDS])
        return np.asarray(rows, dtype=np.float64)

    @pytest.mark.parametrize("topology", ["single_bottleneck", "chain(3)"])
    def test_static_workload_is_a_byte_exact_noop(self, topology):
        """Linear-chain routes + the static workload reproduce the direct
        (pre-workload) simulator trajectory exactly (atol=1e-12)."""
        trace = constant_trace(name="const-24")
        settings = EvaluationSettings(duration=6.0, buffer_bdp=1.0,
                                      topology=topology, workload="static", seed=11)
        through_workload = run_scheme_on_trace(
            scheme_factory("cubic"), trace, settings, scheme_name="cubic")

        direct_sim = NetworkSimulator(
            build_topology(topology, trace, min_rtt=settings.min_rtt,
                           buffer_bdp=settings.buffer_bdp, seed=settings.seed),
            [Flow(0, CubicController())], dt=settings.dt)
        direct = self.collect(direct_sim, 600)

        stats = through_workload.simulation.stats_for(0)
        workload_rows = np.column_stack(
            [getattr(stats, "times" if name == "time" else name) for name in RECORD_FIELDS])
        np.testing.assert_allclose(direct, workload_rows, rtol=0.0, atol=1e-12,
                                   err_msg=f"static workload drifted on {topology}")
