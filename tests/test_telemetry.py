"""Tests for the structured-telemetry subsystem (ISSUE 7).

Covers the spec grammar and its canonical forms, the event schema round-trip,
the determinism pins the ISSUE names — serial == sharded == resumed traces
are *byte-identical* on ``fan_in(3)`` + ``poisson(0.1)`` cells, and disabled
telemetry leaves trajectories bit-identical (atol=1e-12) with every
pre-telemetry store key unchanged — plus the summary reducer, the tick
profiler, and the timeline renderer behind ``python -m repro trace``.
"""

import json

import numpy as np
import pytest

from repro.cc.cubic import CubicController
from repro.cc.flow import Flow
from repro.cc.netsim import NetworkSimulator
from repro.harness.evaluate import EvaluationSettings, run_scheme_on_trace, scheme_factory
from repro.harness.parallel import ExperimentTask, ParallelRunner, run_task
from repro.harness.registry import REGISTRY
from repro.telemetry import (
    EVENT_GROUPS,
    EVENT_KINDS,
    EventTrace,
    TelemetryConfig,
    TickProfiler,
    canonical_telemetry,
    parse_telemetry,
    render_summary,
    render_timeline,
    summarize_events,
    validate_events,
)
from repro.telemetry.render import resolve_groups
from repro.telemetry.summary import fallback_episodes
from repro.topology import build_topology
from repro.traces.trace import BandwidthTrace


def constant_trace(mbps=24.0, duration=60.0, name="const"):
    return BandwidthTrace.constant(mbps, duration=duration, name=name)


def traced_run(topology="fan_in(3)", workload="poisson(0.1)", telemetry="on(10)",
               duration=3.0, seed=7):
    settings = EvaluationSettings(duration=duration, buffer_bdp=1.0,
                                  topology=topology, workload=workload,
                                  telemetry=telemetry, seed=seed)
    return run_scheme_on_trace(scheme_factory("cubic"), constant_trace(name="const-24"),
                               settings, scheme_name="cubic")


# ---------------------------------------------------------------------- #
# Spec grammar
# ---------------------------------------------------------------------- #
class TestSpecGrammar:
    def test_off_parses_to_none(self):
        assert parse_telemetry("off") is None
        assert parse_telemetry(" OFF ") is None
        assert EventTrace.from_spec("off") is None

    def test_on_and_stride_forms(self):
        assert parse_telemetry("on") == TelemetryConfig()
        assert parse_telemetry("on(5)") == TelemetryConfig(stride=5)
        assert parse_telemetry("ON( 25 )") == TelemetryConfig(stride=25)

    @pytest.mark.parametrize("spec", ["o", "on()", "on(0)", "on(x)", "yes", "on(5"])
    def test_malformed_specs_raise(self, spec):
        with pytest.raises(ValueError):
            parse_telemetry(spec)

    def test_canonical_forms(self):
        assert canonical_telemetry("OFF") == "off"
        assert canonical_telemetry("ON( 25 )") == "on"     # default stride elided
        assert canonical_telemetry("on(10)") == "on(10)"
        # Canonicalization is idempotent over the whole grammar.
        for spec in ("off", "on", "on(10)"):
            assert canonical_telemetry(canonical_telemetry(spec)) == canonical_telemetry(spec)

    def test_stride_must_be_positive(self):
        with pytest.raises(ValueError):
            TelemetryConfig(stride=0)


# ---------------------------------------------------------------------- #
# EventTrace + schema round-trip
# ---------------------------------------------------------------------- #
class TestEventTrace:
    def test_emit_stamps_trace_clock(self):
        trace = EventTrace()
        trace.advance(1.5)
        trace.emit("flow_arrival", flow=3)
        trace.emit("queue_drop", t=2.0, hop="bottleneck", flow=0, packets=4.0)
        assert trace.events == [
            {"t": 1.5, "kind": "flow_arrival", "flow": 3},
            {"t": 2.0, "kind": "queue_drop", "hop": "bottleneck", "flow": 0, "packets": 4.0},
        ]
        assert len(trace) == 2
        assert trace.select(["queue_drop"]) == trace.events[1:]

    def test_unknown_kind_raises_at_emit(self):
        with pytest.raises(ValueError, match="unknown event kind"):
            EventTrace().emit("not_a_kind")

    def test_validate_catches_missing_required_field(self):
        with pytest.raises(ValueError, match="missing field"):
            validate_events([{"t": 0.0, "kind": "queue_drop", "hop": "b"}])

    def test_validate_catches_backwards_timestamps(self):
        events = [{"t": 2.0, "kind": "flow_arrival", "flow": 1},
                  {"t": 1.0, "kind": "flow_departure", "flow": 1}]
        with pytest.raises(ValueError, match="runs backwards"):
            validate_events(events)

    def test_validate_catches_bad_field_type(self):
        with pytest.raises(ValueError):
            validate_events([{"t": 0.0, "kind": "queue_drop", "hop": "b",
                              "flow": "zero", "packets": 1.0}])

    def test_real_trace_schema_round_trips(self):
        """A simulator-produced trace validates, survives JSON byte-exactly,
        and validates again after the round trip."""
        run = traced_run()
        assert run.events, "traced run produced no events"
        validate_events(run.events)
        round_tripped = json.loads(json.dumps(run.events))
        validate_events(round_tripped)
        assert round_tripped == run.events
        kinds = {event["kind"] for event in run.events}
        assert "topology" in kinds and "conservation" in kinds
        assert kinds <= set(EVENT_KINDS)

    def test_topology_event_names_hops(self):
        run = traced_run(topology="fan_in(3)")
        (topo,) = [e for e in run.events if e["kind"] == "topology"]
        assert topo["t"] == 0.0
        assert topo["bottleneck"] in topo["hops"]
        assert len(topo["hops"]) == 4  # 3 leaves + shared bottleneck

    def test_conservation_stride_respected(self):
        run = traced_run(telemetry="on(10)", duration=2.0)
        snapshots = [e for e in run.events if e["kind"] == "conservation"]
        # dt=0.01, 200 ticks, one snapshot every 10 ticks.
        assert len(snapshots) == 20
        times = [e["t"] for e in snapshots]
        assert times == sorted(times)

    def test_conservation_snapshot_balances(self):
        """Each snapshot's sent == acked + lost + queued + in-transit + pending."""
        run = traced_run(workload="static", topology="chain(3)", telemetry="on(25)")
        for snap in (e for e in run.events if e["kind"] == "conservation"):
            queued = sum(snap["hops"].values())
            assert snap["sent"] == pytest.approx(
                snap["acked"] + snap["lost"] + queued + snap["transit"] + snap["pending"],
                abs=1e-9)


# ---------------------------------------------------------------------- #
# Determinism pins
# ---------------------------------------------------------------------- #
def _stress_tasks(telemetry):
    trace = constant_trace(name="const-24")
    tasks = []
    for topology in ("fan_in(3)", "chain(2)"):
        for seed in (3, 4):
            settings = EvaluationSettings(duration=3.0, buffer_bdp=1.0,
                                          topology=topology, workload="poisson(0.1)",
                                          telemetry=telemetry, seed=seed)
            tasks.append(ExperimentTask(scheme="cubic", trace=trace, settings=settings))
    return tasks


class TestTraceDeterminism:
    def test_serial_and_sharded_traces_byte_identical(self):
        serial = ParallelRunner(1).map(run_task, _stress_tasks("on(10)"))
        sharded = ParallelRunner(2).map(run_task, _stress_tasks("on(10)"))
        assert json.dumps(serial, sort_keys=True) == \
            json.dumps(sharded, sort_keys=True)
        for row in serial:
            assert row["telemetry"] == "on(10)"
            assert row["telemetry_events"], "traced cell carried no events"

    def test_resumed_traces_byte_identical(self, tmp_path):
        """An interrupted-then-resumed traced grid (one cell cached, one
        recomputed) yields per-cell records byte-identical to a fresh run."""
        from repro.harness.store import RunStore

        overrides = {"schemes": "cubic", "topology": "fan_in(3)",
                     "workload": "poisson(0.1)", "duration": "3.0",
                     "telemetry": "on(10)", "seeds": "3,4"}
        fresh_store = RunStore(tmp_path / "fresh")
        REGISTRY.run("workload_stress", overrides, store=fresh_store)
        fresh = fresh_store.load()
        assert len(fresh) == 2

        # Simulate an interrupted run: only the first cell made it to disk.
        resumed_store = RunStore(tmp_path / "resumed")
        first_key = sorted(fresh)[0]
        resumed_store.put(fresh[first_key])
        result = REGISTRY.run("workload_stress", overrides,
                              store=resumed_store, resume=True)
        assert result["cached_cells"] == 1 and result["computed_cells"] == 1

        resumed = resumed_store.load()
        assert sorted(resumed) == sorted(fresh)
        for key in fresh:
            assert json.dumps(fresh[key].row, sort_keys=True) == \
                json.dumps(resumed[key].row, sort_keys=True), key
            validate_events(resumed[key].row["telemetry_events"])

    def test_disabled_telemetry_is_bit_identical(self):
        """telemetry=off vs telemetry=on: the physics trajectory must agree to
        atol=1e-12 (the enabled trace observes, never perturbs)."""
        for topology in ("single_bottleneck", "fan_in(3)"):
            baseline = traced_run(topology=topology, telemetry="off")
            traced = traced_run(topology=topology, telemetry="on(10)")
            assert baseline.events == []
            for attr in ("times", "sent", "acked", "lost", "rtt",
                         "queuing_delay", "cwnd", "inflight"):
                np.testing.assert_allclose(
                    getattr(baseline.simulation.stats_for(0), attr),
                    getattr(traced.simulation.stats_for(0), attr),
                    rtol=0.0, atol=1e-12,
                    err_msg=f"telemetry perturbed {attr} on {topology}")

    def test_off_cells_keep_pre_telemetry_keys(self):
        """The telemetry knob enters the cell-key digest only when enabled, so
        every pre-telemetry store key (incl. the committed golden stores)
        stays valid verbatim."""
        trace = constant_trace(name="const-24")

        def key_for(**kwargs):
            settings = EvaluationSettings(duration=3.0, topology="chain(2)",
                                          seed=1, **kwargs)
            return ExperimentTask(scheme="cubic", trace=trace,
                                  settings=settings).cell_key()

        assert key_for() == key_for(telemetry="off")
        assert key_for(telemetry="on") != key_for()
        assert key_for(telemetry="on") != key_for(telemetry="on(10)")


# ---------------------------------------------------------------------- #
# Summary reducer
# ---------------------------------------------------------------------- #
class TestSummarize:
    def synthetic_events(self):
        return [
            {"t": 0.0, "kind": "topology", "name": "chain(2)",
             "hops": ["hop0", "bottleneck"], "bottleneck": "bottleneck"},
            {"t": 0.0, "kind": "flow_arrival", "flow": 0},
            {"t": 0.5, "kind": "qc_decision", "qc": 0.9, "margin": 0.4, "allowed": True},
            {"t": 1.0, "kind": "qc_decision", "qc": 0.2, "margin": -0.3, "allowed": False},
            {"t": 1.0, "kind": "fallback_enter", "qc": 0.2},
            {"t": 2.0, "kind": "qc_decision", "qc": 0.8, "margin": 0.3, "allowed": True},
            {"t": 2.0, "kind": "fallback_exit", "qc": 0.8},
            {"t": 2.5, "kind": "queue_drop", "hop": "bottleneck", "flow": 0, "packets": 3.0},
            {"t": 3.0, "kind": "transit_drop", "hop": "hop0", "flow": 1, "packets": 2.0},
            {"t": 3.0, "kind": "flow_arrival", "flow": 1},
            {"t": 3.5, "kind": "conservation", "hops": {"hop0": 0.0, "bottleneck": 10.0},
             "caps": {"hop0": 100.0, "bottleneck": 50.0}, "transit": 0.0,
             "sent": 20.0, "acked": 5.0, "lost": 5.0},
            {"t": 4.0, "kind": "flow_departure", "flow": 1},
            {"t": 4.5, "kind": "fallback_enter", "qc": 0.1},
            {"t": 5.0, "kind": "transit_high_water", "hop": "bottleneck", "packets": 12.5},
        ]

    def test_fallback_episodes_close_open_storms_at_end(self):
        episodes = fallback_episodes(self.synthetic_events(), end_time=6.0)
        assert [(ep["start"], ep["stop"]) for ep in episodes] == [(1.0, 2.0), (4.5, 6.0)]
        assert episodes[1]["duration_s"] == pytest.approx(1.5)

    def test_summary_row(self):
        row = summarize_events(self.synthetic_events(), duration=6.0)
        assert row["tele_n_events"] == 14
        assert row["tele_fallback_episodes"] == 2
        assert row["tele_fallback_longest_s"] == pytest.approx(1.5)
        assert row["tele_qc_decisions"] == 3
        assert row["tele_qc_margin_min"] == pytest.approx(-0.3)
        assert row["tele_drop_events"] == 2
        assert row["tele_dropped_packets"] == pytest.approx(5.0)
        assert row["tele_drops_bottleneck"] == pytest.approx(3.0)
        assert row["tele_drops_hop0"] == pytest.approx(2.0)
        # Queue delay: bottleneck 10/50 = 0.2 s -> 200 ms (single sample).
        assert row["tele_queue_p50_ms_bottleneck"] == pytest.approx(200.0)
        assert row["tele_queue_p99_ms_hop0"] == pytest.approx(0.0)
        # Churn: flow 0 alone [0,3) and [4,6), both flows [3,4).
        assert row["tele_churn_max_overlap"] == 2
        assert row["tele_churn_overlap_hist"] == {"1": 5.0, "2": 1.0}
        assert row["tele_churn_mean_overlap"] == pytest.approx(7.0 / 6.0)
        assert row["tele_transit_high_water"] == pytest.approx(12.5)

    def test_summary_scalars_are_bench_compatible(self):
        """Everything except the histogram is a scalar (flows into BENCH rows)."""
        row = summarize_events(self.synthetic_events(), duration=6.0)
        non_scalar = [key for key, value in row.items()
                      if not isinstance(value, (int, float))]
        assert non_scalar == ["tele_churn_overlap_hist"]

    def test_empty_trace_summarizes(self):
        row = summarize_events([], duration=1.0)
        assert row["tele_n_events"] == 0
        assert row["tele_fallback_episodes"] == 0
        assert row["tele_drop_events"] == 0


# ---------------------------------------------------------------------- #
# Tick profiler (wall-clock, reported separately from sim events)
# ---------------------------------------------------------------------- #
class TestTickProfiler:
    def test_phases_accumulate(self):
        profiler = TickProfiler()
        profiler.begin()
        profiler.mark("inject")
        profiler.add("transit", 0.5)
        profiler.mark("drain")
        profiler.finish()
        report = profiler.report()
        assert report["ticks"] == 1.0
        assert report["transit_s"] == pytest.approx(0.5)
        # add() shifts the mark origin: the explicit 0.5 s charge must not
        # also be charged to the surrounding drain mark.
        assert report["drain_s"] < 0.5
        assert sum(report[f"{p}_frac"] for p in
                   ("inject", "enqueue", "transit", "drain", "acks")) == pytest.approx(1.0)

    def test_attached_profiler_times_simulator_phases(self):
        trace = constant_trace(name="const-24")
        topology = build_topology("chain(3)", trace, min_rtt=0.04, seed=1)
        profiler = TickProfiler()
        sim = NetworkSimulator(topology, [Flow(0, CubicController())], dt=0.01,
                               profiler=profiler)
        sim.run(2.0)
        report = profiler.report()
        assert report["ticks"] == 200.0
        assert report["ticks_per_sec"] > 0
        assert report["drain_s"] > 0.0

    def test_profiler_never_enters_rows(self):
        """Rows must stay byte-identical across runs, so no wall-clock metric
        may leak into them."""
        (row,) = ParallelRunner(1).map(run_task, _stress_tasks("on(10)")[:1])
        assert not any("tick" in key or key.endswith("_frac") for key in row)


# ---------------------------------------------------------------------- #
# Renderer (the display layer of `python -m repro trace`)
# ---------------------------------------------------------------------- #
class TestRender:
    def test_resolve_groups_rejects_unknown(self):
        with pytest.raises(ValueError, match="unknown event group"):
            resolve_groups(["fallback", "nope"])
        assert resolve_groups(["drop", "fallback"]) == ["fallback", "drop"]

    def test_fallback_timeline_marks_storms(self):
        events = [
            {"t": 0.5, "kind": "qc_decision", "qc": 0.9, "margin": 0.4, "allowed": True},
            {"t": 4.0, "kind": "fallback_enter", "qc": 0.2},
            {"t": 6.0, "kind": "fallback_exit", "qc": 0.8},
        ]
        rendered = render_timeline(events, duration=8.0, width=8)
        (lane,) = [line for line in rendered.splitlines() if "fallback" in line]
        assert "#" in lane and "." in lane
        # The storm covers [4, 6) of [0, 8) -> buckets 4 and 5 of 8.
        bar = lane.split("|")[1]
        assert bar[4] == "#" and bar[5] == "#" and bar[0] == "."
        assert "0 .. 8s" in rendered

    def test_real_trace_renders_requested_groups(self):
        run = traced_run()
        rendered = render_timeline(run.events, duration=3.0,
                                   groups=["flow", "conservation"])
        lines = rendered.splitlines()
        assert any(line.lstrip().startswith("flow ") for line in lines)
        assert any("conservation" in line for line in lines)
        assert not any("drop" in line for line in lines)

    def test_render_summary_lists_tele_entries(self):
        row = {"tele_n_events": 5, "tele_fallback_episodes": 1, "utilization": 0.9}
        rendered = render_summary(row)
        assert "tele_n_events" in rendered and "utilization" not in rendered
        assert render_summary({"utilization": 0.9}) == "(no telemetry summary in row)"

    def test_event_groups_cover_vocabulary(self):
        grouped = {kind for kinds in EVENT_GROUPS.values() for kind in kinds}
        assert grouped == set(EVENT_KINDS) - {"topology"}
