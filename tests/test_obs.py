"""Tests for the fleet observability plane (:mod:`repro.obs`).

The contract under test has two sides.  The observability side: metric
frames round-trip through ``metrics.jsonl``, rollups compute the right
percentiles, the HTTP surface serves valid Prometheus exposition, and
retention drops raw traces without ever touching a ``tele_*`` summary.  The
determinism side (the wall): running a grid with metrics streaming, an HTTP
server attached, and profilers active produces a store whose rows are
byte-identical to a serial run with observability off.
"""

import json
import logging
import urllib.request
from urllib.parse import quote

import pytest

from repro.harness.jsonl import parse_jsonl_tolerant
from repro.harness.registry import REGISTRY
from repro.harness.store import RunStore, SchemaVersionError
from repro.obs.aggregate import (
    fleet_rollup,
    format_phase_table,
    merge_phase_reports,
    percentile,
)
from repro.obs.http import ObsServer, render_exposition, validate_exposition
from repro.obs.metrics import (
    METRICS_FILENAME,
    MetricsJournal,
    MetricsSampler,
    validate_frame,
)
from repro.obs.retention import RetentionPolicy, compact_store
from repro.serve.daemon import serve_experiment
from repro.serve.lease import LeaseJournal
from repro.serve.status import format_status, read_status
from repro.telemetry.profiler import TICK_PHASES, TickProfiler

#: Same cheap classical mini-grid as test_serve: 4 cells, ~2s each simulated.
MINI_GRID = {
    "schemes": ("cubic", "vegas"),
    "topology": ("single_bottleneck",),
    "workload": ("poisson(0.1)",),
    "duration": 2.0,
    "n_traces": 1,
    "seeds": (1, 2),
}

TRACED_GRID = dict(MINI_GRID, schemes=("cubic",), seeds=(1, 2, 3),
                   telemetry="on(10)")


@pytest.fixture(autouse=True)
def _zoo_isolation(monkeypatch, tmp_path):
    monkeypatch.setenv("REPRO_MODEL_ZOO", str(tmp_path / "zoo"))


def _rows_by_key(store_dir) -> dict:
    return {key: json.dumps(record.row, sort_keys=True)
            for key, record in RunStore(store_dir).load().items()}


def _frame(worker="w0", seq=0, t=0.0, *, cells=0, ticks=0, sim_wall=0.0,
           phase_seconds=None, events=0, kind="frame", **extra):
    frame = {
        "v": 1, "kind": kind, "worker": worker, "seq": seq, "t": t,
        "uptime_s": t, "cells_done": cells, "ticks": ticks,
        "sim_wall_s": sim_wall,
        "phase_seconds": phase_seconds or {phase: 0.0 for phase in TICK_PHASES},
        "telemetry_events": events,
    }
    frame.update(extra)
    return frame


# --------------------------------------------------------------------- #
# Shared tolerant JSONL helper
# --------------------------------------------------------------------- #
class TestParseJsonlTolerant:
    def test_torn_tail_returns_valid_prefix(self):
        text = '{"a": 1}\n{"b": 2}\n{"c":'
        items, valid_bytes, torn = parse_jsonl_tolerant(text, source="t.jsonl")
        assert items == [{"a": 1}, {"b": 2}] and torn
        assert valid_bytes == len('{"a": 1}\n{"b": 2}\n'.encode())

    def test_mid_file_corruption_raises_with_location(self):
        with pytest.raises(ValueError, match=r"t\.jsonl:2"):
            parse_jsonl_tolerant('{"a": 1}\n{broken}\n{"c": 3}\n',
                                 source="t.jsonl")

    def test_complete_last_line_that_fails_parse_raises(self):
        def parse(payload):
            if "c" in payload:
                raise ValueError("missing field")
            return payload

        with pytest.raises(ValueError, match=r"t\.jsonl:2: invalid line: missing field"):
            parse_jsonl_tolerant('{"a": 1}\n{"c": 3}\n', source="t.jsonl", parse=parse)
        with pytest.raises(ValueError, match=r"t\.jsonl:2"):
            parse_jsonl_tolerant('{"a": 1}\n{"c":\n', source="t.jsonl")
        # The same bytes without their newline are a torn append.
        items, valid_bytes, torn = parse_jsonl_tolerant(
            '{"a": 1}\n{"c": 3}', source="t.jsonl", parse=parse)
        assert items == [{"a": 1}] and torn and valid_bytes == len('{"a": 1}\n')

    def test_intolerant_exceptions_reraise_with_location(self):
        def parse(payload):
            raise SchemaVersionError("schema v99 from the future")

        with pytest.raises(SchemaVersionError, match=r"t\.jsonl:1"):
            parse_jsonl_tolerant('{"v": 99}\n', source="t.jsonl", parse=parse,
                                 intolerant=(SchemaVersionError,))

    def test_empty_and_blank_lines(self):
        assert parse_jsonl_tolerant("") == ([], 0, False)
        items, _, torn = parse_jsonl_tolerant('\n{"a": 1}\n\n')
        assert items == [{"a": 1}] and not torn


# --------------------------------------------------------------------- #
# Metric frames: sampler, journal, schema
# --------------------------------------------------------------------- #
class TestMetricFrames:
    def test_sampler_frame_roundtrips_through_journal(self, tmp_path):
        clock = iter([100.0, 101.0, 102.0]).__next__
        profiler = TickProfiler()
        profiler.begin()
        profiler.finish()
        sampler = MetricsSampler("w0", profiler=profiler, clock=clock)
        sampler.note_cell_done({"tele_n_events": 7})
        journal = MetricsJournal(tmp_path)
        journal.append(sampler.sample(current_key="cell-a"))
        journal.append(sampler.sample())
        frames = journal.read()
        assert [frame["seq"] for frame in frames] == [0, 1]
        assert frames[0]["cells_done"] == 1
        assert frames[0]["telemetry_events"] == 7
        assert frames[0]["current_key"] == "cell-a"
        assert frames[1]["current_key"] is None
        assert frames[0]["ticks"] == profiler.ticks
        # Journal lines are canonical sorted-keys JSON.
        first = (tmp_path / METRICS_FILENAME).read_text().splitlines()[0]
        assert first == json.dumps(json.loads(first), sort_keys=True)

    def test_counts_raw_telemetry_event_lists_too(self):
        sampler = MetricsSampler("w0", clock=lambda: 0.0)
        sampler.note_cell_done({"telemetry_events": [{"e": 1}, {"e": 2}]})
        assert sampler.sample()["telemetry_events"] == 2

    def test_invalid_frame_is_rejected(self, tmp_path):
        journal = MetricsJournal(tmp_path)
        with pytest.raises(ValueError, match="missing required key"):
            journal.append({"v": 1, "kind": "frame"})  # missing counters
        validate_frame(_frame())  # the minimal well-formed frame passes

    def test_torn_tail_tolerated(self, tmp_path):
        journal = MetricsJournal(tmp_path)
        journal.append(_frame(seq=0))
        journal.append(_frame(seq=1, t=1.0))
        with (tmp_path / METRICS_FILENAME).open("a") as handle:
            handle.write('{"v": 1, "kind": "fra')  # torn mid-append
        assert [frame["seq"] for frame in journal.read()] == [0, 1]

    def test_missing_journal_reads_empty(self, tmp_path):
        assert MetricsJournal(tmp_path / "nowhere").read() == []


# --------------------------------------------------------------------- #
# Rollup math
# --------------------------------------------------------------------- #
class TestRollups:
    def test_percentile_linear_interpolation(self):
        assert percentile([], 50) == 0.0
        assert percentile([4.0], 99) == 4.0
        assert percentile([1.0, 2.0, 3.0, 4.0], 50) == 2.5
        assert percentile([1.0, 2.0, 3.0, 4.0], 100) == 4.0
        assert percentile(list(range(101)), 99) == pytest.approx(99.0)

    def test_latency_percentiles_from_cumulative_frames(self):
        # Worker ticks 10 per frame; drain cost per tick alternates 1ms/3ms.
        phase = {p: 0.0 for p in TICK_PHASES}
        frames = []
        drain_total = 0.0
        for i, per_tick in enumerate([0.001, 0.003, 0.001, 0.003]):
            drain_total += per_tick * 10
            frames.append(_frame(seq=i, t=float(i), ticks=(i + 1) * 10,
                                 phase_seconds=dict(phase, drain=drain_total)))
        roll = fleet_rollup(frames)["workers"]["w0"]
        drain = roll["phase_latency_ms"]["drain"]
        assert drain["n"] == 4
        assert drain["p50"] == pytest.approx(2.0)   # median of 1,3,1,3 ms
        assert drain["p99"] == pytest.approx(3.0, abs=0.1)
        assert roll["ticks"] == 40

    def test_fleet_totals_and_trend(self):
        frames = [_frame("w0", 0, 0.0, cells=0), _frame("w1", 0, 0.0, cells=0),
                  _frame("w0", 1, 5.0, cells=4), _frame("w1", 1, 10.0, cells=6)]
        fleet = fleet_rollup(frames)["fleet"]
        assert fleet["workers"] == 2 and fleet["cells_done"] == 10
        assert fleet["cells_per_sec"] == pytest.approx(1.0)  # 10 cells / 10 s
        trend = fleet["throughput_trend"]
        # Instantaneous fleet rate between frame times: 4 cells in the first
        # 5 s window, then 6 more in the next.
        assert [point["cells_per_sec"] for point in trend] == \
            pytest.approx([0.8, 1.2])

    def test_rollup_line_is_baseline_not_sample(self):
        # A compaction rollup contributes totals but no latency samples.
        phase = {p: 0.0 for p in TICK_PHASES}
        folded = _frame(kind="rollup", seq=5, seq_last=5, t=5.0, frames=6,
                        cells=3, ticks=30, t_first=0.0,
                        phase_seconds=dict(phase, drain=0.030),
                        phase_latency_ms={})
        live = _frame(seq=6, t=6.0, cells=4, ticks=40,
                      phase_seconds=dict(phase, drain=0.050))
        roll = fleet_rollup([folded, live])["workers"]["w0"]
        assert roll["frames"] == 7  # 6 folded + 1 raw
        drain = roll["phase_latency_ms"]["drain"]
        # Only the rollup→live delta: (50-30)ms over 10 ticks = 2ms/tick.
        assert drain["n"] == 1 and drain["p50"] == pytest.approx(2.0)

    def test_merge_phase_reports_and_table(self):
        reports = [
            {"ticks": 10, "total_seconds": 1.0, "inject_s": 0.2, "drain_s": 0.3},
            {"ticks": 30, "total_seconds": 1.0, "inject_s": 0.2, "drain_s": 0.3},
        ]
        merged = merge_phase_reports(reports)
        assert merged["ticks"] == 40 and merged["ticks_per_sec"] == 20.0
        assert merged["inject_s"] == pytest.approx(0.4)
        assert merged["inject_frac"] == pytest.approx(0.4)  # of 1.0s charged
        table = format_phase_table(merged)
        assert "ticks: 40 in 2.000s" in table
        for phase in TICK_PHASES:
            assert phase in table


# --------------------------------------------------------------------- #
# HTTP surface and exposition format
# --------------------------------------------------------------------- #
class TestExposition:
    def test_validator_accepts_render_and_rejects_malformations(self, tmp_path):
        MetricsJournal(tmp_path).append(_frame(cells=2, ticks=20, sim_wall=0.1))
        report = validate_exposition(render_exposition(tmp_path))
        assert report["families"] >= 3 and report["samples"] >= 5

        with pytest.raises(ValueError, match="TYPE"):
            validate_exposition("untyped_metric 1.0\n")
        with pytest.raises(ValueError, match=r"\+Inf"):
            validate_exposition("# TYPE h histogram\n"
                                'h_bucket{le="0.1"} 1\nh_sum 0.1\nh_count 1\n')
        with pytest.raises(ValueError, match="malformed sample"):
            validate_exposition("# TYPE g gauge\ng{unclosed 1.0\n")


class TestHttpSurface:
    def test_status_metrics_and_cells_endpoints(self, tmp_path):
        store = tmp_path / "served"
        serve_experiment("workload_stress", MINI_GRID, store=store,
                         workers=0, metrics_interval=1.0)
        server = ObsServer(store, port=0).start()
        try:
            status = json.load(urllib.request.urlopen(server.url("/status")))
            assert status["completed"] == 4 and not status["running"]

            response = urllib.request.urlopen(server.url("/metrics"))
            assert response.headers["Content-Type"].startswith("text/plain")
            text = response.read().decode()
            validate_exposition(text)
            assert 'repro_serve_cells{state="completed"} 4' in text
            assert "repro_tick_phase_latency_seconds_bucket" in text

            key = next(iter(RunStore(store).load()))
            cell = json.load(urllib.request.urlopen(
                server.url("/cells/" + quote(key, safe=""))))
            assert cell["key"] == key and "row" in cell

            with pytest.raises(urllib.error.HTTPError) as err:
                urllib.request.urlopen(server.url("/cells/no-such-cell"))
            with err.value as response:  # closes the error's socket
                assert response.code == 404
        finally:
            server.close()


    def test_handler_error_is_a_500_and_logs_its_traceback(self, tmp_path, monkeypatch,
                                                          caplog):
        def broken(store_path):
            raise RuntimeError("exposition exploded")

        monkeypatch.setattr("repro.obs.http.render_exposition", broken)
        server = ObsServer(tmp_path, port=0).start()
        try:
            with caplog.at_level(logging.ERROR, logger="repro"):
                with pytest.raises(urllib.error.HTTPError) as err:
                    urllib.request.urlopen(server.url("/metrics"))
        finally:
            server.close()
        with err.value as response:
            assert response.code == 500
            assert json.load(response) == {"error": "RuntimeError: exposition exploded"}
        [record] = [r for r in caplog.records if r.name == "repro.obs"
                    and r.levelno == logging.ERROR]
        assert record.getMessage() == "http_error path=/metrics"
        assert "in broken" in caplog.text


# --------------------------------------------------------------------- #
# The determinism wall
# --------------------------------------------------------------------- #
class TestDeterminismWall:
    def test_observed_serve_is_byte_identical_to_dark_serial(self, tmp_path):
        """Metrics stream + HTTP server + worker profilers change nothing in
        the rows: the served store diffs clean against a serial run with
        observability off."""
        REGISTRY.run("workload_stress", MINI_GRID, n_jobs=1,
                     store=RunStore(tmp_path / "serial"))
        served = serve_experiment("workload_stress", MINI_GRID,
                                  store=tmp_path / "served", workers=2,
                                  timeout_s=300.0, metrics_interval=0.2,
                                  http_port=0)
        assert served["metrics_frames"] >= 1
        assert served["http_port"] is not None
        assert _rows_by_key(tmp_path / "serial") == _rows_by_key(tmp_path / "served")
        # The stream landed next to (not inside) the records journal.
        assert (tmp_path / "served" / METRICS_FILENAME).exists()

    def test_profiled_run_rows_match_unprofiled(self, tmp_path):
        baseline = REGISTRY.run("workload_stress", MINI_GRID, n_jobs=1,
                                store=RunStore(tmp_path / "dark"))
        profiled = REGISTRY.run("workload_stress", MINI_GRID, n_jobs=1,
                                store=RunStore(tmp_path / "lit"), profile=True)
        assert profiled["rows"] == baseline["rows"]
        assert _rows_by_key(tmp_path / "dark") == _rows_by_key(tmp_path / "lit")
        assert profiled["profile"]["ticks"] > 0
        assert MetricsJournal(tmp_path / "lit").read()


# --------------------------------------------------------------------- #
# Retention / compaction
# --------------------------------------------------------------------- #
class TestRetention:
    def _traced_store(self, tmp_path):
        store = RunStore(tmp_path / "store")
        REGISTRY.run("workload_stress", TRACED_GRID, n_jobs=1, store=store,
                     profile=True)
        return store

    def test_tele_summaries_survive_trace_drop(self, tmp_path):
        store = self._traced_store(tmp_path)
        before = RunStore(store.path).load()
        assert sum(1 for r in before.values() if r.row.get("telemetry_events")) == 3
        report = compact_store(store.path, RetentionPolicy(keep_traces=1))
        assert report["traces_dropped"] == 2 and report["traces_kept"] == 1
        after = RunStore(store.path).load()
        dropped = [r for r in after.values()
                   if r.row.get("telemetry_events_dropped")]
        assert len(dropped) == 2
        assert all("telemetry_events" not in r.row for r in dropped)
        for key, record in after.items():
            for tele_key in (k for k in before[key].row if k.startswith("tele_")):
                assert record.row[tele_key] == before[key].row[tele_key]

    def test_counterexample_referenced_traces_are_pinned(self, tmp_path):
        store = self._traced_store(tmp_path)
        keys = sorted(RunStore(store.path).load())
        pinned = keys[0]  # oldest: would be dropped first without the pin
        cx_dir = store.path / "counterexamples"
        cx_dir.mkdir()
        entry = {"id": "cx-0", "key": pinned, "objective": "fallback_storm",
                 "threshold": 0.5, "task": {}}
        (cx_dir / "counterexamples.jsonl").write_text(
            json.dumps(entry, sort_keys=True) + "\n")
        report = compact_store(store.path, RetentionPolicy(keep_traces=0))
        assert report["protected_kept"] == 1
        after = RunStore(store.path).load()
        assert after[pinned].row.get("telemetry_events")
        assert all("telemetry_events" not in r.row
                   for k, r in after.items() if k != pinned)

    def test_byte_budget_drops_oldest_first(self, tmp_path):
        store = self._traced_store(tmp_path)
        report = compact_store(store.path,
                               RetentionPolicy(max_trace_bytes=1))
        assert report["traces_dropped"] == 3
        assert report["trace_bytes_dropped"] > 0

    def test_metric_frames_fold_into_rollup_segments(self, tmp_path):
        journal = MetricsJournal(tmp_path)
        for i in range(6):
            journal.append(_frame(seq=i, t=float(i), cells=i, ticks=i * 10,
                                  sim_wall=i * 0.1))
        report = compact_store(tmp_path, RetentionPolicy(keep_frames=2))
        assert report["frames_folded"] == 4 and report["lines_after"] == 3
        frames = journal.read()
        rollups = [f for f in frames if f.get("kind") == "rollup"]
        assert len(rollups) == 1 and rollups[0]["frames"] == 4
        # Aggregation over the compacted stream keeps the cumulative truth.
        fleet = fleet_rollup(frames)["fleet"]
        assert fleet["frames"] == 6 and fleet["cells_done"] == 5
        assert fleet["ticks"] == 50
        # Compacting again folds the rollup plus older raws into one line.
        journal.append(_frame(seq=6, t=6.0, cells=6, ticks=60, sim_wall=0.6))
        compact_store(tmp_path, RetentionPolicy(keep_frames=1))
        again = journal.read()
        assert sum(1 for f in again if f.get("kind") == "rollup") == 1
        assert fleet_rollup(again)["fleet"]["frames"] == 7

    def test_compaction_is_audited(self, tmp_path):
        store = self._traced_store(tmp_path)
        compact_store(store.path, RetentionPolicy(keep_traces=1, keep_frames=1))
        audit_lines = (store.path / "compactions.jsonl").read_text().splitlines()
        audit = json.loads(audit_lines[-1])
        assert audit["event"] == "compact"
        assert audit["policy"]["keep_traces"] == 1
        assert 0.0 < audit["compaction_ratio"] <= 1.0
        # Compacted records still load and re-validate cleanly.
        assert len(RunStore(store.path).load()) == 3


# --------------------------------------------------------------------- #
# Status regression: zero completed cells
# --------------------------------------------------------------------- #
class TestStatusZeroCompleted:
    def test_no_misleading_throughput_before_first_cell(self, tmp_path):
        journal = LeaseJournal(tmp_path)
        journal.append("serve_start", experiment="toy", cells=4, cached=0,
                       pending=4, workers=2, ttl_s=5.0, pid=1)
        journal.append("lease", key="cell-a", worker="w0")
        status = read_status(tmp_path, now=journal.clock() + 10.0
                             if callable(getattr(journal, "clock", None))
                             else None)
        assert status["completed"] == 0
        assert status["cells_per_sec"] == 0.0
        rendered = format_status(status)
        assert "n/a" in rendered
        assert "0.00 cells/s" not in rendered
