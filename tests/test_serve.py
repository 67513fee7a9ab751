"""Tests for the lease-based serve subsystem (scheduler daemon, leases, status).

The determinism contract under test: ``serial == pooled == served ==
resumed``, byte-identical rows — including when a worker is SIGKILLed
mid-cell and its lease is reclaimed.
"""

import json
import logging
import queue
from dataclasses import dataclass

import pytest

from repro.harness.evaluate import EvaluationSettings
from repro.harness.parallel import ExperimentTask
from repro.harness.registry import REGISTRY
from repro.harness.store import RunStore
from repro.serve.daemon import serve_experiment
from repro.serve.lease import LEASES_FILENAME, LeaseJournal, LeaseTable
from repro.serve.status import format_status, read_status
from repro.serve.worker import worker_main
from repro.traces.trace import BandwidthTrace

#: A cheap classical workload_stress mini-grid (no model training): 2 schemes
#: x 2 seeds x 1 trace = 4 cells of a 2-second contended run each.
MINI_GRID = {
    "schemes": ("cubic", "vegas"),
    "topology": ("single_bottleneck",),
    "workload": ("poisson(0.1)",),
    "duration": 2.0,
    "n_traces": 1,
    "seeds": (1, 2),
}


@pytest.fixture(autouse=True)
def _zoo_isolation(monkeypatch, tmp_path):
    """Pin the model zoo env var so serve_experiment's setdefault cannot leak
    a per-test store path into the process environment."""
    monkeypatch.setenv("REPRO_MODEL_ZOO", str(tmp_path / "zoo"))


class FakeClock:
    def __init__(self, now: float = 0.0):
        self.now = now

    def __call__(self) -> float:
        return self.now

    def advance(self, dt: float) -> None:
        self.now += dt


# --------------------------------------------------------------------- #
# LeaseTable semantics
# --------------------------------------------------------------------- #
class TestLeaseTable:
    def test_grant_dedupes_inflight_and_completed(self):
        table = LeaseTable(ttl_s=10.0, clock=FakeClock())
        assert table.grant("cell-a", "w0") is not None
        # In-flight dedupe: an actively-leased key cannot be leased again.
        assert table.grant("cell-a", "w1") is None
        assert table.complete("cell-a", "w0")
        # Completed cells are never re-leased either.
        assert table.grant("cell-a", "w1") is None
        assert table.completed == {"cell-a": "w0"}

    def test_expiry_needs_missed_heartbeats_and_renewal_defers(self):
        clock = FakeClock()
        table = LeaseTable(ttl_s=10.0, clock=clock)
        table.grant("cell-a", "w0")
        clock.advance(9.0)
        assert table.expired() == []
        assert table.renew("cell-a", "w0")  # heartbeat pushes expiry out
        clock.advance(9.0)
        assert table.expired() == []
        clock.advance(2.0)  # 11s since the renewal: lapsed
        assert [lease.key for lease in table.expired()] == ["cell-a"]
        # A renewal from a worker that does not hold the lease is refused.
        assert not table.renew("cell-a", "w1")

    def test_reclaim_allows_regrant_and_stale_result_is_rejected(self):
        table = LeaseTable(ttl_s=10.0, clock=FakeClock())
        table.grant("cell-a", "w0")
        assert table.reclaim("cell-a", reason="died") is not None
        lease = table.grant("cell-a", "w1")  # re-lease to a healthy worker
        assert lease is not None and lease.worker == "w1"
        # First result wins: the presumed-dead worker's late result is stale.
        assert not table.complete("cell-a", "w0")
        assert table.complete("cell-a", "w1")
        assert table.completed == {"cell-a": "w1"}
        assert table.grants("cell-a") == 2

    def test_release_worker_reclaims_everything_it_held(self):
        table = LeaseTable(ttl_s=10.0, clock=FakeClock())
        table.grant("cell-a", "w0")
        table.grant("cell-b", "w0")
        table.grant("cell-c", "w1")
        released = table.release_worker("w0", reason="died")
        assert sorted(lease.key for lease in released) == ["cell-a", "cell-b"]
        assert {key: lease.worker for key, lease in table.active.items()} == {"cell-c": "w1"}

    def test_fail_and_fail_unleased(self):
        table = LeaseTable(ttl_s=10.0, clock=FakeClock())
        table.grant("cell-a", "w0")
        assert table.fail("cell-a", "w0", "ValueError: boom")
        table.fail_unleased("cell-b", "lease limit reached")
        assert set(table.failed) == {"cell-a", "cell-b"}

    def test_transitions_are_journaled(self, tmp_path):
        journal = LeaseJournal(tmp_path)
        table = LeaseTable(journal, ttl_s=5.0, clock=FakeClock())
        table.grant("cell-a", "w0")
        table.reclaim("cell-a", reason="expired")
        table.grant("cell-a", "w1")
        table.complete("cell-a", "w0")  # stale
        table.complete("cell-a", "w1")
        events = [event["event"] for event in journal.read()]
        assert events == ["lease", "reclaim", "lease", "stale_result", "complete"]
        reclaim = journal.read()[1]
        assert reclaim["reason"] == "expired" and reclaim["worker"] == "w0"


# --------------------------------------------------------------------- #
# LeaseJournal on-disk behavior
# --------------------------------------------------------------------- #
class TestLeaseJournal:
    def test_append_read_roundtrip_sorted_keys(self, tmp_path):
        journal = LeaseJournal(tmp_path, clock=FakeClock(12.3456))
        journal.append("serve_start", experiment="toy", cells=3)
        journal.append("lease", key="cell-a", worker="w0")
        events = journal.read()
        assert [event["event"] for event in events] == ["serve_start", "lease"]
        assert events[0]["t"] == 12.346  # wall time rounded for humans
        first_line = (tmp_path / LEASES_FILENAME).read_text().splitlines()[0]
        assert first_line == json.dumps(json.loads(first_line), sort_keys=True)

    def test_torn_tail_tolerated_mid_corruption_raises(self, tmp_path):
        journal = LeaseJournal(tmp_path)
        journal.append("serve_start", experiment="toy")
        journal.append("lease", key="cell-a", worker="w0")
        path = tmp_path / LEASES_FILENAME
        with path.open("a") as handle:
            handle.write('{"event": "complete", "key"')  # torn mid-append
        assert [event["event"] for event in journal.read()] == ["serve_start", "lease"]
        # Corruption that is *not* the tail is a real error, not a torn append.
        path.write_text('{"event": "serve_start"}\n{broken}\n{"event": "lease"}\n')
        with pytest.raises(ValueError, match="leases.jsonl:2"):
            journal.read()

    def test_missing_journal_reads_empty(self, tmp_path):
        assert LeaseJournal(tmp_path / "nothing").read() == []


# --------------------------------------------------------------------- #
# Status replay
# --------------------------------------------------------------------- #
class TestStatus:
    def test_missing_journal_raises_pointedly(self, tmp_path):
        with pytest.raises(FileNotFoundError, match="no lease journal"):
            read_status(tmp_path)

    def test_replay_describes_the_latest_session(self, tmp_path):
        clock = FakeClock(100.0)
        journal = LeaseJournal(tmp_path, clock=clock)
        # A first (crashed) session that must not leak into the status.
        journal.append("serve_start", experiment="old", cells=9, cached=0,
                       pending=9, workers=1, ttl_s=5.0, pid=1)
        journal.append("lease", key="stale-cell", worker="w0")
        # The live session.
        journal.append("serve_start", experiment="toy", cells=4, cached=1,
                       pending=3, workers=2, ttl_s=5.0, pid=2)
        journal.append("worker_spawn", worker="w0", pid=11)
        journal.append("worker_spawn", worker="w1", pid=12)
        clock.advance(1.0)
        journal.append("lease", key="cell-a", worker="w0")
        journal.append("lease", key="cell-b", worker="w1")
        journal.append("complete", key="cell-a", worker="w0")
        journal.append("reclaim", key="cell-b", worker="w1", reason="died")
        journal.append("worker_dead", worker="w1", pid=12)
        status = read_status(tmp_path, now=clock())
        assert status["experiment"] == "toy" and status["running"]
        assert status["cells"] == 4 and status["cached"] == 1
        assert status["completed"] == 1 and status["reclaims"] == 1
        assert status["leased"] == {} and status["outstanding"] == 2
        assert status["workers"]["w0"]["alive"]
        assert not status["workers"]["w1"]["alive"]
        assert "stale-cell" not in str(status)

        journal.append("serve_done", experiment="toy", completed=4, failed=0,
                       reclaims=1, wall_clock_s=2.5)
        done = read_status(tmp_path, now=clock())
        assert not done["running"] and done["elapsed_s"] == 2.5

        rendered = format_status(done)
        assert "experiment: toy (done)" in rendered
        assert "4 total = 1 cached" in rendered
        assert "reclaims: 1" in rendered
        assert "w1: dead" in rendered


# --------------------------------------------------------------------- #
# Served grids: determinism, crash recovery, resume
# --------------------------------------------------------------------- #
def _rows_by_key(store_dir) -> dict:
    return {key: json.dumps(record.row, sort_keys=True)
            for key, record in RunStore(store_dir).load().items()}


class TestServeDeterminism:
    def test_served_rows_byte_identical_to_serial(self, tmp_path):
        serial = REGISTRY.run("workload_stress", MINI_GRID, n_jobs=1,
                              store=RunStore(tmp_path / "serial"))
        served = serve_experiment("workload_stress", MINI_GRID,
                                  store=tmp_path / "served", workers=2,
                                  timeout_s=300.0)
        serial_rows = _rows_by_key(tmp_path / "serial")
        served_rows = _rows_by_key(tmp_path / "served")
        assert set(serial_rows) == set(served_rows) and serial_rows
        assert serial_rows == served_rows  # byte-identical per cell
        # The aggregated result shape matches the in-process front door too.
        assert served["rows"] == serial["rows"]
        assert served["served_cells"] == 4 and served["reclaims"] == 0
        # Producer provenance distinguishes the two paths.
        producers = {record.producer
                     for record in RunStore(tmp_path / "served").records()}
        assert producers and all(p.startswith("serve:") for p in producers)
        assert {record.producer
                for record in RunStore(tmp_path / "serial").records()} == {"serial"}

    def test_sigkilled_worker_mid_cell_recovers_byte_identical(self, tmp_path):
        """Kill -9 a worker mid-cell: the sweep still completes and every row
        matches the serial baseline byte for byte."""
        REGISTRY.run("workload_stress", MINI_GRID, n_jobs=1,
                     store=RunStore(tmp_path / "serial"))
        served = serve_experiment("workload_stress", MINI_GRID,
                                  store=tmp_path / "served", workers=2,
                                  chaos_kill=2, ttl_s=5.0, timeout_s=300.0)
        assert served["reclaims"] >= 1
        assert _rows_by_key(tmp_path / "serial") == _rows_by_key(tmp_path / "served")
        # The journal shows the kill: a worker died and its cell was reclaimed.
        events = LeaseJournal(tmp_path / "served").read()
        kinds = [event["event"] for event in events]
        assert "reclaim" in kinds and "worker_dead" in kinds
        status = read_status(tmp_path / "served")
        assert not status["running"]
        assert status["completed"] == 4 and status["reclaims"] >= 1
        assert any(not state["alive"] for state in status["workers"].values())

    def test_inline_mode_and_fully_cached_resume(self, tmp_path):
        serial = REGISTRY.run("workload_stress", MINI_GRID, n_jobs=1)
        inline = serve_experiment("workload_stress", MINI_GRID,
                                  store=tmp_path / "store", workers=0)
        assert inline["rows"] == serial["rows"]
        assert inline["served_cells"] == 4
        before = (tmp_path / "store" / "records.jsonl").read_text()
        # Serving again against the same store finds everything cached.
        resumed = serve_experiment("workload_stress", MINI_GRID,
                                   store=tmp_path / "store", workers=2)
        assert resumed["served_cells"] == 0 and resumed["cached_cells"] == 4
        assert resumed["rows"] == serial["rows"]
        assert (tmp_path / "store" / "records.jsonl").read_text() == before

    def test_requires_store(self):
        with pytest.raises(ValueError, match="requires a store"):
            serve_experiment("workload_stress", MINI_GRID)


# --------------------------------------------------------------------- #
# Failure surfacing (deterministic runner errors)
# --------------------------------------------------------------------- #
@dataclass(frozen=True)
class _ToyTask(ExperimentTask):
    """A cell the toy runner never simulates, keyed ``toy=<scheme>``."""

    def cell_key(self) -> str:
        return f"toy={self.scheme}"


def _toy_task(name: str) -> _ToyTask:
    return _ToyTask(scheme=name, trace=BandwidthTrace.constant(12.0, duration=1.0),
                    settings=EvaluationSettings(duration=2.0))


def _toy_runner(task):
    if task.scheme == "boom":
        raise RuntimeError("kaboom")
    return {"value": len(task.scheme)}


@REGISTRY.register("serve_toy", axes={"names": ("a", "bb", "ccc")},
                   runner=_toy_runner, description="serve test fixture grid")
def _serve_toy_build(axes):
    return [_toy_task(name) for name in axes["names"]]


class TestServeFailures:
    @staticmethod
    def _logged_failure(caplog):
        """The one logged cell failure, checked to carry the runner's traceback."""
        [record] = [r for r in caplog.records if r.name == "repro.serve"
                    and r.levelno == logging.ERROR]
        assert isinstance(record.exc_info[1], RuntimeError)
        assert "_toy_runner" in caplog.text and "kaboom" in caplog.text
        return record

    def test_inline_failure_logs_its_traceback(self, tmp_path, caplog):
        with caplog.at_level(logging.ERROR, logger="repro"):
            with pytest.raises(RuntimeError, match="toy=boom: RuntimeError: kaboom"):
                serve_experiment("serve_toy", {"names": ("a", "boom")},
                                 store=tmp_path / "store", workers=0)
        record = self._logged_failure(caplog)
        assert record.getMessage() == "cell_failed worker=inline key=toy=boom"
        # The journaled failure stays the bare "{Type}: {msg}" string.
        errors = [event.get("error") for event in LeaseJournal(tmp_path / "store").read()
                  if event["event"] == "failed"]
        assert errors == ["RuntimeError: kaboom"]

    def test_worker_failure_logs_its_traceback(self, caplog):
        tasks, messages = queue.Queue(), queue.Queue()
        tasks.put((0, "toy=boom", _toy_task("boom")))
        tasks.put(None)
        with caplog.at_level(logging.ERROR, logger="repro"):
            worker_main("w0", _toy_runner, tasks, messages, heartbeat_s=60.0)
        record = self._logged_failure(caplog)
        assert record.getMessage() == "cell_failed worker=w0 key=toy=boom"
        forwarded = [messages.get_nowait() for _ in range(messages.qsize())]
        assert ("error", "w0", "toy=boom", "RuntimeError: kaboom") in forwarded

    def test_raising_cell_fails_the_sweep_without_retry(self, tmp_path):
        with pytest.raises(RuntimeError, match="toy=boom.*kaboom"):
            serve_experiment("serve_toy", {"names": ("a", "boom", "ccc")},
                             store=tmp_path / "store", workers=1,
                             timeout_s=120.0)
        # The healthy cells still streamed to the store before the failure
        # surfaced, and the journal marks the cell failed (not reclaimed —
        # a deterministic error would fail identically when re-leased).
        store = RunStore(tmp_path / "store")
        assert "toy=a" in store and "toy=boom" not in store
        kinds = [event["event"]
                 for event in LeaseJournal(tmp_path / "store").read()]
        assert "failed" in kinds and "reclaim" not in kinds
        status = read_status(tmp_path / "store")
        assert status["failed"] == 1
