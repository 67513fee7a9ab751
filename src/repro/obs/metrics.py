"""Metric frames: the unit of the fleet's live metrics stream.

A *frame* is one worker's cumulative-counter snapshot at a wall-clock
instant: cells completed, simulator ticks, per-phase
:class:`~repro.telemetry.profiler.TickProfiler` seconds, and telemetry-event
counts.  Counters are cumulative since worker start (never deltas), so a
dropped frame loses resolution, not information — the aggregation layer
(:mod:`repro.obs.aggregate`) recovers rates and latencies from consecutive
snapshots.

Workers push frames over the existing worker→daemon message queue as
``("metrics", worker, key, frame)`` tuples — at a configurable interval
*and* after every completed cell, so even sub-interval grids stream.  The
daemon (the store's single writer) appends them to ``metrics.jsonl`` next to
the lease journal; ``run --profile`` appends the same frames from the
coordinating parent.  Frames are observability, not results: appends flush
but do not fsync (a lost tail costs a chart point, not a row).  The
reader tolerates a torn tail via the shared
:func:`~repro.harness.jsonl.parse_jsonl_tolerant` rule, and the next append
cuts it away, exactly like ``records.jsonl`` and ``leases.jsonl``.

After compaction (:mod:`repro.obs.retention`) the file may also hold
``"kind": "rollup"`` lines — downsampled segments standing in for folded-away
raw frames; they carry the same cumulative counters so aggregation treats
them as a baseline snapshot.
"""

from __future__ import annotations

import itertools
import json
import time
from pathlib import Path
from typing import Callable, Dict, List, Optional

from repro.harness import jsonl
from repro.harness.jsonl import parse_jsonl_tolerant
from repro.harness.store import validate_schema
from repro.telemetry.profiler import TICK_PHASES, TickProfiler

__all__ = [
    "FRAME_VERSION",
    "METRIC_FRAME_SCHEMA",
    "METRICS_FILENAME",
    "MetricsJournal",
    "MetricsSampler",
    "validate_frame",
]

METRICS_FILENAME = "metrics.jsonl"

#: Frame schema version (bumped on incompatible frame shape changes).
FRAME_VERSION = 1

#: The schema every raw metric frame must satisfy (rollup lines add fields
#: on top of the same counter core; see :mod:`repro.obs.retention`).
METRIC_FRAME_SCHEMA = {
    "type": "object",
    "required": ["v", "kind", "worker", "seq", "t", "uptime_s", "cells_done",
                 "ticks", "sim_wall_s", "phase_seconds", "telemetry_events"],
    "properties": {
        "v": {"type": "integer"},
        "kind": {"type": "string", "minLength": 1},
        "worker": {"type": "string", "minLength": 1},
        "seq": {"type": "integer"},
        "t": {"type": "number"},
        "uptime_s": {"type": "number"},
        "cells_done": {"type": "integer"},
        "ticks": {"type": "integer"},
        "sim_wall_s": {"type": "number"},
        "phase_seconds": {"type": "object", "values": {"type": "number"}},
        "telemetry_events": {"type": "integer"},
        "current_key": {"type": ["string", "null"]},
    },
}


def validate_frame(frame: Dict) -> None:
    """Schema-check one metric frame; raises ``ValueError`` on mismatch."""
    validate_schema(frame, METRIC_FRAME_SCHEMA, path="frame")


class MetricsSampler:
    """One worker's cumulative counters, snapshotted into frames.

    With a live ``profiler`` (the serve-worker case) tick counters are read
    straight from it at sample time; without one (the ``run --profile``
    parent, which receives per-cell reports back over the pool) counters
    accumulate via :meth:`absorb_report`.  ``sample`` is safe to call from
    the worker's interval thread and its main loop concurrently — counters
    are monotone and ``seq`` comes from an atomic counter.
    """

    def __init__(self, worker: str, profiler: Optional[TickProfiler] = None,
                 clock: Callable[[], float] = time.time):
        self.worker = worker
        self.profiler = profiler
        self._clock = clock
        self._started = clock()
        self._seq = itertools.count()
        self._cells = 0
        self._events = 0
        self._ticks = 0
        self._sim_wall = 0.0
        self._phase = {phase: 0.0 for phase in TICK_PHASES}

    # ------------------------------------------------------------------ #
    def note_cell_done(self, row: Optional[Dict] = None) -> None:
        """Count one completed cell (and its telemetry events, if any)."""
        self._cells += 1
        if isinstance(row, dict):
            events = row.get("telemetry_events")
            if isinstance(events, (list, tuple)):
                self._events += len(events)
            elif isinstance(row.get("tele_n_events"), (int, float)):
                self._events += int(row["tele_n_events"])

    def absorb_report(self, report: Dict) -> None:
        """Fold one per-cell :meth:`TickProfiler.report` into the counters."""
        self._ticks += int(report.get("ticks", 0))
        self._sim_wall += float(report.get("total_seconds", 0.0))
        for phase in TICK_PHASES:
            self._phase[phase] += float(report.get(f"{phase}_s", 0.0))

    # ------------------------------------------------------------------ #
    def sample(self, current_key: Optional[str] = None) -> Dict:
        """One frame: the counters as of now, cumulative since worker start."""
        profiler = self.profiler
        if profiler is not None:
            ticks = profiler.ticks
            sim_wall = profiler.total_seconds
            phase = dict(profiler.phase_seconds)
        else:
            ticks, sim_wall, phase = self._ticks, self._sim_wall, dict(self._phase)
        now = self._clock()
        return {
            "v": FRAME_VERSION,
            "kind": "frame",
            "worker": self.worker,
            "seq": next(self._seq),
            "t": round(now, 3),
            "uptime_s": round(now - self._started, 3),
            "cells_done": self._cells,
            "ticks": int(ticks),
            "sim_wall_s": sim_wall,
            "phase_seconds": phase,
            "telemetry_events": self._events,
            "current_key": current_key,
        }


class MetricsJournal:
    """Append/read ``metrics.jsonl`` inside a run-store directory.

    Appends flush but do not fsync: frames are lossy observability.  A torn
    tail from a hard kill is skipped on read and cut away by the next append
    (:func:`repro.harness.jsonl.append`); it is never fatal.  Only the
    store's single writer (the daemon, or the ``run`` parent) appends; any
    process may read.
    """

    def __init__(self, store_path: str | Path):
        path = Path(store_path)
        self.path = path / METRICS_FILENAME if path.is_dir() or not path.suffix else path
        self.appended = 0

    def append(self, frame: Dict) -> Dict:
        validate_frame(frame)
        self.path.parent.mkdir(parents=True, exist_ok=True)
        jsonl.append(self.path, json.dumps(frame, sort_keys=True), fsync=False)
        self.appended += 1
        return frame

    def read(self) -> List[Dict]:
        """Every well-formed frame/rollup line, tolerating a torn tail."""
        if not self.path.exists():
            return []
        payloads, _valid_bytes, _torn = parse_jsonl_tolerant(
            self.path.read_text(), source=str(self.path), label="metric frame")
        return [payload for payload in payloads if isinstance(payload, dict)]
