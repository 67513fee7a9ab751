"""Store compaction: declared, auditable retention for observability bulk.

A long-lived store accumulates two kinds of observability weight: raw
``telemetry_events`` lists inside rows (the per-cell event traces of ISSUE 7)
and the metric-frame stream in ``metrics.jsonl``.  ``python -m
repro.harness.store compact <store>`` shrinks both under a declared
:class:`RetentionPolicy`, with two hard guarantees:

* **summaries are forever** — a compacted row keeps every ``tele_*`` scalar
  (the canonical summary the bench/report layers read); only the raw event
  list is dropped, and the row gets ``telemetry_events_dropped: true`` so the
  gap is explicit rather than silent;
* **counterexamples are pinned** — a cell referenced by a promoted
  counterexample store (``counterexamples.jsonl``) keeps its raw trace
  regardless of age or budget, because falsify's regression replay is exactly
  the consumer that may need it later.

Old metric frames are not deleted either: frames older than the per-worker
``keep_frames`` window fold into one ``"kind": "rollup"`` segment per worker
carrying the same cumulative counters plus the segment's p50/p99 phase
latencies, so aggregation keeps working over the downsampled file.

Every compaction appends one audit line to ``compactions.jsonl`` (what policy
ran, what was dropped, byte counts before/after) — retention is a recorded
decision, not a quiet loss.  Rewrites are atomic (tmp file + ``os.replace``,
the :func:`~repro.harness.store.migrate_store` pattern) and every rewritten
record is schema-validated before the original file is replaced.
"""

from __future__ import annotations

import argparse
import json
import os
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Set, Tuple

from repro.harness import jsonl
from repro.harness.store import RECORDS_FILENAME, RunRecord, parse_records, record_line
from repro.obs.aggregate import percentile
from repro.obs.metrics import METRICS_FILENAME, MetricsJournal
from repro.telemetry.log import console
from repro.telemetry.profiler import TICK_PHASES

__all__ = [
    "COMPACTIONS_FILENAME",
    "RetentionPolicy",
    "compact_store",
    "counterexample_keys",
    "main_compact",
]

COMPACTIONS_FILENAME = "compactions.jsonl"


@dataclass(frozen=True)
class RetentionPolicy:
    """What a compaction keeps.  ``None`` means "leave that artifact alone".

    Args:
        keep_traces: Keep raw event traces only on the newest N traced
            records (file order; re-put records count at their last
            position).  Older traces drop to their ``tele_*`` summaries.
        max_trace_bytes: After ``keep_traces``, keep dropping the oldest
            remaining traces until the serialized trace bytes fit the
            budget.  Protected traces never drop, even over budget.
        keep_frames: Raw metric frames kept per worker; older frames fold
            into one rollup segment per worker.
        protect_keys: Extra cell keys whose traces are pinned (on top of
            counterexample-referenced ones).
    """

    keep_traces: Optional[int] = None
    max_trace_bytes: Optional[int] = None
    keep_frames: Optional[int] = None
    protect_keys: Tuple[str, ...] = field(default_factory=tuple)

    def to_json(self) -> Dict:
        return {"keep_traces": self.keep_traces,
                "max_trace_bytes": self.max_trace_bytes,
                "keep_frames": self.keep_frames,
                "protect_keys": list(self.protect_keys)}


def counterexample_keys(counterexamples_dir: str | Path) -> Set[str]:
    """Cell keys referenced by a promoted counterexample store (if present)."""
    path = Path(counterexamples_dir)
    if not path.exists():
        return set()
    # Local import: falsify is a higher layer; compaction only needs it when
    # a counterexample store actually exists.
    from repro.falsify.promote import load_counterexamples

    return {entry["key"] for entry in load_counterexamples(path) if "key" in entry}


# ---------------------------------------------------------------------- #
# Records pass: drop raw traces, keep tele_* summaries
# ---------------------------------------------------------------------- #
def _trace_bytes(row: Dict) -> int:
    events = row.get("telemetry_events")
    if not isinstance(events, list) or not events:
        return 0
    return len(json.dumps(events, sort_keys=True).encode("utf-8"))


def _compact_records(records_path: Path, policy: RetentionPolicy,
                     protected: Set[str]) -> Dict:
    by_key, _valid_bytes, torn = parse_records(records_path.read_text(),
                                               source=str(records_path))
    ordered = list(by_key.values())  # file order, last record per key
    traced = [record for record in ordered if _trace_bytes(record.row) > 0]
    droppable = [record for record in traced if record.key not in protected]

    drop: Set[str] = set()
    if policy.keep_traces is not None and len(droppable) > policy.keep_traces:
        cut = len(droppable) - policy.keep_traces
        drop.update(record.key for record in droppable[:cut])
    if policy.max_trace_bytes is not None:
        kept = [record for record in traced if record.key not in drop]
        budget = sum(_trace_bytes(record.row) for record in kept)
        for record in kept:  # oldest first
            if budget <= policy.max_trace_bytes:
                break
            if record.key in protected:
                continue
            drop.add(record.key)
            budget -= _trace_bytes(record.row)

    bytes_dropped = 0
    out_lines: List[str] = []
    for record in ordered:
        payload = record.to_json()
        if record.key in drop:
            bytes_dropped += _trace_bytes(payload["row"])
            row = dict(payload["row"])
            row.pop("telemetry_events", None)
            row["telemetry_events_dropped"] = True
            payload["row"] = row
        RunRecord.from_json(payload)  # never replace the file with bad lines
        out_lines.append(record_line(payload))
    tmp_path = records_path.with_name(records_path.name + ".compact-tmp")
    tmp_path.write_text("".join(line + "\n" for line in out_lines))
    os.replace(tmp_path, records_path)
    return {
        "records": len(ordered),
        "traced": len(traced),
        "traces_dropped": len(drop),
        "traces_kept": len(traced) - len(drop),
        "trace_bytes_dropped": bytes_dropped,
        "protected_kept": sum(1 for record in traced if record.key in protected),
        "torn_tail_dropped": torn,
    }


# ---------------------------------------------------------------------- #
# Metrics pass: fold old frames into per-worker rollup segments
# ---------------------------------------------------------------------- #
def _fold_segment(worker: str, segment: List[Dict]) -> Dict:
    """One rollup line standing in for a worker's folded-away frames."""
    last = segment[-1]
    frames = sum(int(item.get("frames", 1)) if item.get("kind") == "rollup" else 1
                 for item in segment)
    ticks = [int(item.get("ticks", 0)) for item in segment]
    phases = [item.get("phase_seconds") or {} for item in segment]
    latency_ms: Dict[str, Dict[str, float]] = {}
    for phase in TICK_PHASES:
        samples: List[float] = []
        prev_ticks, prev_seconds = 0, 0.0
        for tick_count, phase_seconds in zip(ticks, phases):
            delta_ticks = tick_count - prev_ticks
            delta_s = float(phase_seconds.get(phase, 0.0)) - prev_seconds
            if delta_ticks > 0 and delta_s >= 0.0:
                samples.append(delta_s / delta_ticks)
            prev_ticks = tick_count
            prev_seconds = float(phase_seconds.get(phase, 0.0))
        latency_ms[phase] = {"p50": percentile(samples, 50) * 1e3,
                             "p99": percentile(samples, 99) * 1e3,
                             "n": len(samples)}
    times = [float(item["t"]) for item in segment
             if isinstance(item.get("t"), (int, float))]
    return {
        "v": int(last.get("v", 1)),
        "kind": "rollup",
        "worker": worker,
        "seq": int(last.get("seq_last", last.get("seq", 0))),
        "seq_last": int(last.get("seq_last", last.get("seq", 0))),
        "frames": frames,
        "t": round(max(times), 3) if times else 0.0,
        "t_first": round(min(times), 3) if times else 0.0,
        "uptime_s": last.get("uptime_s", 0.0),
        "cells_done": int(last.get("cells_done", 0)),
        "ticks": int(last.get("ticks", 0)),
        "sim_wall_s": float(last.get("sim_wall_s", 0.0)),
        "phase_seconds": dict(last.get("phase_seconds") or {}),
        "telemetry_events": int(last.get("telemetry_events", 0)),
        "phase_latency_ms": latency_ms,
    }


def _compact_metrics(metrics_path: Path, keep_frames: int) -> Dict:
    journal = MetricsJournal(metrics_path)
    items = journal.read()
    by_worker: Dict[str, List[Dict]] = {}
    for item in items:
        worker = item.get("worker")
        if isinstance(worker, str) and worker:
            by_worker.setdefault(worker, []).append(item)

    out_lines: List[str] = []
    frames_folded = 0
    for worker in sorted(by_worker):
        history = by_worker[worker]
        raw = [item for item in history if item.get("kind") != "rollup"]
        if len(raw) > keep_frames:
            kept = raw[len(raw) - keep_frames:] if keep_frames else []
            fold = [item for item in history if item not in kept]
            frames_folded += len([item for item in fold
                                  if item.get("kind") != "rollup"])
            out_lines.append(json.dumps(_fold_segment(worker, fold),
                                        sort_keys=True))
        else:
            kept = raw
            # Pre-existing rollup segments pass through untouched.
            out_lines.extend(json.dumps(item, sort_keys=True) for item in history
                             if item.get("kind") == "rollup")
        out_lines.extend(json.dumps(item, sort_keys=True) for item in kept)
    tmp_path = metrics_path.with_name(metrics_path.name + ".compact-tmp")
    tmp_path.write_text("".join(line + "\n" for line in out_lines))
    os.replace(tmp_path, metrics_path)
    return {"frames_folded": frames_folded,
            "workers": len(by_worker),
            "lines_after": len(out_lines)}


# ---------------------------------------------------------------------- #
# The compaction entry point
# ---------------------------------------------------------------------- #
def compact_store(store_path: str | Path, policy: RetentionPolicy,
                  counterexamples: Optional[str | Path] = None,
                  clock=time.time) -> Dict:
    """Apply ``policy`` to one store; returns (and journals) the audit report.

    ``counterexamples`` points at a promoted counterexample store whose
    referenced cells are pinned; it defaults to ``<store>/counterexamples``
    and is simply empty-protection when absent.
    """
    store_path = Path(store_path)
    records_path = store_path / RECORDS_FILENAME
    metrics_path = store_path / METRICS_FILENAME
    if counterexamples is None:
        counterexamples = store_path / "counterexamples"
    protected = counterexample_keys(counterexamples) | set(policy.protect_keys)

    report: Dict = {"event": "compact", "t": round(clock(), 3),
                    "store": str(store_path), "policy": policy.to_json(),
                    "protected_keys": len(protected)}

    if records_path.exists() and (policy.keep_traces is not None
                                  or policy.max_trace_bytes is not None):
        before = records_path.stat().st_size
        report.update(_compact_records(records_path, policy, protected))
        report["records_bytes_before"] = before
        report["records_bytes_after"] = records_path.stat().st_size

    if metrics_path.exists() and policy.keep_frames is not None:
        before = metrics_path.stat().st_size
        report.update(_compact_metrics(metrics_path, policy.keep_frames))
        report["metrics_bytes_before"] = before
        report["metrics_bytes_after"] = metrics_path.stat().st_size

    bytes_before = (report.get("records_bytes_before", 0)
                    + report.get("metrics_bytes_before", 0))
    bytes_after = (report.get("records_bytes_after", 0)
                   + report.get("metrics_bytes_after", 0))
    report["compaction_ratio"] = (bytes_after / bytes_before
                                  if bytes_before > 0 else 1.0)

    # The audit line is the durable half of compaction: fsync like the lease
    # journal, so "what did we drop, when, under which policy" survives.
    jsonl.append(store_path / COMPACTIONS_FILENAME,
                 json.dumps(report, sort_keys=True), fsync=True)
    return report


# ---------------------------------------------------------------------- #
# CLI — `python -m repro.harness.store compact <store> ...`
# ---------------------------------------------------------------------- #
def main_compact(argv: Sequence[str]) -> int:
    parser = argparse.ArgumentParser(
        prog="repro.harness.store compact",
        description="apply a retention policy to a store's observability "
                    "artifacts (raw event traces, metric frames); tele_* "
                    "summaries and counterexample-referenced traces always "
                    "survive")
    parser.add_argument("store", help="run-store directory")
    parser.add_argument("--keep-traces", type=int, default=None, metavar="N",
                        help="keep raw event traces on only the newest N records")
    parser.add_argument("--max-trace-bytes", type=int, default=None, metavar="B",
                        help="drop oldest raw traces until they fit B bytes")
    parser.add_argument("--keep-frames", type=int, default=None, metavar="N",
                        help="keep N raw metric frames per worker; fold the "
                             "rest into rollup segments")
    parser.add_argument("--counterexamples", default=None, metavar="DIR",
                        help="counterexample store whose cells are pinned "
                             "(default: <store>/counterexamples)")
    parser.add_argument("--protect", action="append", default=[], metavar="KEY",
                        help="pin one cell key's trace (repeatable)")
    args = parser.parse_args(list(argv))

    if (args.keep_traces is None and args.max_trace_bytes is None
            and args.keep_frames is None):
        parser.error("nothing to do: give at least one of --keep-traces, "
                     "--max-trace-bytes, --keep-frames")
    policy = RetentionPolicy(keep_traces=args.keep_traces,
                             max_trace_bytes=args.max_trace_bytes,
                             keep_frames=args.keep_frames,
                             protect_keys=tuple(args.protect))
    try:
        report = compact_store(args.store, policy,
                               counterexamples=args.counterexamples)
    except (FileNotFoundError, ValueError) as exc:
        console(f"{args.store}: COMPACTION FAILED: {exc}")
        return 1
    console(f"{args.store}: compacted "
            f"(traces dropped: {report.get('traces_dropped', 0)}, "
            f"frames folded: {report.get('frames_folded', 0)}, "
            f"protected: {report.get('protected_keys', 0)}, "
            f"ratio: {report['compaction_ratio']:.3f})")
    return 0
