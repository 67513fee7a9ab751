"""Promotion of shrunk counterexamples into a replayable regression store.

A counterexample store is a directory holding two files:

``counterexamples.jsonl``
    One JSON line per promoted counterexample: a short content id (digest of
    the shrunk cell key), the objective and threshold it violates, the score,
    the scenario spec, the full :func:`~repro.falsify.scenario.task_to_json`
    replay payload, and the shrink provenance.  Append-only and id-deduped,
    so re-running a campaign promotes each distinct cell once.

``records.jsonl``
    A plain :class:`~repro.harness.store.RunStore` holding the shrunk cells'
    rows — which is what lets ``benchjson --store-diff`` gate a committed
    golden counterexample store exactly like the other golden stores.

``python -m repro falsify --check [DIR]`` replays every promoted cell from
its task payload (:func:`check_counterexamples`) and passes only when the
objective is *still* violated and the fresh row is byte-identical to the
stored one — the regression gate that keeps found-and-fixed bugs fixed and
keeps still-open counterexamples honest.
"""

from __future__ import annotations

import json
from hashlib import sha256
from pathlib import Path
from typing import Dict, List, Optional

from repro.falsify.objective import Objective, resolve_objective
from repro.falsify.scenario import task_from_json, task_to_json
from repro.harness import jsonl
from repro.harness.jsonl import parse_jsonl_tolerant
from repro.harness.parallel import ExperimentTask, ParallelRunner, run_task
from repro.harness.registry import pretrain_models
from repro.harness.store import RunRecord, RunStore, canonical_json, current_commit

__all__ = [
    "COUNTEREXAMPLES_FILENAME",
    "DEFAULT_COUNTEREXAMPLES_DIR",
    "check_counterexamples",
    "counterexample_id",
    "load_counterexamples",
    "promote_counterexample",
]

COUNTEREXAMPLES_FILENAME = "counterexamples.jsonl"

#: Where ``python -m repro falsify --check`` looks when given no directory.
DEFAULT_COUNTEREXAMPLES_DIR = Path("counterexamples")


def counterexample_id(key: str) -> str:
    """A short stable content id for one counterexample (digest of its cell key)."""
    return sha256(key.encode("utf-8")).hexdigest()[:12]


def load_counterexamples(path: str | Path) -> List[Dict]:
    """Every promoted counterexample entry, in promotion order (id-deduped).

    A torn final line is skipped by the shared
    :func:`~repro.harness.jsonl.parse_jsonl_tolerant` rule; an entry without
    one of the fields a replay needs raises."""
    path = Path(path)
    entries_path = path / COUNTEREXAMPLES_FILENAME if path.is_dir() else path
    if not entries_path.exists():
        return []
    parsed, _valid_bytes, _torn = parse_jsonl_tolerant(
        entries_path.read_text(), source=str(entries_path),
        label="counterexample entry")
    entries: List[Dict] = []
    seen = set()
    for number, entry in enumerate(parsed, start=1):
        for required in ("id", "key", "objective", "threshold", "task"):
            if not isinstance(entry, dict) or required not in entry:
                raise ValueError(f"{entries_path}: counterexample entry {number} "
                                 f"is missing {required!r}")
        if entry["id"] not in seen:
            seen.add(entry["id"])
            entries.append(entry)
    return entries


def promote_counterexample(path: str | Path, task: ExperimentTask, row: Dict, *,
                           experiment: str, objective: Objective, score: float,
                           source: Optional[Dict] = None) -> Dict:
    """Promote one shrunk counterexample into the regression store at ``path``.

    Idempotent per cell: an id already promoted is not re-appended (and its
    stored row is left untouched), so repeated campaigns — including the
    byte-identical replays the determinism tests run — converge to one entry
    per distinct counterexample.  Returns the entry (existing or fresh).
    """
    path = Path(path)
    path.mkdir(parents=True, exist_ok=True)
    key = task.cell_key()
    entry = {
        "id": counterexample_id(key),
        "experiment": experiment,
        "objective": objective.name,
        "threshold": objective.threshold,
        "score": float(score),
        "key": key,
        "scenario": task.scenario().key(),
        "spec": task.scenario().to_json(),
        "task": task_to_json(task),
        "source": dict(source or {}),
        "commit": current_commit(),
    }
    entry = canonical_json(entry)
    existing = {existing_entry["id"]: existing_entry
                for existing_entry in load_counterexamples(path)}
    if entry["id"] in existing:
        return existing[entry["id"]]
    jsonl.append(path / COUNTEREXAMPLES_FILENAME, json.dumps(entry, sort_keys=True),
                 fsync=True)
    store = RunStore(path)
    if key not in store:
        store.put(RunRecord.for_task(task, row, experiment=f"falsify:{experiment}",
                                     producer="falsify-promote"))
    return entry


def check_counterexamples(path: str | Path, jobs: int = 1) -> Dict:
    """Replay every promoted counterexample; the ``falsify --check`` gate.

    Each entry's task payload is rebuilt and re-run; it passes only when the
    objective is still violated (the counterexample is still real — a fix
    that heals it should retire the entry deliberately, not silently) *and*
    the fresh row matches the stored record byte-for-byte (the same
    exactness bar as the committed golden stores).  An empty or missing
    store passes trivially with zero results.
    """
    path = Path(path)
    entries = load_counterexamples(path)
    if not entries:
        return {"path": str(path), "results": [], "passed": True}
    tasks = [task_from_json(entry["task"]) for entry in entries]
    pretrain_models(tasks)
    stored = RunStore(path).load()
    rows = ParallelRunner(jobs).map(run_task, tasks)
    results = []
    for entry, task, row in zip(entries, tasks, rows):
        objective = resolve_objective(entry["objective"],
                                      threshold=entry["threshold"])
        row = canonical_json(row)
        score = objective(row)
        still_violated = objective.violated(row)
        record = stored.get(entry["key"])
        row_matches = record is not None and record.row == row
        results.append({
            "id": entry["id"],
            "objective": entry["objective"],
            "key": entry["key"],
            "score": score,
            "threshold": entry["threshold"],
            "still_violated": still_violated,
            "row_matches": row_matches,
            "passed": still_violated and row_matches,
        })
    return {"path": str(path), "results": results,
            "passed": all(result["passed"] for result in results)}
