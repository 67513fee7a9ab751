"""Resumable run storage: one provenance-stamped record per completed cell.

A sweep that dies 80% through (preempted CI runner, OOM-killed pool, laptop
lid) should not have to recompute its first 80%.  :class:`RunStore` makes
every grid resumable by writing one :class:`RunRecord` — the full
:class:`~repro.harness.spec.ScenarioSpec`, the repository commit, the derived
per-hop RNG seeds, and the metrics row — to an append-only
``records.jsonl`` as each cell completes.  On ``--resume`` the registry skips
cells whose key is already present, and because every row (fresh or cached)
is canonicalized through JSON, serial, sharded, and interrupted-then-resumed
runs produce byte-identical rows.

The store is also the one result shape the reporting layers read:
:mod:`repro.harness.benchjson` flattens store records into canonical
``BENCH_ci.json`` rows, and :func:`RunStore.rows` feeds
:func:`repro.harness.reporting.format_rows` directly.

Records are validated against :data:`RUN_RECORD_SCHEMA` (a minimal JSON-schema
subset checked by :func:`validate_schema` — no external dependency), which CI
uses to schema-check both run stores and the canonical bench JSON::

    python -m repro.harness.store runs/topology_sweep

Records carry a ``schema_version``; readers reject any other version with a
pointed error, and stores written by an older checkout are upgraded in place
with::

    python -m repro.harness.store migrate runs/topology_sweep

Stores also accumulate observability artifacts (raw event traces inside rows,
``metrics.jsonl`` next to the records); ``python -m repro.harness.store
compact <store>`` applies a declared retention policy to them (see
:mod:`repro.obs.retention`) without ever touching the canonical ``tele_*``
summaries.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
from dataclasses import dataclass, field
from functools import lru_cache
from hashlib import sha256
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Sequence

from repro.harness import jsonl
from repro.harness.jsonl import parse_jsonl_tolerant
from repro.telemetry.log import console

__all__ = [
    "RUN_RECORD_SCHEMA",
    "RunRecord",
    "RunStore",
    "SchemaVersionError",
    "canonical_json",
    "check_schema_version",
    "current_commit",
    "migrate_payload",
    "migrate_store",
    "parse_records",
    "record_line",
    "validate_schema",
    "main",
]

#: Version history:
#:   v1 — PR 4 original shape (key/experiment/commit/spec/hop_seeds/row).
#:   v2 — adds ``producer`` provenance ("serial", "pool", "serve:<worker>",
#:        or "unknown" for migrated v1 records).
SCHEMA_VERSION = 2
RECORDS_FILENAME = "records.jsonl"

#: The schema every RunRecord (one line of ``records.jsonl``) must satisfy.
RUN_RECORD_SCHEMA = {
    "type": "object",
    "required": ["schema_version", "key", "experiment", "commit", "producer",
                 "spec", "hop_seeds", "row"],
    "properties": {
        "schema_version": {"type": "integer"},
        "key": {"type": "string", "minLength": 1},
        "experiment": {"type": "string"},
        "commit": {"type": "string", "minLength": 1},
        "producer": {"type": "string", "minLength": 1},
        "spec": {"type": ["object", "null"]},
        "hop_seeds": {"type": "object", "values": {"type": "integer"}},
        "row": {"type": "object"},
    },
}


class SchemaVersionError(ValueError):
    """A record's ``schema_version`` is not the one this checkout writes.

    Raised *before* field-level schema validation so the error says how to fix
    the mismatch (migrate the store, or update the checkout) rather than
    complaining about a missing field the old version never had.  Never
    swallowed by the torn-tail tolerance in :func:`parse_records` — a whole
    store of old records must not silently load as empty.
    """

_TYPE_CHECKS = {
    "object": lambda value: isinstance(value, dict),
    "array": lambda value: isinstance(value, list),
    "string": lambda value: isinstance(value, str),
    "integer": lambda value: isinstance(value, int) and not isinstance(value, bool),
    "number": lambda value: isinstance(value, (int, float)) and not isinstance(value, bool),
    "boolean": lambda value: isinstance(value, bool),
    "null": lambda value: value is None,
}


def validate_schema(obj: object, schema: Dict, path: str = "$") -> None:
    """Check ``obj`` against a minimal JSON-schema subset; raise ``ValueError``.

    Supports ``type`` (name or list of names), ``required``, ``properties``,
    ``items``, ``values`` (schema applied to every dict value) and
    ``minLength`` — exactly what :data:`RUN_RECORD_SCHEMA` and the bench
    payload schema need, with no external dependency.
    """
    expected = schema.get("type")
    if expected is not None:
        names = [expected] if isinstance(expected, str) else list(expected)
        if not any(_TYPE_CHECKS[name](obj) for name in names):
            raise ValueError(f"{path}: expected {' or '.join(names)}, "
                             f"got {type(obj).__name__} ({obj!r:.80})")
    if isinstance(obj, str) and "minLength" in schema and len(obj) < schema["minLength"]:
        raise ValueError(f"{path}: string shorter than {schema['minLength']}")
    if isinstance(obj, dict):
        for name in schema.get("required", ()):
            if name not in obj:
                raise ValueError(f"{path}: missing required key {name!r}")
        for name, subschema in schema.get("properties", {}).items():
            if name in obj:
                validate_schema(obj[name], subschema, f"{path}.{name}")
        if "values" in schema:
            for name, value in obj.items():
                validate_schema(value, schema["values"], f"{path}.{name}")
    if isinstance(obj, list) and "items" in schema:
        for index, item in enumerate(obj):
            validate_schema(item, schema["items"], f"{path}[{index}]")


def canonical_json(obj):
    """Round-trip a value through JSON so fresh and cached rows are identical.

    Tuples become lists and non-string dict keys become strings — exactly the
    normalization a cached row undergoes — so comparing a freshly-computed row
    with its stored copy is byte-exact.
    """
    return json.loads(json.dumps(obj))


@lru_cache(maxsize=1)
def current_commit() -> str:
    """The commit stamped into records: ``GITHUB_SHA``, ``git rev-parse``, or ``unknown``."""
    sha = os.environ.get("GITHUB_SHA")
    if sha:
        return sha
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True,
                             text=True, timeout=10, cwd=Path(__file__).parent)
        if out.returncode == 0 and out.stdout.strip():
            return out.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    return "unknown"


def fingerprint(payload: Dict) -> str:
    """A short stable digest of the run-time knobs that are not spec identity."""
    canonical = json.dumps(payload, sort_keys=True, default=repr)
    return sha256(canonical.encode("utf-8")).hexdigest()[:12]


def check_schema_version(payload: Dict) -> None:
    """Reject any record version this checkout does not write, pointedly.

    Version problems get their own error class and message — "run the migrate
    subcommand" for an old store, "update the checkout" for a newer one —
    instead of a generic missing-field complaint from the schema validator.
    """
    version = payload.get("schema_version") if isinstance(payload, dict) else None
    if not isinstance(version, int) or isinstance(version, bool):
        return  # let validate_schema produce the field-level error
    if version < SCHEMA_VERSION:
        raise SchemaVersionError(
            f"record schema v{version} predates this checkout's v{SCHEMA_VERSION}; "
            f"upgrade the store in place with "
            f"`python -m repro.harness.store migrate <store>`")
    if version > SCHEMA_VERSION:
        raise SchemaVersionError(
            f"record schema v{version} is newer than this checkout's "
            f"v{SCHEMA_VERSION}; this store was written by a newer repro — "
            f"update the checkout to read it")


# ---------------------------------------------------------------------- #
# RunRecord
# ---------------------------------------------------------------------- #
@dataclass
class RunRecord:
    """One completed cell: spec identity, provenance, and its metrics row."""

    key: str
    row: Dict
    experiment: str = ""
    spec: Optional[Dict] = None
    hop_seeds: Dict[str, int] = field(default_factory=dict)
    commit: str = field(default_factory=current_commit)
    producer: str = "unknown"
    schema_version: int = SCHEMA_VERSION

    @classmethod
    def for_task(cls, task, row: Dict, experiment: str = "",
                 producer: str = "unknown") -> "RunRecord":
        """Build the record for one completed
        :class:`~repro.harness.parallel.ExperimentTask`, stamped with its
        scenario spec and per-hop seeds."""
        # Local import: families is a topology-layer module, and the store
        # stays importable without it.
        from repro.topology.families import topology_hop_seeds

        scenario = task.scenario()
        return cls(key=task.cell_key(), row=canonical_json(row), experiment=experiment,
                   spec=scenario.to_json(),
                   hop_seeds=topology_hop_seeds(scenario.topology, scenario.trace,
                                                scenario.seed),
                   producer=producer)

    def to_json(self) -> Dict:
        return {
            "schema_version": self.schema_version,
            "key": self.key,
            "experiment": self.experiment,
            "commit": self.commit,
            "producer": self.producer,
            "spec": self.spec,
            "hop_seeds": self.hop_seeds,
            "row": self.row,
        }

    @classmethod
    def from_json(cls, payload: Dict) -> "RunRecord":
        check_schema_version(payload)
        validate_schema(payload, RUN_RECORD_SCHEMA)
        return cls(key=payload["key"], row=payload["row"], experiment=payload["experiment"],
                   spec=payload["spec"], hop_seeds=payload["hop_seeds"],
                   commit=payload["commit"], producer=payload["producer"],
                   schema_version=payload["schema_version"])

    def validate(self) -> None:
        validate_schema(self.to_json(), RUN_RECORD_SCHEMA)


def record_line(payload: Dict) -> str:
    """One ``records.jsonl`` line, without the newline.  Keys keep their
    order, so a resumed row prints its columns in the fresh row's order;
    older stores, written with sorted keys, load to equal records."""
    return json.dumps(payload)


# ---------------------------------------------------------------------- #
# Record-file parsing (shared by RunStore.load and the validation CLI)
# ---------------------------------------------------------------------- #
def parse_records(text: str, source: str = "records") -> tuple:
    """Parse a ``records.jsonl`` body into ``(records, valid_bytes, torn)``.

    ``records`` maps key → last :class:`RunRecord`; ``valid_bytes`` is the
    byte length of the well-formed prefix.  Torn-tail tolerance is the shared
    :func:`~repro.harness.jsonl.parse_jsonl_tolerant` rule: a malformed chunk
    is tolerated only when no newline follows it (``torn=True`` — the torn
    tail of an interrupted append); malformed content anywhere else, a
    complete last line included, raises.  A :class:`SchemaVersionError`
    always raises, even on the final line — a store full of old-version
    records must surface the migrate hint, not quietly load as empty and
    truncate the file.
    """
    parsed, valid_bytes, torn = parse_jsonl_tolerant(
        text, source=source, parse=RunRecord.from_json,
        intolerant=(SchemaVersionError,), label="run record")
    records: Dict[str, RunRecord] = {}
    for record in parsed:
        records[record.key] = record
    return records, valid_bytes, torn


# ---------------------------------------------------------------------- #
# RunStore
# ---------------------------------------------------------------------- #
class RunStore:
    """An append-only on-disk store of :class:`RunRecord`\\ s.

    The store is a directory holding one ``records.jsonl``; :meth:`put`
    appends, flushes and fsyncs one line per completed cell, so an
    interrupted sweep keeps everything finished before the interruption.
    Re-putting a key is allowed (the reconciling serial retry of a broken
    pool re-emits rows); :meth:`load` keeps the *last* record per key.  Only
    the coordinating parent process writes — workers hand rows back over the
    pool — so no cross-process locking is needed.
    """

    def __init__(self, path: str | Path):
        self.path = Path(path)
        self.path.mkdir(parents=True, exist_ok=True)
        self.records_path = self.path / RECORDS_FILENAME
        self._records: Dict[str, RunRecord] = {}
        self._loaded = False

    # ------------------------------------------------------------------ #
    def load(self) -> Dict[str, RunRecord]:
        """Read (and cache) every record on disk, last record per key winning.

        A malformed chunk after the last newline is a torn append from a
        hard kill (SIGKILL / OOM mid-flush) — exactly the interruption the
        store exists to survive — so it is dropped and the file truncated
        back to the valid prefix, so that the file holds what was loaded even
        when no put follows (a put repairs a torn tail on its own, through
        :func:`repro.harness.jsonl.append`).  Malformed lines anywhere else,
        a complete newline-terminated last line included, mean real
        corruption and still raise.
        """
        if not self._loaded:
            self._records = {}
            if self.records_path.exists():
                records, valid_bytes, torn = parse_records(
                    self.records_path.read_text(), source=str(self.records_path))
                if torn:
                    with self.records_path.open("r+") as handle:
                        handle.truncate(valid_bytes)
                self._records = records
            self._loaded = True
        return dict(self._records)

    def get(self, key: str) -> Optional[RunRecord]:
        return self.load().get(key)

    def put(self, record: RunRecord) -> None:
        record.validate()
        self.load()
        jsonl.append(self.records_path, record_line(record.to_json()), fsync=True)
        self._records[record.key] = record

    # ------------------------------------------------------------------ #
    def __len__(self) -> int:
        return len(self.load())

    def __contains__(self, key: str) -> bool:
        return key in self.load()

    def keys(self) -> List[str]:
        return list(self.load())

    def records(self) -> List[RunRecord]:
        """Every (deduplicated) record in first-seen key order."""
        return list(self.load().values())

    def rows(self) -> List[Dict]:
        """The metrics rows of every record (reporting/benchjson input)."""
        return [record.row for record in self.records()]


# ---------------------------------------------------------------------- #
# Store migration (the `migrate` subcommand)
# ---------------------------------------------------------------------- #
def migrate_payload(payload: Dict) -> Dict:
    """Upgrade one raw record payload from any known older version.

    Returns a new payload at :data:`SCHEMA_VERSION`; already-current payloads
    come back unchanged (migration is idempotent).  Raises
    :class:`SchemaVersionError` for versions newer than this checkout and
    ``ValueError`` for payloads with no integer ``schema_version`` at all.
    """
    version = payload.get("schema_version") if isinstance(payload, dict) else None
    if not isinstance(version, int) or isinstance(version, bool):
        raise ValueError("payload has no integer schema_version; not a run record")
    if version > SCHEMA_VERSION:
        check_schema_version(payload)  # raises the pointed "newer" error
    upgraded = dict(payload)
    if version < 2:
        # v1 records predate producer provenance; "unknown" marks the gap
        # honestly rather than guessing serial vs pool after the fact.
        upgraded.setdefault("producer", "unknown")
    upgraded["schema_version"] = SCHEMA_VERSION
    return upgraded


def migrate_store(path: str | Path) -> tuple:
    """Upgrade every record in a store to :data:`SCHEMA_VERSION`, in place.

    Returns ``(n_records, n_upgraded, torn)``.  The rewrite is atomic
    (tmp file + ``os.replace``), preserves line order, and — like
    :meth:`RunStore.load` — drops a torn trailing chunk from an interrupted
    append.  Every rewritten line is validated against the current schema
    before the original file is replaced.
    """
    path = Path(path)
    records_path = path / RECORDS_FILENAME if path.is_dir() else path
    if not records_path.exists():
        raise FileNotFoundError(f"{records_path}: missing")
    lines = records_path.read_text().split("\n")
    out_lines: List[str] = []
    upgraded = 0
    torn = False
    for line_number, line in enumerate(lines, start=1):
        stripped = line.strip()
        if not stripped:
            continue
        try:
            payload = json.loads(stripped)
        except json.JSONDecodeError as exc:
            if line_number == len(lines):
                torn = True
                break
            raise ValueError(
                f"{records_path}:{line_number}: invalid JSON: {exc}") from exc
        was_current = isinstance(payload, dict) and \
            payload.get("schema_version") == SCHEMA_VERSION
        try:
            migrated = migrate_payload(payload)
            RunRecord.from_json(migrated)
        except ValueError as exc:
            raise ValueError(f"{records_path}:{line_number}: {exc}") from exc
        upgraded += not was_current
        out_lines.append(record_line(migrated))
    tmp_path = records_path.with_name(records_path.name + ".migrate-tmp")
    tmp_path.write_text("".join(line + "\n" for line in out_lines))
    os.replace(tmp_path, records_path)
    return len(out_lines), upgraded, torn


# ---------------------------------------------------------------------- #
# CLI — schema validation (used by the CI resume smoke job) + migrate
# ---------------------------------------------------------------------- #
def _iter_record_files(paths: Sequence[str]) -> Iterable[Path]:
    for raw in paths:
        path = Path(raw)
        yield path / RECORDS_FILENAME if path.is_dir() else path


def _main_migrate(argv: Sequence[str]) -> int:
    parser = argparse.ArgumentParser(
        prog="repro.harness.store migrate",
        description="upgrade run-store records to the current schema version, in place",
    )
    parser.add_argument("paths", nargs="+",
                        help="run-store directories or records.jsonl files")
    args = parser.parse_args(list(argv))

    status = 0
    for path in _iter_record_files(args.paths):
        try:
            total, upgraded, torn = migrate_store(path)
        except (FileNotFoundError, ValueError) as exc:
            console(f"{path}: MIGRATION FAILED: {exc}")
            status = 1
            continue
        if torn:
            console(f"{path}: torn trailing line (interrupted append) dropped")
        console(f"{path}: {total} records at schema v{SCHEMA_VERSION} "
                f"({upgraded} upgraded)")
    return status


def main(argv: Optional[Sequence[str]] = None) -> int:
    argv = list(argv) if argv is not None else sys.argv[1:]
    # `migrate`/`compact` dispatch as leading subcommands so the original
    # positional validate usage (`python -m repro.harness.store <store>...`)
    # is unchanged.
    if argv[:1] == ["migrate"]:
        return _main_migrate(argv[1:])
    if argv[:1] == ["compact"]:
        # Local import: retention lives in the observability plane, and the
        # store must stay importable without it.
        from repro.obs.retention import main_compact

        return main_compact(argv[1:])
    parser = argparse.ArgumentParser(
        prog="repro.harness.store",
        description="validate run-store records against the RunRecord schema "
                    "(`migrate <store>...` upgrades old stores in place; "
                    "`compact <store>` applies an observability retention "
                    "policy)",
    )
    parser.add_argument("paths", nargs="+",
                        help="run-store directories or records.jsonl files")
    args = parser.parse_args(argv)

    status = 0
    for path in _iter_record_files(args.paths):
        if not path.exists():
            console(f"{path}: missing")
            status = 1
            continue
        try:
            by_key, _valid_bytes, torn = parse_records(path.read_text(), source=str(path))
        except ValueError as exc:
            console(f"{path}: INVALID: {exc}")
            status = 1
            continue
        records = list(by_key.values())
        if not records:
            console(f"{path}: empty")
            status = 1
            continue
        if torn:
            console(f"{path}: torn trailing line (interrupted append) ignored")
        console(f"{path}: {len(records)} valid records "
                f"({sum(1 for r in records if r.spec is not None)} with scenario specs)")
    return status


if __name__ == "__main__":  # pragma: no cover - exercised via tests calling main()
    raise SystemExit(main())
