"""Cell leases and the on-disk lease journal.

The serve daemon owns a :class:`LeaseTable`: every pending cell is *leased* to
exactly one worker at a time, the lease carries a TTL that worker heartbeats
renew, and a lease whose TTL lapses (or whose worker process dies) is
*reclaimed* so the cell can be re-leased to a healthy worker.  The table is
the in-flight dedupe: a key with an active lease cannot be granted again, and
a result arriving for a lease the worker no longer holds (it was presumed dead
and its cell re-leased) is rejected as stale — the first accepted result wins.

Every transition is appended to ``leases.jsonl`` next to the store's
``records.jsonl`` (the :class:`LeaseJournal`).  The journal is the daemon's
*live status surface*: ``python -m repro status <store>`` replays it — while
the daemon is still running, from another process — to show leased, completed
and failed cells, worker liveness, and throughput.  Journal events carry wall
clock times for humans; they are operational telemetry only and never touch
the rows, so determinism (serial == served, byte-identical) is unaffected.

Journal format: one JSON object per line, ``{"event": <type>, "t": <unix
time>, ...}``.  Event types written by the daemon:

``serve_start``/``serve_done``
    daemon lifecycle (experiment, cell counts, worker count, pid).
``worker_spawn``/``worker_dead``
    fleet membership (worker name, pid).
``lease``/``renew``/``complete``/``failed``/``reclaim``/``stale_result``
    per-cell lease lifecycle (cell key, worker, and for reclaims a reason:
    ``died`` or ``expired``).
``heartbeat``
    worker liveness pings (worker name, currently-leased key if any).

A torn trailing line (the daemon was killed mid-append) is ignored on
replay by the shared :func:`~repro.harness.jsonl.parse_jsonl_tolerant` rule
and cut away by the next append (:func:`repro.harness.jsonl.append`).  The
run store reads the same way but also truncates the torn line on load.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Dict, List, Optional

from repro.harness import jsonl
from repro.harness.jsonl import parse_jsonl_tolerant

__all__ = ["LEASES_FILENAME", "Lease", "LeaseJournal", "LeaseTable"]

LEASES_FILENAME = "leases.jsonl"


class LeaseJournal:
    """Append-only journal of lease events inside a run-store directory."""

    def __init__(self, store_path: str | Path,
                 clock: Callable[[], float] = time.time):
        path = Path(store_path)
        self.path = path / LEASES_FILENAME if path.is_dir() or not path.suffix else path
        self._clock = clock

    def append(self, event: str, **fields) -> Dict:
        """Append one event line (flushed and fsynced, like store puts)."""
        payload = {"event": event, "t": round(self._clock(), 3), **fields}
        self.path.parent.mkdir(parents=True, exist_ok=True)
        jsonl.append(self.path, json.dumps(payload, sort_keys=True), fsync=True)
        return payload

    def read(self) -> List[Dict]:
        """Every well-formed event, tolerating a torn trailing line.

        Tolerance is the shared :func:`~repro.harness.jsonl.parse_jsonl_tolerant`
        rule, the same one ``records.jsonl`` and ``metrics.jsonl`` readers use.
        """
        if not self.path.exists():
            return []
        payloads, _valid_bytes, _torn = parse_jsonl_tolerant(
            self.path.read_text(), source=str(self.path), label="journal line")
        return [payload for payload in payloads
                if isinstance(payload, dict) and "event" in payload]


@dataclass
class Lease:
    """One active cell lease: who holds it and when it lapses."""

    key: str
    worker: str
    ttl_s: float
    granted_t: float
    renewed_t: float

    def expires_t(self) -> float:
        return self.renewed_t + self.ttl_s

    def expired(self, now: float) -> bool:
        return now > self.expires_t()


class LeaseTable:
    """The daemon's authoritative lease state; every transition journals.

    Expiry is measured on an injectable monotonic clock (tests drive it by
    hand); the journal stamps wall time separately.  The table enforces the
    two lease invariants:

    * **in-flight dedupe** — :meth:`grant` refuses a key that is actively
      leased or already completed, so no two workers ever compute the same
      cell concurrently;
    * **first result wins** — :meth:`complete`/:meth:`fail` accept a result
      only from the worker currently holding the lease, so a worker that was
      presumed dead (its cell reclaimed and re-leased) cannot overwrite the
      re-lease's result with a stale one.
    """

    def __init__(self, journal: Optional[LeaseJournal] = None, ttl_s: float = 10.0,
                 clock: Callable[[], float] = time.monotonic):
        self.ttl_s = float(ttl_s)
        self._journal = journal
        self._clock = clock
        self._leases: Dict[str, Lease] = {}
        self._completed: Dict[str, str] = {}   # key -> worker that finished it
        self._failed: Dict[str, str] = {}      # key -> error string
        self._grants: Dict[str, int] = {}

    # ------------------------------------------------------------------ #
    def _log(self, event: str, **fields) -> None:
        if self._journal is not None:
            self._journal.append(event, **fields)

    # ------------------------------------------------------------------ #
    def grant(self, key: str, worker: str) -> Optional[Lease]:
        """Lease ``key`` to ``worker``; None if the key is leased or done."""
        if key in self._leases or key in self._completed:
            return None
        now = self._clock()
        lease = Lease(key=key, worker=worker, ttl_s=self.ttl_s,
                      granted_t=now, renewed_t=now)
        self._leases[key] = lease
        self._grants[key] = self._grants.get(key, 0) + 1
        self._log("lease", key=key, worker=worker, ttl_s=self.ttl_s,
                  grant=self._grants[key])
        return lease

    def renew(self, key: str, worker: str) -> bool:
        """Heartbeat renewal: push the lease's expiry out by one TTL."""
        lease = self._leases.get(key)
        if lease is None or lease.worker != worker:
            return False
        lease.renewed_t = self._clock()
        return True

    def complete(self, key: str, worker: str) -> bool:
        """Accept a finished cell iff ``worker`` still holds its lease."""
        lease = self._leases.get(key)
        if lease is None or lease.worker != worker:
            self._log("stale_result", key=key, worker=worker)
            return False
        del self._leases[key]
        self._completed[key] = worker
        self._log("complete", key=key, worker=worker)
        return True

    def fail(self, key: str, worker: str, error: str) -> bool:
        """Record a cell whose computation raised (deterministic failure)."""
        lease = self._leases.get(key)
        if lease is None or lease.worker != worker:
            self._log("stale_result", key=key, worker=worker)
            return False
        del self._leases[key]
        self._failed[key] = error
        self._log("failed", key=key, worker=worker, error=error)
        return True

    def fail_unleased(self, key: str, error: str) -> None:
        """Mark a never-again-leasable cell failed (e.g. lease-limit hit)."""
        self._failed[key] = error
        self._log("failed", key=key, worker="", error=error)

    # ------------------------------------------------------------------ #
    def expired(self) -> List[Lease]:
        """Active leases whose TTL has lapsed (missed heartbeats)."""
        now = self._clock()
        return [lease for lease in self._leases.values() if lease.expired(now)]

    def reclaim(self, key: str, reason: str) -> Optional[Lease]:
        """Take back an active lease so the cell can be re-leased."""
        lease = self._leases.pop(key, None)
        if lease is not None:
            self._log("reclaim", key=key, worker=lease.worker, reason=reason)
        return lease

    def release_worker(self, worker: str, reason: str) -> List[Lease]:
        """Reclaim every lease a (dead) worker holds."""
        held = [lease for lease in self._leases.values() if lease.worker == worker]
        return [self.reclaim(lease.key, reason) for lease in held]

    # ------------------------------------------------------------------ #
    def grants(self, key: str) -> int:
        """How many times this cell has been leased (1 + reclaim count)."""
        return self._grants.get(key, 0)

    @property
    def active(self) -> Dict[str, Lease]:
        return dict(self._leases)

    @property
    def completed(self) -> Dict[str, str]:
        return dict(self._completed)

    @property
    def failed(self) -> Dict[str, str]:
        return dict(self._failed)
