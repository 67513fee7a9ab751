"""The lease-based experiment scheduler daemon.

``python -m repro serve <experiment> --store DIR --workers N`` expands a
registry experiment (the same :meth:`~repro.harness.registry.ExperimentRegistry.plan`
the in-process runner uses) into a work queue of cells layered on a
:class:`~repro.harness.store.RunStore`, leases cells to worker processes with
heartbeat-renewed TTLs (:mod:`repro.serve.lease`), and streams each completed
:class:`~repro.harness.store.RunRecord` into the store as it lands.

Fault model — workers are disposable, the daemon is the kernel:

* a worker that dies mid-cell (kill -9, OOM) stops heartbeating; its process
  is detected dead, its leases are **reclaimed**, the cells go back to the
  front of the queue, and a replacement worker is spawned to keep the fleet
  at ``N``;
* a worker that is alive but wedged misses its TTL; the daemon SIGKILLs it
  (a half-dead worker must not race the re-lease) and the same reclaim path
  runs;
* a cell that gets reclaimed ``max_leases`` times is marked failed rather
  than looping forever;
* a cell whose runner *raises* is a deterministic failure (it would fail
  identically under a serial run) — recorded, surfaced in ``repro status``,
  never re-leased.

Determinism contract: the daemon computes rows with the experiment's own
module-level runner, canonicalizes them through JSON exactly like
:meth:`ExperimentRegistry.run`, stores them under the same cell keys, and
aggregates through the same :meth:`ExperimentRegistry.finalize` — so
serial == pooled == served == resumed, byte-identical rows
(``benchjson --store-diff`` over a served and a serial store reports zero
differing cells, which CI enforces).

Only the daemon writes ``records.jsonl`` and ``leases.jsonl``; workers hand
rows back over a queue (the store's single-writer invariant).  The daemon
also points ``REPRO_MODEL_ZOO`` at ``<store>/zoo`` (unless already set)
before any training, so the whole fleet — including workers respawned after
a crash, and any later serial comparison run pointed at the same zoo —
shares one trained model per cache key.
"""

from __future__ import annotations

import multiprocessing
import os
import queue as queue_module
import time
from collections import deque
from pathlib import Path
from typing import Dict, List, Optional

from repro.harness.models import ZOO_ENV
from repro.harness.registry import REGISTRY, pretrain_models
from repro.harness.store import RunRecord, RunStore, canonical_json
from repro.serve.lease import LeaseJournal, LeaseTable
from repro.serve.worker import worker_main
from repro.telemetry import log

__all__ = ["serve_experiment"]

#: How many times a cell may be leased before it is declared failed.
DEFAULT_MAX_LEASES = 3


class _Fleet:
    """The daemon's view of its worker processes."""

    def __init__(self, ctx, messages, runner, heartbeat_s: float,
                 journal: LeaseJournal,
                 metrics_interval: Optional[float] = None):
        self._ctx = ctx
        self._messages = messages
        self._runner = runner
        self._heartbeat_s = heartbeat_s
        self._journal = journal
        self._metrics_interval = metrics_interval
        self._next_id = 0
        self.workers: Dict[str, Dict] = {}

    def spawn(self, chaos_kill_after: Optional[int] = None) -> str:
        name = f"w{self._next_id}"
        self._next_id += 1
        task_queue = self._ctx.Queue()
        process = self._ctx.Process(
            target=worker_main,
            args=(name, self._runner, task_queue, self._messages,
                  self._heartbeat_s, chaos_kill_after, self._metrics_interval),
            name=f"repro-serve-{name}",
            daemon=True,
        )
        process.start()
        self.workers[name] = {"process": process, "queue": task_queue,
                              "idle": False}
        self._journal.append("worker_spawn", worker=name, pid=process.pid,
                             chaos=chaos_kill_after)
        return name

    def dead(self) -> List[str]:
        return [name for name, state in self.workers.items()
                if not state["process"].is_alive()]

    def kill(self, name: str) -> None:
        state = self.workers.get(name)
        if state is not None and state["process"].is_alive():
            state["process"].kill()

    def remove(self, name: str) -> None:
        state = self.workers.pop(name, None)
        if state is not None:
            self._journal.append("worker_dead", worker=name,
                                 pid=state["process"].pid)

    def shutdown(self) -> None:
        for state in self.workers.values():
            try:
                state["queue"].put(None)
            except (OSError, ValueError):
                pass
        for state in self.workers.values():
            state["process"].join(timeout=2.0)
            if state["process"].is_alive():
                state["process"].kill()
                state["process"].join(timeout=2.0)


#: Default worker metric-frame sampling interval (seconds); 0/None disables.
DEFAULT_METRICS_INTERVAL = 1.0


def serve_experiment(name: str, overrides: Optional[Dict] = None,
                     store: RunStore | str | Path = None, workers: int = 2,
                     ttl_s: float = 10.0, heartbeat_s: Optional[float] = None,
                     resume: bool = True, chaos_kill: Optional[int] = None,
                     max_leases: int = DEFAULT_MAX_LEASES,
                     poll_s: float = 0.05,
                     timeout_s: Optional[float] = 900.0,
                     metrics_interval: Optional[float] = DEFAULT_METRICS_INTERVAL,
                     http_port: Optional[int] = None) -> Dict:
    """Serve one experiment grid across a crash-surviving worker fleet.

    Returns the same aggregated result dict as
    :meth:`ExperimentRegistry.run`, extended with serve accounting:
    ``served_cells``, ``reclaims``, ``workers`` and ``cells_per_sec``.

    Args:
        name: Registered experiment name.
        overrides: Axis overrides (same shapes as ``REGISTRY.run``).
        store: Run-store directory (or an open :class:`RunStore`).  Required —
            the store is the work queue's durable side.
        workers: Fleet size.  ``0`` computes cells inline in the daemon
            process (lease bookkeeping still runs; useful where fork is
            unavailable).
        ttl_s: Lease TTL; a lease not renewed for this long is reclaimed.
        heartbeat_s: Worker heartbeat period (default ``ttl_s / 4``).
        resume: Serve only cells missing from the store (default True — the
            daemon's whole point is durable incremental progress).
        chaos_kill: Fault injection — the *first* worker SIGKILLs itself upon
            receiving its ``chaos_kill``-th cell, mid-cell.  CI uses this to
            prove the reclaim path; replacement workers are spawned clean.
        max_leases: Reclaim budget per cell before it is marked failed.
        poll_s: Daemon message-loop poll interval.
        timeout_s: Overall wall-clock guard; the daemon kills the fleet and
            raises if the sweep has not completed in time (None disables).
        metrics_interval: Worker metric-frame sampling period (seconds); the
            daemon appends frames to ``metrics.jsonl`` next to the lease
            journal.  ``0``/``None`` turns the metrics stream off.  Frames
            are wall-clock observability only — rows stay byte-identical to
            a serial run either way.
        http_port: Start the observability HTTP surface (``/status``,
            ``/metrics``, ``/cells/<key>``) on this port for the duration of
            the serve (``0`` picks a free port; ``None`` disables).
    """
    if store is None:
        raise ValueError("serve_experiment requires a store directory")
    store = store if isinstance(store, RunStore) else RunStore(store)
    # One shared model zoo per store unless the caller pinned one: the parent
    # trains (publishing checkpoints), every worker — even one spawned after
    # a crash, in any process — loads instead of retraining.
    os.environ.setdefault(ZOO_ENV, str(store.path / "zoo"))

    plan = REGISTRY.plan(name, overrides)
    keys = plan.keys
    cached: Dict[str, Dict] = {}
    if resume:
        records = store.load()
        cached = {key: records[key].row for key in keys if key in records}
    pending = deque((index, task) for index, task in enumerate(plan.tasks)
                    if keys[index] not in cached)
    rows: List[Optional[Dict]] = [cached.get(key) for key in keys]
    by_key = {keys[index]: (index, task) for index, task in enumerate(plan.tasks)}

    journal = LeaseJournal(store.path)
    journal.append("serve_start", experiment=name, cells=len(plan.tasks),
                   cached=len(cached), pending=len(pending), workers=workers,
                   ttl_s=ttl_s, pid=os.getpid())
    log.info("serve_start", logger="serve", experiment=name,
             cells=len(plan.tasks), cached=len(cached), pending=len(pending),
             workers=workers)

    # Observability rides next to the lease loop, never inside the row path:
    # the metrics journal is append-only wall-clock data, and the HTTP surface
    # replays on-disk journals per request (no channel into this process).
    metrics_journal = None
    if metrics_interval is not None and metrics_interval > 0:
        from repro.obs.metrics import MetricsJournal

        metrics_journal = MetricsJournal(store.path)
    obs_server = None
    if http_port is not None:
        from repro.obs.http import ObsServer

        obs_server = ObsServer(store.path, port=http_port).start()

    if pending:
        if plan.experiment.setup is not None:
            plan.experiment.setup(plan.axes)
        pretrain_models([task for _, task in pending])

    heartbeat_s = heartbeat_s if heartbeat_s is not None else max(ttl_s / 4.0, 0.05)
    table = LeaseTable(journal, ttl_s=ttl_s)
    reclaims = 0
    start = time.perf_counter()

    def _finish_row(worker_name: str, key: str, row: Dict) -> None:
        index, task = by_key[key]
        row = canonical_json(row)
        rows[index] = row
        store.put(RunRecord.for_task(task, row, experiment=name,
                                     producer=f"serve:{worker_name}"))
        log.debug("cell_done", logger="serve", experiment=name, key=key,
                  worker=worker_name)

    def _requeue(key: str) -> None:
        nonlocal reclaims
        reclaims += 1
        if table.grants(key) >= max_leases:
            table.fail_unleased(
                key, f"lease limit reached ({max_leases} grants); cell keeps "
                     f"killing or outliving its workers")
            return
        pending.appendleft(by_key[key])

    n_to_serve = len(pending)
    try:
        if workers <= 0 or n_to_serve == 0:
            _serve_inline(plan, table, pending, keys, _finish_row,
                          metrics_journal=metrics_journal)
        else:
            _serve_fleet(plan, table, journal, pending, keys, by_key,
                         _finish_row, _requeue, workers=workers,
                         heartbeat_s=heartbeat_s, chaos_kill=chaos_kill,
                         poll_s=poll_s, timeout_s=timeout_s,
                         n_to_serve=n_to_serve,
                         metrics_journal=metrics_journal,
                         metrics_interval=metrics_interval)

        wall_clock_s = time.perf_counter() - start
        failed = table.failed
        served = len(table.completed)
        cells_per_sec = served / wall_clock_s if wall_clock_s > 0 else 0.0
        journal.append("serve_done", experiment=name, completed=served,
                       failed=len(failed), reclaims=reclaims,
                       wall_clock_s=round(wall_clock_s, 3))
        log.info("serve_done", logger="serve", experiment=name, completed=served,
                 failed=len(failed), reclaims=reclaims, wall_clock_s=wall_clock_s)
        if failed:
            details = "; ".join(f"{key}: {error}" for key, error in failed.items())
            raise RuntimeError(
                f"serve {name!r}: {len(failed)} cell(s) failed — {details}")
    finally:
        if obs_server is not None:
            obs_server.close()

    result = REGISTRY.finalize(plan, rows, wall_clock_s, n_jobs=max(workers, 1),
                               n_cached=len(cached))
    result["served_cells"] = served
    result["reclaims"] = reclaims
    result["workers"] = workers
    result["cells_per_sec"] = cells_per_sec
    result["metrics_frames"] = (metrics_journal.appended
                                if metrics_journal is not None else 0)
    result["http_port"] = obs_server.port if obs_server is not None else None
    return result


def _serve_inline(plan, table: LeaseTable, pending, keys, finish_row,
                  metrics_journal=None) -> None:
    """Inline mode: same lease bookkeeping, no processes.

    Used where fork is unavailable and for fully-cached resumes (nothing to
    serve).  With metrics on, the daemon process itself profiles and streams
    frames as the single "inline" worker.
    """
    sampler = None
    if metrics_journal is not None:
        from repro.obs.metrics import MetricsSampler
        from repro.telemetry.profiler import (TickProfiler, activate_profiler,
                                              deactivate_profiler)

        sampler = MetricsSampler("inline", profiler=activate_profiler(TickProfiler()))
    try:
        while pending:
            index, task = pending.popleft()
            key = keys[index]
            if table.grant(key, "inline") is None:
                continue
            try:
                row = plan.experiment.runner(task)
            except Exception as exc:  # noqa: BLE001 - recorded, surfaced by caller
                log.exception("cell_failed", logger="serve", worker="inline", key=key)
                table.fail(key, "inline", f"{type(exc).__name__}: {exc}")
                continue
            table.complete(key, "inline")
            finish_row("inline", key, row)
            if sampler is not None:
                sampler.note_cell_done(row)
                metrics_journal.append(sampler.sample(current_key=key))
    finally:
        if sampler is not None:
            deactivate_profiler()


def _serve_fleet(plan, table: LeaseTable, journal: LeaseJournal, pending,
                 keys, by_key, finish_row, requeue, *, workers: int,
                 heartbeat_s: float, chaos_kill: Optional[int],
                 poll_s: float, timeout_s: Optional[float],
                 n_to_serve: int, metrics_journal=None,
                 metrics_interval: Optional[float] = None) -> None:
    """The daemon main loop: lease, collect, sweep, reclaim, respawn."""
    if "fork" in multiprocessing.get_all_start_methods():
        ctx = multiprocessing.get_context("fork")
    else:  # pragma: no cover - non-POSIX fallback
        ctx = multiprocessing.get_context()
    messages = ctx.Queue()
    fleet = _Fleet(ctx, messages, plan.experiment.runner, heartbeat_s, journal,
                   metrics_interval=metrics_interval
                   if metrics_journal is not None else None)

    deadline = (time.monotonic() + timeout_s) if timeout_s else None
    try:
        for worker_index in range(workers):
            # Chaos is armed on the first worker only; its replacement (and
            # the rest of the fleet) run clean.
            fleet.spawn(chaos_kill_after=chaos_kill if worker_index == 0 else None)

        while len(table.completed) + len(table.failed) < n_to_serve:
            if deadline is not None and time.monotonic() > deadline:
                raise TimeoutError(
                    f"serve {plan.experiment.name!r}: fleet did not finish "
                    f"within {timeout_s}s "
                    f"({len(table.completed)}/{n_to_serve} cells done)")
            try:
                kind, worker_name, key, payload = messages.get(timeout=poll_s)
            except queue_module.Empty:
                kind = None
            if kind is not None:
                state = fleet.workers.get(worker_name)
                if kind == "ready" and state is not None:
                    state["idle"] = True
                elif kind == "heartbeat":
                    journal.append("heartbeat", worker=worker_name, key=key)
                    if key is not None:
                        table.renew(key, worker_name)
                elif kind == "result":
                    if table.complete(key, worker_name):
                        finish_row(worker_name, key, payload)
                    if state is not None:
                        state["idle"] = True
                elif kind == "error":
                    table.fail(key, worker_name, payload)
                    if state is not None:
                        state["idle"] = True
                elif kind == "metrics":
                    # The daemon is the single writer of everything in the
                    # store directory, metrics.jsonl included.
                    if metrics_journal is not None and isinstance(payload, dict):
                        metrics_journal.append(payload)

            # Reclaim leases whose worker stopped renewing (wedged or half
            # dead): SIGKILL the holder first so it cannot race the re-lease,
            # then let the death sweep below requeue and respawn.
            for lease in table.expired():
                log.warn("lease_expired", logger="serve", key=lease.key,
                         worker=lease.worker)
                fleet.kill(lease.worker)
                reclaimed = table.reclaim(lease.key, reason="expired")
                if reclaimed is not None:
                    requeue(lease.key)

            # Death sweep: reclaim a dead worker's remaining leases, requeue
            # its cells, respawn a clean replacement to keep the fleet at N.
            for worker_name in fleet.dead():
                for lease in table.release_worker(worker_name, reason="died"):
                    requeue(lease.key)
                fleet.remove(worker_name)
                if len(table.completed) + len(table.failed) + len(table.active) \
                        < n_to_serve or pending:
                    fleet.spawn()

            # Lease next cells to idle workers (dedupe enforced by the table).
            for worker_name, state in fleet.workers.items():
                if not state["idle"] or not pending:
                    continue
                index, task = pending.popleft()
                key = keys[index]
                lease = table.grant(key, worker_name)
                if lease is None:
                    continue  # completed or re-leased elsewhere meanwhile
                try:
                    state["queue"].put((index, key, task))
                except (OSError, ValueError):
                    table.reclaim(key, reason="died")
                    requeue(key)
                    continue
                state["idle"] = False
    finally:
        fleet.shutdown()
