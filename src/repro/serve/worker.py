"""The serve worker process: compute leased cells, heartbeat, hand rows back.

A worker is deliberately dumb: it owns no shared state and writes no files.
It pulls ``(index, key, task)`` messages off its private task queue, computes
the row with the experiment's runner (the same module-level function the
process pool uses, so rows are byte-identical by construction), and sends the
row back to the daemon over the shared message queue.  The daemon is the only
process that touches ``records.jsonl`` and ``leases.jsonl`` — the
single-writer invariant the run store already relies on.

Liveness is proven by a daemon-thread that pings ``("heartbeat", name, key)``
every ``heartbeat_s`` seconds *while a cell is computing* — that is the whole
point of heartbeats: a worker grinding through a long cell renews its lease,
a SIGKILLed or wedged worker stops renewing and its lease is reclaimed.

With ``metrics_interval`` set the worker also streams observability: it
activates a process-wide :class:`~repro.telemetry.profiler.TickProfiler`
(every simulator the runner builds attaches to it) and a second daemon-thread
pushes cumulative :mod:`~repro.obs.metrics` frames on that interval — plus
one frame after every completed cell, so even sub-interval grids stream.
Frames ride the same message queue and the daemon journals them; nothing a
worker measures ever touches a row.

``chaos_kill_after=n`` makes the worker SIGKILL itself upon receiving its
``n``-th cell — after the lease is granted, before the row exists.  That is
the deterministic stand-in for "kill -9 a worker mid-cell" used by the CI
serve-smoke job and the recovery tests.

Message protocol (worker → daemon), all tuples ``(kind, worker, key, payload)``:

``("ready", name, None, None)``
    sent once at startup; the daemon starts leasing cells to the worker.
``("heartbeat", name, key_or_None, None)``
    periodic liveness ping carrying the currently-leased key, if any.
``("result", name, key, row)``
    one computed row; also marks the worker idle for the next lease.
``("error", name, key, message)``
    the runner raised; the cell is marked failed (a deterministic error
    would fail identically under a serial run, so it is not re-leased).
``("metrics", name, key_or_None, frame)``
    one cumulative metric frame; the daemon appends it to ``metrics.jsonl``.
"""

from __future__ import annotations

import os
import signal
import threading
from typing import Callable, Optional

from repro.telemetry import log

__all__ = ["worker_main"]


def worker_main(name: str, runner: Callable, task_queue, message_queue,
                heartbeat_s: float = 1.0,
                chaos_kill_after: Optional[int] = None,
                metrics_interval: Optional[float] = None) -> None:
    """Run one worker until the daemon sends the ``None`` sentinel."""
    current = {"key": None}
    stop = threading.Event()

    def _beat() -> None:
        while not stop.wait(heartbeat_s):
            try:
                message_queue.put(("heartbeat", name, current["key"], None))
            except (OSError, ValueError):  # daemon gone / queue closed
                return

    heartbeat = threading.Thread(target=_beat, name=f"{name}-heartbeat", daemon=True)
    heartbeat.start()

    sampler = None
    if metrics_interval is not None and metrics_interval > 0:
        # Local import: the worker stays importable without the obs plane.
        from repro.obs.metrics import MetricsSampler
        from repro.telemetry.profiler import TickProfiler, activate_profiler

        sampler = MetricsSampler(name, profiler=activate_profiler(TickProfiler()))

        def _push_frame() -> None:
            try:
                message_queue.put(("metrics", name, current["key"],
                                   sampler.sample(current_key=current["key"])))
            except (OSError, ValueError):  # daemon gone / queue closed
                pass

        def _sample_beat() -> None:
            while not stop.wait(metrics_interval):
                _push_frame()

        threading.Thread(target=_sample_beat, name=f"{name}-metrics",
                         daemon=True).start()

    message_queue.put(("ready", name, None, None))

    received = 0
    while True:
        item = task_queue.get()
        if item is None:
            break
        _index, key, task = item
        received += 1
        if chaos_kill_after is not None and received >= chaos_kill_after:
            # Die mid-cell: the lease is held, the row does not exist yet.
            # SIGKILL (not an exception) so no cleanup runs — exactly what a
            # kill -9 / OOM-kill looks like to the daemon.
            os.kill(os.getpid(), signal.SIGKILL)
        current["key"] = key
        try:
            row = runner(task)
        except Exception as exc:  # noqa: BLE001 - forwarded to the daemon verbatim
            log.exception("cell_failed", logger="serve", worker=name, key=key)
            message_queue.put(("error", name, key, f"{type(exc).__name__}: {exc}"))
        else:
            if sampler is not None:
                sampler.note_cell_done(row)
            message_queue.put(("result", name, key, row))
            if sampler is not None:
                _push_frame()  # a frame per cell: short grids still stream
        current["key"] = None
    stop.set()
    if sampler is not None:
        _push_frame()  # final totals before exit
