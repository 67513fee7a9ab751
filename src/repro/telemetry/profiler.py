"""Wall-clock per-phase tick timing, reported separately from sim events.

:class:`TickProfiler` answers "where does a tick's wall-clock go?" — cross
traffic injection, sender enqueue, transit arrivals, hop draining, ack/event
processing — without touching the deterministic event trace: profiler numbers
are wall-clock (``time.perf_counter``), so they never enter rows that must be
byte-identical across serial/sharded/resumed runs.  Its consumers:

* ``python -m repro run --profile`` (one profiler per cell through
  :func:`repro.harness.parallel.run_profiled`, printed as a phase table);
* serve workers and the inline serve loop, whose metric frames carry the
  phase seconds (:class:`repro.obs.metrics.MetricsSampler`);
* perfbench's traced runs (``perfbench/run.py --trace 1``, the
  ``cc.phase.*_s`` metrics);
* ``benchmarks/bench_topology_sweep.py``, which reports the traced vs.
  untraced tick rate and its phase split.

Usage (what :meth:`NetworkSimulator.tick <repro.cc.netsim.NetworkSimulator.tick>`
does when a profiler is attached)::

    profiler.begin()          # tick starts
    ...inject phase...
    profiler.mark("inject")   # charge elapsed-since-last-mark to "inject"
    ...enqueue phase...
    profiler.mark("enqueue")
    ...
    profiler.add("transit", seconds)   # explicit charge inside a loop
    profiler.finish()         # tick done

The phase vocabulary is fixed (:data:`TICK_PHASES`) so reports line up across
runs and machines.
"""

from __future__ import annotations

from time import perf_counter
from typing import Dict, Optional

__all__ = [
    "TICK_PHASES",
    "TickProfiler",
    "activate_profiler",
    "active_profiler",
    "deactivate_profiler",
]

#: The per-tick phases of the simulator hot path, in execution order.
TICK_PHASES = ("inject", "enqueue", "transit", "drain", "acks")


class TickProfiler:
    """Accumulates wall-clock seconds per simulator tick phase."""

    def __init__(self) -> None:
        self.phase_seconds: Dict[str, float] = {phase: 0.0 for phase in TICK_PHASES}
        self.ticks = 0
        self.total_seconds = 0.0
        self._tick_start = 0.0
        self._last_mark = 0.0

    # ------------------------------------------------------------------ #
    def begin(self) -> None:
        """Start timing one tick."""
        self._tick_start = self._last_mark = perf_counter()

    def mark(self, phase: str) -> None:
        """Charge the wall-clock since the previous mark to ``phase``."""
        now = perf_counter()
        self.phase_seconds[phase] += now - self._last_mark
        self._last_mark = now

    def add(self, phase: str, seconds: float) -> None:
        """Explicitly charge ``seconds`` to ``phase`` (inner-loop timing).

        The charged span is *excluded* from the next :meth:`mark`'s window by
        shifting the mark origin, so a span timed inside a phase is not
        double-counted by the surrounding mark.
        """
        self.phase_seconds[phase] += seconds
        self._last_mark += seconds

    def finish(self) -> None:
        """End one tick (counts it and its total wall-clock)."""
        self.ticks += 1
        self.total_seconds += perf_counter() - self._tick_start

    # ------------------------------------------------------------------ #
    def report(self) -> Dict[str, float]:
        """Per-phase seconds/fractions plus tick throughput, one flat dict."""
        report: Dict[str, float] = {
            "ticks": float(self.ticks),
            "total_seconds": self.total_seconds,
            "ticks_per_sec": (self.ticks / self.total_seconds
                              if self.total_seconds > 0 else 0.0),
        }
        charged = sum(self.phase_seconds.values())
        for phase in TICK_PHASES:
            seconds = self.phase_seconds[phase]
            report[f"{phase}_s"] = seconds
            report[f"{phase}_frac"] = seconds / charged if charged > 0 else 0.0
        return report


# ---------------------------------------------------------------------- #
# The process-wide active profiler
# ---------------------------------------------------------------------- #
# The evaluation layer sits many call frames above simulator construction, so
# threading a profiler argument through every path would touch each driver.
# Instead the harness activates one profiler per process (serve workers and
# --profile pool workers do this right after fork) and
# :func:`~repro.harness.evaluate.run_scheme_on_trace` attaches whatever is
# active to each simulator it builds.  Profiler numbers stay wall-clock-only
# observability: activating one never changes rows or cell keys.
_ACTIVE_PROFILER: Optional[TickProfiler] = None


def activate_profiler(profiler: TickProfiler) -> TickProfiler:
    """Make ``profiler`` the process-wide profiler new simulators attach to."""
    global _ACTIVE_PROFILER
    _ACTIVE_PROFILER = profiler
    return profiler


def deactivate_profiler() -> None:
    """Clear the process-wide profiler (new simulators run unprofiled)."""
    global _ACTIVE_PROFILER
    _ACTIVE_PROFILER = None


def active_profiler() -> Optional[TickProfiler]:
    """The process-wide profiler, or ``None`` when profiling is off."""
    return _ACTIVE_PROFILER
