"""Span recording for the traced run, bound from outside ``src/repro``.

The benchmark measures the program only through its public functions: the
traced run replaces a fixed set of module and class attributes with timing
wrappers, runs the same workload, and restores every attribute afterwards.
A wrapper returns its callee's result untouched, so traced rows pass the same
output check as untraced ones.

Each wrapper binds where the program *looks the name up*, not where it is
defined: ``propagate_mlp_batched`` is patched on :mod:`repro.core.verifier`
(which imported it by name), ``build_topology`` on the two modules that call
it, and so on.  Methods are patched on their class, so every instance, old or
new, goes through the wrapper.

A span's *busy* time is its wall time (outermost call only, when a span
nests inside itself); its *self* time is the wall time minus the time covered
by child spans.  Self times of all spans therefore partition the time covered
by root spans, and ``unattributed`` is the rest of the traced window.
"""

from __future__ import annotations

import importlib
from collections import defaultdict
from time import perf_counter
from typing import Callable, Dict, List, Optional, Tuple

__all__ = ["SPANS", "PHASES", "SpanRecorder", "Instrumentation", "layer_metrics",
           "per_layer_units"]

#: Every span the traced run reports, named ``<layer>.<operation>`` after the
#: module that owns the wrapped function.
SPANS = (
    "cc.sim_run", "cc.tick", "cc.summarize",
    "topology.build", "workload.build",
    "core.certify", "core.reward_shape",
    "abstract.ibp",
    "rl.td3_update", "rl.act", "nn.forward", "orca.env_step",
    "harness.cell", "harness.store_put", "harness.model_acquire",
)

#: The simulator tick phases (``repro.telemetry.profiler.TICK_PHASES``).
PHASES = ("inject", "enqueue", "transit", "drain", "acks")

#: (module, attribute path, span) — what the traced run wraps.  The harness
#: cell span is not listed: the grid runner is wrapped by re-registering the
#: experiment (see ``perfbench.workloads``).
TARGETS = (
    ("repro.cc.netsim", "NetworkSimulator.run", "cc.sim_run"),
    ("repro.cc.netsim", "NetworkSimulator.tick", "cc.tick"),
    ("repro.harness.evaluate", "summarize_result", "cc.summarize"),
    ("repro.harness.evaluate", "build_topology", "topology.build"),
    ("repro.orca.env", "build_topology", "topology.build"),
    ("repro.harness.evaluate", "build_workload", "workload.build"),
    ("repro.core.verifier", "Verifier.certify", "core.certify"),
    ("repro.core.reward", "CanopyRewardShaper.shape", "core.reward_shape"),
    ("repro.core.verifier", "propagate_mlp_batched", "abstract.ibp"),
    ("repro.rl.td3", "TD3Agent.update", "rl.td3_update"),
    ("repro.rl.td3", "TD3Agent.act", "rl.act"),
    ("repro.nn.layers", "Sequential.forward", "nn.forward"),
    ("repro.orca.env", "OrcaNetworkEnv.step", "orca.env_step"),
    ("repro.harness.store", "RunStore.put", "harness.store_put"),
    ("repro.harness.models", "model_for_task", "harness.model_acquire"),
    ("repro.harness.models", "get_trained_model", "harness.model_acquire"),
)


class SpanRecorder:
    """In-memory span accounting: count, busy and self seconds per span name."""

    def __init__(self) -> None:
        self.count: Dict[str, int] = defaultdict(int)
        self.busy: Dict[str, float] = defaultdict(float)
        self.self_time: Dict[str, float] = defaultdict(float)
        self.counters: Dict[str, float] = defaultdict(float)
        #: Wall time covered by spans with no parent span.
        self.root_s = 0.0
        self._stack: List[List[float]] = []
        self._depth: Dict[str, int] = defaultdict(int)

    def wrap(self, name: str, fn: Callable,
             on_result: Optional[Callable[["SpanRecorder", tuple, object], None]] = None
             ) -> Callable:
        """``fn`` timed as span ``name``; ``on_result`` may add counters."""
        stack, depth = self._stack, self._depth

        def wrapper(*args, **kwargs):
            frame = [0.0]
            stack.append(frame)
            depth[name] += 1
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = perf_counter() - start
                stack.pop()
                depth[name] -= 1
                self.count[name] += 1
                self.self_time[name] += elapsed - frame[0]
                if not depth[name]:
                    self.busy[name] += elapsed
                if stack:
                    stack[-1][0] += elapsed
                else:
                    self.root_s += elapsed
            if on_result is not None:
                on_result(self, args, result)
            return result

        return wrapper

    def counting(self, name: str, fn: Callable) -> Callable:
        """``fn`` with a call counter only (for calls too frequent to time)."""
        counters = self.counters

        def wrapper(*args, **kwargs):
            counters[name] += 1
            return fn(*args, **kwargs)

        return wrapper


def _certify_done(recorder: SpanRecorder, args: tuple, certificate) -> None:
    recorder.counters["core.certify.applicable"] += bool(certificate.applicable)


def _ibp_done(recorder: SpanRecorder, args: tuple, result) -> None:
    # propagate_mlp_batched(actor, components): one row per component.
    recorder.counters["abstract.ibp.components"] += args[1].lo.shape[0]


_ON_RESULT = {"core.certify": _certify_done, "abstract.ibp": _ibp_done}


def _resolve(module_name: str, path: str) -> Tuple[object, str]:
    owner = importlib.import_module(module_name)
    *parents, attribute = path.split(".")
    for parent in parents:
        owner = getattr(owner, parent)
    return owner, attribute


class Instrumentation:
    """Installs the traced-run wrappers and the tick-phase profiler; undoes both.

    Use as a context manager, so a failing run still restores every patched
    attribute and deactivates the process-wide profiler.
    """

    def __init__(self, recorder: SpanRecorder) -> None:
        self.recorder = recorder
        self.profiler = None
        self._saved: List[Tuple[object, str, object]] = []

    def _patch(self, owner: object, attribute: str, replacement: Callable) -> None:
        self._saved.append((owner, attribute, owner.__dict__[attribute]))
        setattr(owner, attribute, replacement)

    def __enter__(self) -> "Instrumentation":
        from repro.telemetry.profiler import TickProfiler, activate_profiler

        try:
            for module_name, path, span in TARGETS:
                owner, attribute = _resolve(module_name, path)
                self._patch(owner, attribute, self.recorder.wrap(
                    span, getattr(owner, attribute), _ON_RESULT.get(span)))
            owner, attribute = _resolve("repro.traces.trace", "BandwidthTrace.capacity_mbps")
            self._patch(owner, attribute, self.recorder.counting(
                "traces.capacity", getattr(owner, attribute)))
        except BaseException:
            self.__exit__(None, None, None)
            raise
        # Evaluation simulators attach whatever profiler is active; the
        # training environment builds its simulator without it.
        self.profiler = activate_profiler(TickProfiler())
        return self

    def __exit__(self, *exc_info) -> None:
        from repro.telemetry.profiler import deactivate_profiler

        deactivate_profiler()
        while self._saved:
            owner, attribute, original = self._saved.pop()
            setattr(owner, attribute, original)


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator > 0 else 0.0


def layer_metrics(recorder: SpanRecorder, profiler, window_s: float) -> Dict[str, float]:
    """The per-layer metric values of one traced window (names without units)."""
    metrics: Dict[str, float] = {}
    for span in SPANS:
        metrics[f"{span}.count"] = float(recorder.count.get(span, 0))
        metrics[f"{span}.busy_s"] = recorder.busy.get(span, 0.0)
        metrics[f"{span}.self_s"] = recorder.self_time.get(span, 0.0)
    metrics["cc.ticks_per_busy_s"] = _ratio(metrics["cc.tick.count"], metrics["cc.tick.busy_s"])
    phases = profiler.phase_seconds if profiler is not None else {}
    for phase in PHASES:
        metrics[f"cc.phase.{phase}_s"] = phases.get(phase, 0.0)
    metrics["traces.capacity.count"] = recorder.counters.get("traces.capacity", 0.0)
    metrics["core.certs_per_busy_s"] = _ratio(metrics["core.certify.count"],
                                              metrics["core.certify.busy_s"])
    metrics["core.certify_applicable_frac"] = _ratio(
        recorder.counters.get("core.certify.applicable", 0.0), metrics["core.certify.count"])
    metrics["abstract.ibp_components_per_busy_s"] = _ratio(
        recorder.counters.get("abstract.ibp.components", 0.0), metrics["abstract.ibp.busy_s"])
    metrics["unattributed_frac"] = max(0.0, _ratio(window_s - recorder.root_s, window_s))
    return metrics


def per_layer_units() -> Dict[str, str]:
    """Name → unit of every per-layer metric, in report order."""
    units: Dict[str, str] = {}
    for span in SPANS:
        units[f"{span}.count"] = "count"
        units[f"{span}.busy_s"] = "s"
        units[f"{span}.self_s"] = "s"
    units["cc.ticks_per_busy_s"] = "1/s"
    for phase in PHASES:
        units[f"cc.phase.{phase}_s"] = "s"
    units["traces.capacity.count"] = "count"
    units["core.certs_per_busy_s"] = "1/s"
    units["core.certify_applicable_frac"] = "ratio"
    units["abstract.ibp_components_per_busy_s"] = "1/s"
    units["trace_overhead_ratio"] = "ratio"
    units["unattributed_frac"] = "ratio"
    return units
