"""Multi-flow experiments: friendliness (Fig. 14) and fairness (Fig. 15).

Friendliness runs the scheme under test against an increasing number of
competing CUBIC flows (and, separately, against one CUBIC flow while the
propagation delay varies), reporting the ratio of the scheme's throughput to
the average CUBIC throughput.  Fairness starts homogeneous flows of the same
scheme staggered in time and reports per-flow throughput convergence plus
Jain's index.

The point functions (:func:`friendliness`, :func:`rtt_friendliness`,
:func:`fairness_convergence`) take scheme-factory closures and run serially.
For grids, :class:`MultiFlowTask` describes one sweep point *declaratively*
(scheme label + model kind instead of a factory closure), so the registered
``friendliness`` and ``fairness`` experiments shard the points across a
:class:`~repro.harness.parallel.ParallelRunner` process pool through
:func:`run_multiflow_task` — every worker rebuilds its factory from the model
zoo, and rows come back in task order, identical for serial and parallel
runs.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence

import numpy as np

from repro.cc.base import CongestionController
from repro.cc.cubic import CubicController
from repro.cc.flow import Flow
from repro.cc.link import BottleneckLink
from repro.cc.metrics import jain_fairness_index, throughput_ratio
from repro.cc.netsim import NetworkSimulator
from repro.telemetry.profiler import active_profiler
from repro.traces.trace import BandwidthTrace, pps_to_mbps

__all__ = [
    "friendliness",
    "rtt_friendliness",
    "fairness_convergence",
    "MultiFlowTask",
    "run_multiflow_task",
]

#: Sweep modes understood by :class:`MultiFlowTask`.
MULTIFLOW_MODES = ("friendliness", "rtt_friendliness", "fairness_convergence")


def _flow_throughput_mbps(simulator: NetworkSimulator, flow_id: int, start: float, dt: float) -> float:
    stats = simulator.stats[flow_id]
    mask = stats.times >= start
    acked = stats.acked[mask]
    if acked.size == 0:
        return 0.0
    return pps_to_mbps(acked.sum() / (acked.size * dt))


def friendliness(
    scheme_factory: Callable[[], CongestionController],
    scheme_name: str,
    competing_flows: Sequence[int] = (1, 2, 4),
    bandwidth_mbps: float = 48.0,
    min_rtt: float = 0.02,
    buffer_bdp: float = 1.0,
    duration: float = 20.0,
    dt: float = 0.01,
    skip_seconds: float = 2.0,
    seed: int = 3,
) -> Dict:
    """Throughput ratio of the scheme to competing CUBIC flows (Fig. 14)."""
    rows: List[Dict] = []
    for n_cubic in competing_flows:
        trace = BandwidthTrace.constant(bandwidth_mbps, duration=duration)
        link = BottleneckLink(trace, min_rtt=min_rtt, buffer_bdp=buffer_bdp, seed=seed)
        flows = [Flow(0, scheme_factory())]
        flows.extend(Flow(i + 1, CubicController()) for i in range(n_cubic))
        simulator = NetworkSimulator(link, flows, dt=dt, profiler=active_profiler())
        simulator.run(duration)
        scheme_throughput = _flow_throughput_mbps(simulator, 0, skip_seconds, dt)
        cubic_throughputs = [
            _flow_throughput_mbps(simulator, i + 1, skip_seconds, dt) for i in range(n_cubic)
        ]
        rows.append({
            "scheme": scheme_name,
            "competing_cubic_flows": n_cubic,
            "scheme_throughput_mbps": scheme_throughput,
            "mean_cubic_throughput_mbps": float(np.mean(cubic_throughputs)),
            "throughput_ratio": throughput_ratio(scheme_throughput, cubic_throughputs),
        })
    return {"figure": "14", "mode": "flow-count", "rows": rows}


def rtt_friendliness(
    scheme_factory: Callable[[], CongestionController],
    scheme_name: str,
    rtts_ms: Sequence[float] = (20.0, 50.0, 100.0),
    bandwidth_mbps: float = 48.0,
    buffer_bdp: float = 1.0,
    duration: float = 20.0,
    dt: float = 0.01,
    skip_seconds: float = 2.0,
    seed: int = 3,
) -> Dict:
    """Throughput ratio against one CUBIC flow while the propagation delay varies."""
    rows: List[Dict] = []
    for rtt_ms in rtts_ms:
        trace = BandwidthTrace.constant(bandwidth_mbps, duration=duration)
        link = BottleneckLink(trace, min_rtt=rtt_ms / 1000.0, buffer_bdp=buffer_bdp, seed=seed)
        flows = [Flow(0, scheme_factory()), Flow(1, CubicController())]
        simulator = NetworkSimulator(link, flows, dt=dt, profiler=active_profiler())
        simulator.run(duration)
        scheme_throughput = _flow_throughput_mbps(simulator, 0, skip_seconds, dt)
        cubic_throughput = _flow_throughput_mbps(simulator, 1, skip_seconds, dt)
        rows.append({
            "scheme": scheme_name,
            "rtt_ms": rtt_ms,
            "scheme_throughput_mbps": scheme_throughput,
            "cubic_throughput_mbps": cubic_throughput,
            "throughput_ratio": throughput_ratio(scheme_throughput, [cubic_throughput]),
        })
    return {"figure": "14", "mode": "rtt", "rows": rows}


def fairness_convergence(
    scheme_factory: Callable[[], CongestionController],
    scheme_name: str,
    n_flows: int = 3,
    join_interval: float = 12.0,
    bandwidth_mbps: float = 48.0,
    min_rtt: float = 0.02,
    buffer_bdp: float = 1.0,
    duration: Optional[float] = None,
    dt: float = 0.01,
    seed: int = 3,
) -> Dict:
    """Homogeneous flows joining every ``join_interval`` seconds (Fig. 15)."""
    duration = duration if duration is not None else n_flows * join_interval + join_interval
    trace = BandwidthTrace.constant(bandwidth_mbps, duration=duration)
    link = BottleneckLink(trace, min_rtt=min_rtt, buffer_bdp=buffer_bdp, seed=seed)
    flows = [Flow(i, scheme_factory(), start_time=i * join_interval) for i in range(n_flows)]
    simulator = NetworkSimulator(link, flows, dt=dt, profiler=active_profiler())
    simulator.run(duration)

    # Per-flow throughput time series (1-second buckets) for the convergence
    # plot.  Keys are stringified flow ids so the row shape is JSON-stable —
    # identical whether it comes from run_multiflow_task directly or from a
    # registry run store (which round-trips rows through JSON).
    bucket = 1.0
    n_buckets = int(duration / bucket)
    series: Dict[str, List[float]] = {}
    for flow_id in range(n_flows):
        stats = simulator.stats[flow_id]
        per_bucket = []
        for b in range(n_buckets):
            mask = (stats.times >= b * bucket) & (stats.times < (b + 1) * bucket)
            per_bucket.append(pps_to_mbps(stats.acked[mask].sum() / bucket))
        series[str(flow_id)] = per_bucket

    # Fairness over the final window where every flow is active.
    final_start = (n_flows - 1) * join_interval + 2.0
    final_throughputs = [
        _flow_throughput_mbps(simulator, flow_id, final_start, dt) for flow_id in range(n_flows)
    ]
    return {
        "figure": "15",
        "scheme": scheme_name,
        "series_mbps": series,
        "final_throughputs_mbps": final_throughputs,
        "jain_index": jain_fairness_index(final_throughputs),
    }


# ---------------------------------------------------------------------- #
# Declarative multi-flow grids (sharded through ParallelRunner)
# ---------------------------------------------------------------------- #
@dataclass(frozen=True)
class MultiFlowTask:
    """One picklable sweep point of a friendliness/fairness grid.

    ``mode`` selects the experiment and ``value`` is that mode's swept knob:
    the number of competing CUBIC flows (``friendliness``), the propagation
    RTT in milliseconds (``rtt_friendliness``), or the number of homogeneous
    flows (``fairness_convergence``).  ``model_kind`` is None for classical
    schemes; learned schemes are rebuilt from the model zoo inside the worker
    (instant when the parent trained them before forking), so no verifier or
    policy closure ever crosses the process boundary.
    """

    mode: str
    scheme: str
    value: float
    model_kind: Optional[str] = None
    training_steps: int = 800
    model_seed: int = 1
    bandwidth_mbps: float = 48.0
    min_rtt: float = 0.02
    buffer_bdp: float = 1.0
    #: None = the mode's own default (20 s for the friendliness modes; the
    #: join-schedule-derived length for fairness_convergence).
    duration: Optional[float] = None
    join_interval: float = 12.0
    seed: int = 3
    tags: Dict[str, object] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.mode not in MULTIFLOW_MODES:
            raise ValueError(f"unknown multi-flow mode {self.mode!r}; known: {MULTIFLOW_MODES}")
        if self.value <= 0:
            raise ValueError("value must be positive")
        if self.duration is not None and self.duration <= 0:
            raise ValueError("duration must be positive")

    def cell_key(self) -> str:
        """The resumable-store key of this sweep point (see
        :meth:`repro.harness.parallel.ExperimentTask.cell_key`)."""
        from repro.harness.store import fingerprint

        extras = {
            # The exact swept value lives in the fingerprint — the %g display
            # below is lossy (6 significant digits) and must not be identity.
            "value": self.value,
            "model_kind": self.model_kind,
            "training_steps": self.training_steps,
            "model_seed": self.model_seed,
            "bandwidth_mbps": self.bandwidth_mbps,
            "min_rtt": self.min_rtt,
            "buffer_bdp": self.buffer_bdp,
            "duration": self.duration,
            "join_interval": self.join_interval,
            "tags": dict(self.tags),
        }
        return (f"multiflow={self.mode} scheme={self.scheme} value={self.value:g} "
                f"seed={self.seed} #{fingerprint(extras)}")


def _task_scheme_factory(task: MultiFlowTask) -> Callable[[], CongestionController]:
    # Imported lazily: the zoo pulls in the trainer stack, which multi-flow
    # grids over classical schemes never need.
    from repro.harness.evaluate import scheme_factory

    if task.model_kind is None:
        return scheme_factory(task.scheme)
    from repro.harness.models import get_trained_model

    model = get_trained_model(task.model_kind, training_steps=task.training_steps,
                              seed=task.model_seed)
    return scheme_factory(task.scheme, model=model, seed=task.seed)


def run_multiflow_task(task: MultiFlowTask) -> Dict:
    """Run one sweep point and return its report row (module-level: picklable)."""
    factory = _task_scheme_factory(task)
    row: Dict = {"mode": task.mode, "scheme": task.scheme, "value": task.value}
    row.update(task.tags)
    if task.mode == "friendliness":
        duration = task.duration if task.duration is not None else 20.0
        result = friendliness(factory, task.scheme, competing_flows=(int(task.value),),
                              bandwidth_mbps=task.bandwidth_mbps, min_rtt=task.min_rtt,
                              buffer_bdp=task.buffer_bdp, duration=duration, seed=task.seed)
        row.update(result["rows"][0])
    elif task.mode == "rtt_friendliness":
        duration = task.duration if task.duration is not None else 20.0
        result = rtt_friendliness(factory, task.scheme, rtts_ms=(task.value,),
                                  bandwidth_mbps=task.bandwidth_mbps,
                                  buffer_bdp=task.buffer_bdp, duration=duration,
                                  seed=task.seed)
        row.update(result["rows"][0])
    else:  # fairness_convergence
        result = fairness_convergence(factory, task.scheme, n_flows=int(task.value),
                                      join_interval=task.join_interval,
                                      bandwidth_mbps=task.bandwidth_mbps, min_rtt=task.min_rtt,
                                      buffer_bdp=task.buffer_bdp, duration=task.duration,
                                      seed=task.seed)
        row.update({
            "jain_index": result["jain_index"],
            "final_throughputs_mbps": result["final_throughputs_mbps"],
            "series_mbps": result["series_mbps"],
        })
    return row
