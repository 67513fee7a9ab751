"""Performance metrics over simulation results.

The paper's evaluation reports three empirical metrics per scheme and trace
(Section 6.3): average bandwidth utilization, average queuing delay, and the
95th-percentile queuing delay, plus Jain's fairness index and throughput
ratios for the multi-flow experiments (Sections 6.6–6.7).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Sequence

import numpy as np

from repro.cc.netsim import FlowStats, SimulationResult
from repro.traces.trace import pps_to_mbps

__all__ = [
    "PerformanceSummary",
    "summarize_flow",
    "summarize_result",
    "jain_fairness_index",
    "throughput_ratio",
    "utilization",
]


@dataclass(frozen=True)
class PerformanceSummary:
    """Per-flow empirical performance over one run."""

    throughput_mbps: float
    utilization: float
    avg_queuing_delay_ms: float
    p95_queuing_delay_ms: float
    avg_rtt_ms: float
    loss_rate: float
    total_acked: float
    total_lost: float

    def as_dict(self) -> Dict[str, float]:
        return {
            "throughput_mbps": self.throughput_mbps,
            "utilization": self.utilization,
            "avg_queuing_delay_ms": self.avg_queuing_delay_ms,
            "p95_queuing_delay_ms": self.p95_queuing_delay_ms,
            "avg_rtt_ms": self.avg_rtt_ms,
            "loss_rate": self.loss_rate,
            "total_acked": self.total_acked,
            "total_lost": self.total_lost,
        }


def _weighted_percentile(values: np.ndarray, weights: np.ndarray, percentile: float) -> float:
    """Weighted percentile; weights are packet counts per sample."""
    if values.size == 0 or weights.sum() <= 0:
        return 0.0
    order = np.argsort(values)
    values = values[order]
    weights = weights[order]
    cum = np.cumsum(weights)
    cutoff = percentile / 100.0 * cum[-1]
    index = int(np.searchsorted(cum, cutoff))
    index = min(index, values.size - 1)
    return float(values[index])


def utilization(stats: FlowStats, capacity_mbps: np.ndarray, dt: float, skip_seconds: float = 1.0) -> float:
    """Delivered throughput divided by available capacity.

    The first ``skip_seconds`` are excluded so slow-start ramp-up does not
    dominate short runs (the paper's runs are long enough that this does not
    matter; ours are shorter).
    """
    skip = int(skip_seconds / dt)
    acked = stats.acked[skip:]
    capacity = capacity_mbps[skip:skip + acked.size]
    delivered_mbps = pps_to_mbps(acked.sum() / max(acked.size * dt, 1e-9))
    capacity_mean = capacity.mean() if capacity.size else 0.0
    if capacity_mean <= 0:
        return 0.0
    return float(min(delivered_mbps / capacity_mean, 1.5))


def summarize_flow(stats: FlowStats, capacity_mbps: np.ndarray, dt: float, skip_seconds: float = 1.0) -> PerformanceSummary:
    """Compute the paper's empirical metrics for one flow."""
    skip = int(skip_seconds / dt)
    acked = stats.acked[skip:]
    lost = stats.lost[skip:]
    delays = stats.queuing_delay[skip:]
    rtts = stats.rtt[skip:]

    total_acked = float(acked.sum())
    total_lost = float(lost.sum())
    duration = max(acked.size * dt, 1e-9)
    throughput_mbps = pps_to_mbps(total_acked / duration)

    ack_mask = acked > 0
    if ack_mask.any():
        avg_delay = float(np.average(delays[ack_mask], weights=acked[ack_mask])) * 1000.0
        avg_rtt = float(np.average(rtts[ack_mask], weights=acked[ack_mask])) * 1000.0
        p95_delay = _weighted_percentile(delays[ack_mask], acked[ack_mask], 95.0) * 1000.0
    else:
        avg_delay = 0.0
        avg_rtt = 0.0
        p95_delay = 0.0

    return PerformanceSummary(
        throughput_mbps=throughput_mbps,
        utilization=utilization(stats, capacity_mbps, dt, skip_seconds),
        avg_queuing_delay_ms=avg_delay,
        p95_queuing_delay_ms=p95_delay,
        avg_rtt_ms=avg_rtt,
        loss_rate=total_lost / (total_acked + total_lost) if (total_acked + total_lost) > 0 else 0.0,
        total_acked=total_acked,
        total_lost=total_lost,
    )


def summarize_result(result: SimulationResult, flow_id: int = 0, skip_seconds: float = 1.0) -> PerformanceSummary:
    """Convenience wrapper for summarizing one flow of a full run.

    Flows with a partial lifetime (churned arrivals/departures) are scored
    over their active ``[start, stop)`` window only — the silence before a
    flow arrives or after it leaves is not averaged into its utilization or
    delay.  ``skip_seconds`` is applied relative to the flow's start, so a
    late joiner still gets its slow-start ramp excluded.  Full-lifetime flows
    take the exact legacy path (byte-identical summaries).
    """
    stats = result.stats_for(flow_id)
    capacity = result.capacity_mbps
    start, stop = result.lifetime_for(flow_id)
    if start > 0.0 or stop is not None:
        times = stats.times
        lo = int(np.searchsorted(times, start, side="right"))
        hi = int(np.searchsorted(times, stop, side="right")) if stop is not None else times.size
        stats = FlowStats(flow_id, stats.records[lo:hi])
        capacity = capacity[lo:hi]
    return summarize_flow(stats, capacity, result.dt, skip_seconds)


def jain_fairness_index(throughputs: Sequence[float]) -> float:
    """Jain's fairness index: 1.0 is perfectly fair, 1/n is maximally unfair."""
    values = np.asarray(list(throughputs), dtype=np.float64)
    if values.size == 0:
        raise ValueError("need at least one throughput value")
    denominator = values.size * np.sum(values ** 2)
    if denominator <= 0.0:
        # All throughputs are (numerically) zero: treat as perfectly fair.
        return 1.0
    return float(values.sum() ** 2 / denominator)


def throughput_ratio(scheme_throughput: float, competitor_throughputs: Sequence[float]) -> float:
    """Ratio of the scheme's throughput to the mean competitor throughput (Fig. 14)."""
    competitors = np.asarray(list(competitor_throughputs), dtype=np.float64)
    if competitors.size == 0:
        raise ValueError("need at least one competitor")
    mean = competitors.mean()
    if mean <= 0:
        return float("inf") if scheme_throughput > 0 else 1.0
    return float(scheme_throughput / mean)
