"""Multi-flow columns of the friendliness (Fig. 14) and fairness (Fig. 15) grids.

Both grids are ordinary :class:`~repro.harness.parallel.ExperimentTask` cells
on a constant-capacity single bottleneck.  The competing flows come from the
cell's workload: ``responsive(cubic:n)`` competitors for Fig. 14, and
staggered ``step(12-:24-:self)`` joiners running the scheme under test for
Fig. 15.  :func:`run_multiflow_cell` is the registered runner of both grids:
the :func:`~repro.harness.parallel.run_task` row plus the columns of
:func:`multiflow_columns`.  Every other grid keeps its row shape.
"""

from __future__ import annotations

from typing import Dict

from repro.cc.metrics import jain_fairness_index, throughput_ratio
from repro.cc.netsim import SimulationResult
from repro.harness.evaluate import EvaluationSettings
from repro.harness.parallel import ExperimentTask, run_task
from repro.traces.trace import pps_to_mbps

__all__ = ["multiflow_columns", "run_multiflow_cell"]


def multiflow_columns(result: SimulationResult, settings: EvaluationSettings) -> Dict:
    """Per-flow throughput columns of one multi-flow run (one definition for all).

    ``throughputs_mbps`` averages each flow over ``t >= latest flow start +
    settings.skip_seconds``, the window in which every flow is active: from
    ``skip_seconds`` when all flows start together, from the last join plus
    ``skip_seconds`` for staggered joiners.  ``throughput_ratio`` is flow 0
    over the mean of the others, and ``jain_index`` is Jain's index of the
    throughputs.  ``series_mbps`` holds each flow's 1-second buckets, keyed
    by the stringified flow id so the row survives a JSON round trip as is.
    """
    start = max(start for start, _ in result.lifetimes.values()) + settings.skip_seconds
    throughputs = []
    series: Dict[str, list] = {}
    for flow_id, stats in result.flow_stats.items():
        acked = stats.acked[stats.times >= start]
        throughputs.append(pps_to_mbps(acked.sum() / (acked.size * result.dt))
                           if acked.size else 0.0)
        series[str(flow_id)] = [
            pps_to_mbps(stats.acked[(stats.times >= second) & (stats.times < second + 1)].sum())
            for second in range(int(settings.duration))
        ]
    return {
        "throughputs_mbps": throughputs,
        "throughput_ratio": throughput_ratio(throughputs[0], throughputs[1:]),
        "jain_index": jain_fairness_index(throughputs),
        "series_mbps": series,
    }


def run_multiflow_cell(task: ExperimentTask) -> Dict:
    """The friendliness/fairness cell runner (module-level: picklable)."""
    return run_task(task, columns=multiflow_columns)
