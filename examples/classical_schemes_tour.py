#!/usr/bin/env python3
"""Tour of the congestion-control substrate with the classical schemes only.

No learning involved: runs CUBIC, NewReno, Vegas and BBR over a few synthetic
and cellular traces on shallow and deep buffers and prints the utilization /
delay / loss table, plus a two-flow fairness check.  Useful as a sanity check
of the simulator and as a template for adding new classical controllers.

Run with::

    python examples/classical_schemes_tour.py
"""

from __future__ import annotations

from repro.harness.evaluate import EvaluationSettings
from repro.harness.parallel import ExperimentTask, ParallelRunner
from repro.harness.registry import REGISTRY
from repro.harness.reporting import format_rows
from repro.traces.cellular import make_cellular_trace
from repro.traces.synthetic import make_synthetic_trace


def main() -> None:
    # Classical schemes need no model, so their cells leave model_kind unset.
    schemes = ("cubic", "newreno", "vegas", "bbr")
    traces = [
        make_synthetic_trace("step-12-48"),
        make_synthetic_trace("sawtooth-24-96"),
        make_cellular_trace("cellular-att", duration=20.0),
    ]

    for buffer_bdp in (1.0, 5.0):
        settings = EvaluationSettings(duration=20.0, buffer_bdp=buffer_bdp, min_rtt=0.04, seed=1)
        tasks = [ExperimentTask(scheme=scheme, trace=trace, settings=settings)
                 for trace in traces for scheme in schemes]
        rows = ParallelRunner().run(tasks).rows
        print(f"\n=== Buffer = {buffer_bdp:g} BDP ===")
        print(format_rows(rows, columns=["trace", "scheme", "utilization",
                                         "avg_queuing_delay_ms", "p95_queuing_delay_ms", "loss_rate"]))

    print("\n=== Fairness: three CUBIC flows joining every 10 s ===")
    result = REGISTRY.run("fairness", {"schemes": ("cubic",), "n_flows": 3,
                                       "join_interval": 10.0})
    (fairness,) = result["rows"]
    print("final per-flow throughputs (Mbps):",
          [round(t, 2) for t in fairness["throughputs_mbps"]])
    print("Jain fairness index:", round(fairness["jain_index"], 3))


if __name__ == "__main__":
    main()
