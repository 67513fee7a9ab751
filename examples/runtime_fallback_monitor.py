#!/usr/bin/env python3
"""Use quantitative certificates as a runtime monitor with CUBIC fallback.

Section 4.4 of the paper proposes computing QC_sat before every coarse-grained
decision and falling back to plain TCP CUBIC whenever the certificate does not
meet a threshold.  This example runs a learned controller over a cellular-like
trace with the monitor installed at several thresholds and reports how often
the fallback triggers and what it does to utilization and delay.

Run with::

    python examples/runtime_fallback_monitor.py [training_steps]
"""

from __future__ import annotations

import sys

from repro.core.monitor import QCRuntimeMonitor
from repro.harness.evaluate import EvaluationSettings, run_scheme_on_trace, scheme_factory
from repro.harness.models import get_trained_model
from repro.harness.reporting import format_rows
from repro.traces.cellular import make_cellular_trace


def main(training_steps: int = 600) -> None:
    model = get_trained_model("canopy-deep", training_steps=training_steps, seed=11)
    orca = get_trained_model("orca", training_steps=training_steps, seed=11)
    trace = make_cellular_trace("cellular-verizon", duration=20.0)
    settings = EvaluationSettings(duration=20.0, buffer_bdp=5.0, min_rtt=0.05, seed=11)

    rows = []
    for scheme_name, scheme_model in (("canopy-deep", model), ("orca", orca)):
        for threshold in (0.0, 0.5, 0.8):
            monitor = QCRuntimeMonitor(
                scheme_model.make_verifier(n_components=10),
                model.properties,             # monitor against the deep-buffer properties
                threshold=threshold,
                enabled=threshold > 0.0,
            )
            factory = scheme_factory(scheme_name, model=scheme_model,
                                     decision_filter=monitor.decision_filter, seed=11)
            result = run_scheme_on_trace(factory, trace, settings, scheme_name=scheme_name)
            rows.append({
                "scheme": scheme_name,
                "threshold": threshold,
                "utilization": result.summary.utilization,
                "p95_delay_ms": result.summary.p95_queuing_delay_ms,
                "mean_runtime_qc": monitor.mean_qc,
                "fallback_fraction": monitor.fallback_fraction,
            })

    print(f"Runtime QC monitoring on trace {trace.name!r} (5 BDP buffer):")
    print(format_rows(rows))
    print("\nthreshold 0.0 disables the fallback; higher thresholds hand more decisions to CUBIC.")


if __name__ == "__main__":
    steps = int(sys.argv[1]) if len(sys.argv) > 1 else 600
    main(steps)
