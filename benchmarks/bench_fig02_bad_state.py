"""Figure 2 — Orca entering critically bad states on a high-BDP path.

Paper claim: on a deep-buffer (high BDP) path Orca can force a much lower
window than TCP suggests and stay there, collapsing its sending rate, while
the Canopy deep-buffer model maintains its rate.  The benchmark prints the
per-scheme summary plus how often each scheme's enforced window undercuts the
TCP-suggested window by more than 2x.
"""

import numpy as np
from benchconfig import DURATION, N_JOBS, SEED, TRAINING_STEPS, run_once

from repro.harness.registry import REGISTRY
from repro.harness.reporting import print_experiment


def _undercut_fraction(series: dict) -> float:
    tcp = np.asarray(series["cwnd_tcp"])
    enforced = np.asarray(series["cwnd_enforced"])
    if tcp.size == 0:
        return 0.0
    return float(np.mean(enforced < 0.5 * tcp))


def test_fig02_bad_state(benchmark):
    result = run_once(
        benchmark, REGISTRY.run, "motivation_bad_state",
        {"duration": DURATION, "training_steps": TRAINING_STEPS, "seeds": (SEED,)},
        n_jobs=N_JOBS,
    )
    print_experiment(
        "Figure 2: behaviour on a deep-buffer (high BDP) path",
        result,
        columns=["scheme", "utilization", "avg_queuing_delay_ms", "p95_queuing_delay_ms"],
    )
    orca_undercut = _undercut_fraction(result["series"]["orca"])
    canopy_undercut = _undercut_fraction(result["series"]["canopy"])
    print(f"fraction of decisions enforcing < 0.5x the TCP-suggested window  "
          f"orca: {orca_undercut:.2f}  canopy: {canopy_undercut:.2f}")

    rows = {row["scheme"]: row for row in result["rows"]}
    assert rows["canopy"]["utilization"] > 0.0
    assert rows["orca"]["utilization"] > 0.0
