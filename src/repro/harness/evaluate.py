"""Running congestion-control schemes over traces and scoring them.

This module is the workhorse behind every evaluation figure: it builds fresh
controllers (classical or learned), runs them over a bandwidth trace on an
emulated bottleneck link, summarizes the empirical metrics (utilization,
average and p95 queuing delay), and — for learned controllers — computes the
per-decision quantitative certificates that make up QC_sat.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence

import numpy as np

from repro.cc.base import CongestionController
from repro.cc.bbr import BBRController
from repro.cc.cubic import CubicController
from repro.cc.flow import Flow
from repro.cc.metrics import PerformanceSummary, summarize_result
from repro.cc.netsim import SimulationResult
from repro.cc.newreno import NewRenoController
from repro.cc.vegas import VegasController
from repro.core.properties import PropertySet
from repro.core.qc import CertificateBatch
from repro.core.verifier import Verifier
from repro.harness.models import TrainedModel
from repro.orca.agent import DecisionRecord, LearnedController
from repro.orca.env import build_simulator
from repro.telemetry.events import DEFAULT_TELEMETRY, EventTrace, parse_telemetry
# build_topology stays a name here although build_simulator calls it:
# perfbench's traced run patches it by name in this module.
from repro.topology.families import DEFAULT_TOPOLOGY, build_topology, parse_topology  # noqa: F401
from repro.traces.trace import BandwidthTrace
from repro.workload.build import build_workload
from repro.workload.spec import DEFAULT_WORKLOAD, parse_workload

__all__ = [
    "EvaluationSettings",
    "SchemeResult",
    "scheme_factory",
    "default_model_kind",
    "run_scheme_on_trace",
    "certificates_for_decisions",
    "qcsat_columns",
]

CLASSICAL_SCHEMES = ("cubic", "vegas", "bbr", "newreno")


def default_model_kind(scheme: str) -> Optional[str]:
    """The zoo kind conventionally backing a scheme label.

    Classical schemes need no model (``None``); any other label is assumed to
    name its own model kind (the ``orca`` / ``canopy-*`` convention used by
    the fairness grids and the experiment registry).
    """
    return None if scheme.lower() in CLASSICAL_SCHEMES else scheme


@dataclass
class EvaluationSettings:
    """Link/topology and run parameters shared by an evaluation sweep.

    ``topology`` is a family spec (``single_bottleneck``, ``chain(3)``,
    ``parking_lot(3)``, ``dumbbell``, ``fan_in(3)``, ...; see
    :mod:`repro.topology.families`) expanded around the trace at run time.
    ``min_rtt`` is the end-to-end path RTT and ``buffer_bdp`` sizes every
    hop's buffer, so results stay comparable across families.  ``workload``
    is a workload spec (``static``, ``responsive(cubic:2)``, ``poisson(0.1)``,
    ``step(2-6)``; see :mod:`repro.workload.spec`) expanded into closed-loop
    background flows competing with the flow under test.  ``telemetry``
    (``off`` | ``on`` | ``on(stride)``; see :mod:`repro.telemetry.events`)
    attaches a structured event trace to the run; ``off`` — the default —
    changes nothing, bit-for-bit.
    """

    duration: float = 20.0
    dt: float = 0.01
    min_rtt: float = 0.04
    buffer_bdp: float = 1.0
    monitor_interval: float = 0.2
    skip_seconds: float = 1.0
    observation_noise: float = 0.0
    random_loss_rate: float = 0.0
    #: False = deterministic fluid thinning (historical behaviour); True =
    #: per-hop seeded binomial loss sampling (reproducible per seed).
    stochastic_loss: bool = False
    topology: str = DEFAULT_TOPOLOGY
    workload: str = DEFAULT_WORKLOAD
    telemetry: str = DEFAULT_TELEMETRY
    seed: int = 7

    def __post_init__(self) -> None:
        if self.duration <= 0 or self.dt <= 0 or self.min_rtt <= 0:
            raise ValueError("duration, dt and min_rtt must be positive")
        if self.buffer_bdp <= 0:
            raise ValueError("buffer_bdp must be positive")
        if self.duration <= self.skip_seconds:
            # The summary scores only t >= skip_seconds: the row would be all zeros.
            raise ValueError(f"duration ({self.duration:g} s) must exceed skip_seconds "
                             f"({self.skip_seconds:g} s)")
        parse_topology(self.topology)  # fail fast on malformed specs
        parse_workload(self.workload)
        parse_telemetry(self.telemetry)


@dataclass
class SchemeResult:
    """Outcome of one (scheme, trace) run."""

    scheme: str
    trace: str
    summary: PerformanceSummary
    controller: CongestionController
    simulation: SimulationResult
    decisions: List[DecisionRecord] = field(default_factory=list)
    #: The run's telemetry events (empty when telemetry was off).
    events: List[Dict] = field(default_factory=list)


# ---------------------------------------------------------------------- #
# Scheme construction
# ---------------------------------------------------------------------- #
def scheme_factory(
    name: str,
    model: Optional[TrainedModel] = None,
    observation_noise: float = 0.0,
    decision_filter=None,
    monitor_interval: float = 0.2,
    seed: int | None = None,
) -> Callable[[], CongestionController]:
    """A zero-argument factory producing a fresh controller per run.

    ``name`` is either one of the classical schemes (``cubic``, ``vegas``,
    ``bbr``, ``newreno``) or a label for a learned scheme, in which case a
    trained ``model`` must be supplied.
    """
    lowered = name.lower()
    if lowered in CLASSICAL_SCHEMES:
        classical = {
            "cubic": CubicController,
            "vegas": VegasController,
            "bbr": BBRController,
            "newreno": NewRenoController,
        }[lowered]
        return lambda: classical()
    if model is None:
        raise ValueError(f"scheme {name!r} is not classical, so a trained model is required")

    def build() -> CongestionController:
        return LearnedController(
            policy=model.policy,
            observation_config=model.observation_config,
            monitor_interval=monitor_interval,
            observation_noise=observation_noise,
            decision_filter=decision_filter,
            noise_seed=seed,
            name=name,
        )

    return build


# ---------------------------------------------------------------------- #
# Running schemes
# ---------------------------------------------------------------------- #
def run_scheme_on_trace(
    factory: Callable[[], CongestionController],
    trace: BandwidthTrace,
    settings: EvaluationSettings,
    scheme_name: str | None = None,
    telemetry: Optional[EventTrace] = None,
) -> SchemeResult:
    """Run one scheme over one trace (on ``settings.topology``) and summarize it.

    ``settings.workload`` adds closed-loop background flows (responsive
    competitors, churned arrivals, ``self`` flows built from ``factory``) next
    to the flow under test; the summary always scores flow 0.  The default
    ``static`` workload adds none, keeping the legacy single-flow trajectory
    byte-identical.

    ``telemetry`` lets a caller share one :class:`EventTrace` across the run's
    emitters (e.g. the QC monitor and the simulator); when ``None`` a trace is
    built from ``settings.telemetry`` (no trace at all for ``off``).
    """
    controller = factory()
    if telemetry is None:
        telemetry = EventTrace.from_spec(settings.telemetry)
    flow = Flow(0, controller)
    background = build_workload(settings.workload, duration=settings.duration,
                                seed=settings.seed, trace_name=trace.name,
                                topology=settings.topology)
    flows = [flow] + [cross.build(factory) for cross in background]
    simulator = build_simulator(settings.topology, trace, flows, dt=settings.dt,
                                min_rtt=settings.min_rtt, buffer_bdp=settings.buffer_bdp,
                                seed=settings.seed, random_loss_rate=settings.random_loss_rate,
                                stochastic_loss=settings.stochastic_loss, telemetry=telemetry)
    result = simulator.run(settings.duration)
    summary = summarize_result(result, flow_id=0, skip_seconds=settings.skip_seconds)
    decisions = list(getattr(controller, "decisions", []))
    return SchemeResult(
        scheme=scheme_name or getattr(controller, "name", type(controller).__name__),
        trace=trace.name,
        summary=summary,
        controller=controller,
        simulation=result,
        decisions=decisions,
        events=telemetry.to_json() if telemetry is not None else [],
    )


# ---------------------------------------------------------------------- #
# QC_sat evaluation
# ---------------------------------------------------------------------- #
def certificates_for_decisions(
    verifier: Verifier,
    properties: PropertySet,
    decisions: Sequence[DecisionRecord],
) -> Dict[str, CertificateBatch]:
    """The certificates of every decision, one batch per property, keyed by name
    (one :meth:`Verifier.certify` call over all properties and decisions).

    Row ``i`` of each batch certifies decision ``i``.  The previous enforced
    window for decision ``i > 0`` is decision ``i-1``'s enforced window,
    matching the Δcwnd definition of Table 3.  Decision 0 gets its own
    ``cwnd_before``, which is its TCP window, not the controller's initial
    window that the runtime monitor and training use for it (so the two
    certify decision 0 differently; mending that moves certified rows and
    waits for a reference rebase).
    """
    states = np.array([decision.state for decision in decisions], dtype=np.float64)
    states = states.reshape(len(decisions), verifier.observer.state_dim)
    cwnd_tcp = np.array([decision.cwnd_tcp for decision in decisions], dtype=np.float64)
    cwnd_prev = np.array([decision.cwnd_before for decision in decisions[:1]]
                         + [decision.cwnd_after for decision in decisions[:-1]], dtype=np.float64)
    return verifier.certify(properties, states, cwnd_tcp, cwnd_prev)


def qcsat_columns(batches: Dict[str, CertificateBatch]) -> Dict:
    """The QC_sat row columns of one certified run, from its certificate batches.

    QC_sat is the mean QC feedback (Eq. 6/7) over all decision steps where the
    property's concrete side conditions apply; when a property never applies
    during the run its vacuous (1.0) certificates are excluded from the mean.
    ``qcsat`` and ``qcsat_decision_std`` are the per-trace mean and std over
    decisions.
    """
    # (decision, property) arrays, properties in set order.
    feedback = np.stack([batch.feedback for batch in batches.values()], axis=-1)
    applicable = np.stack([batch.applicable_mask for batch in batches.values()], axis=-1)

    # Each decision's mean over its applicable properties, as a masked sum
    # over a count.  numpy adds fewer than 8 values in order, so with 0.0 in
    # the place of the others the sum is bit for bit np.mean's of the kept
    # values (every property family has at most 5 properties).
    counts = applicable.sum(axis=-1)
    kept = counts > 0
    n_applicable = int(kept.sum())
    if n_applicable:
        per_decision = np.where(applicable, feedback, 0.0).sum(axis=-1)[kept] / counts[kept]
    else:
        # The side conditions never held during this run; report the
        # unconditioned feedback so the result is still informative.
        per_decision = feedback.sum(axis=-1) / feedback.shape[-1]
    mean = float(np.mean(per_decision)) if per_decision.size else 1.0
    std = float(np.std(per_decision)) if per_decision.size else 0.0
    n_decisions = len(feedback)
    return {
        "qcsat": mean,
        "qcsat_decision_std": std,
        "n_decisions": n_decisions,
        "n_applicable": n_applicable,
        "n_certificates": n_decisions * len(batches),
    }
