"""Running congestion-control schemes over traces and scoring them.

This module is the workhorse behind every evaluation figure: it builds fresh
controllers (classical or learned), runs them over a bandwidth trace on an
emulated bottleneck link, summarizes the empirical metrics (utilization,
average and p95 queuing delay), and — for learned controllers — computes the
per-decision quantitative certificates that make up QC_sat.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Callable, Dict, List, Optional, Sequence

import numpy as np

from repro.cc.base import CongestionController
from repro.cc.bbr import BBRController
from repro.cc.cubic import CubicController
from repro.cc.flow import Flow
from repro.cc.metrics import PerformanceSummary, summarize_result
from repro.cc.netsim import NetworkSimulator, SimulationResult
from repro.cc.newreno import NewRenoController
from repro.cc.vegas import VegasController
from repro.core.properties import PropertySet
from repro.core.qc import CertificateBatch
from repro.core.verifier import Verifier
from repro.harness.models import TrainedModel
from repro.orca.agent import DecisionRecord, LearnedController
from repro.telemetry.events import DEFAULT_TELEMETRY, EventTrace, parse_telemetry
from repro.telemetry.profiler import active_profiler
from repro.topology.families import DEFAULT_TOPOLOGY, build_topology, parse_topology
from repro.traces.trace import BandwidthTrace
from repro.workload.build import build_workload
from repro.workload.spec import DEFAULT_WORKLOAD, parse_workload

__all__ = [
    "EvaluationSettings",
    "SchemeResult",
    "QCSatResult",
    "scheme_factory",
    "default_model_kind",
    "run_scheme_on_trace",
    "run_schemes_sharded",
    "evaluate_qcsat",
    "certificates_for_decisions",
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


@dataclass
class QCSatResult:
    """QC_sat statistics for one (model, property set, trace) combination.

    ``summary`` carries the empirical performance of the certified run (the
    same run the certificates were computed over), so callers that need both
    certified safety and performance — e.g. the cross-family generalization
    grid — get them from a single simulation.
    """

    scheme: str
    trace: str
    property_names: List[str]
    mean: float
    std: float
    n_decisions: int
    n_applicable: int
    per_decision: List[float] = field(default_factory=list)
    summary: Optional[PerformanceSummary] = None
    #: The certified run's telemetry events (empty when telemetry was off).
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
    topology = build_topology(
        settings.topology,
        trace,
        min_rtt=settings.min_rtt,
        buffer_bdp=settings.buffer_bdp,
        random_loss_rate=settings.random_loss_rate,
        stochastic_loss=settings.stochastic_loss,
        seed=settings.seed,
    )
    flow = Flow(0, controller)
    background = build_workload(settings.workload, duration=settings.duration,
                                seed=settings.seed, trace_name=trace.name,
                                topology=settings.topology)
    flows = [flow] + [cross.build(factory) for cross in background]
    # The process-wide profiler (serve workers, `run --profile` pools) rides
    # along on every simulator; wall-clock only, rows are untouched.
    simulator = NetworkSimulator(topology, flows, dt=settings.dt,
                                 telemetry=telemetry, profiler=active_profiler())
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


def run_schemes_sharded(
    scheme_kinds: Dict[str, Optional[str]],
    traces: Sequence[BandwidthTrace],
    settings: EvaluationSettings,
    n_jobs: int = 1,
    training_steps: int = 800,
    model_seed: int = 1,
    n_seeds: int = 1,
):
    """Cartesian product of schemes × traces (× seeds) sharded over a pool.

    ``scheme_kinds`` maps the display label of each scheme to the model kind
    that backs it (``None`` for classical schemes).  Learned models should be
    trained in the calling process first so forked workers inherit the warm
    cache.  With ``n_seeds > 1`` every (scheme, trace) cell is replicated
    under distinct link/noise seeds derived deterministically from
    ``settings.seed`` and the cell coordinates, and rows carry a
    ``replicate`` tag.  Returns a :class:`repro.harness.parallel.GridResult`
    of plain summary rows (one per cell, in grid order) — identical for
    serial and parallel runs.
    """
    # Imported lazily: parallel imports this module for its worker helpers.
    from repro.harness.parallel import ExperimentTask, ParallelRunner, derive_seed

    if n_seeds < 1:
        raise ValueError("n_seeds must be >= 1")
    tasks = []
    for replicate in range(n_seeds):
        for trace in traces:
            for label, kind in scheme_kinds.items():
                if n_seeds == 1:
                    cell_settings, tags = settings, {}
                else:
                    cell_settings = replace(
                        settings, seed=derive_seed(settings.seed, trace.name, label, replicate))
                    tags = {"replicate": replicate}
                tasks.append(ExperimentTask(
                    scheme=label, trace=trace, settings=cell_settings, model_kind=kind,
                    training_steps=training_steps, model_seed=model_seed, tags=tags))
    return ParallelRunner(n_jobs).run(tasks)


# ---------------------------------------------------------------------- #
# QC_sat evaluation
# ---------------------------------------------------------------------- #
def certificates_for_decisions(
    verifier: Verifier,
    properties: PropertySet,
    decisions: Sequence[DecisionRecord],
    n_components: int = 50,
) -> Dict[str, CertificateBatch]:
    """The certificates of every decision, one batch per property, keyed by name.

    Row ``i`` of each batch certifies decision ``i``.  The previous enforced
    window for decision ``i`` is decision ``i-1``'s enforced window (the
    controller's initial window for the first decision), matching the Δcwnd
    definition of Table 3.
    """
    states = np.array([decision.state for decision in decisions], dtype=np.float64)
    states = states.reshape(len(decisions), verifier.observer.state_dim)
    cwnd_tcp = np.array([decision.cwnd_tcp for decision in decisions], dtype=np.float64)
    cwnd_prev = np.array([decision.cwnd_before for decision in decisions[:1]]
                         + [decision.cwnd_after for decision in decisions[:-1]], dtype=np.float64)
    return {
        prop.name: verifier.certify(prop, states, cwnd_tcp, cwnd_prev, n_components=n_components)
        for prop in properties
    }


def evaluate_qcsat(
    model: TrainedModel,
    trace: BandwidthTrace,
    settings: EvaluationSettings,
    properties: Optional[PropertySet] = None,
    n_components: int = 50,
    scheme_name: str | None = None,
    telemetry: Optional[EventTrace] = None,
) -> QCSatResult:
    """Run the learned model over a trace and compute QC_sat.

    QC_sat is the mean QC feedback (Eq. 6/7) over all decision steps where the
    property's concrete side conditions apply; when a property never applies
    during the run its vacuous (1.0) certificates are excluded from the mean.
    """
    properties = properties or model.properties
    factory = scheme_factory(scheme_name or model.kind, model=model,
                             observation_noise=settings.observation_noise,
                             monitor_interval=settings.monitor_interval, seed=settings.seed)
    run = run_scheme_on_trace(factory, trace, settings,
                              scheme_name=scheme_name or model.kind,
                              telemetry=telemetry)
    verifier = model.make_verifier(n_components=n_components)
    batches = certificates_for_decisions(verifier, properties, run.decisions, n_components=n_components).values()
    # (decision, property) arrays, properties in set order.
    feedback = np.stack([batch.feedback for batch in batches], axis=-1)
    applicable = np.stack([batch.applicable_mask for batch in batches], axis=-1)

    per_decision = [float(np.mean(values[mask])) for values, mask in zip(feedback, applicable) if mask.any()]
    n_applicable = len(per_decision)
    if not per_decision:
        # The side conditions never held during this run; report the
        # unconditioned feedback so the result is still informative.
        per_decision = [float(np.mean(values)) for values in feedback]
    mean = float(np.mean(per_decision)) if per_decision else 1.0
    std = float(np.std(per_decision)) if per_decision else 0.0
    return QCSatResult(
        scheme=scheme_name or model.kind,
        trace=trace.name,
        property_names=[prop.name for prop in properties],
        mean=mean,
        std=std,
        n_decisions=len(run.decisions),
        n_applicable=n_applicable,
        per_decision=per_decision,
        summary=run.summary,
        events=run.events,
    )
