"""The Orca two-level controller usable directly inside the network simulator.

:class:`LearnedController` is a :class:`repro.cc.base.CongestionController`
that contains:

* an inner fine-grained controller (TCP CUBIC by default) that reacts every
  tick, and
* a learned coarse-grained policy that fires once per monitor interval,
  observes the aggregated statistics (Table 1), and overrides the window via
  ``cwnd = 2^(2a) · cwnd_TCP`` (Eq. 1).

An optional *decision filter* implements Canopy's runtime fallback
(Section 4.4): before the learned override is applied, the filter can inspect
the state and veto the learned action, in which case the CUBIC window is kept
as-is.

Per tick the controller only steps CUBIC and keeps the tick's
:class:`~repro.cc.base.TickFeedback`.  A decision reduces those feedbacks
with :func:`repro.cc.netsim.interval_report`, the reducer training's
``monitor_report`` uses, perturbs the delay with
:func:`repro.orca.observations.with_delay_noise` from the controller's own
RNG, and turns the action into a window with :func:`action_step`, the step
:class:`~repro.orca.env.OrcaNetworkEnv` takes too; every scalar clip on the
decision path is a plain-float :func:`clip_float`.  The reducer's inputs
still differ from training's: ``srtt`` is the interval's last non-zero RTT
sample (training: the flow's smoothed RTT), ``min_rtt`` the last feedback's
and the interval starts at the first tick (training: at the previous
report).  Aligning them waits for the observation rebase (ROADMAP item 2,
step 2).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, List, Optional, Tuple

import numpy as np

from repro.cc.base import MIN_CWND, CongestionController, TickFeedback
from repro.cc.cubic import CubicController
from repro.cc.netsim import MonitorReport, interval_report
from repro.orca.observations import (ObservationBuilder, ObservationConfig, clip_float,
                                     with_delay_noise)

__all__ = ["action_step", "cwnd_from_action", "DecisionRecord", "LearnedController"]

#: Policy signature: maps a stacked state vector to an action in [-1, 1].
Policy = Callable[[np.ndarray], np.ndarray]

#: Decision-filter signature: (state, cwnd_tcp, cwnd_prev) -> (allow_learned, qc_value)
DecisionFilter = Callable[[np.ndarray, float, float], tuple]


def action_step(action: float, cwnd_tcp: float) -> Tuple[float, float]:
    """Eq. 1 for training and deployment: the action clipped to [-1, 1] once,
    and ``cwnd = max(MIN_CWND, 2^(2a) · cwnd_TCP)``."""
    action = clip_float(action, -1.0, 1.0)
    return action, max(MIN_CWND, float(2.0 ** (2.0 * action) * cwnd_tcp))


def cwnd_from_action(action: float, cwnd_tcp: float) -> float:
    """The window of :func:`action_step` alone (the verifier's concrete window)."""
    return action_step(action, cwnd_tcp)[1]


@dataclass(frozen=True)
class DecisionRecord:
    """One coarse-grained decision made by the learned controller."""

    time: float
    state: np.ndarray
    action: float
    cwnd_tcp: float
    cwnd_before: float
    cwnd_after: float
    used_fallback: bool
    qc_value: float


class LearnedController(CongestionController):
    """Two-level Orca/Canopy controller: CUBIC plus a learned override."""

    name = "orca"

    def __init__(
        self,
        policy: Policy,
        inner: CongestionController | None = None,
        observation_config: ObservationConfig | None = None,
        monitor_interval: float = 0.2,
        decision_filter: Optional[DecisionFilter] = None,
        observation_noise: float = 0.0,
        noise_seed: int | None = None,
        name: str | None = None,
    ) -> None:
        inner = inner or CubicController()
        super().__init__(inner.cwnd)
        if monitor_interval <= 0:
            raise ValueError("monitor_interval must be positive")
        self.policy = policy
        self.inner = inner
        self.monitor_interval = float(monitor_interval)
        self.observer = ObservationBuilder(observation_config)
        self.decision_filter = decision_filter
        self.observation_noise = float(observation_noise)
        self._noise_rng = np.random.default_rng(noise_seed)
        if name:
            self.name = name

        self._last_decision_time = 0.0
        self._prev_decision_cwnd = inner.cwnd
        self.decisions: List[DecisionRecord] = []
        #: The feedback of every tick since the last decision.
        self._interval: List[TickFeedback] = []
        # What on_tick reads every tick, looked up once (a bound Python
        # method, which copy.deepcopy and pickle rebind to the copy's inner).
        self._decision_gap = self.monitor_interval - 1e-9
        self._inner_on_tick = inner.on_tick

    @property
    def cwnd(self) -> float:
        return self.inner.cwnd

    def set_cwnd(self, value: float) -> None:
        self.inner.set_cwnd(value)

    def reset(self) -> None:
        self.inner.reset()
        self.observer.reset()
        self._last_decision_time = 0.0
        self._prev_decision_cwnd = self.inner.cwnd
        self.decisions = []
        self._interval.clear()

    # ------------------------------------------------------------------ #
    def _build_report(self, now: float) -> MonitorReport:
        ticks = self._interval
        first = ticks[0]
        # srtt=None: the interval's last non-zero RTT sample, from the same pass.
        report = interval_report(ticks, first.now - first.dt, now, 1e-3, None, ticks[-1].min_rtt,
                                 self.inner.cwnd)
        return with_delay_noise(report, self.observation_noise, self._noise_rng)

    def _coarse_grained_step(self, now: float) -> None:
        report = self._build_report(now)
        state = self.observer.observe(report)
        cwnd_tcp = self.inner.cwnd
        action, learned_cwnd = action_step(float(np.asarray(self.policy(state)).reshape(-1)[0]),
                                           cwnd_tcp)

        allow_learned = True
        qc_value = 1.0
        if self.decision_filter is not None:
            allow_learned, qc_value = self.decision_filter(state, cwnd_tcp, self._prev_decision_cwnd)

        if allow_learned:
            new_cwnd = learned_cwnd
            self.inner.set_cwnd(new_cwnd)
        else:
            new_cwnd = cwnd_tcp  # fall back to pure CUBIC

        self.decisions.append(DecisionRecord(
            time=now,
            state=state,
            action=action,
            cwnd_tcp=cwnd_tcp,
            cwnd_before=cwnd_tcp,
            cwnd_after=new_cwnd,
            used_fallback=not allow_learned,
            qc_value=float(qc_value),
        ))
        self._prev_decision_cwnd = new_cwnd
        self._interval.clear()

    # ------------------------------------------------------------------ #
    def on_tick(self, feedback: TickFeedback) -> None:
        self._inner_on_tick(feedback)
        self._interval.append(feedback)
        now = feedback.now
        if now - self._last_decision_time >= self._decision_gap:
            self._coarse_grained_step(now)
            self._last_decision_time = now

    def pacing_rate(self, feedback: TickFeedback | None = None) -> float | None:
        return self.inner.pacing_rate(feedback)

    # ------------------------------------------------------------------ #
    @property
    def fallback_fraction(self) -> float:
        """Fraction of coarse-grained decisions that fell back to CUBIC."""
        if not self.decisions:
            return 0.0
        return sum(1 for d in self.decisions if d.used_fallback) / len(self.decisions)

    @property
    def mean_qc(self) -> float:
        """Mean runtime QC value across decisions (1.0 when no filter installed)."""
        if not self.decisions:
            return 1.0
        return float(np.mean([d.qc_value for d in self.decisions]))
