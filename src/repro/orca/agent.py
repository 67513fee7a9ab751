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
:class:`~repro.cc.base.TickFeedback`; the interval's statistics are summed
from those feedbacks when a decision builds its report, and every scalar
clip on the decision path is a plain-float :func:`clip_float`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, List, Optional

import numpy as np

from repro.cc.base import MIN_CWND, CongestionController, TickFeedback
from repro.cc.cubic import CubicController
from repro.cc.netsim import MonitorReport
from repro.orca.observations import ObservationBuilder, ObservationConfig, clip_float

__all__ = ["cwnd_from_action", "DecisionRecord", "LearnedController"]

#: Policy signature: maps a stacked state vector to an action in [-1, 1].
Policy = Callable[[np.ndarray], np.ndarray]

#: Decision-filter signature: (state, cwnd_tcp, cwnd_prev) -> (allow_learned, qc_value)
DecisionFilter = Callable[[np.ndarray, float, float], tuple]


def cwnd_from_action(action: float, cwnd_tcp: float) -> float:
    """Eq. 1: ``cwnd = 2^(2a) · cwnd_TCP`` with the action clipped to [-1, 1]."""
    action = clip_float(action, -1.0, 1.0)
    return max(MIN_CWND, float(2.0 ** (2.0 * action) * cwnd_tcp))


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
        self._interval = []

    # ------------------------------------------------------------------ #
    def _build_report(self, now: float) -> MonitorReport:
        # Sums start from 0.0 and run in tick order, as a running total would.
        ticks = self._interval
        acked = lost = sent = delay_weighted = rtt_weighted = weight = 0.0
        last_srtt = last_min_rtt = 0.0
        for _, _, tick_acked, tick_lost, rtt, last_min_rtt, delay, _, _ in ticks:
            acked += tick_acked
            lost += tick_lost
            sent += tick_acked + tick_lost
            if tick_acked > 0:
                delay_weighted += delay * tick_acked
                rtt_weighted += rtt * tick_acked
                weight += tick_acked
            if rtt > 0:
                last_srtt = rtt
        start = ticks[0].now - ticks[0].dt if ticks else now - self.monitor_interval
        interval = max(now - start, 1e-3)
        avg_delay = delay_weighted / weight if weight > 0 else 0.0
        if self.observation_noise > 0:
            # Uniform multiplicative noise on the observed queuing delay — the
            # perturbation studied in Section 2 / Figure 11.
            noise = self._noise_rng.uniform(-self.observation_noise, self.observation_noise)
            avg_delay = max(0.0, avg_delay * (1.0 + noise))
        return MonitorReport(
            throughput_pps=acked / interval,
            loss_rate=lost / (acked + lost) if (acked + lost) > 0 else 0.0,
            avg_queuing_delay=avg_delay,
            n_acks=acked,
            interval=interval,
            srtt=last_srtt,
            min_rtt=last_min_rtt,
            avg_rtt=rtt_weighted / weight if weight > 0 else last_srtt,
            cwnd=self.inner.cwnd,
            sent_pps=sent / interval,
        )

    def _coarse_grained_step(self, now: float) -> None:
        report = self._build_report(now)
        state = self.observer.observe(report)
        cwnd_tcp = self.inner.cwnd
        cwnd_before = cwnd_tcp

        action = float(np.asarray(self.policy(state)).reshape(-1)[0])
        action = clip_float(action, -1.0, 1.0)

        allow_learned = True
        qc_value = 1.0
        if self.decision_filter is not None:
            allow_learned, qc_value = self.decision_filter(state, cwnd_tcp, self._prev_decision_cwnd)

        if allow_learned:
            new_cwnd = cwnd_from_action(action, cwnd_tcp)
            self.inner.set_cwnd(new_cwnd)
        else:
            new_cwnd = cwnd_tcp  # fall back to pure CUBIC

        self.decisions.append(DecisionRecord(
            time=now,
            state=state,
            action=action,
            cwnd_tcp=cwnd_tcp,
            cwnd_before=cwnd_before,
            cwnd_after=new_cwnd,
            used_fallback=not allow_learned,
            qc_value=float(qc_value),
        ))
        self._prev_decision_cwnd = new_cwnd
        self._interval = []

    # ------------------------------------------------------------------ #
    def on_tick(self, feedback: TickFeedback) -> None:
        self.inner.on_tick(feedback)
        self._interval.append(feedback)
        if feedback.now - self._last_decision_time >= self.monitor_interval - 1e-9:
            self._coarse_grained_step(feedback.now)
            self._last_decision_time = feedback.now

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
