"""Runtime QC monitoring and CUBIC fallback (Section 4.4 of the paper).

``QC_sat`` is generated alongside the model and can be used as an online
signal: before each coarse-grained decision, the monitor computes the QC of
the deployed controller around the current state and compares its feedback to
a threshold.  When the feedback meets the threshold the learned decision is
applied; otherwise the controller falls back to plain TCP CUBIC for that step.

The monitor is exposed as a *decision filter* compatible with
:class:`repro.orca.agent.LearnedController`, and also keeps a history of QC
values so the evaluation harness can report runtime QC_sat alongside the
performance metrics (Figures 5, 7, 13).

When an :class:`~repro.telemetry.events.EventTrace` is attached, every
decision emits a ``qc_decision`` event (QC value, margin to threshold,
verdict) and the allow→veto / veto→allow transitions emit
``fallback_enter`` / ``fallback_exit`` — the boundaries the telemetry summary
folds into fallback-storm episodes.  Timestamps ride the trace's tick clock,
which the simulator advances; the monitor itself never reads a wall clock.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

import numpy as np

from repro.core.properties import PropertySet
from repro.core.verifier import Verifier, weighted_feedback
from repro.telemetry.events import EventTrace

__all__ = ["QCRuntimeMonitor"]


@dataclass
class _MonitorRecord:
    qc_value: float
    allowed_learned: bool


class QCRuntimeMonitor:
    """Computes QC_sat before each decision and gates the learned action."""

    def __init__(
        self,
        verifier: Verifier,
        properties: PropertySet,
        threshold: float = 0.5,
        enabled: bool = True,
        telemetry: Optional[EventTrace] = None,
    ) -> None:
        if not 0.0 <= threshold <= 1.0:
            raise ValueError("threshold must be in [0, 1]")
        self.verifier = verifier
        self.properties = properties
        self.threshold = float(threshold)
        self.enabled = enabled
        self.telemetry = telemetry
        self.records: List[_MonitorRecord] = []
        self._in_fallback = False

    # ------------------------------------------------------------------ #
    def evaluate(self, state: np.ndarray, cwnd_tcp: float, cwnd_prev: float) -> Tuple[float, dict]:
        """QC feedback (weighted over the property set) at this decision point."""
        certificates = self.verifier.certify(self.properties, state, cwnd_tcp, cwnd_prev)
        return weighted_feedback(self.properties, certificates)

    def decision_filter(self, state: np.ndarray, cwnd_tcp: float, cwnd_prev: float) -> Tuple[bool, float]:
        """The callback installed on :class:`repro.orca.agent.LearnedController`.

        Returns ``(allow_learned_action, qc_value)``.
        """
        qc_value, _ = self.evaluate(state, cwnd_tcp, cwnd_prev)
        allow = (not self.enabled) or qc_value >= self.threshold
        self.records.append(_MonitorRecord(qc_value, allow))
        tel = self.telemetry
        if tel is not None:
            tel.emit("qc_decision", qc=qc_value,
                     margin=qc_value - self.threshold, allowed=bool(allow))
            if not allow and not self._in_fallback:
                self._in_fallback = True
                tel.emit("fallback_enter", qc=qc_value)
            elif allow and self._in_fallback:
                self._in_fallback = False
                tel.emit("fallback_exit", qc=qc_value)
        return allow, qc_value

    # ------------------------------------------------------------------ #
    @property
    def mean_qc(self) -> float:
        """Mean QC over the recorded decisions; 1.0 (vacuously satisfied)
        when no decision has been recorded yet."""
        if not self.records:
            return 1.0
        return float(np.mean([record.qc_value for record in self.records]))

    @property
    def fallback_fraction(self) -> float:
        """Fraction of decisions that fell back to CUBIC; 0.0 when no
        decision has been recorded yet."""
        if not self.records:
            return 0.0
        return float(np.mean([0.0 if record.allowed_learned else 1.0 for record in self.records]))

    @property
    def n_fallback_episodes(self) -> int:
        """Number of contiguous vetoed-decision runs (fallback storms)."""
        episodes = 0
        previous_allowed = True
        for record in self.records:
            if not record.allowed_learned and previous_allowed:
                episodes += 1
            previous_allowed = record.allowed_learned
        return episodes

    @property
    def longest_fallback_run(self) -> int:
        """Length (in decisions) of the longest contiguous vetoed run."""
        longest = run = 0
        for record in self.records:
            run = run + 1 if not record.allowed_learned else 0
            longest = max(longest, run)
        return longest

    def reset(self) -> None:
        self.records = []
        self._in_fallback = False
