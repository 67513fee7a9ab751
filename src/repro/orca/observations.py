"""Observation pipeline for the Orca/Canopy agent.

Orca's agent observes the network statistics of Table 1 once per monitor
interval.  We normalize each statistic into roughly ``[0, 1]`` and stack the
past ``k`` observations into the state vector ``s_t = <o_t, o_{t-1}, ..., o_{t-k+1}>``
(Section 4.1).  The per-step feature layout is:

====  =================  ==========================================================
idx   name               meaning (normalized)
====  =================  ==========================================================
0     ``throughput``     delivery rate / max delivery rate seen so far
1     ``loss``           loss rate in [0, 1]
2     ``delay``          queuing delay / delay scale (clipped to [0, 1])
3     ``acks``           acked packets this interval / ack scale
4     ``interval``       report interval / nominal monitor interval
5     ``inv_rtt``        min RTT / smoothed RTT  (the paper's "invRTT")
6     ``dcwnd``          sign-preserving normalized cwnd change from previous step
====  =================  ==========================================================

The normalized ``delay`` and ``loss`` features are exactly the quantities the
property preconditions of Table 2 range over, and ``dcwnd`` carries the
"past Δcwnd" condition.  :meth:`ObservationBuilder.feature_indices` exposes
where each feature lives inside the stacked state so the Canopy verifier can
abstract just the variables of interest (Section 5).
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Deque, List, Sequence

import numpy as np

from repro.cc.netsim import MonitorReport

__all__ = ["FEATURE_NAMES", "ObservationConfig", "ObservationBuilder", "clip_float"]

FEATURE_NAMES = ("throughput", "loss", "delay", "acks", "interval", "inv_rtt", "dcwnd")
_FEATURE_INDEX = {name: i for i, name in enumerate(FEATURE_NAMES)}


def clip_float(value: float, lo: float, hi: float) -> float:
    """``float(np.clip(value, lo, hi))`` for one scalar, without numpy.

    Bounds must not be NaN.  As in ``np.clip``, a NaN value passes through
    and only a value strictly outside a bound is replaced, so ``-0.0``
    clipped to ``[0.0, 1.0]`` stays ``-0.0``.
    """
    if value < lo:
        value = lo
    if value > hi:
        value = hi
    return float(value)


@dataclass
class ObservationConfig:
    """Normalization constants and history length for the observation pipeline."""

    history_len: int = 3           # k in the paper (number of stacked steps)
    delay_scale: float = 0.2       # seconds of queuing delay mapping to 1.0
    ack_scale: float = 2000.0      # packets per interval mapping to 1.0
    monitor_interval: float = 0.2  # nominal monitor interval in seconds
    dcwnd_scale: float = 0.5       # relative cwnd change mapping to +-1.0

    def __post_init__(self) -> None:
        if self.history_len < 1:
            raise ValueError("history_len must be >= 1")
        if self.delay_scale <= 0 or self.ack_scale <= 0 or self.monitor_interval <= 0:
            raise ValueError("scales must be positive")

    @property
    def feature_dim(self) -> int:
        return len(FEATURE_NAMES)

    @property
    def state_dim(self) -> int:
        return self.history_len * self.feature_dim


class ObservationBuilder:
    """Turns monitor reports into normalized, history-stacked state vectors."""

    def __init__(self, config: ObservationConfig | None = None) -> None:
        self.config = config or ObservationConfig()
        self._history: Deque[np.ndarray] = deque(maxlen=self.config.history_len)
        self._max_throughput = 1.0
        self._prev_cwnd: float | None = None
        self.reset()

    # ------------------------------------------------------------------ #
    def reset(self) -> None:
        self._history.clear()
        zero = np.zeros(self.config.feature_dim)
        for _ in range(self.config.history_len):
            self._history.append(zero.copy())
        self._max_throughput = 1.0
        self._prev_cwnd = None

    @property
    def max_throughput(self) -> float:
        """Largest delivery rate (packets/s) observed so far — thr_max in Eq. 2."""
        return self._max_throughput

    # ------------------------------------------------------------------ #
    def _normalize(self, report: MonitorReport) -> np.ndarray:
        cfg = self.config
        self._max_throughput = max(self._max_throughput, report.throughput_pps, 1.0)
        throughput = report.throughput_pps / self._max_throughput
        loss = clip_float(report.loss_rate, 0.0, 1.0)
        delay = clip_float(report.avg_queuing_delay / cfg.delay_scale, 0.0, 1.0)
        acks = clip_float(report.n_acks / cfg.ack_scale, 0.0, 1.0)
        interval = clip_float(report.interval / cfg.monitor_interval, 0.0, 2.0)
        if report.srtt > 0 and report.min_rtt > 0:
            inv_rtt = clip_float(report.min_rtt / report.srtt, 0.0, 1.0)
        else:
            inv_rtt = 1.0
        if self._prev_cwnd is None or self._prev_cwnd <= 0:
            dcwnd = 0.0
        else:
            rel_change = (report.cwnd - self._prev_cwnd) / self._prev_cwnd
            dcwnd = clip_float(rel_change / cfg.dcwnd_scale, -1.0, 1.0)
        self._prev_cwnd = report.cwnd
        return np.array([throughput, loss, delay, acks, interval, inv_rtt, dcwnd], dtype=np.float64)

    def observe(self, report: MonitorReport) -> np.ndarray:
        """Ingest a monitor report and return the updated stacked state."""
        self._history.append(self._normalize(report))
        return self.state()

    def state(self) -> np.ndarray:
        """The stacked state vector, newest observation first."""
        return np.concatenate(list(reversed(self._history)))

    # ------------------------------------------------------------------ #
    # Introspection used by the Canopy verifier and property preconditions.
    # ------------------------------------------------------------------ #
    def feature_indices(self, name: str, steps: Sequence[int] | None = None) -> List[int]:
        """Indices of a named feature inside the stacked state.

        ``steps=None`` returns the feature for all ``k`` history steps (step 0
        is the most recent).
        """
        if name not in _FEATURE_INDEX:
            raise KeyError(f"unknown feature {name!r}; known: {FEATURE_NAMES}")
        offset = _FEATURE_INDEX[name]
        k = self.config.history_len
        dim = self.config.feature_dim
        steps = range(k) if steps is None else steps
        indices = []
        for step in steps:
            if not 0 <= step < k:
                raise IndexError(f"history step {step} out of range [0, {k})")
            indices.append(step * dim + offset)
        return indices

    def feature_history(self, name: str) -> np.ndarray:
        """Values of a named feature over the past ``k`` steps, newest first."""
        state = self.state()
        return state[self.feature_indices(name)]

    @property
    def state_dim(self) -> int:
        return self.config.state_dim
