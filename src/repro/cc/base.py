"""Controller interface shared by classical and learned congestion controllers.

All quantities use these units throughout the simulator:

* time — seconds,
* window / queue sizes — packets (MSS-sized, fractional amounts allowed because
  the simulator is fluid),
* rates — packets per second.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import NamedTuple

__all__ = ["TickFeedback", "CongestionController", "MIN_CWND", "MSS_BYTES"]

#: Minimum congestion window enforced for every controller (packets).
MIN_CWND = 2.0

#: Maximum-segment size assumed when converting Mbps to packets/second.
MSS_BYTES = 1500


class TickFeedback(NamedTuple):
    """Per-tick feedback delivered to a controller by its flow.

    Attributes:
        now: Simulation time (seconds) at the end of the tick.
        dt: Tick duration (seconds).
        acked: Packets acknowledged during this tick.
        lost: Packets reported lost during this tick.
        rtt: Most recent RTT sample in seconds (0.0 if no ack arrived).
        min_rtt: Smallest RTT observed so far on this flow (seconds).
        queuing_delay: Most recent queuing-delay sample in seconds.
        inflight: Packets currently in flight after processing acks/losses.
        delivery_rate: Smoothed delivery (ack) rate in packets/second.
    """

    now: float
    dt: float
    acked: float
    lost: float
    rtt: float
    min_rtt: float
    queuing_delay: float
    inflight: float
    delivery_rate: float


class CongestionController(ABC):
    """Base class: owns the congestion window and reacts to network feedback."""

    name = "base"

    def __init__(self, initial_cwnd: float = 10.0) -> None:
        if initial_cwnd < MIN_CWND:
            initial_cwnd = MIN_CWND
        self._cwnd = float(initial_cwnd)

    @property
    def cwnd(self) -> float:
        """Current congestion window in packets."""
        return self._cwnd

    def set_cwnd(self, value: float) -> None:
        """Override the window (used by the Orca/Canopy coarse-grained agent)."""
        self._cwnd = max(MIN_CWND, float(value))

    def reset(self) -> None:
        """Reset controller state at the start of a new flow."""
        self._cwnd = max(MIN_CWND, self._cwnd)

    @abstractmethod
    def on_tick(self, feedback: TickFeedback) -> None:
        """Update internal state (and cwnd) from one tick of feedback."""

    def pacing_rate(self, feedback: TickFeedback | None = None) -> float | None:
        """Optional pacing rate in packets/second (None means window-limited only)."""
        return None

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"{type(self).__name__}(cwnd={self._cwnd:.2f})"
