"""BBR congestion control (simplified model-based rate controller).

BBR estimates the bottleneck bandwidth (windowed max of the delivery rate) and
the propagation RTT (windowed min of the RTT), then paces at
``pacing_gain * btl_bw`` and caps the window at ``cwnd_gain * BDP``.  The
implementation covers the STARTUP and PROBE_BW phases plus a periodic
PROBE_RTT, which is what the paper's evaluation exercises (long bulk flows).
"""

from __future__ import annotations

from collections import deque
from typing import Deque, Tuple

from repro.cc.base import MIN_CWND, CongestionController, TickFeedback

__all__ = ["BBRController"]

_PROBE_BW_GAINS = (1.25, 0.75, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0)


class BBRController(CongestionController):
    """Bottleneck Bandwidth and RTT congestion control."""

    name = "bbr"

    STARTUP_GAIN = 2.885
    CWND_GAIN = 2.0
    BW_WINDOW_RTTS = 10
    PROBE_RTT_INTERVAL = 10.0
    PROBE_RTT_DURATION = 0.2

    def __init__(self, initial_cwnd: float = 10.0) -> None:
        super().__init__(initial_cwnd)
        self._initial_cwnd = max(MIN_CWND, initial_cwnd)
        self._mode = "startup"
        # Bandwidth filter: (time, pps) samples with strictly decreasing
        # rates.  A sample at or below a newer one can never be the window's
        # max again (the newer one leaves the window later), so it is dropped
        # on arrival, and the windowed max is the front sample.
        self._bw_samples: Deque[Tuple[float, float]] = deque()
        self._btl_bw = 0.0
        self._full_bw = 0.0
        self._full_bw_count = 0
        self._cycle_index = 0
        self._cycle_start = 0.0
        self._min_rtt = float("inf")
        self._min_rtt_stamp = 0.0
        self._probe_rtt_done_time = 0.0
        self._pacing_gain = self.STARTUP_GAIN

    def reset(self) -> None:
        super().reset()
        self._cwnd = self._initial_cwnd
        self._mode = "startup"
        self._bw_samples.clear()
        self._btl_bw = 0.0
        self._full_bw = 0.0
        self._full_bw_count = 0
        self._cycle_index = 0
        self._cycle_start = 0.0
        self._min_rtt = float("inf")
        self._min_rtt_stamp = 0.0
        self._probe_rtt_done_time = 0.0
        self._pacing_gain = self.STARTUP_GAIN

    # ------------------------------------------------------------------ #
    def _update_model(self, feedback: TickFeedback) -> None:
        now = feedback.now
        rtt = feedback.rtt
        if rtt > 0 and (rtt <= self._min_rtt or now - self._min_rtt_stamp > self.PROBE_RTT_INTERVAL):
            self._min_rtt = rtt
            self._min_rtt_stamp = now
        samples = self._bw_samples
        rate = feedback.delivery_rate
        if rate > 0:
            while samples and samples[-1][1] <= rate:
                samples.pop()
            samples.append((now, rate))
        rtt_est = self._min_rtt if self._min_rtt < float("inf") else max(rtt, 0.01)
        window = self.BW_WINDOW_RTTS * max(rtt_est, 0.01)
        while samples and samples[0][0] < now - window:
            samples.popleft()
        if samples:
            self._btl_bw = samples[0][1]

    def _check_full_pipe(self) -> None:
        if self._mode != "startup":
            return
        if self._btl_bw >= self._full_bw * 1.25:
            self._full_bw = self._btl_bw
            self._full_bw_count = 0
        else:
            self._full_bw_count += 1
            if self._full_bw_count >= 3:
                self._mode = "probe_bw"
                self._pacing_gain = _PROBE_BW_GAINS[0]
                self._cycle_index = 0

    def _advance_cycle(self, now: float, rtt: float) -> None:
        if self._mode != "probe_bw":
            return
        if now - self._cycle_start >= max(rtt, 0.01):
            self._cycle_index = (self._cycle_index + 1) % len(_PROBE_BW_GAINS)
            self._pacing_gain = _PROBE_BW_GAINS[self._cycle_index]
            self._cycle_start = now

    def _maybe_probe_rtt(self, now: float) -> None:
        if self._mode == "probe_rtt":
            if now >= self._probe_rtt_done_time:
                self._mode = "probe_bw"
                self._pacing_gain = 1.0
            return
        if self._min_rtt < float("inf") and now - self._min_rtt_stamp > self.PROBE_RTT_INTERVAL:
            self._mode = "probe_rtt"
            self._probe_rtt_done_time = now + self.PROBE_RTT_DURATION
            self._min_rtt_stamp = now

    def on_tick(self, feedback: TickFeedback) -> None:
        self._update_model(feedback)
        self._check_full_pipe()
        rtt_est = self._min_rtt if self._min_rtt < float("inf") else max(feedback.rtt, 0.01)
        self._advance_cycle(feedback.now, rtt_est)
        self._maybe_probe_rtt(feedback.now)

        bdp = self._btl_bw * rtt_est
        if self._mode == "startup":
            gain = self.STARTUP_GAIN
            self._pacing_gain = self.STARTUP_GAIN
            if feedback.acked > 0:
                self._cwnd += feedback.acked  # exponential growth while probing
            if bdp > 0:
                self._cwnd = max(self._cwnd, gain * bdp)
        elif self._mode == "probe_rtt":
            self._cwnd = max(MIN_CWND, min(self._cwnd, 4.0))
        else:  # probe_bw
            if bdp > 0:
                self._cwnd = max(MIN_CWND, self.CWND_GAIN * bdp)
        self._cwnd = max(MIN_CWND, self._cwnd)

    def pacing_rate(self, feedback: TickFeedback | None = None) -> float | None:
        if self._btl_bw <= 0:
            return None
        return self._pacing_gain * self._btl_bw
