"""Regression tests for NetworkSimulator.monitor_report edge cases.

Pinned behaviours:

* the reporting interval is clamped to at least one tick (``interval >= dt``),
  so the very first report (and back-to-back reports) cannot divide by ~0;
* the per-flow accumulators are reset after every report — each report covers
  only its own interval;
* when no acks arrived during the interval, ``avg_rtt`` falls back to the
  flow's smoothed RTT instead of reporting a bogus 0/0 average.
"""

import pytest

from repro.cc.base import CongestionController, TickFeedback
from repro.cc.flow import Flow
from repro.cc.link import BottleneckLink
from repro.cc.netsim import NetworkSimulator, interval_report
from repro.traces.trace import BandwidthTrace


class FixedWindowController(CongestionController):
    """Keeps a constant congestion window (for deterministic tests)."""

    name = "fixed"

    def on_tick(self, feedback: TickFeedback) -> None:  # pragma: no cover - trivial
        pass


def make_sim(mbps=12.0, min_rtt=0.05, buffer_bdp=2.0, cwnd=20.0, dt=0.01):
    trace = BandwidthTrace.constant(mbps, duration=120.0)
    link = BottleneckLink(trace, min_rtt=min_rtt, buffer_bdp=buffer_bdp)
    return NetworkSimulator(link, [Flow(0, FixedWindowController(cwnd))], dt=dt)


class TestIntervalClamp:
    def test_first_report_interval_clamped_to_dt(self):
        sim = make_sim(dt=0.02)
        report = sim.monitor_report(0)  # before any tick: now == last_report == 0
        assert report.interval == pytest.approx(0.02)
        assert report.throughput_pps == 0.0

    def test_back_to_back_reports_keep_dt_floor(self):
        sim = make_sim(dt=0.01)
        for _ in range(30):
            sim.tick()
        sim.monitor_report(0)
        immediate = sim.monitor_report(0)  # zero elapsed time since last report
        assert immediate.interval == pytest.approx(0.01)

    def test_interval_tracks_elapsed_time_after_first_report(self):
        sim = make_sim(dt=0.01)
        for _ in range(25):
            sim.tick()
        assert sim.monitor_report(0).interval == pytest.approx(0.25)
        for _ in range(10):
            sim.tick()
        assert sim.monitor_report(0).interval == pytest.approx(0.10)


class TestAccumulatorReset:
    def test_accumulators_reset_after_report(self):
        sim = make_sim()
        for _ in range(100):  # 1 s: plenty of deliveries at 12 Mbps / 50 ms RTT
            sim.tick()
        first = sim.monitor_report(0)
        assert first.n_acks > 0
        assert first.throughput_pps > 0

        second = sim.monitor_report(0)  # immediately after: nothing accumulated
        assert second.n_acks == 0.0
        assert second.throughput_pps == 0.0
        assert second.loss_rate == 0.0
        assert second.avg_queuing_delay == 0.0

    def test_second_interval_only_counts_new_traffic(self):
        sim = make_sim()
        for _ in range(100):
            sim.tick()
        total_before = sim.monitor_report(0).n_acks
        for _ in range(20):
            sim.tick()
        follow_up = sim.monitor_report(0)
        # The follow-up report covers only the 0.2 s since the reset, so it
        # must count (far) fewer acks than the full first second.
        assert 0 < follow_up.n_acks < total_before


class TestZeroAckFallbacks:
    def test_avg_rtt_falls_back_to_srtt_before_any_ack(self):
        sim = make_sim(min_rtt=0.05, dt=0.01)
        sim.tick()  # one tick < propagation RTT: packets sent, none acked yet
        report = sim.monitor_report(0)
        flow = sim.flows[0]
        assert report.n_acks == 0.0
        assert flow.srtt == 0.0
        assert report.avg_rtt == flow.srtt

    def test_avg_rtt_falls_back_to_current_srtt_after_quiet_interval(self):
        sim = make_sim()
        for _ in range(100):
            sim.tick()
        sim.monitor_report(0)  # reset accumulators; srtt is now established
        flow = sim.flows[0]
        assert flow.srtt > 0.0
        quiet = sim.monitor_report(0)  # no new acks since the reset
        assert quiet.n_acks == 0.0
        assert quiet.avg_rtt == pytest.approx(flow.srtt)

    def test_loss_rate_zero_when_nothing_happened(self):
        sim = make_sim()
        report = sim.monitor_report(0)
        assert report.loss_rate == 0.0
        assert report.avg_queuing_delay == 0.0


class TestIntervalReport:
    """The reducer shared by ``monitor_report`` and the deployed controller."""

    @staticmethod
    def feedback(now, acked, lost, rtt, delay, dt=0.01):
        return TickFeedback(now=now, dt=dt, acked=acked, lost=lost, rtt=rtt, min_rtt=0.04,
                            queuing_delay=delay, inflight=0.0, delivery_rate=0.0)

    def test_reduces_tick_feedbacks_ack_weighted(self):
        ticks = [self.feedback(0.01, 4.0, 1.0, 0.06, 0.02),
                 self.feedback(0.02, 0.0, 1.0, 0.0, 0.5),  # no acks: no delay/RTT weight
                 self.feedback(0.03, 2.0, 0.0, 0.09, 0.05)]
        report = interval_report(ticks, 0.0, 0.03, 1e-3, 0.07, 0.04, 12.0)
        assert report.n_acks == 6.0
        assert report.interval == pytest.approx(0.03)
        assert report.throughput_pps == pytest.approx(6.0 / 0.03)
        assert report.loss_rate == pytest.approx(2.0 / 8.0)
        assert report.avg_queuing_delay == pytest.approx((4 * 0.02 + 2 * 0.05) / 6)
        assert report.avg_rtt == pytest.approx((4 * 0.06 + 2 * 0.09) / 6)
        assert (report.srtt, report.min_rtt, report.cwnd) == (0.07, 0.04, 12.0)

    def test_empty_interval_uses_floor_and_srtt(self):
        report = interval_report([], 1.0, 1.0, 0.01, 0.05, 0.04, 10.0)
        assert report.interval == 0.01
        assert report.throughput_pps == 0.0
        assert report.loss_rate == 0.0
        assert report.avg_queuing_delay == 0.0
        assert report.avg_rtt == 0.05
