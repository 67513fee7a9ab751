"""Tests for the bottleneck link: queueing, drops, drain, conservation."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cc.link import BottleneckLink
from repro.traces.trace import BandwidthTrace, mbps_to_pps


def make_link(mbps=12.0, min_rtt=0.05, buffer_bdp=1.0, **kwargs):
    return BottleneckLink(BandwidthTrace.constant(mbps), min_rtt=min_rtt, buffer_bdp=buffer_bdp, **kwargs)


class TestConstruction:
    def test_invalid_min_rtt(self):
        with pytest.raises(ValueError):
            make_link(min_rtt=0.0)

    def test_invalid_loss_rate(self):
        with pytest.raises(ValueError):
            make_link(random_loss_rate=1.0)

    def test_buffer_from_bdp(self):
        link = make_link(mbps=12.0, min_rtt=0.1, buffer_bdp=2.0)
        assert link.buffer_packets == pytest.approx(2.0 * mbps_to_pps(12.0) * 0.1)

    def test_explicit_buffer_packets(self):
        link = BottleneckLink(BandwidthTrace.constant(12.0), min_rtt=0.1, buffer_packets=42.0)
        assert link.buffer_packets == pytest.approx(42.0)


class TestEnqueue:
    def test_accepts_up_to_buffer(self):
        link = BottleneckLink(BandwidthTrace.constant(12.0), min_rtt=0.1, buffer_packets=10.0)
        accepted, dropped, random_lost = link.enqueue(0, 8.0, now=0.0)
        assert accepted == pytest.approx(8.0)
        assert dropped == pytest.approx(0.0)
        assert random_lost == pytest.approx(0.0)

    def test_tail_drop_when_full(self):
        link = BottleneckLink(BandwidthTrace.constant(12.0), min_rtt=0.1, buffer_packets=10.0)
        link.enqueue(0, 10.0, now=0.0)
        accepted, dropped, _ = link.enqueue(0, 5.0, now=0.0)
        assert accepted == pytest.approx(0.0)
        assert dropped == pytest.approx(5.0)

    def test_zero_enqueue_is_noop(self):
        link = make_link()
        assert link.enqueue(0, 0.0, 0.0) == (0.0, 0.0, 0.0)

    def test_negative_enqueue_rejected(self):
        with pytest.raises(ValueError):
            make_link().enqueue(0, -1.0, 0.0)

    def test_random_loss_removes_fraction(self):
        link = BottleneckLink(BandwidthTrace.constant(12.0), min_rtt=0.1,
                              buffer_packets=100.0, random_loss_rate=0.1)
        accepted, dropped, random_lost = link.enqueue(0, 10.0, 0.0)
        assert random_lost == pytest.approx(1.0)
        assert accepted == pytest.approx(9.0)
        assert dropped == pytest.approx(0.0)


class TestDrain:
    def test_drain_respects_capacity(self):
        link = make_link(mbps=12.0, buffer_bdp=10.0)
        link.enqueue(0, 1000.0, 0.0)
        delivered = link.drain(0.0, dt=0.1)
        total = sum(packets for _, packets, _ in delivered)
        assert total == pytest.approx(mbps_to_pps(12.0) * 0.1, rel=1e-6)

    def test_drain_empty_queue(self):
        assert make_link().drain(0.0, 0.1) == []

    def test_drain_invalid_dt(self):
        with pytest.raises(ValueError):
            make_link().drain(0.0, 0.0)

    def test_fifo_order_across_flows(self):
        link = make_link(mbps=1.2, buffer_bdp=100.0)
        link.enqueue(0, 5.0, 0.0)
        link.enqueue(1, 5.0, 0.0)
        delivered = link.drain(0.0, dt=10.0)
        assert delivered[0][0] == 0
        assert delivered[-1][0] == 1

    def test_queuing_delay_reported(self):
        link = make_link(mbps=12.0, buffer_bdp=10.0)
        link.enqueue(0, 5.0, now=0.0)
        delivered = link.drain(now=0.5, dt=0.1)
        assert all(delay == pytest.approx(0.5) for _, _, delay in delivered)

    def test_no_capacity_carryover_on_empty_queue(self):
        link = make_link(mbps=12.0)
        link.drain(0.0, dt=1.0)  # nothing queued; credit must not accumulate
        link.enqueue(0, 1000.0, 1.0)
        delivered = link.drain(1.0, dt=0.1)
        total = sum(packets for _, packets, _ in delivered)
        assert total <= mbps_to_pps(12.0) * 0.1 + 1e-6

    def test_reset_clears_state(self):
        link = make_link(buffer_bdp=10.0)
        link.enqueue(0, 5.0, 0.0)
        link.reset()
        assert link.queue_occupancy == 0.0
        assert link.total_enqueued == 0.0

    def test_per_flow_occupancy(self):
        link = make_link(buffer_bdp=10.0)
        link.enqueue(0, 3.0, 0.0)
        link.enqueue(1, 2.0, 0.0)
        occupancy = link.per_flow_occupancy()
        assert occupancy[0] == pytest.approx(3.0)
        assert occupancy[1] == pytest.approx(2.0)


@given(st.lists(st.floats(0.0, 50.0), min_size=1, max_size=20), st.floats(1.0, 100.0))
@settings(max_examples=40, deadline=None)
def test_packet_conservation(offered, buffer_packets):
    """accepted + dropped == offered, and delivered never exceeds accepted."""
    link = BottleneckLink(BandwidthTrace.constant(24.0), min_rtt=0.05, buffer_packets=buffer_packets)
    total_offered = 0.0
    total_accepted = 0.0
    now = 0.0
    for amount in offered:
        accepted, dropped, random_lost = link.enqueue(0, amount, now)
        assert accepted + dropped + random_lost == pytest.approx(amount, abs=1e-9)
        total_offered += amount
        total_accepted += accepted
        link.drain(now, dt=0.01)
        now += 0.01
    assert link.total_delivered <= total_accepted + 1e-6
    assert link.queue_occupancy == pytest.approx(total_accepted - link.total_delivered, abs=1e-6)
