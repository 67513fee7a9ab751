"""Tests for the performance metrics."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cc.flow import TickRecord
from repro.cc.metrics import (
    jain_fairness_index,
    summarize_flow,
    throughput_ratio,
    utilization,
)
from repro.cc.netsim import FlowStats
from repro.traces.trace import mbps_to_pps, pps_to_mbps


def make_stats(acked, delays=None, lost=None, rtts=None, dt=0.01):
    acked = np.asarray(acked, dtype=float)
    n = acked.size
    delays = np.asarray(delays, dtype=float) if delays is not None else np.zeros(n)
    lost = np.asarray(lost, dtype=float) if lost is not None else np.zeros(n)
    rtts = np.asarray(rtts, dtype=float) if rtts is not None else delays + 0.05
    stats = FlowStats(0)
    for i in range(n):
        stats.records.append(TickRecord(time=(i + 1) * dt, sent=acked[i] + lost[i],
                                        acked=acked[i], lost=lost[i], rtt=rtts[i],
                                        queuing_delay=delays[i], cwnd=10.0, inflight=5.0))
    return stats


class TestSummaries:
    def test_throughput_matches_acked_rate(self):
        pps = mbps_to_pps(12.0)
        acked = np.full(1000, pps * 0.01)
        stats = make_stats(acked)
        capacity = np.full(1000, 12.0)
        summary = summarize_flow(stats, capacity, dt=0.01, skip_seconds=0.0)
        assert summary.throughput_mbps == pytest.approx(12.0, rel=1e-6)
        assert summary.utilization == pytest.approx(1.0, rel=1e-6)

    def test_loss_rate(self):
        stats = make_stats(np.full(100, 9.0), lost=np.full(100, 1.0))
        summary = summarize_flow(stats, np.full(100, 12.0), dt=0.01, skip_seconds=0.0)
        assert summary.loss_rate == pytest.approx(0.1)

    def test_delay_statistics_weighted_by_acks(self):
        acked = np.array([1.0, 1.0, 8.0])
        delays = np.array([0.1, 0.1, 0.01])
        stats = make_stats(acked, delays=delays)
        summary = summarize_flow(stats, np.full(3, 12.0), dt=0.01, skip_seconds=0.0)
        expected_avg = np.average(delays, weights=acked) * 1000.0
        assert summary.avg_queuing_delay_ms == pytest.approx(expected_avg)

    def test_p95_exceeds_average_for_skewed_delays(self):
        acked = np.ones(100)
        delays = np.concatenate([np.full(90, 0.01), np.full(10, 0.2)])
        stats = make_stats(acked, delays=delays)
        summary = summarize_flow(stats, np.full(100, 12.0), dt=0.01, skip_seconds=0.0)
        assert summary.p95_queuing_delay_ms > summary.avg_queuing_delay_ms

    def test_skip_seconds_excludes_rampup(self):
        acked = np.concatenate([np.zeros(100), np.full(100, 10.0)])
        stats = make_stats(acked)
        capacity = np.full(200, pps_to_mbps(10.0 / 0.01))
        with_skip = summarize_flow(stats, capacity, dt=0.01, skip_seconds=1.0)
        without = summarize_flow(stats, capacity, dt=0.01, skip_seconds=0.0)
        assert with_skip.utilization > without.utilization

    def test_empty_ack_stream(self):
        stats = make_stats(np.zeros(50))
        summary = summarize_flow(stats, np.full(50, 12.0), dt=0.01, skip_seconds=0.0)
        assert summary.throughput_mbps == 0.0
        assert summary.avg_queuing_delay_ms == 0.0

    def test_zero_capacity_gives_zero_utilization(self):
        stats = make_stats(np.ones(10))
        assert utilization(stats, np.zeros(10), dt=0.01, skip_seconds=0.0) == 0.0


class TestFlowStatsColumns:
    def test_columns_match_per_field_conversion(self):
        stats = make_stats(np.linspace(0.0, 3.0, 40), delays=np.linspace(0.01, 0.02, 40))
        for name in TickRecord._fields:
            column = getattr(stats, "times" if name == "time" else name)
            expected = np.array([getattr(r, name) for r in stats.records], dtype=np.float64)
            assert np.array_equal(column, expected)
            assert column.flags.c_contiguous

    def test_columns_follow_appends_and_are_independent_copies(self):
        stats = make_stats([1.0, 2.0])
        acked = stats.acked
        acked[0] = 99.0
        assert list(stats.acked) == [1.0, 2.0]
        stats.records.append(TickRecord(time=0.03, sent=4.0, acked=4.0, lost=0.0, rtt=0.05,
                                        queuing_delay=0.0, cwnd=10.0, inflight=5.0))
        assert list(stats.acked) == [1.0, 2.0, 4.0]

    def test_empty_stats_give_empty_columns(self):
        stats = FlowStats(0)
        assert stats.acked.shape == (0,)
        assert stats.acked.dtype == np.float64


class TestFairness:
    def test_jain_perfect_fairness(self):
        assert jain_fairness_index([10.0, 10.0, 10.0]) == pytest.approx(1.0)

    def test_jain_maximally_unfair(self):
        assert jain_fairness_index([10.0, 0.0, 0.0]) == pytest.approx(1.0 / 3.0)

    def test_jain_empty_raises(self):
        with pytest.raises(ValueError):
            jain_fairness_index([])

    def test_jain_all_zero_defined_as_fair(self):
        assert jain_fairness_index([0.0, 0.0]) == pytest.approx(1.0)

    def test_throughput_ratio(self):
        assert throughput_ratio(10.0, [5.0, 15.0]) == pytest.approx(1.0)
        assert throughput_ratio(20.0, [10.0]) == pytest.approx(2.0)

    def test_throughput_ratio_empty_competitors(self):
        with pytest.raises(ValueError):
            throughput_ratio(1.0, [])


@given(st.lists(st.floats(0.0, 100.0), min_size=1, max_size=10))
@settings(max_examples=50, deadline=None)
def test_jain_index_bounds(throughputs):
    index = jain_fairness_index(throughputs)
    assert 1.0 / len(throughputs) - 1e-9 <= index <= 1.0 + 1e-9
