"""Tests for the Orca power-metric reward (Eqs. 2–3)."""

import pytest

from repro.cc.netsim import MonitorReport
from repro.orca.reward import OrcaRewardConfig, orca_reward


def make_report(throughput=1000.0, loss=0.0, delay=0.0, srtt=0.05, min_rtt=0.05, avg_rtt=None):
    return MonitorReport(throughput_pps=throughput, loss_rate=loss, avg_queuing_delay=delay,
                         n_acks=throughput * 0.2, interval=0.2, srtt=srtt, min_rtt=min_rtt,
                         avg_rtt=avg_rtt if avg_rtt is not None else srtt,
                         cwnd=20.0)


class TestConfig:
    def test_invalid_zeta(self):
        with pytest.raises(ValueError):
            OrcaRewardConfig(zeta=-1.0)

    def test_invalid_beta(self):
        with pytest.raises(ValueError):
            OrcaRewardConfig(beta=1.0)

    def test_invalid_floor(self):
        with pytest.raises(ValueError):
            OrcaRewardConfig(min_delay_floor=0.0)


class TestReward:
    def test_perfect_conditions_give_reward_one(self):
        report = make_report(throughput=1000.0, avg_rtt=0.05, min_rtt=0.05)
        assert orca_reward(report, max_throughput_pps=1000.0) == pytest.approx(1.0)

    def test_reward_decreases_with_lower_throughput(self):
        high = orca_reward(make_report(throughput=1000.0), 1000.0)
        low = orca_reward(make_report(throughput=400.0), 1000.0)
        assert low < high

    def test_reward_decreases_with_delay(self):
        base = orca_reward(make_report(avg_rtt=0.05), 1000.0)
        delayed = orca_reward(make_report(avg_rtt=0.25), 1000.0)
        assert delayed < base

    def test_delay_tolerance_band(self):
        # Within beta * d_min the delay is floored to d_min (no penalty).
        config = OrcaRewardConfig(beta=1.5)
        at_floor = orca_reward(make_report(avg_rtt=0.05), 1000.0, config)
        slightly_above = orca_reward(make_report(avg_rtt=0.07), 1000.0, config)
        assert slightly_above == pytest.approx(at_floor)

    def test_loss_penalty(self):
        clean = orca_reward(make_report(loss=0.0), 1000.0)
        lossy = orca_reward(make_report(loss=0.2), 1000.0)
        assert lossy < clean

    def test_loss_can_drive_reward_negative(self):
        reward = orca_reward(make_report(throughput=1000.0, loss=0.5), 1000.0,
                             OrcaRewardConfig(zeta=10.0))
        assert reward < 0.0

    def test_reward_clipped_to_configured_range(self):
        config = OrcaRewardConfig(zeta=10.0)
        reward = orca_reward(make_report(throughput=1000.0, loss=1.0), 1000.0, config)
        assert reward >= -config.zeta

    def test_zero_rtt_report_handled(self):
        report = make_report(srtt=0.0, min_rtt=0.0, avg_rtt=0.0)
        value = orca_reward(report, 1000.0)
        assert value == value  # not NaN
