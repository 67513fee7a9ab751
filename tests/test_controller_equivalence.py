"""Bit-for-bit pins of the controller half of the tick against brute force.

Each test runs the program next to a reference written here in the most
direct form: BBR's bandwidth filter as a full-window ``max``, the
simulator's monitor report as per-tick accumulation over the records
``tick()`` returns, and the learned controller as dict accumulation plus
``np.clip`` on every scalar.  Values are compared as IEEE-754 bit patterns,
so a reordered sum or a lost ``-0.0`` fails.  The last test observes one
trajectory through both the training (``monitor_report``) and the deployed
(``LearnedController``) pipeline and pins where the two agree.
"""

from collections import deque

import numpy as np
import pytest

from repro.cc.base import MIN_CWND, CongestionController, TickFeedback
from repro.cc.bbr import BBRController
from repro.cc.cubic import CubicController
from repro.cc.flow import Flow
from repro.cc.link import BottleneckLink
from repro.cc.netsim import MonitorReport, NetworkSimulator
from repro.orca.agent import LearnedController, cwnd_from_action
from repro.orca.observations import (
    FEATURE_NAMES,
    ObservationBuilder,
    ObservationConfig,
    clip_float,
)
from repro.topology import build_topology
from repro.traces.cellular import make_cellular_trace
from repro.traces.synthetic import make_synthetic_trace
from repro.traces.trace import BandwidthTrace
from repro.workload import build_workload

_INF = float("inf")
_NAN = float("nan")
SPECIALS = (_NAN, -_NAN, 0.0, -0.0, _INF, -_INF, -1.0, 1.0, 2.0, 0.5, -0.5, 1e-300, -1e-300,
            np.nextafter(1.0, 2.0), np.nextafter(-1.0, -2.0))


def bits(values) -> bytes:
    """The IEEE-754 bytes of a float or a sequence of floats."""
    return np.asarray(values, dtype=np.float64).tobytes()


# ---------------------------------------------------------------------- #
# BBR: the bottleneck-bandwidth filter is the max over the whole window
# ---------------------------------------------------------------------- #
def bbr_feedback_stream(seed: int, ticks: int = 3200, dt: float = 0.01):
    """Seeded RTT and delivery-rate streams for BBR.

    RTT rises from 30 ms to 80 ms at t = 6 s, so PROBE_RTT's re-sample of
    ``min_rtt`` (after 10 s) widens the filter window.  Delivery rates are
    coarse integers (ties happen) with scattered zeros and a silent stretch
    from 20 s to 22 s, long enough to empty the window.
    """
    rng = np.random.default_rng(seed)
    now = 0.0
    for tick in range(ticks):
        now += dt
        base = 0.03 if now < 6.0 else 0.08
        rtt = 0.0 if rng.random() < 0.1 else base + float(rng.uniform(0.0, 0.02))
        silent = 20.0 <= now < 22.0 or rng.random() < 0.05
        rate = 0.0 if silent else float(rng.integers(1, 40)) * 50.0
        acked = rate * dt
        yield TickFeedback(now, dt, acked, 0.0, rtt, 0.03, 0.0, 10.0, rate)


def test_bbr_bandwidth_filter_matches_full_window_max():
    for seed in (3, 11, 29):
        bbr = BBRController()
        samples = deque()
        expected, got, windows = [], [], []
        btl_bw = 0.0
        emptied = False
        for feedback in bbr_feedback_stream(seed):
            bbr.on_tick(feedback)
            got.append(bbr._btl_bw)
            if feedback.delivery_rate > 0:
                samples.append((feedback.now, feedback.delivery_rate))
            min_rtt = bbr._min_rtt
            rtt_est = min_rtt if min_rtt < _INF else max(feedback.rtt, 0.01)
            window = BBRController.BW_WINDOW_RTTS * max(rtt_est, 0.01)
            windows.append(window)
            had_samples = bool(samples)
            while samples and samples[0][0] < feedback.now - window:
                samples.popleft()
            emptied |= had_samples and not samples
            btl_bw = max((rate for _, rate in samples), default=btl_bw)
            expected.append(btl_bw)
        assert bits(got) == bits(expected)
        # The streams reach the cases the filter must get right.
        assert emptied
        assert max(windows[600:]) > min(windows[:600])
        assert any(later > earlier for earlier, later in zip(windows, windows[1:]))


# ---------------------------------------------------------------------- #
# monitor_report: the interval's sums equal per-tick accumulation
# ---------------------------------------------------------------------- #
def test_monitor_report_matches_per_tick_accumulation():
    duration = 6.0
    trace = BandwidthTrace.constant(24.0, duration=60.0)
    topology = build_topology("chain(3)", trace, min_rtt=0.06, buffer_bdp=0.5, seed=5)
    flows = [Flow(0, CubicController())]
    flows += [cross.build() for cross in build_workload("responsive(cubic:2)", duration, seed=5)]
    flows.append(Flow(3, BBRController(), start_time=1.25, stop_time=4.0))
    sim = NetworkSimulator(topology, flows)

    fields = ("acked", "lost", "delay_weighted", "rtt_weighted", "ack_weight")
    acc = {fid: dict.fromkeys(fields, 0.0) for fid in sim.flows}
    last_report = {fid: flow.start_time for fid, flow in sim.flows.items()}
    reports = lossy = late_acked = 0
    for tick in range(int(round(duration / sim.dt))):
        for fid, record in sim.tick().items():
            a = acc[fid]
            a["acked"] += record.acked
            a["lost"] += record.lost
            if record.acked > 0:
                a["delay_weighted"] += record.queuing_delay * record.acked
                a["rtt_weighted"] += record.rtt * record.acked
                a["ack_weight"] += record.acked
        for fid in sim.flows:
            period = 13 + 4 * fid
            if tick % period != period - 1:
                continue
            # A back-to-back second report covers an empty interval.
            for _ in range(2 if tick % 3 == 0 else 1):
                report = sim.monitor_report(fid)
                a = acc[fid]
                flow = sim.flows[fid]
                interval = max(sim.now - last_report[fid], sim.dt)
                acked, lost, weight = a["acked"], a["lost"], a["ack_weight"]
                expected = (
                    acked / interval,
                    lost / (acked + lost) if (acked + lost) > 0 else 0.0,
                    a["delay_weighted"] / weight if weight > 0 else 0.0,
                    acked,
                    interval,
                    a["rtt_weighted"] / weight if weight > 0 else flow.srtt,
                )
                assert bits([report.throughput_pps, report.loss_rate, report.avg_queuing_delay,
                             report.n_acks, report.interval,
                             report.avg_rtt]) == bits(expected), (tick, fid)
                acc[fid] = dict.fromkeys(fields, 0.0)
                last_report[fid] = sim.now
                reports += 1
                lossy += report.loss_rate > 0
                late_acked += fid == 3 and report.n_acks > 0
    assert reports > 100 and lossy > 0 and late_acked > 0


# ---------------------------------------------------------------------- #
# LearnedController: decisions equal dict accumulation with np.clip
# ---------------------------------------------------------------------- #
def reference_normalize(cfg, report, max_throughput, prev_cwnd):
    """One observation step with ``np.clip`` on every scalar."""
    max_throughput = max(max_throughput, report.throughput_pps, 1.0)
    throughput = report.throughput_pps / max_throughput
    loss = float(np.clip(report.loss_rate, 0.0, 1.0))
    delay = float(np.clip(report.avg_queuing_delay / cfg.delay_scale, 0.0, 1.0))
    acks = float(np.clip(report.n_acks / cfg.ack_scale, 0.0, 1.0))
    interval = float(np.clip(report.interval / cfg.monitor_interval, 0.0, 2.0))
    if report.srtt > 0 and report.min_rtt > 0:
        inv_rtt = float(np.clip(report.min_rtt / report.srtt, 0.0, 1.0))
    else:
        inv_rtt = 1.0
    if prev_cwnd is None or prev_cwnd <= 0:
        dcwnd = 0.0
    else:
        rel_change = (report.cwnd - prev_cwnd) / prev_cwnd
        dcwnd = float(np.clip(rel_change / cfg.dcwnd_scale, -1.0, 1.0))
    features = np.array([throughput, loss, delay, acks, interval, inv_rtt, dcwnd],
                        dtype=np.float64)
    return features, max_throughput, report.cwnd


def reference_cwnd(action, cwnd_tcp):
    action = float(np.clip(action, -1.0, 1.0))
    return max(MIN_CWND, float(2.0 ** (2.0 * action) * cwnd_tcp))


class ReferenceLearnedController(CongestionController):
    """CUBIC plus a learned override, accumulating each tick into a dict."""

    name = "reference"

    def __init__(self, policy, monitor_interval, observation_noise, noise_seed):
        self.inner = CubicController()
        super().__init__(self.inner.cwnd)
        self.policy = policy
        self.monitor_interval = monitor_interval
        self.observation_noise = observation_noise
        self.rng = np.random.default_rng(noise_seed)
        self.config = ObservationConfig()
        k = self.config.history_len
        self.history = deque([np.zeros(self.config.feature_dim) for _ in range(k)], maxlen=k)
        self.max_throughput = 1.0
        self.prev_cwnd = None
        self.last_decision = 0.0
        self.decisions = []
        self.acc = self.fresh()

    @staticmethod
    def fresh():
        return {"acked": 0.0, "lost": 0.0, "delay_weighted": 0.0,
                "rtt_weighted": 0.0, "ack_weight": 0.0, "start": None, "last_srtt": 0.0,
                "last_min_rtt": 0.0}

    @property
    def cwnd(self):
        return self.inner.cwnd

    def set_cwnd(self, value):
        self.inner.set_cwnd(value)

    def pacing_rate(self, feedback=None):
        return self.inner.pacing_rate(feedback)

    def on_tick(self, feedback):
        self.inner.on_tick(feedback)
        acc = self.acc
        if acc["start"] is None:
            acc["start"] = feedback.now - feedback.dt
        acc["acked"] += feedback.acked
        acc["lost"] += feedback.lost
        if feedback.acked > 0:
            acc["delay_weighted"] += feedback.queuing_delay * feedback.acked
            acc["rtt_weighted"] += feedback.rtt * feedback.acked
            acc["ack_weight"] += feedback.acked
        acc["last_srtt"] = feedback.rtt if feedback.rtt > 0 else acc["last_srtt"]
        acc["last_min_rtt"] = feedback.min_rtt
        if feedback.now - self.last_decision >= self.monitor_interval - 1e-9:
            self.decide(feedback.now)
            self.last_decision = feedback.now

    def decide(self, now):
        acc = self.acc
        start = acc["start"] if acc["start"] is not None else now - self.monitor_interval
        interval = max(now - start, 1e-3)
        acked, lost, weight = acc["acked"], acc["lost"], acc["ack_weight"]
        avg_delay = acc["delay_weighted"] / weight if weight > 0 else 0.0
        noise = self.rng.uniform(-self.observation_noise, self.observation_noise)
        avg_delay = max(0.0, avg_delay * (1.0 + noise))
        report = MonitorReport(
            throughput_pps=acked / interval,
            loss_rate=lost / (acked + lost) if (acked + lost) > 0 else 0.0,
            avg_queuing_delay=avg_delay, n_acks=acked, interval=interval,
            srtt=acc["last_srtt"], min_rtt=acc["last_min_rtt"],
            avg_rtt=acc["rtt_weighted"] / weight if weight > 0 else acc["last_srtt"],
            cwnd=self.inner.cwnd)
        features, self.max_throughput, self.prev_cwnd = reference_normalize(
            self.config, report, self.max_throughput, self.prev_cwnd)
        self.history.append(features)
        state = np.concatenate(list(reversed(self.history)))
        cwnd_tcp = self.inner.cwnd
        action = float(np.asarray(self.policy(state)).reshape(-1)[0])
        action = float(np.clip(action, -1.0, 1.0))
        new_cwnd = reference_cwnd(action, cwnd_tcp)
        self.inner.set_cwnd(new_cwnd)
        self.decisions.append((now, state, action, cwnd_tcp, cwnd_tcp, new_cwnd))
        self.acc = self.fresh()


def swinging_policy(state):
    """Deterministic in the state, and often outside [-1, 1]."""
    return np.array([1.7 * np.sin(11.0 * float(state.sum()))])


def run_two_flow(controller, duration=6.0):
    trace = BandwidthTrace.constant(12.0, duration=duration + 5)
    link = BottleneckLink(trace, min_rtt=0.05, buffer_bdp=1.0, random_loss_rate=0.01, seed=4)
    competitor = Flow(1, CubicController(), start_time=1.0, stop_time=4.5)
    NetworkSimulator(link, [Flow(0, controller), competitor], dt=0.01).run(duration)


def test_learned_controller_decisions_match_reference():
    noise, seed = 0.3, 42
    program = LearnedController(swinging_policy, monitor_interval=0.2,
                                observation_noise=noise, noise_seed=seed)
    reference = ReferenceLearnedController(swinging_policy, 0.2, noise, seed)
    run_two_flow(program)
    run_two_flow(reference)
    assert len(program.decisions) == len(reference.decisions) >= 25
    for decision, (time, state, action, cwnd_tcp, cwnd_before, cwnd_after) in zip(
            program.decisions, reference.decisions):
        assert decision.state.tobytes() == state.tobytes()
        assert bits([decision.time, decision.action, decision.cwnd_tcp, decision.cwnd_before,
                     decision.cwnd_after]) == bits([time, action, cwnd_tcp, cwnd_before,
                                                    cwnd_after])
    actions = [decision.action for decision in program.decisions]
    assert min(actions) == -1.0 and max(actions) == 1.0


# ---------------------------------------------------------------------- #
# The scalar clip keeps np.clip's NaN and signed-zero results
# ---------------------------------------------------------------------- #
def test_clip_float_matches_np_clip():
    bounds = ((0.0, 1.0), (-1.0, 1.0), (0.0, 2.0), (-0.0, 0.0), (-_INF, _INF))
    for lo, hi in bounds:
        for value in SPECIALS + (lo, hi):
            got = clip_float(value, lo, hi)
            assert type(got) is float
            assert bits(got) == bits(float(np.clip(value, lo, hi))), (value, lo, hi)


def test_cwnd_from_action_matches_np_clip():
    for action in SPECIALS:
        for cwnd_tcp in (10.0, 0.5, 0.0):
            assert bits(cwnd_from_action(action, cwnd_tcp)) == bits(reference_cwnd(action, cwnd_tcp))


def test_observation_features_match_np_clip():
    cfg = ObservationConfig()
    builder = ObservationBuilder(cfg)
    max_throughput, prev_cwnd = 1.0, None
    for index, value in enumerate(SPECIALS * 2):
        other = SPECIALS[(index * 7) % len(SPECIALS)]
        report = MonitorReport(
            throughput_pps=abs(value) * 100.0, loss_rate=value,
            avg_queuing_delay=value * cfg.delay_scale, n_acks=other * cfg.ack_scale,
            interval=value * cfg.monitor_interval, srtt=abs(other) + 0.01,
            min_rtt=abs(value), avg_rtt=0.05, cwnd=10.0 + other)
        features, max_throughput, prev_cwnd = reference_normalize(
            cfg, report, max_throughput, prev_cwnd)
        assert builder._normalize(report).tobytes() == features.tobytes(), index


# ---------------------------------------------------------------------- #
# Training vs deployment: one trajectory observed through both pipelines
# ---------------------------------------------------------------------- #
#: Measured on this trajectory (share of the 100 decisions whose inv_rtt
#: differs, largest gap): step-12-48 at 0.5/2/5 BDP 0.99/0.201, 0.99/0.348,
#: 0.99/0.359; cellular-att 1.00/0.407, 1.00/0.289, 1.00/0.071.  Training
#: reads ``flow.srtt`` (an EWMA) and the flow's clamped min RTT; deployment
#: reads the interval's last RTT sample and the last feedback's min RTT.
#: Rebasing both on one source changes these numbers, and this test with them.
PARITY_FEATURES = ("throughput", "loss", "delay", "acks", "interval", "dcwnd")


@pytest.mark.parametrize("buffer_bdp", (0.5, 2.0, 5.0))
@pytest.mark.parametrize("trace_name", ("step-12-48", "cellular-att"))
def test_training_and_deployed_observations_agree_except_inv_rtt(trace_name, buffer_bdp):
    trace = (make_cellular_trace(trace_name) if trace_name.startswith("cellular")
             else make_synthetic_trace(trace_name))
    controller = LearnedController(lambda state: np.zeros(1))
    link = BottleneckLink(trace, min_rtt=0.05, buffer_bdp=buffer_bdp)
    sim = NetworkSimulator(link, [Flow(0, controller)], dt=0.01)
    training = ObservationBuilder(controller.observer.config)
    k = len(FEATURE_NAMES)
    deployed, trained = [], []
    while len(deployed) < 100:
        sim.tick()
        if len(controller.decisions) > len(deployed):
            # The deciding tick has finished: the simulator's interval ends here too.
            deployed.append(controller.decisions[-1].state[:k])
            trained.append(training.observe(sim.monitor_report(0))[:k])
    deployed, trained = np.array(deployed), np.array(trained)
    for name in PARITY_FEATURES:
        index = FEATURE_NAMES.index(name)
        np.testing.assert_allclose(deployed[:, index], trained[:, index], rtol=0, atol=1e-12,
                                   err_msg=name)
    inv_rtt = FEATURE_NAMES.index("inv_rtt")
    assert np.count_nonzero(deployed[:, inv_rtt] != trained[:, inv_rtt]) > 0
