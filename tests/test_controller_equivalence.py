"""Bit-for-bit pins of both halves of the tick against brute force.

Each test runs the program next to a reference written here in the most
direct form: BBR's bandwidth filter as a full-window ``max``, the
simulator's monitor report as per-tick accumulation over the records
``tick()`` returns, the learned controller as dict accumulation plus
``np.clip`` on every scalar, a hop's enqueue and drain as a plain-list FIFO
and the transit stage as a list sorted by ``(eligible_time, seq)``.  Values
are compared as IEEE-754 bit patterns, so a reordered sum or a lost ``-0.0``
fails.  Whole trajectories on six multi-hop scenarios are pinned by a
SHA-256 digest.  One test observes one trajectory through both the training
(``monitor_report``) and the deployed (``LearnedController``) pipeline and
pins where the two agree.
"""

import hashlib
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
from repro.telemetry.events import EventTrace
from repro.topology import (
    CrossTrafficSource,
    OnOff,
    Topology,
    TransitQueue,
    build_topology,
    topology_family_specs,
)
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


# ---------------------------------------------------------------------- #
# Link half: a hop's enqueue and drain equal a plain-list FIFO
# ---------------------------------------------------------------------- #
def reference_drain(fifo, state, capacity_pps, now, dt):
    """Drain ``fifo`` (``[flow, packets, enqueue_time, carried]`` lists) head first.

    The budget is ``capacity·dt`` plus the credit the previous drain left;
    a head with at most 1e-12 packets left is dropped from the FIFO (its
    residue stays in the occupancy), and the credit survives only while
    packets are still queued.
    """
    budget = capacity_pps * dt + state["credit"]
    delivered = []
    while budget > 1e-12 and fifo:
        head = fifo[0]
        take = min(budget, head[1])
        delivered.append((head[0], take, head[3] + max(now - head[2], 0.0)))
        state["occupancy"] = max(state["occupancy"] - take, 0.0)
        state["delivered"] += take
        budget -= take
        head[1] -= take
        if head[1] <= 1e-12:
            state["residue_pops"] += head[1] > 0.0
            fifo.pop(0)
        else:
            state["partial_heads"] += 1
    state["credit"] = budget if fifo else 0.0
    state["credit_carries"] += state["credit"] > 0.0
    return delivered


def flat(chunks):
    """Every field of every chunk, read positionally, as one float sequence."""
    return [value for chunk in chunks for value in chunk]


@pytest.mark.parametrize("seed", (0, 1, 2, 3))
def test_drain_matches_plain_list_fifo(seed):
    rng = np.random.default_rng(seed)
    link = BottleneckLink(BandwidthTrace.constant(12.0, duration=60.0), min_rtt=0.05,
                          buffer_packets=40.0)
    # The twin is drained only while its FIFO holds chunks, as the simulator's
    # tick does: an empty FIFO carries no credit, so the skipped call is a no-op.
    twin = BottleneckLink(BandwidthTrace.constant(12.0, duration=60.0), min_rtt=0.05,
                          buffer_packets=40.0)
    fifo = []
    state = dict(occupancy=0.0, delivered=0.0, credit=0.0,
                 residue_pops=0, partial_heads=0, credit_carries=0)
    now, empty_drains = 0.0, 0
    for step in range(1500):
        dt = 0.01 if step % 5 else 0.004
        for _ in range(int(rng.integers(0, 4))):
            fid = int(rng.integers(-1, 3))
            kind = rng.random()
            packets = (5e-13 if kind < 0.05 else 2e-12 if kind < 0.1
                       else float(rng.uniform(0.0, 8.0)))
            carried = float(rng.uniform(0.0, 0.05)) if rng.random() < 0.5 else 0.0
            accepted, _, _ = link.enqueue(fid, packets, now, carried_delay=carried)
            twin.enqueue(fid, packets, now, carried_delay=carried)
            if accepted > 0:
                fifo.append([fid, accepted, now, carried])
                state["occupancy"] += accepted
        # Capacities: idle, random, or the head's remainder ± a few 1e-13
        # (leaving a head residue or a carried credit around 1e-12).
        kind = rng.random()
        if kind < 0.1:
            capacity = 0.0
        elif kind < 0.45 and fifo:
            offset = (-5e-13, 5e-13, -2e-12, 2e-12, 0.0)[int(rng.integers(0, 5))]
            capacity = (fifo[0][1] + offset - state["credit"]) / dt
        else:
            capacity = float(rng.uniform(50.0, 3000.0))
        empty_drains += not fifo and capacity > 0.0
        if step % 7 == 0:
            capacity = link.capacity_pps(now)
            got = link.drain(now, dt)
        else:
            got = link.drain_at(capacity, now, dt)
        twin_got = twin.drain_at(capacity, now, dt) if fifo else []
        expected = reference_drain(fifo, state, capacity, now, dt)
        assert len(got) == len(expected), step
        assert bits(flat(got)) == bits(flat(expected)), step
        assert bits(flat(twin_got)) == bits(flat(got)), step
        assert bits([link.queue_occupancy, link.total_delivered]) == bits(
            [state["occupancy"], state["delivered"]]), step
        assert bits([twin.queue_occupancy, twin.total_delivered]) == bits(
            [link.queue_occupancy, link.total_delivered]), step
        per_flow = {}
        for fid, packets, _, _ in fifo:
            per_flow[fid] = per_flow.get(fid, 0.0) + packets
        assert link.per_flow_occupancy() == per_flow, step
        now += dt
    assert state["residue_pops"] > 0 and state["partial_heads"] > 0
    assert state["credit_carries"] > 0 and empty_drains > 0


def reference_enqueue(fifo, state, link, rng, flow_id, packets, now, carried):
    """Offer ``packets`` to the plain-list FIFO as ``BottleneckLink.enqueue`` does.

    Random loss thins the arrival first: by exactly ``rate`` of it, or, in
    stochastic mode, binomially over its whole packets plus one Bernoulli
    trial for the fraction, drawn from ``rng``.  The buffer then admits what
    fits and tail-drops the rest.
    """
    if packets == 0:
        return 0.0, 0.0, 0.0
    rate = link.random_loss_rate
    random_lost = 0.0
    if rate > 0 and not link.stochastic_loss:
        random_lost = packets * rate
    elif rate > 0:
        whole = int(packets)
        random_lost = float(rng.binomial(whole, rate)) if whole > 0 else 0.0
        if packets - whole > 0 and rng.random() < rate:
            random_lost += packets - whole
    packets -= random_lost
    accepted = min(max(link.buffer_packets - state["occupancy"], 0.0), packets)
    dropped = packets - accepted
    if accepted > 0:
        fifo.append([flow_id, accepted, now, carried])
        state["occupancy"] += accepted
    state["enqueued"] += accepted
    state["dropped"] += dropped + random_lost
    return accepted, dropped, random_lost


@pytest.mark.parametrize("loss", ("none", "deterministic", "stochastic"))
@pytest.mark.parametrize("seed", (0, 1))
def test_enqueue_matches_plain_list_fifo(loss, seed):
    rng = np.random.default_rng(seed)
    link = BottleneckLink(BandwidthTrace.constant(12.0, duration=60.0), min_rtt=0.05,
                          buffer_packets=25.0, random_loss_rate=0.0 if loss == "none" else 0.1,
                          stochastic_loss=loss == "stochastic", seed=40 + seed)
    loss_rng = np.random.default_rng(link.seed)
    fifo = []
    state = dict(occupancy=0.0, delivered=0.0, credit=0.0, enqueued=0.0, dropped=0.0,
                 residue_pops=0, partial_heads=0, credit_carries=0)
    seen = dict(zero=0, tail=0, thinned=0, carried=0)
    now = 0.0
    for step in range(800):
        for _ in range(int(rng.integers(0, 5))):
            fid = int(rng.integers(-2, 3))
            kind = rng.random()
            packets = (0.0 if kind < 0.1 else float(rng.integers(1, 6)) if kind < 0.3
                       else float(rng.uniform(0.0, 9.0)))
            carried = float(rng.uniform(0.0, 0.05)) if rng.random() < 0.5 else 0.0
            got = link.enqueue(fid, packets, now, carried_delay=carried)
            expected = reference_enqueue(fifo, state, link, loss_rng, fid, packets, now, carried)
            assert bits(got) == bits(expected), step
            assert bits([link.queue_occupancy, link.total_enqueued, link.total_dropped]) == bits(
                [state["occupancy"], state["enqueued"], state["dropped"]]), step
            seen["zero"] += packets == 0.0
            seen["tail"] += expected[1] > 0
            seen["thinned"] += expected[2] > 0
            seen["carried"] += expected[0] > 0 and carried > 0
        # Drained against the drain reference, so each admitted chunk's flow,
        # size, enqueue time and carried delay are read back out.
        capacity = float(rng.uniform(0.0, 2500.0))
        got = link.drain_at(capacity, now, 0.01)
        expected = reference_drain(fifo, state, capacity, now, 0.01)
        assert bits(flat(got)) == bits(flat(expected)), step
        now += 0.01
    assert seen["zero"] > 0 and seen["tail"] > 0 and seen["carried"] > 0
    assert (seen["thinned"] > 0) == (loss != "none")


# ---------------------------------------------------------------------- #
# Link half: transit releases equal a list sorted by (eligible_time, seq)
# ---------------------------------------------------------------------- #
@pytest.mark.parametrize("seed", (0, 1, 2))
def test_transit_arrivals_match_sorted_list(seed):
    rng = np.random.default_rng(seed)
    telemetry = EventTrace()
    transit = TransitQueue(telemetry=telemetry)
    dests = ("root", "leaf")
    pending = {dest: [] for dest in dests}
    dest_occupancy = dict.fromkeys(dests, 0.0)
    marks = dict.fromkeys(dests, 0.0)
    expected_marks = []
    seq, occupancy, now, ties = 0, 0.0, 0.0, 0
    for step in range(600):
        telemetry.advance(now)
        # Three source hops fan in, mostly towards "root"; forward shares on a
        # 5 ms grid make equal eligibility times common.
        for source in range(3):
            if rng.random() < 0.3:
                continue
            dest = dests[0] if rng.random() < 0.8 else dests[1]
            packets = 0.0 if rng.random() < 0.05 else float(rng.uniform(0.0, 4.0))
            delay = float(rng.uniform(0.0, 0.03))
            eligible = now + 0.005 * int(rng.integers(1, 4))
            transit.send(dest, source, packets, delay, eligible)
            if packets > 0:
                pending[dest].append((eligible, seq, source, packets, delay))
                seq += 1
                occupancy += packets
                dest_occupancy[dest] += packets
                if dest_occupancy[dest] > marks[dest] * 1.05:
                    marks[dest] = dest_occupancy[dest]
                    expected_marks.append((dest, dest_occupancy[dest]))
        for dest in dests:
            limit = now + 1e-12
            due = sorted(entry for entry in pending[dest] if entry[0] <= limit)
            pending[dest] = [entry for entry in pending[dest] if entry[0] > limit]
            ties += sum(a[0] == b[0] for a, b in zip(due, due[1:]))
            for entry in due:
                occupancy -= entry[3]
            if due:
                dest_occupancy[dest] = max(0.0, dest_occupancy[dest]
                                           - sum(entry[3] for entry in due))
            expected = [(flow, packets, delay, eligible)
                        for eligible, _, flow, packets, delay in due]
            got = transit.arrivals(dest, now)
            assert len(got) == len(expected), (step, dest)
            assert bits(flat(got)) == bits(flat(expected)), (step, dest)
        assert bits(transit.occupancy) == bits(max(0.0, occupancy)), step
        in_flight = [entry for dest in dests for entry in pending[dest]]
        per_flow = {}
        for _, _, flow, packets, _ in in_flight:
            per_flow[flow] = per_flow.get(flow, 0.0) + packets
        assert transit.per_flow_occupancy() == pytest.approx(per_flow, abs=1e-9), step
        per_link = {dest: sum(entry[3] for entry in pending[dest])
                    for dest in dests if pending[dest]}
        assert transit.per_link_occupancy() == pytest.approx(per_link, abs=1e-9), step
        now += 0.01
    got_marks = [(event["hop"], event["packets"])
                 for event in telemetry.select(["transit_high_water"])]
    assert [hop for hop, _ in got_marks] == [hop for hop, _ in expected_marks]
    assert bits([p for _, p in got_marks]) == bits([p for _, p in expected_marks])
    assert ties > 0 and len(expected_marks) > len(dests)


@pytest.mark.parametrize("spec", topology_family_specs())
def test_unfed_hops_never_hold_transit(spec):
    """A hop no route forwards into is never polled; nothing may travel towards it."""
    topology = build_topology(spec, make_synthetic_trace("step-12-48"), min_rtt=0.05,
                              buffer_bdp=0.5, seed=5)
    flows = [Flow(0, CubicController())]
    flows += [cross.build() for cross in build_workload("responsive(cubic:3)", 3.0, seed=5)]
    sim = NetworkSimulator(topology, flows)
    # Hop plan entries read positionally: (name, queue, fifo, fed, ...).
    unfed = {entry[0] for entry in sim._hop_plan if not entry[3]}
    assert unfed  # nothing forwards into the first hop in drain order
    seen = set()
    for _ in range(300):
        sim.tick()
        destinations = set(sim.in_transit_occupancy())
        assert not destinations & unfed
        seen |= destinations
    assert seen == set(topology.links) - unfed


# ---------------------------------------------------------------------- #
# Whole trajectories: SHA-256 of every tick's observable state
# ---------------------------------------------------------------------- #
def shared_segment_with_cross_traffic(trace):
    """``shared_segment`` with seeded binomial loss and an on/off cross source."""
    base = build_topology("shared_segment", trace, min_rtt=0.04, buffer_bdp=0.5,
                          random_loss_rate=0.02, stochastic_loss=True, seed=3)
    cross = CrossTrafficSource(name="onoff-b", flow_id=-1, path=("access-b", "shared", "exit-b"),
                               generator=OnOff(8.0, on_seconds=0.5, off_seconds=0.7, phase=0.2))
    return Topology("shared_segment", list(base.links.values()),
                    route_cycle=[("access-a", "shared", "exit-a"),
                                 ("access-b", "shared", "exit-b")],
                    cross_traffic=[cross], bottleneck="shared")


def trajectory_scenario(name):
    trace = make_synthetic_trace("step-12-48")
    duration = 6.0
    if name == "fan_in":
        topology = build_topology("fan_in(3)", trace, min_rtt=0.05, buffer_bdp=0.5, seed=5)
        workload = "poisson(0.25)"
    elif name == "chain":
        topology = build_topology("chain(3)", trace, min_rtt=0.06, buffer_bdp=0.5, seed=5)
        workload = "responsive(cubic:2)"
    elif name == "parking_lot":
        # A CBR cross source enters (and leaves) at every segment, mid-path
        # for the flows under test.
        topology = build_topology("parking_lot(3)", trace, min_rtt=0.06, buffer_bdp=0.5,
                                  random_loss_rate=0.01, seed=5)
        workload = "step(1-4:2-)"
    elif name == "tree":
        topology = build_topology("tree(2)", trace, min_rtt=0.05, buffer_bdp=0.5, seed=5)
        workload = "responsive(cubic:2)"
    elif name == "dumbbell":
        # An on/off cross source at the core hop.
        topology = build_topology("dumbbell", trace, min_rtt=0.05, buffer_bdp=0.5,
                                  random_loss_rate=0.02, stochastic_loss=True, seed=5)
        workload = "poisson(0.5)"
    else:
        topology = shared_segment_with_cross_traffic(trace)
        workload = "static"
    flows = [Flow(0, CubicController())]
    flows += [cross.build() for cross in build_workload(workload, duration, seed=5)]
    if name == "shared_segment":
        flows.append(Flow(1, BBRController(), start_time=0.5))
    return NetworkSimulator(topology, flows), int(round(duration / 0.01))


def trajectory_digest(sim, ticks):
    """SHA-256 over each tick's records, hop queues, in-transit packets and cross counters."""
    digest = hashlib.sha256()
    seen = dict(transit=0.0, lost=0.0, cross=0.0)
    for _ in range(ticks):
        records = sim.tick()
        for fid in sorted(records):
            digest.update(bits(records[fid]))
            seen["lost"] += records[fid].lost
        for name, packets in sim.hop_occupancy().items():
            digest.update(name.encode())
            digest.update(bits(packets))
        for fid, packets in sorted(sim.in_transit_per_flow().items()):
            digest.update(bits([fid, packets]))
            seen["transit"] += packets
        for source_id, counters in sorted(sim.cross_stats.items()):
            digest.update(bits([source_id, counters["offered"], counters["delivered"],
                                counters["dropped"]]))
            seen["cross"] += counters["delivered"]
    return digest.hexdigest(), seen


#: The first three were computed while delivered and in-transit chunks were
#: still named tuples, the other three before the tick plan skipped idle hops;
#: a change to how the tick moves or stores chunks must not move them.
TRAJECTORY_DIGESTS = {
    "fan_in": "dbc36dc83d4d92389b24bf35e624f4a396a6943b0afd89cd404192a6a013c0f6",
    "chain": "6ba44998452a64bf7db0921f43e7a8071200d12aada3206f481ab958341d0af9",
    "shared_segment": "796c945ae2454892ac6793db49ea45faf94ce61b0469d6e0e5841af86a4bf27d",
    "parking_lot": "6d4c4658f7ae2165b4dfd9a1d07b5ea897683828c55cc3ad7520038327219195",
    "tree": "71031a26c67b6a3ba6551e053cafe7fc91e8f1039a4a02da7fd9405ceb3d60f3",
    "dumbbell": "e97a21137a2c7041dbb00636fbfef79bedf693b8240f4114a9f9b5d6325716aa",
}


@pytest.mark.parametrize("name", sorted(TRAJECTORY_DIGESTS))
def test_whole_trajectory_digest_is_pinned(name):
    sim, ticks = trajectory_scenario(name)
    digest, seen = trajectory_digest(sim, ticks)
    assert seen["transit"] > 0 and seen["lost"] > 0
    assert seen["cross"] > 0 or name not in ("shared_segment", "parking_lot", "dumbbell")
    assert digest == TRAJECTORY_DIGESTS[name]
