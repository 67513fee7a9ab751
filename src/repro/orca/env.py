"""RL environment whose steps are Orca monitor intervals.

One episode emulates one actor of the paper's training setup (Section 5): a
network scenario sampled per episode — a topology family spec drawn from the
configured ``topologies`` catalog, a bandwidth trace (or a bandwidth sampled
uniformly from a configurable range), a path RTT sampled uniformly, a buffer
expressed in BDP multiples chosen per the property family being trained
(0.5 BDP for shallow, 5 BDP for deep, 2 BDP for robustness) — and a single
bulk sender controlled by TCP CUBIC plus the learned override.

The default catalog is ``("single_bottleneck",)``, which reproduces the
paper's (and this repo's historical) single-link training exactly; listing
several family specs (``chain(2)``, ``parking_lot(3)``, ``dumbbell``, ...)
yields domain-randomized training over multi-bottleneck topologies, with each
episode driven hop-by-hop through :class:`repro.cc.netsim.NetworkSimulator`.

Episode seeding follows the sharding-reproducibility convention used across
the harness: every episode draws one entropy value from the environment RNG
stream and derives its topology seed via
:func:`repro.seeding.derive_seed` over the (spec, trace) coordinates; the
per-hop random-loss RNG seeds then derive from that seed and the hop name
inside :func:`repro.topology.families.build_topology`.  Replaying an episode
is therefore bit-reproducible given the environment seed and episode index,
and the scenario sequence is exposed through :attr:`OrcaNetworkEnv.scenario`
/ :attr:`OrcaNetworkEnv.scenario_history` for inspection.

At every environment step the agent receives the stacked observation of the
past ``k`` monitor intervals, emits an action ``a ∈ [-1, 1]``, the window is
overridden via ``cwnd = 2^(2a) · cwnd_TCP``, the simulator advances by one
monitor interval, and the raw Orca reward (Eqs. 2–3) is returned.  The info
dict carries everything the Canopy trainer needs to compute the verifier
reward: the TCP-suggested window, the previously enforced window and the
aggregated report, plus the sampled topology spec of the running episode.

Training observes the network through the same code as the deployed
:class:`~repro.orca.agent.LearnedController`: each interval's ticks go
through :func:`repro.cc.netsim.interval_report` (via
:meth:`~repro.cc.netsim.NetworkSimulator.monitor_report`), observation noise
through :func:`repro.orca.observations.with_delay_noise` (with this
environment's own RNG), the action through
:func:`repro.orca.agent.action_step`, and the simulator comes from
:func:`build_simulator`, which evaluation uses too.  Two inputs to the
reducer still differ: training's ``srtt`` is the flow's smoothed RTT where
deployment takes the interval's last RTT sample, and training's interval
starts at the previous report where deployment's starts at its first tick.
Aligning them moves observed values (``inv_rtt`` above all), so it waits for
the observation rebase (ROADMAP item 2, step 2).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, Optional, Sequence, Tuple

import numpy as np

from repro.cc.cubic import CubicController
from repro.cc.flow import Flow
from repro.cc.netsim import NetworkSimulator
from repro.orca.agent import action_step
from repro.orca.observations import ObservationBuilder, ObservationConfig, with_delay_noise
from repro.orca.reward import OrcaRewardConfig, orca_reward
from repro.rl.env import Environment
from repro.rl.spaces import BoxSpace
from repro.seeding import derive_seed
from repro.telemetry.events import EventTrace
from repro.telemetry.profiler import active_profiler
from repro.topology.families import build_topology, parse_topology
from repro.traces.trace import BandwidthTrace

__all__ = ["OrcaEnvConfig", "OrcaNetworkEnv", "EpisodeScenario", "build_simulator"]


def build_simulator(spec: str, trace: BandwidthTrace, flows: Sequence[Flow], dt: float,
                    telemetry: Optional[EventTrace] = None, **topology: Any) -> NetworkSimulator:
    """A simulator of ``flows`` on ``build_topology(spec, trace, **topology)``.

    The one construction path of training, evaluation and the topology bench.
    It carries the process-wide profiler (serve workers, ``run --profile``,
    perfbench's traced runs), which times wall-clock only.
    """
    return NetworkSimulator(build_topology(spec, trace, **topology), flows, dt=dt,
                            telemetry=telemetry, profiler=active_profiler())


@dataclass
class OrcaEnvConfig:
    """Configuration of the training environment.

    ``topologies`` is the per-episode scenario catalog: a sequence of topology
    family specs (see :mod:`repro.topology.families`).  One spec pins every
    episode to that family; several specs are sampled uniformly per episode
    (domain randomization across families).
    """

    bandwidth_range_mbps: Tuple[float, float] = (12.0, 96.0)
    rtt_range_s: Tuple[float, float] = (0.02, 0.1)
    buffer_bdp: float = 2.0
    monitor_interval: float = 0.2
    tick: float = 0.01
    episode_intervals: int = 40
    observation: ObservationConfig = field(default_factory=ObservationConfig)
    reward: OrcaRewardConfig = field(default_factory=OrcaRewardConfig)
    traces: Optional[Sequence[BandwidthTrace]] = None
    observation_noise: float = 0.0
    topologies: Sequence[str] = ("single_bottleneck",)
    seed: Optional[int] = None

    def __post_init__(self) -> None:
        if self.bandwidth_range_mbps[0] <= 0 or self.bandwidth_range_mbps[1] < self.bandwidth_range_mbps[0]:
            raise ValueError("invalid bandwidth range")
        if self.rtt_range_s[0] <= 0 or self.rtt_range_s[1] < self.rtt_range_s[0]:
            raise ValueError("invalid RTT range")
        if self.buffer_bdp <= 0:
            raise ValueError("buffer_bdp must be positive")
        if self.monitor_interval <= 0 or self.tick <= 0 or self.monitor_interval < self.tick:
            raise ValueError("need monitor_interval >= tick > 0")
        if self.episode_intervals <= 0:
            raise ValueError("episode_intervals must be positive")
        if not self.topologies:
            raise ValueError("topologies must list at least one family spec")
        self.topologies = tuple(str(spec) for spec in self.topologies)
        for spec in self.topologies:
            parse_topology(spec)  # fail fast on malformed specs


@dataclass(frozen=True)
class EpisodeScenario:
    """The sampled network scenario of one training episode.

    ``seed`` is the episode's topology seed (derived via
    :func:`repro.seeding.derive_seed` from the episode entropy and the
    (spec, trace) coordinates); ``hop_seeds`` are the per-hop random-loss RNG
    seeds that :func:`repro.topology.families.build_topology` derived from it.
    """

    episode: int
    spec: str
    trace_name: str
    min_rtt: float
    seed: int
    hop_seeds: Tuple[Tuple[str, int], ...]

    def as_dict(self) -> Dict[str, Any]:
        return {
            "episode": self.episode,
            "topology": self.spec,
            "trace": self.trace_name,
            "min_rtt": self.min_rtt,
            "seed": self.seed,
            "hop_seeds": dict(self.hop_seeds),
        }


class OrcaNetworkEnv(Environment):
    """The Orca training environment over the fluid network simulator."""

    def __init__(self, config: OrcaEnvConfig | None = None) -> None:
        self.config = config or OrcaEnvConfig()
        self._rng = np.random.default_rng(self.config.seed)
        obs_dim = self.config.observation.state_dim
        self.observation_space = BoxSpace(np.zeros(obs_dim) - 1.0, np.ones(obs_dim) * 2.0)
        self.action_space = BoxSpace(np.array([-1.0]), np.array([1.0]))

        self.observer = ObservationBuilder(self.config.observation)
        self._sim: NetworkSimulator | None = None
        self._cubic: CubicController | None = None
        self._flow_id = 0
        self._steps = 0
        self._episodes = 0
        self._prev_enforced_cwnd = 0.0
        self._noise_rng = np.random.default_rng(self.config.seed)
        self._scenario: EpisodeScenario | None = None
        self._scenario_history: list[EpisodeScenario] = []

    # ------------------------------------------------------------------ #
    @property
    def state_dim(self) -> int:
        return self.config.observation.state_dim

    @property
    def cubic(self) -> CubicController:
        if self._cubic is None:
            raise RuntimeError("environment not reset yet")
        return self._cubic

    @property
    def scenario(self) -> EpisodeScenario:
        """The scenario of the episode currently running."""
        if self._scenario is None:
            raise RuntimeError("environment not reset yet")
        return self._scenario

    @property
    def scenario_history(self) -> Tuple[EpisodeScenario, ...]:
        """Every scenario sampled so far (one entry per ``reset``)."""
        return tuple(self._scenario_history)

    def _sample_scenario(self) -> Tuple[str, BandwidthTrace, float, int]:
        """Draw one episode scenario: (family spec, trace, RTT, topology seed).

        The draws happen in a fixed order — family (only when more than one is
        configured), trace/bandwidth, RTT, episode entropy — so a
        single-family ``("single_bottleneck",)`` catalog consumes the RNG
        stream exactly like the legacy single-link sampler and stays pinned to
        its training trajectory (see ``tests/test_topology_differential.py``).
        """
        cfg = self.config
        if len(cfg.topologies) == 1:
            spec = cfg.topologies[0]
        else:
            spec = cfg.topologies[int(self._rng.integers(0, len(cfg.topologies)))]
        if cfg.traces:
            trace = cfg.traces[int(self._rng.integers(0, len(cfg.traces)))]
        else:
            bandwidth = float(self._rng.uniform(*cfg.bandwidth_range_mbps))
            duration = cfg.episode_intervals * cfg.monitor_interval + 5.0
            trace = BandwidthTrace.constant(bandwidth, duration=duration)
        min_rtt = float(self._rng.uniform(*cfg.rtt_range_s))
        # One entropy draw per episode; all topology/link seeds derive from it
        # and the scenario coordinates, matching the sharding convention.
        entropy = int(self._rng.integers(0, 2 ** 31))
        return spec, trace, min_rtt, derive_seed(entropy, spec, trace.name)

    # ------------------------------------------------------------------ #
    def reset(self, seed: int | None = None) -> np.ndarray:
        if seed is not None:
            self._rng = np.random.default_rng(seed)
        cfg = self.config
        spec, trace, min_rtt, episode_seed = self._sample_scenario()
        self._cubic = CubicController(initial_cwnd=10.0)
        self._sim = build_simulator(spec, trace, [Flow(self._flow_id, self._cubic)], dt=cfg.tick,
                                    min_rtt=min_rtt, buffer_bdp=cfg.buffer_bdp, seed=episode_seed)
        hop_seeds = tuple((link.name, link.queue.seed) for link in self._sim.topology.ordered_links)
        self._scenario = EpisodeScenario(episode=self._episodes, spec=spec, trace_name=trace.name,
                                         min_rtt=min_rtt, seed=episode_seed, hop_seeds=hop_seeds)
        self._scenario_history.append(self._scenario)
        self._episodes += 1
        self.observer.reset()
        self._steps = 0
        self._prev_enforced_cwnd = self._cubic.cwnd

        # Warm up for one monitor interval so the first observation is meaningful.
        self._advance_one_interval()
        report = self._sim.monitor_report(self._flow_id)
        return self.observer.observe(self._maybe_noisy(report))

    def _advance_one_interval(self) -> None:
        assert self._sim is not None
        ticks = int(round(self.config.monitor_interval / self.config.tick))
        for _ in range(ticks):
            self._sim.tick()

    def _maybe_noisy(self, report):
        return with_delay_noise(report, self.config.observation_noise, self._noise_rng)

    # ------------------------------------------------------------------ #
    def step(self, action: np.ndarray) -> Tuple[np.ndarray, float, bool, Dict[str, Any]]:
        if self._sim is None or self._cubic is None:
            raise RuntimeError("call reset() before step()")
        cwnd_tcp = self._cubic.cwnd
        cwnd_prev = self._prev_enforced_cwnd
        action_value, new_cwnd = action_step(
            float(np.asarray(action, dtype=np.float64).reshape(-1)[0]), cwnd_tcp)
        self._cubic.set_cwnd(new_cwnd)
        self._prev_enforced_cwnd = new_cwnd

        self._advance_one_interval()
        report = self._sim.monitor_report(self._flow_id)
        noisy_report = self._maybe_noisy(report)
        observation = self.observer.observe(noisy_report)
        reward = orca_reward(report, self.observer.max_throughput, self.config.reward)

        self._steps += 1
        done = self._steps >= self.config.episode_intervals

        scenario = self._scenario
        info: Dict[str, Any] = {
            "report": report,
            "cwnd_tcp": cwnd_tcp,
            "cwnd_prev": cwnd_prev,
            "cwnd_enforced": new_cwnd,
            "action": action_value,
            "raw_reward": reward,
            "time": self._sim.now,
            "link_capacity_mbps": self._sim.link.trace.capacity_mbps(self._sim.now),
            "min_rtt": self._sim.path_rtt(self._flow_id),
            "topology": scenario.spec if scenario is not None else None,
            "n_hops": self._sim.topology.n_hops,
            "episode_seed": scenario.seed if scenario is not None else None,
        }
        return observation, reward, done, info
