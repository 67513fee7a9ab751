"""Certification-in-the-loop training (Figure 3 of the paper).

The :class:`CanopyTrainer` runs standard TD3 over the Orca environment but,
at every coarse-grained step, asks the verifier for the QC feedback of the
trained property set around the current decision and mixes it into the reward
(Eq. 10).  The per-epoch raw reward, verifier reward, and total reward are
logged so the training-curve comparison of Figure 17 (appendix A.1) can be
regenerated, and the wall-clock cost of verification is tracked for the
overhead analysis of Table 4 (appendix A.2).

Setting ``use_verifier_reward=False`` (or λ = 0) yields the Orca baseline:
the verifier feedback is still measured and logged, but not used for learning.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional

import numpy as np

from repro.abstract.box import Box
from repro.core.config import CanopyConfig
from repro.core.properties import ActionKind
from repro.core.reward import CanopyRewardShaper
from repro.core.verifier import Verifier, VerifierConfig
from repro.nn.optim import Adam
from repro.orca.env import OrcaNetworkEnv
from repro.rl.td3 import TD3Agent

__all__ = ["TrainerConfig", "EpochLog", "TrainingResult", "CanopyTrainer"]


@dataclass
class TrainerConfig:
    """Training-loop settings (independent of the Canopy model preset).

    ``property_regularization`` enables the verifier-guided policy update: in
    addition to shaping the reward (Eq. 10), every step the actor takes one
    gradient step that pushes its outputs over the property's input region
    toward the allowed action region.  The update is derived from the same QC
    object the verifier computes (the hinge distance between the propagated
    action and the allowed region, sampled at points of the region) and is
    scaled by the same λ.  At the paper's training scale (256 actors × 50k
    epochs) pure reward shaping suffices; at this reproduction's CI scale the
    explicit gradient step is what lets the qualitative trends emerge.  See
    DESIGN.md for the full rationale.
    """

    total_steps: int = 400
    updates_per_step: int = 1
    use_verifier_reward: bool = True
    property_regularization: bool = True
    regularization_samples: int = 8
    regularization_margin: float = 0.05
    regularization_strength: float = 8.0
    log_every: int = 20
    verifier_every: int = 1   # compute the QC every this many env steps
    progress_callback: Optional[Callable[[Dict[str, float]], None]] = None

    def __post_init__(self) -> None:
        if self.total_steps <= 0:
            raise ValueError("total_steps must be positive")
        if self.updates_per_step < 0:
            raise ValueError("updates_per_step must be non-negative")
        if self.log_every <= 0 or self.verifier_every <= 0:
            raise ValueError("log_every and verifier_every must be positive")
        if self.regularization_samples <= 0:
            raise ValueError("regularization_samples must be positive")
        if self.regularization_margin < 0 or self.regularization_strength < 0:
            raise ValueError("regularization margin/strength must be non-negative")


@dataclass(frozen=True)
class EpochLog:
    """Aggregated metrics over one logging window."""

    step: int
    raw_reward: float
    verifier_reward: float
    total_reward: float
    episodes: int
    seconds: float
    verifier_seconds: float


@dataclass
class TrainingResult:
    """Outcome of one training run."""

    config_name: str
    history: List[EpochLog] = field(default_factory=list)
    agent: Optional[TD3Agent] = None
    total_seconds: float = 0.0
    verifier_seconds: float = 0.0
    env_steps: int = 0

    @property
    def steps_per_second(self) -> float:
        """Environment-step rate including verification (the Table 4 metric)."""
        if self.total_seconds <= 0:
            return 0.0
        return self.env_steps / self.total_seconds

    def policy(self) -> Callable[[np.ndarray], np.ndarray]:
        """The trained greedy policy, usable by :class:`repro.orca.agent.LearnedController`."""
        if self.agent is None:
            raise RuntimeError("training result carries no agent")
        return self.agent.policy

    def final_metrics(self) -> Dict[str, float]:
        if not self.history:
            return {"raw_reward": 0.0, "verifier_reward": 0.0, "total_reward": 0.0}
        last = self.history[-1]
        return {
            "raw_reward": last.raw_reward,
            "verifier_reward": last.verifier_reward,
            "total_reward": last.total_reward,
        }

    def reward_curves(self) -> Dict[str, np.ndarray]:
        """Per-window reward curves (the series plotted in Figure 17)."""
        return {
            "step": np.array([log.step for log in self.history]),
            "raw": np.array([log.raw_reward for log in self.history]),
            "verifier": np.array([log.verifier_reward for log in self.history]),
            "total": np.array([log.total_reward for log in self.history]),
        }


class CanopyTrainer:
    """Trains one Canopy (or Orca-baseline) model."""

    def __init__(self, canopy_config: CanopyConfig, trainer_config: TrainerConfig | None = None) -> None:
        self.canopy_config = canopy_config
        self.trainer_config = trainer_config or TrainerConfig()

        self.env = OrcaNetworkEnv(canopy_config.env)
        self.agent = TD3Agent(canopy_config.td3)
        self.verifier = Verifier(
            self.agent.actor,
            observation_config=canopy_config.observation,
            config=VerifierConfig(n_components=canopy_config.n_components),
        )
        self.shaper = CanopyRewardShaper(
            self.verifier, canopy_config.properties, lam=canopy_config.lam,
            n_components=canopy_config.n_components,
        )
        # Dedicated optimizer for the verifier-guided policy regularization so
        # its gradients do not disturb the TD3 actor optimizer's Adam moments.
        reg_lr = canopy_config.td3.actor_lr * max(canopy_config.lam, 0.0) * self.trainer_config.regularization_strength
        self._reg_optimizer = (
            Adam(self.agent.actor.parameters(), self.agent.actor.grads(), lr=reg_lr) if reg_lr > 0 else None
        )
        self._reg_rng = np.random.default_rng(canopy_config.seed + 977)

    # ------------------------------------------------------------------ #
    # Verifier-guided policy regularization (QC-derived hinge update)
    # ------------------------------------------------------------------ #
    def _property_regularization_step(self, state: np.ndarray, cwnd_tcp: float, cwnd_prev: float) -> None:
        """One gradient step pushing the policy toward property satisfaction.

        For every trained property the input region the verifier certifies is
        sampled, and the actor output at those samples is nudged across the
        allowed-action boundary (the same boundary the QC feedback measures):

        * Δcwnd properties: the allowed region translates into an action
          threshold ``a* = 0.5·log2(cwnd_prev / cwnd_tcp)`` (from Eq. 1);
          samples on the wrong side of ``a*`` receive a hinge gradient.
        * robustness (P5): sampled perturbed states must produce actions within
          ``ε`` (in cwnd terms) of the unperturbed action.
        """
        if self._reg_optimizer is None:
            return
        cfg = self.trainer_config
        observer = self.verifier.observer
        actor = self.agent.actor
        n_samples = cfg.regularization_samples
        margin = cfg.regularization_margin

        actor.zero_grad()
        accumulated = False
        for prop in self.canopy_config.properties:
            # The verifier's centre/deviation round trip, so the samples
            # cover exactly the region it certifies.
            region = Box._trusted_bounds(*prop.input_bounds(state, observer))
            lo, hi = region.lo, region.hi
            samples = lo + self._reg_rng.random((n_samples, lo.shape[0])) * (hi - lo)
            if prop.kind is ActionKind.DELTA_CWND:
                outputs = actor.forward(samples)
                threshold = 0.5 * np.log2(max(cwnd_prev, 1e-6) / max(cwnd_tcp, 1e-6))
                threshold = float(np.clip(threshold, -0.95, 0.95))
                if prop.allowed_direction > 0:
                    violating = outputs < threshold + margin
                    grad = -violating.astype(np.float64)
                else:
                    violating = outputs > threshold - margin
                    grad = violating.astype(np.float64)
            else:
                reference = actor.forward(state.reshape(1, -1)).copy()
                outputs = actor.forward(samples)
                # |2^(2a') − 2^(2a)| / 2^(2a) ≤ ε  ≈  |a' − a| ≤ ε / (2 ln 2)
                epsilon_action = float(prop.epsilon) / (2.0 * np.log(2.0))
                diff = outputs - reference
                violating = np.abs(diff) > epsilon_action
                grad = np.sign(diff) * violating.astype(np.float64)
            if not np.any(violating):
                continue
            accumulated = True
            actor.backward(prop.weight * grad / (n_samples * len(self.canopy_config.properties)))
        if accumulated:
            self._reg_optimizer.step()
        actor.zero_grad()

    # ------------------------------------------------------------------ #
    def train(self) -> TrainingResult:
        cfg = self.trainer_config
        use_verifier = cfg.use_verifier_reward and self.canopy_config.lam > 0.0
        result = TrainingResult(config_name=self.canopy_config.name, agent=self.agent)

        window_raw: List[float] = []
        window_verifier: List[float] = []
        window_total: List[float] = []
        window_start = time.perf_counter()
        window_verifier_seconds = 0.0
        episodes = 0
        start = time.perf_counter()

        state = self.env.reset()
        last_verifier_reward = 1.0
        for step in range(1, cfg.total_steps + 1):
            action = self.agent.act(state, explore=True)
            next_state, raw_reward, done, info = self.env.step(action)

            verifier_start = time.perf_counter()
            if step % cfg.verifier_every == 0:
                shaped = self.shaper.shape(raw_reward, state, info["cwnd_tcp"], info["cwnd_prev"])
                last_verifier_reward = shaped.verifier
            else:
                shaped = None
            verifier_elapsed = time.perf_counter() - verifier_start
            window_verifier_seconds += verifier_elapsed
            result.verifier_seconds += verifier_elapsed

            verifier_reward = shaped.verifier if shaped is not None else last_verifier_reward
            if use_verifier:
                total_reward = (1.0 - self.canopy_config.lam) * raw_reward + self.canopy_config.lam * verifier_reward
            else:
                total_reward = raw_reward

            self.agent.observe(state, action, total_reward, next_state, done)
            for _ in range(cfg.updates_per_step):
                self.agent.update()
            if use_verifier and cfg.property_regularization:
                self._property_regularization_step(state, info["cwnd_tcp"], info["cwnd_prev"])

            window_raw.append(raw_reward)
            window_verifier.append(verifier_reward)
            window_total.append(total_reward)
            result.env_steps += 1

            if done:
                state = self.env.reset()
                episodes += 1
            else:
                state = next_state

            if step % cfg.log_every == 0:
                elapsed = time.perf_counter() - window_start
                log = EpochLog(
                    step=step,
                    raw_reward=float(np.mean(window_raw)),
                    verifier_reward=float(np.mean(window_verifier)),
                    total_reward=float(np.mean(window_total)),
                    episodes=episodes,
                    seconds=elapsed,
                    verifier_seconds=window_verifier_seconds,
                )
                result.history.append(log)
                if cfg.progress_callback is not None:
                    cfg.progress_callback({
                        "step": step,
                        "raw_reward": log.raw_reward,
                        "verifier_reward": log.verifier_reward,
                        "total_reward": log.total_reward,
                    })
                window_raw, window_verifier, window_total = [], [], []
                window_start = time.perf_counter()
                window_verifier_seconds = 0.0

        result.total_seconds = time.perf_counter() - start
        return result
