"""Twin-Delayed Deep Deterministic policy gradient (TD3).

TD3 (Fujimoto et al., 2018) is the learning algorithm behind Orca's
coarse-grained controller and therefore behind Canopy.  The implementation is
self-contained on top of :mod:`repro.nn`:

* a deterministic tanh actor ``π(s) ∈ [-1, 1]^action_dim``,
* twin critics ``Q1, Q2`` with clipped double-Q targets,
* target networks updated by Polyak averaging,
* target-policy smoothing noise,
* delayed (every ``policy_delay`` steps) actor and target updates.

The agent is agnostic to where the reward comes from — Canopy simply feeds it
the QC-shaped reward of Eq. 10 instead of the raw Orca reward.

The critic pair
---------------

The twin critics share one architecture, so they are held as one
:class:`~repro.nn.mlp.MLPStack` of two rows, :attr:`TD3Agent.critics`, and
their targets as another, :attr:`TD3Agent.target_critics`.  The critic
forward, backward, Adam step (one optimizer, ``critic_optimizer``) and Polyak
update are one call each on the pair, bit for bit the two per-critic calls
they replace.  ``critic1``/``critic2`` (and ``target_critic1``/
``target_critic2``) are full :class:`~repro.nn.mlp.MLP` views of rows 0 and
1: the actor update differentiates through ``critic1`` alone, and
:meth:`TD3Agent.get_weights`/:meth:`TD3Agent.set_weights` keep their
``{"actor", "critic1", "critic2"}`` layout.  Critic 1 is initialised before
critic 2 from the agent's generator, so seeds give the networks they always
gave.

Gradients
---------

Each backward pass computes only the gradients something reads.  The critic
update backpropagates the pair's loss gradient ``2·(q − y)/n`` for the
parameter gradients its Adam step reads, and skips the first layer's input
gradient, which nothing reads.  The actor update backpropagates ``−1/n``
through a frozen critic 1 for its input gradient only (``param_grads=False``;
the parameter gradients it used to accumulate were zeroed before anything
read them, and critic 1's gradients are still zeroed once, so they read 0
afterwards as before), then through the actor for its parameter gradients,
again without the unread input gradient of its first layer.  A skipped
gradient was never an operand of a kept one, so every kept gradient, every
Adam step and every weight has the bits of the full passes.  The returned
losses and ``target_q_mean`` are ``sum / size``, which is ``np.mean``'s own
arithmetic.  Target-policy smoothing clips with ``np.minimum(np.maximum(x,
-c), c)``, which gives ``np.clip``'s values, NaN included, for a bound
``c > 0``; with a zero bound the two may return zeros of opposite signs.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List

import numpy as np

from repro.nn.mlp import MLPStack, make_actor, make_critic
from repro.nn.optim import Adam
from repro.rl.noise import GaussianNoise
from repro.rl.replay import ReplayBuffer

__all__ = ["TD3Config", "TD3Agent"]


@dataclass
class TD3Config:
    """Hyperparameters for :class:`TD3Agent`."""

    state_dim: int
    action_dim: int = 1
    hidden_sizes: tuple = (64, 32)
    actor_lr: float = 1e-3
    critic_lr: float = 1e-3
    gamma: float = 0.99
    tau: float = 0.005
    policy_delay: int = 2
    exploration_sigma: float = 0.1
    target_noise_sigma: float = 0.2
    target_noise_clip: float = 0.5
    batch_size: int = 64
    buffer_capacity: int = 100_000
    warmup_steps: int = 100
    max_action: float = 1.0
    seed: int | None = None

    def __post_init__(self) -> None:
        if self.state_dim <= 0 or self.action_dim <= 0:
            raise ValueError("state_dim and action_dim must be positive")
        if not 0.0 < self.gamma <= 1.0:
            raise ValueError("gamma must be in (0, 1]")
        if not 0.0 < self.tau <= 1.0:
            raise ValueError("tau must be in (0, 1]")
        if self.policy_delay <= 0:
            raise ValueError("policy_delay must be positive")
        if self.batch_size <= 0:
            raise ValueError("batch_size must be positive")
        for name in ("exploration_sigma", "target_noise_sigma", "target_noise_clip", "warmup_steps"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be non-negative")
        if self.buffer_capacity < max(self.batch_size, self.warmup_steps):
            # update() waits for max(batch_size, warmup_steps) transitions,
            # which a smaller buffer never holds: the agent would never learn.
            raise ValueError(f"buffer_capacity ({self.buffer_capacity}) must be at least "
                             f"max(batch_size, warmup_steps) = {max(self.batch_size, self.warmup_steps)}")


class TD3Agent:
    """TD3 with numpy networks.

    Typical use::

        agent = TD3Agent(TD3Config(state_dim=21))
        action = agent.act(state, explore=True)
        agent.observe(state, action, reward, next_state, done)
        metrics = agent.update()
    """

    def __init__(self, config: TD3Config) -> None:
        self.config = config
        rng = np.random.default_rng(config.seed)
        self._rng = rng

        self.actor = make_actor(config.state_dim, config.action_dim, config.hidden_sizes, rng=rng)
        # Critic 1 is initialised before critic 2, then both become rows of one pair.
        self.critics = MLPStack([make_critic(config.state_dim, config.action_dim, config.hidden_sizes, rng=rng)
                                 for _ in range(2)])

        self.target_actor = self.actor.clone()
        self.target_critics = MLPStack([critic.clone() for critic in self.critics.members])
        # MLP views of rows 0 and 1 (pickling keeps them the stacks' members).
        self.critic1, self.critic2 = self.critics.members
        self.target_critic1, self.target_critic2 = self.target_critics.members

        self.actor_optimizer = Adam.for_model(self.actor, lr=config.actor_lr)
        self.critic_optimizer = Adam.for_model(self.critics, lr=config.critic_lr)

        self.replay = ReplayBuffer(
            config.buffer_capacity, config.state_dim, config.action_dim, seed=config.seed
        )
        self.exploration_noise = GaussianNoise(
            config.action_dim, sigma=config.exploration_sigma, seed=config.seed
        )
        self.total_updates = 0
        self.total_env_steps = 0

    # ------------------------------------------------------------------ #
    # Acting
    # ------------------------------------------------------------------ #
    def act(self, state: np.ndarray, explore: bool = False) -> np.ndarray:
        """Deterministic policy action, optionally with exploration noise."""
        state = np.asarray(state, dtype=np.float64).reshape(1, -1)
        action = self.actor.forward(state)[0]
        if explore:
            action = action + self.exploration_noise.sample()
        # np.clip's values one float at a time: only a value strictly
        # outside [-high, high] is replaced, and a NaN passes.
        high = self.config.max_action
        return np.array([-high if value < -high else high if value > high else value
                         for value in action.tolist()], dtype=np.float64)

    def policy(self, state: np.ndarray) -> np.ndarray:
        """Greedy policy callable (no exploration), convenient for rollouts."""
        return self.act(state, explore=False)

    # ------------------------------------------------------------------ #
    # Experience collection
    # ------------------------------------------------------------------ #
    def observe(self, state, action, reward: float, next_state, done: bool) -> None:
        self.replay.add(state, action, reward, next_state, done)
        self.total_env_steps += 1

    def ready_to_update(self) -> bool:
        return len(self.replay) >= max(self.config.batch_size, self.config.warmup_steps)

    # ------------------------------------------------------------------ #
    # Learning
    # ------------------------------------------------------------------ #
    def update(self) -> Dict[str, float]:
        """Run one TD3 gradient step; returns loss diagnostics.

        Returns an empty dict when the replay buffer has not yet collected
        enough experience.
        """
        if not self.ready_to_update():
            return {}
        batch = self.replay.sample(self.config.batch_size)
        metrics = self._update_critics(batch)
        self.total_updates += 1
        if self.total_updates % self.config.policy_delay == 0:
            metrics.update(self._update_actor(batch))
            self._update_targets()
        return metrics

    def _update_critics(self, batch: Dict[str, np.ndarray]) -> Dict[str, float]:
        cfg = self.config
        next_states = batch["next_states"]

        # Target-policy smoothing, clipped as np.clip would (see the module docstring).
        next_actions = self.target_actor.forward(next_states)
        noise = self._rng.normal(0.0, cfg.target_noise_sigma, size=next_actions.shape)
        noise = np.minimum(np.maximum(noise, -cfg.target_noise_clip), cfg.target_noise_clip)
        next_actions = np.minimum(np.maximum(next_actions + noise, -cfg.max_action), cfg.max_action)

        target_inputs = np.concatenate([next_states, next_actions], axis=1)
        target_q1, target_q2 = self.target_critics.forward(target_inputs)
        target_q = np.minimum(target_q1, target_q2).reshape(-1)
        targets = batch["rewards"] + cfg.gamma * (1.0 - batch["dones"]) * target_q
        targets = targets.reshape(-1, 1)

        inputs = np.concatenate([batch["states"], batch["actions"]], axis=1)

        self.critics.zero_grad()
        # Each critic's mean-squared error against the shared targets, and
        # its gradient 2·(q − y)/n for the (2, batch, 1) pair at once.
        diff = self.critics.forward(inputs) - targets
        squares = diff * diff
        n = targets.size
        diff *= 2.0
        diff /= n
        self.critics.backward(diff, input_grad=False)
        self.critic_optimizer.step()

        return {"critic1_loss": float(squares[0].sum() / n), "critic2_loss": float(squares[1].sum() / n),
                "target_q_mean": float(targets.sum() / n)}

    def _update_actor(self, batch: Dict[str, np.ndarray]) -> Dict[str, float]:
        states = batch["states"]
        batch_size = states.shape[0]

        self.actor.zero_grad()
        actions = self.actor.forward(states)
        inputs = np.concatenate([states, actions], axis=1)

        # Deterministic policy gradient: maximize Q1(s, π(s)) through a
        # frozen critic 1, which gives its input gradient only.
        self.critic1.zero_grad()
        q_values = self.critic1.forward(inputs)
        grad_inputs = self.critic1.backward(np.full_like(q_values, -1.0 / batch_size), param_grads=False)

        grad_actions = grad_inputs[:, self.config.state_dim:]
        self.actor.backward(grad_actions, input_grad=False)
        self.actor_optimizer.step()

        return {"actor_loss": -float(q_values.sum() / q_values.size)}

    def _update_targets(self) -> None:
        tau = self.config.tau
        self.target_actor.soft_update_from(self.actor, tau)
        self.target_critics.soft_update_from(self.critics, tau)

    # ------------------------------------------------------------------ #
    # Persistence
    # ------------------------------------------------------------------ #
    def get_weights(self) -> Dict[str, List[np.ndarray]]:
        return {
            "actor": self.actor.get_weights(),
            "critic1": self.critic1.get_weights(),
            "critic2": self.critic2.get_weights(),
        }

    def set_weights(self, weights: Dict[str, List[np.ndarray]]) -> None:
        self.actor.set_weights(weights["actor"])
        self.critic1.set_weights(weights["critic1"])
        self.critic2.set_weights(weights["critic2"])
        self.target_actor.copy_from(self.actor)
        self.target_critics.copy_from(self.critics)
