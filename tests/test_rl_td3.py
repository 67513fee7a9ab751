"""Tests for the TD3 agent: configuration, acting, updates, and learning."""

import copy
import hashlib
import pickle

import numpy as np
import pytest

from repro.nn.layers import Dense
from repro.nn.mlp import make_actor, make_critic
from repro.rl.env import Environment
from repro.rl.spaces import BoxSpace
from repro.rl.td3 import TD3Agent, TD3Config


def make_agent(**overrides) -> TD3Agent:
    defaults = dict(state_dim=4, action_dim=1, hidden_sizes=(16, 16), warmup_steps=16,
                    batch_size=16, seed=0)
    defaults.update(overrides)
    return TD3Agent(TD3Config(**defaults))


class TestConfig:
    def test_invalid_dimensions(self):
        with pytest.raises(ValueError):
            TD3Config(state_dim=0)

    def test_invalid_gamma(self):
        with pytest.raises(ValueError):
            TD3Config(state_dim=2, gamma=0.0)

    def test_invalid_policy_delay(self):
        with pytest.raises(ValueError):
            TD3Config(state_dim=2, policy_delay=0)

    @pytest.mark.parametrize("overrides, message", [
        ({"buffer_capacity": 10}, "buffer_capacity"),
        ({"buffer_capacity": 99, "batch_size": 8, "warmup_steps": 100}, "buffer_capacity"),
        ({"buffer_capacity": 63, "batch_size": 64, "warmup_steps": 0}, "buffer_capacity"),
        ({"batch_size": 0}, "batch_size"),
        ({"batch_size": -1}, "batch_size"),
        ({"exploration_sigma": -0.1}, "exploration_sigma"),
        ({"target_noise_sigma": -0.2}, "target_noise_sigma"),
        ({"target_noise_clip": -0.5}, "target_noise_clip"),
        ({"warmup_steps": -1}, "warmup_steps"),
    ])
    def test_config_that_could_never_learn_is_rejected(self, overrides, message):
        with pytest.raises(ValueError, match=message):
            TD3Config(state_dim=3, **overrides)

    def test_smallest_buffer_that_can_learn_is_accepted(self):
        agent = TD3Agent(TD3Config(state_dim=3, buffer_capacity=100, batch_size=8, warmup_steps=100, seed=0))
        rng = np.random.default_rng(0)
        for _ in range(100):
            agent.observe(rng.normal(size=3), rng.uniform(-1, 1, 1), 0.0, rng.normal(size=3), False)
        assert agent.update()


class TestActing:
    def test_action_within_bounds(self):
        agent = make_agent()
        for _ in range(20):
            action = agent.act(np.random.default_rng(0).normal(size=4), explore=True)
            assert np.all(np.abs(action) <= 1.0)

    def test_deterministic_without_exploration(self):
        agent = make_agent()
        state = np.ones(4)
        assert np.allclose(agent.act(state), agent.act(state))

    def test_policy_callable_matches_act(self):
        agent = make_agent()
        state = np.ones(4) * 0.3
        assert np.allclose(agent.policy(state), agent.act(state, explore=False))


class TestUpdates:
    def test_update_skipped_before_warmup(self):
        agent = make_agent()
        assert agent.update() == {}

    def test_update_returns_losses_after_warmup(self):
        agent = make_agent()
        rng = np.random.default_rng(1)
        for _ in range(20):
            s = rng.normal(size=4)
            a = agent.act(s, explore=True)
            agent.observe(s, a, rng.normal(), rng.normal(size=4), False)
        metrics = agent.update()
        assert "critic1_loss" in metrics and "critic2_loss" in metrics

    def test_actor_updated_only_on_policy_delay(self):
        agent = make_agent(policy_delay=2)
        rng = np.random.default_rng(2)
        for _ in range(20):
            s = rng.normal(size=4)
            agent.observe(s, agent.act(s, explore=True), 0.0, rng.normal(size=4), False)
        first = agent.update()
        second = agent.update()
        assert "actor_loss" not in first
        assert "actor_loss" in second

    def test_target_networks_move_towards_online(self):
        agent = make_agent(policy_delay=1, tau=0.5)
        rng = np.random.default_rng(3)
        for _ in range(20):
            s = rng.normal(size=4)
            agent.observe(s, agent.act(s, explore=True), rng.normal(), rng.normal(size=4), False)
        before = agent.target_actor.get_weights()[0].copy()
        agent.actor.parameters()[0][...] += 1.0
        agent.update()
        after = agent.target_actor.get_weights()[0]
        assert not np.allclose(before, after)

    def test_critic_losses_and_gradient_match_a_plain_mean_squared_error(self, monkeypatch):
        """The critic pair's diagnostics are ``np.mean`` of the squared error
        and of the targets, and the gradient it backpropagates is
        ``2·(q − y)/n`` per critic, as IEEE bytes (a batch of 24 makes the
        division round)."""
        agent = make_agent(batch_size=24, warmup_steps=24, policy_delay=1)
        rng = np.random.default_rng(4)
        for _ in range(40):
            agent.observe(rng.normal(size=4), rng.uniform(-1, 1, 1), rng.normal(), rng.normal(size=4),
                          bool(rng.random() < 0.2))
        twin = copy.deepcopy(agent)
        cfg = twin.config
        batch = twin.replay.sample(cfg.batch_size)
        next_actions = twin.target_actor.forward(batch["next_states"])
        noise = np.clip(twin._rng.normal(0.0, cfg.target_noise_sigma, size=next_actions.shape),
                        -cfg.target_noise_clip, cfg.target_noise_clip)
        next_actions = np.clip(next_actions + noise, -cfg.max_action, cfg.max_action)
        target_q = twin.target_critics.forward(np.concatenate([batch["next_states"], next_actions], axis=1))
        targets = (batch["rewards"] + cfg.gamma * (1.0 - batch["dones"]) * np.minimum(*target_q).reshape(-1))
        targets = targets.reshape(-1, 1)
        q_pair = twin.critics.forward(np.concatenate([batch["states"], batch["actions"]], axis=1))

        grads = []
        backward = agent.critics.backward
        monkeypatch.setattr(agent.critics, "backward",
                            lambda grad, **flags: grads.append(grad.copy()) or backward(grad, **flags))
        metrics = agent.update()
        assert metrics["critic1_loss"] == float(np.mean((q_pair[0] - targets) ** 2))
        assert metrics["critic2_loss"] == float(np.mean((q_pair[1] - targets) ** 2))
        assert metrics["target_q_mean"] == float(np.mean(targets))
        expected = np.stack([2.0 * (q - targets) / targets.size for q in q_pair])
        assert grads[0].tobytes() == expected.tobytes()

    def test_actor_update_leaves_critic_1_gradients_zero(self):
        agent = make_agent(policy_delay=1)
        rng = np.random.default_rng(6)
        for _ in range(20):
            agent.observe(rng.normal(size=4), rng.uniform(-1, 1, 1), rng.normal(), rng.normal(size=4), False)
        agent.update()
        assert not agent.critic1.flat_grads.any()
        assert agent.critic2.flat_grads.any()  # the critic update's gradients, which nothing reads again

    def test_weights_round_trip(self):
        agent = make_agent()
        other = make_agent(seed=99)
        other.set_weights(agent.get_weights())
        state = np.ones(4) * 0.2
        assert np.allclose(agent.act(state), other.act(state))


class _GoalEnv(Environment):
    """Tiny environment: reward is highest when the action equals +1."""

    def __init__(self) -> None:
        self.observation_space = BoxSpace(np.zeros(2), np.ones(2))
        self.action_space = BoxSpace(np.array([-1.0]), np.array([1.0]))
        self._steps = 0

    def reset(self, seed=None):
        self._steps = 0
        return np.zeros(2)

    def step(self, action):
        self._steps += 1
        reward = float(-(1.0 - float(action[0])) ** 2)
        done = self._steps >= 10
        return np.zeros(2), reward, done, {}


def test_td3_learns_trivial_bandit():
    env = _GoalEnv()
    agent = make_agent(state_dim=2, warmup_steps=32, batch_size=32,
                       exploration_sigma=0.3, policy_delay=1, actor_lr=3e-3, critic_lr=3e-3)
    state = env.reset()
    for _ in range(600):
        action = agent.act(state, explore=True)
        next_state, reward, done, _ = env.step(action)
        agent.observe(state, action, reward, next_state, done)
        agent.update()
        state = env.reset() if done else next_state
    final_action = agent.act(np.zeros(2))
    assert final_action[0] > 0.3  # moved decisively toward the optimum (+1)


#: The digest of :func:`_trajectory_digest` for the two-critic TD3 update.
TRAJECTORY_SHA256 = "6846ab7340d7c4ba0622798d73fd9b3b110e6fec274d48c3f6c8cbb5d1e6e3f3"
#: The same digest with a batch of 48: dividing by a batch size that is not
#: a power of two rounds, so a reordered loss-gradient scaling shows here.
BATCH_48_TRAJECTORY_SHA256 = "e37076e7eca3df80939b891e4731ce2084aa5590eb5a7c4a4b6dd93f0ce036d3"


def _trajectory_digest(batch_size: int = 64) -> str:
    """SHA-256 over a seeded 300-update run: the final weights, the target
    networks and every update's metrics."""
    agent = TD3Agent(TD3Config(state_dim=21, hidden_sizes=(64, 32), batch_size=batch_size, seed=11))
    rng = np.random.default_rng(5)
    digest = hashlib.sha256()
    for step in range(500):
        state, next_state = rng.uniform(0.0, 1.0, 21), rng.uniform(0.0, 1.0, 21)
        action = rng.uniform(-1.0, 1.0, 1)
        agent.observe(state, action, float(rng.normal()), next_state, bool(rng.random() < 0.05))
        if step >= 200:
            metrics = agent.update()
            assert metrics
            digest.update(repr(sorted(metrics.items())).encode())
    weights = agent.get_weights()
    for network in (weights["actor"], weights["critic1"], weights["critic2"],
                    agent.target_actor.get_weights(), agent.target_critic1.get_weights(),
                    agent.target_critic2.get_weights()):
        for array in network:
            digest.update(np.ascontiguousarray(array).tobytes())
    assert agent.total_updates == 300
    return digest.hexdigest()


def test_update_trajectory_is_pinned():
    # Any change to the TD3 arithmetic (losses, Adam, Polyak, RNG order) moves this digest.
    assert _trajectory_digest() == TRAJECTORY_SHA256


def test_update_trajectory_with_a_batch_of_48_is_pinned():
    assert _trajectory_digest(batch_size=48) == BATCH_48_TRAJECTORY_SHA256


def assert_critics_are_rows_of_their_pair(agent: TD3Agent) -> None:
    """``critic1``/``critic2`` (and the targets) are views of rows 0 and 1 of
    their pair, and the critic optimizer steps the pair's buffer."""
    for pair, members in ((agent.critics, (agent.critic1, agent.critic2)),
                          (agent.target_critics, (agent.target_critic1, agent.target_critic2))):
        stacked = [layer for layer in pair.layers if isinstance(layer, Dense)]
        for row, member in enumerate(members):
            assert np.shares_memory(member.flat_params, pair.flat_params[row])
            assert np.shares_memory(member.flat_grads, pair.flat_grads[row])
            own = [layer for layer in member.layers if isinstance(layer, Dense)]
            assert len(own) == len(stacked)
            for layer, stacked_layer in zip(own, stacked):
                for name, flat in (("weight", pair.flat_params), ("bias", pair.flat_params),
                                   ("grad_weight", pair.flat_grads), ("grad_bias", pair.flat_grads)):
                    assert np.shares_memory(getattr(layer, name), flat[row]), name
                    assert np.shares_memory(getattr(stacked_layer, name)[row], flat[row]), name
                    np.testing.assert_array_equal(getattr(stacked_layer, name)[row], getattr(layer, name))
        # A write through the pair is seen by the member's layers.
        before = members[1].layers[0].weight[0, 0]
        pair.flat_params[1, 0] += 1.0
        assert members[1].layers[0].weight[0, 0] == before + 1.0
        pair.flat_params[1, 0] -= 1.0
    assert agent.critic_optimizer.parameters[0] is agent.critics.flat_params
    assert agent.critic_optimizer.grads[0] is agent.critics.flat_grads


def filled_agent(seed: int = 0) -> TD3Agent:
    agent = make_agent(seed=seed)
    rng = np.random.default_rng(seed)
    for _ in range(40):
        agent.observe(rng.normal(size=4), rng.uniform(-1, 1, 1), rng.normal(), rng.normal(size=4), False)
    return agent


class TestCriticPair:
    def test_critics_are_rows_after_construction(self):
        assert_critics_are_rows_of_their_pair(make_agent())

    def test_critics_are_rows_after_set_weights(self):
        agent = make_agent()
        source = make_agent(seed=99)
        agent.set_weights(source.get_weights())
        assert_critics_are_rows_of_their_pair(agent)
        for name in ("critic1", "critic2"):
            for got, expected in zip(getattr(agent, name).get_weights(), getattr(source, name).get_weights()):
                np.testing.assert_array_equal(got, expected)
        np.testing.assert_array_equal(agent.target_critics.flat_params, agent.critics.flat_params)

    @pytest.mark.parametrize("duplicate", [copy.deepcopy, lambda agent: pickle.loads(pickle.dumps(agent))],
                             ids=["deepcopy", "pickle"])
    def test_critics_are_rows_of_a_copy_that_trains_like_the_original(self, duplicate):
        agent = filled_agent()
        agent.update()
        other = duplicate(agent)
        assert_critics_are_rows_of_their_pair(other)
        assert not np.shares_memory(other.critics.flat_params, agent.critics.flat_params)
        for _ in range(4):
            assert other.update() == agent.update()
        for name, weights in agent.get_weights().items():
            for got, expected in zip(other.get_weights()[name], weights):
                np.testing.assert_array_equal(got, expected)
        np.testing.assert_array_equal(other.target_critics.flat_params, agent.target_critics.flat_params)

    def test_initialisation_keeps_the_two_critic_rng_order(self):
        # Critic 1 is drawn before critic 2 from the agent's generator, after the actor.
        rng = np.random.default_rng(5)
        make_actor(4, 1, (16, 16), rng=rng)
        expected = [make_critic(4, 1, (16, 16), rng=rng) for _ in range(2)]
        agent = make_agent(seed=5)
        for critic, reference in zip((agent.critic1, agent.critic2), expected):
            np.testing.assert_array_equal(critic.flat_params, reference.flat_params)
