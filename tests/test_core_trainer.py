"""Tests for the Canopy trainer (certification in the loop)."""

import copy
import hashlib
from dataclasses import replace

import numpy as np
import pytest

from repro.abstract.box import Box
from repro.core.config import CanopyConfig
from repro.core.properties import robustness_properties
from repro.core.trainer import CanopyTrainer, TrainerConfig
from repro.nn.optim import Adam


def make_trainer(kind="shallow", **overrides):
    factories = {
        "shallow": CanopyConfig.shallow,
        "deep": CanopyConfig.deep,
        "robust": CanopyConfig.robustness,
        "orca": CanopyConfig.orca_baseline,
    }
    config = factories[kind](seed=2)
    defaults = dict(total_steps=60, log_every=20)
    defaults.update(overrides)
    return CanopyTrainer(config, TrainerConfig(**defaults))


#: SHA-256 over the actor parameters after a 150-step canopy-robust run
#: (seed 2): TD3 updates start at step 100, so this covers them, the P5
#: reward shaping and the regularization sampling next to them.
ROBUST_150_STEP_DIGEST = "36b7b92d6bcd5ed6a4d4afefcb1e7d83906c14323f749417cbf1e0f14813b800"


#: SHA-256 of :func:`training_state_digest` after a 150-step run (seed 2)
#: of each preset: every parameter and Adam moment the TD3 updates and the
#: regularization step write.
TRAINING_150_STEP_DIGESTS = {
    "deep": "0039b98a3c36ac5b78d4c8efdad08a8d1e94bcb775ffc08404f15db4d4195b2c",
    "orca": "ddffff0ac794e4e2583f231191b3058baf786ac188b6de5731766744791e6ac7",
    "shallow": "f6eb5b81daf84ba0f46b80d72ae51e99d24229fc3aa4200f31ba8bb8967bd1f9",
}


def training_state_digest(trainer: CanopyTrainer) -> str:
    """SHA-256 over the flat parameters of the actor, the critic pair and
    both target networks, and over every Adam's ``_m``, ``_v`` and ``_t``
    (critic, actor and regularization optimizers)."""
    agent = trainer.agent
    digest = hashlib.sha256()
    for network in (agent.actor, agent.critics, agent.target_actor, agent.target_critics):
        digest.update(network.flat_params.tobytes())
    for optimizer in (agent.critic_optimizer, agent.actor_optimizer, trainer._reg_optimizer):
        if optimizer is None:
            digest.update(b"no optimizer")
            continue
        for moment in (*optimizer._m, *optimizer._v):
            digest.update(moment.tobytes())
        digest.update(str(optimizer._t).encode())
    return digest.hexdigest()


def actor_digest(actor) -> str:
    digest = hashlib.sha256()
    for array in actor.get_weights():
        digest.update(f"{array.shape}{array.dtype}".encode())
        digest.update(array.tobytes())
    return digest.hexdigest()


class TestTrainerConfig:
    def test_invalid_total_steps(self):
        with pytest.raises(ValueError):
            TrainerConfig(total_steps=0)

    def test_invalid_log_every(self):
        with pytest.raises(ValueError):
            TrainerConfig(log_every=0)

    def test_invalid_regularization(self):
        with pytest.raises(ValueError):
            TrainerConfig(regularization_samples=0)
        with pytest.raises(ValueError):
            TrainerConfig(regularization_margin=-1.0)


class TestTraining:
    def test_history_logged_at_requested_cadence(self):
        result = make_trainer().train()
        assert len(result.history) == 3
        assert [log.step for log in result.history] == [20, 40, 60]

    def test_result_carries_agent_and_policy(self):
        result = make_trainer().train()
        policy = result.policy()
        action = policy(np.zeros(result.agent.config.state_dim))
        assert action.shape == (1,)
        assert -1.0 <= float(action[0]) <= 1.0

    def test_rewards_are_finite_and_bounded(self):
        result = make_trainer().train()
        for log in result.history:
            assert np.isfinite(log.raw_reward)
            assert 0.0 <= log.verifier_reward <= 1.0

    def test_env_steps_counted(self):
        result = make_trainer(total_steps=45).train()
        assert result.env_steps == 45
        assert result.steps_per_second > 0.0

    def test_orca_baseline_skips_verifier_shaping(self):
        trainer = make_trainer("orca", use_verifier_reward=False)
        result = trainer.train()
        # Verifier reward is still measured for the training-curve comparison.
        assert all(0.0 <= log.verifier_reward <= 1.0 for log in result.history)

    def test_progress_callback_invoked(self):
        calls = []
        trainer = make_trainer(progress_callback=calls.append)
        trainer.train()
        assert len(calls) == 3
        assert set(calls[0]) >= {"step", "raw_reward", "verifier_reward"}

    def test_reward_curves_shape(self):
        result = make_trainer().train()
        curves = result.reward_curves()
        assert curves["step"].shape == curves["raw"].shape == curves["verifier"].shape

    def test_final_metrics_empty_history(self):
        from repro.core.trainer import TrainingResult

        empty = TrainingResult(config_name="x")
        assert empty.final_metrics()["raw_reward"] == 0.0
        with pytest.raises(RuntimeError):
            empty.policy()

    def test_verifier_seconds_accounted(self):
        result = make_trainer().train()
        assert 0.0 <= result.verifier_seconds <= result.total_seconds

    def test_regularization_seconds_accounted(self):
        result = make_trainer().train()
        assert 0.0 < result.regularization_seconds <= result.total_seconds
        assert all(log.regularization_seconds > 0.0 for log in result.history)
        assert sum(log.regularization_seconds for log in result.history) <= result.regularization_seconds + 1e-9
        assert result.regularization_seconds + result.verifier_seconds <= result.total_seconds

    @pytest.mark.parametrize("kind, overrides", [
        ("shallow", {"property_regularization": False}),
        ("orca", {"use_verifier_reward": False}),
    ])
    def test_regularization_seconds_are_zero_when_off(self, kind, overrides):
        result = make_trainer(kind, **overrides).train()
        assert result.regularization_seconds == 0.0
        assert [log.regularization_seconds for log in result.history] == [0.0] * len(result.history)

    def test_regularization_changes_actor(self):
        """With property regularization on, training moves the actor's behavior
        toward property satisfaction relative to the Orca baseline."""
        canopy = make_trainer("shallow", total_steps=200, log_every=100).train()
        orca = make_trainer("orca", total_steps=200, log_every=100,
                            use_verifier_reward=False).train()
        assert canopy.history[-1].verifier_reward >= orca.history[-1].verifier_reward - 0.1

    def test_robust_training_runs(self):
        result = make_trainer("robust", total_steps=40, log_every=20).train()
        assert len(result.history) == 2

    def test_robust_training_actor_digest_is_pinned(self):
        result = make_trainer("robust", total_steps=150, log_every=75).train()
        assert actor_digest(result.agent.actor) == ROBUST_150_STEP_DIGEST

    @pytest.mark.parametrize("kind", sorted(TRAINING_150_STEP_DIGESTS))
    def test_training_state_digest_is_pinned(self, kind):
        trainer = make_trainer(kind, total_steps=150, log_every=75)
        trainer.train()
        assert training_state_digest(trainer) == TRAINING_150_STEP_DIGESTS[kind]

    def test_regularization_samples_the_region_the_verifier_certifies(self, monkeypatch):
        """P5's regularization samples the verifier's box ``(c - d, c + d)``,
        not the raw region bounds: at delay 0.49 the two differ in the
        last bit of ``lo``."""
        trainer = make_trainer("robust")
        observer = trainer.verifier.observer
        [prop] = trainer.canopy_config.properties  # P5, the robust set's one property
        state = np.full(observer.state_dim, 0.49)
        raw_lo, raw_hi = prop.region_plan(observer).bounds(state)
        region = Box._trusted_bounds(raw_lo, raw_hi)
        draws = copy.deepcopy(trainer._reg_rng).random(
            (trainer.trainer_config.regularization_samples, observer.state_dim))
        actor = trainer.agent.actor
        inputs = []
        forward = actor.forward
        monkeypatch.setattr(actor, "forward", lambda x: inputs.append(x.copy()) or forward(x))
        trainer._property_regularization_step(state, 20.0, 20.0)
        samples = inputs[-1]
        np.testing.assert_array_equal(samples, region.lo + draws * (region.hi - region.lo))
        assert not np.array_equal(samples, raw_lo + draws * (raw_hi - raw_lo))

    def test_p5_regularization_step_matches_per_tensor_adam(self):
        """With an ``epsilon`` small enough that P5 always violates, the
        regularization step fires, moves the actor, and its flat-buffer Adam
        lands on the same bits as a per-tensor Adam over the same actor."""
        config = replace(CanopyConfig.robustness(seed=2), properties=robustness_properties(epsilon=1e-9))
        trainer = CanopyTrainer(config, TrainerConfig(total_steps=60, log_every=20))
        reference = CanopyTrainer(config, TrainerConfig(total_steps=60, log_every=20))
        actor, reference_actor = trainer.agent.actor, reference.agent.actor
        assert trainer._reg_optimizer.parameters == [actor.flat_params]
        reference._reg_optimizer = Adam(reference_actor.parameters(), reference_actor.grads(),
                                        lr=trainer._reg_optimizer.lr)
        initial = actor.flat_params.copy()
        assert np.array_equal(initial, reference_actor.flat_params)
        rng = np.random.default_rng(21)
        for _ in range(5):
            state = rng.uniform(0.1, 0.9, trainer.verifier.observer.state_dim)
            before = actor.flat_params.copy()
            trainer._property_regularization_step(state, 20.0, 20.0)
            reference._property_regularization_step(state, 20.0, 20.0)
            assert not np.array_equal(actor.flat_params, before)
            assert np.array_equal(actor.flat_params, reference_actor.flat_params)
        assert not actor.flat_grads.any()
