"""Tests for the MLP container, actor/critic builders, and weight management."""

import copy
import pickle

import numpy as np
import pytest

from repro.nn.mlp import ALIGN, MLP, MLPStack, make_actor, make_critic
from repro.nn.optim import Adam
from repro.nn.serialization import load_mlp, save_mlp


def test_mlp_output_shape():
    model = MLP(6, (8, 4), 2, rng=np.random.default_rng(0))
    out = model.forward(np.zeros((3, 6)))
    assert out.shape == (3, 2)


def test_invalid_activation_names():
    with pytest.raises(ValueError):
        MLP(2, (4,), 1, hidden_activation="sigmoidish")
    with pytest.raises(ValueError):
        MLP(2, (4,), 1, output_activation="wrong")


def test_actor_output_in_unit_range():
    actor = make_actor(5, hidden_sizes=(8, 8), rng=np.random.default_rng(1))
    x = np.random.default_rng(2).normal(size=(10, 5)) * 100.0
    out = actor.forward(x)
    assert np.all(out >= -1.0) and np.all(out <= 1.0)


def test_critic_takes_state_action_concatenation():
    critic = make_critic(5, 1, rng=np.random.default_rng(3))
    out = critic.forward(np.zeros((2, 6)))
    assert out.shape == (2, 1)


def test_get_set_weights_round_trip():
    model = MLP(4, (6,), 1, rng=np.random.default_rng(4))
    weights = model.get_weights()
    clone = MLP(4, (6,), 1, rng=np.random.default_rng(99))
    clone.set_weights(weights)
    x = np.random.default_rng(5).normal(size=(3, 4))
    assert np.allclose(model.forward(x), clone.forward(x))


def test_set_weights_wrong_count_raises():
    model = MLP(4, (6,), 1)
    with pytest.raises(ValueError):
        model.set_weights(model.get_weights()[:-1])


def test_set_weights_wrong_shape_raises():
    model = MLP(4, (6,), 1)
    weights = model.get_weights()
    weights[0] = np.zeros((2, 2))
    with pytest.raises(ValueError):
        model.set_weights(weights)


def test_clone_is_independent():
    model = MLP(3, (4,), 1, rng=np.random.default_rng(6))
    clone = model.clone()
    x = np.ones((1, 3))
    assert np.allclose(model.forward(x), clone.forward(x))
    clone.parameters()[0][...] += 1.0
    assert not np.allclose(model.forward(x), clone.forward(x))


def test_soft_update_interpolates():
    source = MLP(3, (4,), 1, rng=np.random.default_rng(7))
    target = MLP(3, (4,), 1, rng=np.random.default_rng(8))
    original = [p.copy() for p in target.parameters()]
    target.soft_update_from(source, tau=0.5)
    for orig, src, updated in zip(original, source.parameters(), target.parameters()):
        assert np.allclose(updated, 0.5 * src + 0.5 * orig)


def test_soft_update_invalid_tau():
    source = MLP(3, (4,), 1)
    target = MLP(3, (4,), 1)
    with pytest.raises(ValueError):
        target.soft_update_from(source, tau=1.5)


def test_copy_from_makes_exact_copy():
    source = MLP(3, (4,), 1, rng=np.random.default_rng(9))
    target = MLP(3, (4,), 1, rng=np.random.default_rng(10))
    target.copy_from(source)
    x = np.random.default_rng(11).normal(size=(2, 3))
    assert np.allclose(source.forward(x), target.forward(x))


# ---------------------------------------------------------------------- #
# Flat parameter and gradient buffers
# ---------------------------------------------------------------------- #
def _offsets(flat, tensors):
    """Element offset of each tensor's first element inside ``flat``."""
    base = flat.__array_interface__["data"][0]
    return [(tensor.__array_interface__["data"][0] - base) // flat.itemsize for tensor in tensors]


def _mse_grad(prediction, target):
    """The gradient of the mean-squared error with respect to ``prediction``."""
    return 2.0 * (prediction - target) / prediction.size


def _padding_mask(model):
    """True at the flat-buffer elements no tensor covers."""
    mask = np.ones(model.flat_params.size, dtype=bool)
    for offset, tensor in zip(_offsets(model.flat_params, model.parameters()), model.parameters()):
        mask[offset:offset + tensor.size] = False
    return mask


def test_parameters_and_grads_are_views_of_the_flat_buffers():
    model = MLP(5, (7, 3), 2, rng=np.random.default_rng(12))
    assert model.flat_params.ndim == model.flat_grads.ndim == 1
    assert model.flat_params.shape == model.flat_grads.shape
    for param, grad in zip(model.parameters(), model.grads()):
        assert np.shares_memory(param, model.flat_params)
        assert np.shares_memory(grad, model.flat_grads)
    param_offsets = _offsets(model.flat_params, model.parameters())
    assert param_offsets == _offsets(model.flat_grads, model.grads())
    assert all(offset % ALIGN == 0 for offset in param_offsets)
    assert param_offsets == sorted(param_offsets)
    assert _padding_mask(model).any()


def test_padding_stays_zero_through_training_and_polyak_updates():
    model = MLP(5, (7, 3), 2, rng=np.random.default_rng(13))
    target = model.clone()
    optimizer = Adam.for_model(model, lr=0.05)
    rng = np.random.default_rng(14)
    padding = _padding_mask(model)
    for _ in range(20):
        model.zero_grad()
        model.backward(_mse_grad(model.forward(rng.normal(size=(8, 5))), rng.normal(size=(8, 2))))
        optimizer.step()
        target.soft_update_from(model, tau=0.3)
        assert not model.flat_params[padding].any() and not model.flat_grads[padding].any()
        assert not target.flat_params[padding].any()


def test_flat_soft_update_matches_per_tensor_polyak_bit_for_bit():
    source = MLP(5, (7, 3), 2, rng=np.random.default_rng(15))
    target = MLP(5, (7, 3), 2, rng=np.random.default_rng(16))
    expected = [param.copy() for param in target.parameters()]
    rng = np.random.default_rng(17)
    for _ in range(50):
        source.flat_params += rng.normal(size=source.flat_params.shape) * ~_padding_mask(source)
        tau = 0.005
        expected = [tau * src + (1.0 - tau) * tgt for src, tgt in zip(source.parameters(), expected)]
        target.soft_update_from(source, tau)
        for got, want in zip(target.parameters(), expected):
            assert np.array_equal(got, want)
    target.copy_from(source)
    assert np.array_equal(target.flat_params, source.flat_params)


def _rebuilt_models(tmp_path):
    model = MLP(4, (6, 3), 1, rng=np.random.default_rng(18))
    loaded_into = MLP(4, (6, 3), 1, rng=np.random.default_rng(19))
    loaded_into.set_weights(model.get_weights())
    return {
        "clone": model.clone(),
        "set_weights": loaded_into,
        "load_mlp": load_mlp(save_mlp(model, tmp_path / "model.npz")),
        "pickle": pickle.loads(pickle.dumps(model)),
        "deepcopy": copy.deepcopy(model),
    }


@pytest.mark.parametrize("how", ["clone", "set_weights", "load_mlp", "pickle", "deepcopy"])
def test_optimizer_step_moves_layer_weights_after_rebuild(tmp_path, how):
    model = _rebuilt_models(tmp_path)[how]
    for param, grad in zip(model.parameters(), model.grads()):
        assert np.shares_memory(param, model.flat_params)
        assert np.shares_memory(grad, model.flat_grads)
    first = model.layers[0]
    before = first.weight.copy()
    x = np.random.default_rng(20).normal(size=(8, 4))
    model.zero_grad()
    output = model.forward(x)
    model.backward(_mse_grad(output, np.ones((8, 1))))
    assert first.grad_weight.any()
    Adam.for_model(model, lr=0.01).step()
    assert not np.array_equal(first.weight, before)
    assert not np.array_equal(model.forward(x), output)


def test_stack_steps_like_its_members_bit_for_bit():
    """One forward, backward, Adam step and Polyak update of a two-row stack
    equal each member's own calls."""
    rng = np.random.default_rng(21)
    members = [make_critic(21, 1, (64, 32), rng=rng) for _ in range(2)]
    alone = [member.clone() for member in members]
    stack = MLPStack(members)
    targets = MLPStack([member.clone() for member in members])
    alone_targets = [member.clone() for member in members]
    stack_opt = Adam.for_model(stack, lr=0.01)
    alone_opts = [Adam.for_model(member, lr=0.01) for member in alone]
    for _ in range(20):
        x = rng.normal(size=(64, 22))
        grad = rng.normal(size=(2, 64, 1))
        stack.zero_grad()
        out = stack.forward(x)
        input_grad = stack.backward(grad)
        stack_opt.step()
        targets.soft_update_from(stack, 0.05)
        for row, (member, optimizer, target) in enumerate(zip(alone, alone_opts, alone_targets)):
            member.zero_grad()
            assert np.array_equal(out[row], member.forward(x))
            assert np.array_equal(input_grad[row], member.backward(grad[row]))
            optimizer.step()
            target.soft_update_from(member, 0.05)
            assert np.array_equal(stack.flat_params[row], member.flat_params)
            assert np.array_equal(targets.flat_params[row], target.flat_params)
    for member, reference in zip(stack.members, alone):
        assert np.array_equal(member.forward(x), reference.forward(x))


def test_stack_needs_one_architecture():
    with pytest.raises(ValueError, match="one architecture"):
        MLPStack([make_critic(4, 1, (8, 8)), make_critic(4, 1, (8, 4))])
