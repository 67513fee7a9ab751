"""Tests for the optimizer base class and Adam."""

import numpy as np
import pytest

from repro.nn.losses import mse_loss
from repro.nn.mlp import MLP
from repro.nn.optim import Adam


def test_mismatched_lengths_rejected():
    with pytest.raises(ValueError):
        Adam([np.zeros(2)], [], lr=0.1)


def test_nonpositive_lr_rejected():
    with pytest.raises(ValueError):
        Adam([np.zeros(2)], [np.zeros(2)], lr=0.0)


def test_adam_invalid_betas():
    with pytest.raises(ValueError):
        Adam([np.zeros(1)], [np.zeros(1)], lr=0.1, beta1=1.0)


def test_zero_grad_clears_buffers():
    param = np.array([1.0])
    grad = np.array([2.0])
    opt = Adam([param], [grad], lr=0.1)
    opt.zero_grad()
    assert np.all(grad == 0.0)


def test_adam_minimizes_quadratic():
    param = np.array([5.0, -3.0])
    grad = np.zeros_like(param)
    opt = Adam([param], [grad], lr=0.1)
    for _ in range(500):
        grad[...] = 2.0 * param  # d/dx of ||x||^2
        opt.step()
    assert np.allclose(param, 0.0, atol=1e-2)


def test_adam_trains_regression_model():
    rng = np.random.default_rng(0)
    true_weight = np.array([[2.0, -1.0]])
    x = rng.normal(size=(256, 2))
    y = x @ true_weight.T

    model = MLP(2, (), 1, rng=rng)  # a single linear layer
    opt = Adam.for_model(model, lr=0.05)
    initial_loss = None
    for _ in range(300):
        model.zero_grad()
        prediction = model.forward(x)
        loss, grad = mse_loss(prediction, y)
        if initial_loss is None:
            initial_loss = loss
        model.backward(grad)
        opt.step()
    assert loss < initial_loss * 0.01


def test_for_model_binds_model_buffers():
    model = MLP(2, (3,), 2, rng=np.random.default_rng(1))
    opt = Adam.for_model(model, lr=0.01)
    assert len(opt.parameters) == len(opt.grads) == 1
    assert opt.parameters[0] is model.flat_params
    assert opt.grads[0] is model.flat_grads
    assert np.shares_memory(opt.parameters[0], model.layers[0].weight)


def _train_step(model, rng):
    """One forward/backward pass on random data, gradients accumulated."""
    x = rng.normal(size=(16, model.in_features))
    y = rng.normal(size=(16, model.out_features))
    model.zero_grad()
    loss, grad = mse_loss(model.forward(x), y)
    model.backward(grad)


def test_flat_adam_matches_per_tensor_adam_bit_for_bit():
    flat_model = MLP(5, (7, 3), 2, rng=np.random.default_rng(2))
    tensor_model = MLP(5, (7, 3), 2, rng=np.random.default_rng(2))
    flat_opt = Adam.for_model(flat_model, lr=0.01)
    tensor_opt = Adam(tensor_model.parameters(), tensor_model.grads(), lr=0.01)
    assert len(tensor_opt.parameters) == 6
    flat_rng, tensor_rng = np.random.default_rng(3), np.random.default_rng(3)
    for _ in range(50):
        _train_step(flat_model, flat_rng)
        _train_step(tensor_model, tensor_rng)
        flat_opt.step()
        tensor_opt.step()
        assert np.array_equal(flat_model.flat_params, tensor_model.flat_params)
    for flat, tensor in zip(flat_model.parameters(), tensor_model.parameters()):
        assert np.array_equal(flat, tensor)


def test_flat_zero_grad_matches_per_tensor_zero_grad():
    model = MLP(4, (6,), 1, rng=np.random.default_rng(4))
    _train_step(model, np.random.default_rng(5))
    assert all(np.any(grad != 0.0) for grad in model.grads())
    Adam.for_model(model, lr=0.01).zero_grad()
    assert not model.flat_grads.any()
    _train_step(model, np.random.default_rng(5))
    model.zero_grad()
    assert not model.flat_grads.any()
    assert all(not grad.any() for grad in model.grads())


def test_adam_matches_the_textbook_update_bit_for_bit():
    """The in-place step rounds exactly like ``θ -= lr · m̂ / (√v̂ + eps)``."""
    rng = np.random.default_rng(6)
    param, grad = rng.normal(size=300), np.zeros(300)
    expected, m, v = param.copy(), np.zeros(300), np.zeros(300)
    optimizer = Adam([param], [grad], lr=0.01)
    for t in range(1, 60):
        grad[...] = rng.normal(size=300) * 10.0 ** rng.integers(-6, 3, size=300)
        optimizer.step()
        m = 0.9 * m + (1.0 - 0.9) * grad
        v = 0.999 * v + (1.0 - 0.999) * grad ** 2
        m_hat = m / (1.0 - 0.9 ** t)
        v_hat = v / (1.0 - 0.999 ** t)
        expected -= 0.01 * m_hat / (np.sqrt(v_hat) + 1e-8)
        assert np.array_equal(param, expected)
