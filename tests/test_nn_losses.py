"""Tests for loss functions."""

import numpy as np
import pytest

from repro.nn.losses import mse_loss


def test_mse_zero_for_perfect_prediction():
    pred = np.array([[1.0], [2.0]])
    loss, grad = mse_loss(pred, pred.copy())
    assert loss == pytest.approx(0.0)
    assert np.allclose(grad, 0.0)


def test_mse_value_and_gradient():
    pred = np.array([[1.0], [3.0]])
    target = np.array([[0.0], [1.0]])
    loss, grad = mse_loss(pred, target)
    assert loss == pytest.approx((1.0 + 4.0) / 2.0)
    assert np.allclose(grad, 2.0 * (pred - target) / 2.0)


def test_mse_shape_mismatch_raises():
    with pytest.raises(ValueError):
        mse_loss(np.zeros((2, 1)), np.zeros((3, 1)))


def test_mse_gradient_matches_numerical():
    rng = np.random.default_rng(0)
    pred = rng.normal(size=(4, 1))
    target = rng.normal(size=(4, 1))
    _, grad = mse_loss(pred, target)
    eps = 1e-6
    numerical = np.zeros_like(pred)
    for i in range(pred.shape[0]):
        plus = pred.copy(); plus[i, 0] += eps
        minus = pred.copy(); minus[i, 0] -= eps
        numerical[i, 0] = (mse_loss(plus, target)[0] - mse_loss(minus, target)[0]) / (2 * eps)
    assert np.allclose(grad, numerical, atol=1e-5)

