"""Tests for exploration noise processes."""

import numpy as np
import pytest

from repro.rl.noise import GaussianNoise


def test_gaussian_noise_statistics():
    noise = GaussianNoise(dim=2, sigma=0.5, seed=0)
    samples = np.array([noise.sample() for _ in range(4000)])
    assert samples.shape == (4000, 2)
    assert abs(samples.mean()) < 0.05
    assert abs(samples.std() - 0.5) < 0.05


def test_gaussian_zero_sigma_is_deterministic():
    noise = GaussianNoise(dim=3, sigma=0.0, seed=1)
    assert np.allclose(noise.sample(), 0.0)


def test_gaussian_negative_sigma_rejected():
    with pytest.raises(ValueError):
        GaussianNoise(dim=1, sigma=-0.1)


def test_noise_is_reproducible_with_seed():
    a = GaussianNoise(dim=2, sigma=1.0, seed=42)
    b = GaussianNoise(dim=2, sigma=1.0, seed=42)
    assert np.allclose(a.sample(), b.sample())
