"""Exploration noise processes for deterministic-policy RL."""

from __future__ import annotations

import numpy as np

__all__ = ["GaussianNoise"]


class GaussianNoise:
    """I.i.d. Gaussian exploration noise (the default in TD3)."""

    def __init__(self, dim: int, sigma: float = 0.1, seed: int | None = None) -> None:
        if sigma < 0:
            raise ValueError("sigma must be non-negative")
        self.dim = dim
        self.sigma = sigma
        self._rng = np.random.default_rng(seed)

    def reset(self) -> None:
        """No internal state — present for interface symmetry."""

    def sample(self) -> np.ndarray:
        return self._rng.normal(0.0, self.sigma, size=self.dim)

