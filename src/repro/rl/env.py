"""The minimal environment protocol used by the RL substrate.

An environment models the MDP ``M = (S, A, r, P, S_0)`` of Section 4.1: the
agent observes a state, emits an action, and receives the next state, a scalar
reward, a termination flag and an info dictionary.  The interface mirrors the
classic ``reset()/step()`` convention so the TD3 agent and the Canopy trainer
can drive any environment, in particular
:class:`repro.orca.env.OrcaNetworkEnv`.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import Any, Dict, Tuple

import numpy as np

from repro.rl.spaces import BoxSpace

__all__ = ["Environment"]


class Environment(ABC):
    """Abstract base class for episodic environments."""

    observation_space: BoxSpace
    action_space: BoxSpace

    @abstractmethod
    def reset(self, seed: int | None = None) -> np.ndarray:
        """Start a new episode and return the initial observation."""

    @abstractmethod
    def step(self, action: np.ndarray) -> Tuple[np.ndarray, float, bool, Dict[str, Any]]:
        """Apply ``action``; return ``(observation, reward, done, info)``."""

    def close(self) -> None:  # pragma: no cover - optional hook
        """Release any resources held by the environment."""
