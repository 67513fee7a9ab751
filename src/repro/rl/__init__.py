"""Reinforcement-learning substrate: TD3, replay buffer, spaces, environments.

Orca (and hence Canopy) trains its coarse-grained controller with TD3
(twin-delayed deep deterministic policy gradient).  This package provides a
self-contained numpy TD3 implementation plus the supporting pieces: a uniform
replay buffer, Gaussian exploration noise, box
action/observation spaces, and the minimal environment protocol implemented by
:class:`repro.orca.env.OrcaNetworkEnv`.
"""

from repro.rl.spaces import BoxSpace
from repro.rl.replay import ReplayBuffer
from repro.rl.noise import GaussianNoise
from repro.rl.td3 import TD3Agent, TD3Config
from repro.rl.env import Environment

__all__ = [
    "BoxSpace",
    "ReplayBuffer",
    "GaussianNoise",
    "TD3Agent",
    "TD3Config",
    "Environment",
]
