"""Uniform experience replay buffer."""

from __future__ import annotations

from typing import Dict

import numpy as np

__all__ = ["ReplayBuffer"]

#: Rows a buffer allocates at first; it doubles them, up to its capacity,
#: when they fill.
INITIAL_ROWS = 1024


class ReplayBuffer:
    """Fixed-capacity ring buffer with uniform sampling.

    Storage is dense numpy arrays keyed by field, which keeps sampling cheap
    even for large buffers.  They start at ``min(capacity, INITIAL_ROWS)``
    rows and double, the stored rows copied over, whenever an add finds them
    full, up to ``capacity`` rows; from then on the oldest entry is
    overwritten.  Sampling reads only the first ``len(self)`` rows, so the
    draws and batches do not depend on how many rows are allocated.
    """

    def __init__(self, capacity: int, state_dim: int, action_dim: int, seed: int | None = None) -> None:
        if capacity <= 0:
            raise ValueError("capacity must be positive")
        if state_dim <= 0 or action_dim <= 0:
            raise ValueError("state_dim and action_dim must be positive")
        self.capacity = capacity
        self.state_dim = state_dim
        self.action_dim = action_dim
        rows = min(capacity, INITIAL_ROWS)
        self._states = np.zeros((rows, state_dim), dtype=np.float64)
        self._actions = np.zeros((rows, action_dim), dtype=np.float64)
        self._rewards = np.zeros(rows, dtype=np.float64)
        self._next_states = np.zeros((rows, state_dim), dtype=np.float64)
        self._dones = np.zeros(rows, dtype=np.float64)
        self._size = 0
        self._cursor = 0
        self._rng = np.random.default_rng(seed)

    def _grow(self) -> None:
        """Double the rows of every field, up to ``capacity``, keeping the
        stored rows."""
        rows = min(2 * len(self._rewards), self.capacity)
        for name in ("_states", "_actions", "_rewards", "_next_states", "_dones"):
            old = getattr(self, name)
            new = np.zeros((rows,) + old.shape[1:], dtype=np.float64)
            new[:len(old)] = old
            setattr(self, name, new)

    def __len__(self) -> int:
        return self._size

    def add(self, state, action, reward: float, next_state, done: bool) -> None:
        """Append one transition, overwriting the oldest entry when full."""
        state = np.asarray(state, dtype=np.float64).reshape(self.state_dim)
        action = np.asarray(action, dtype=np.float64).reshape(self.action_dim)
        next_state = np.asarray(next_state, dtype=np.float64).reshape(self.state_dim)
        idx = self._cursor
        if idx == len(self._rewards) < self.capacity:
            self._grow()
        self._states[idx] = state
        self._actions[idx] = action
        self._rewards[idx] = float(reward)
        self._next_states[idx] = next_state
        self._dones[idx] = 1.0 if done else 0.0
        self._cursor = (self._cursor + 1) % self.capacity
        self._size = min(self._size + 1, self.capacity)

    def sample(self, batch_size: int) -> Dict[str, np.ndarray]:
        """Uniformly sample a batch; raises if the buffer holds fewer items."""
        if batch_size <= 0:
            raise ValueError("batch_size must be positive")
        if batch_size > self._size:
            raise ValueError(f"cannot sample {batch_size} from buffer of size {self._size}")
        indices = self._rng.integers(0, self._size, size=batch_size)
        # Indexing with an index array already copies.
        return {
            "states": self._states[indices],
            "actions": self._actions[indices],
            "rewards": self._rewards[indices],
            "next_states": self._next_states[indices],
            "dones": self._dones[indices],
        }

    def clear(self) -> None:
        self._size = 0
        self._cursor = 0
