"""Tests for the replay buffer."""

import copy
import hashlib
import pickle

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.rl.replay import INITIAL_ROWS, ReplayBuffer


def _fill(buffer: ReplayBuffer, n: int, state_dim: int = 3, action_dim: int = 1) -> None:
    for i in range(n):
        buffer.add(np.full(state_dim, i, dtype=float), np.full(action_dim, i, dtype=float),
                   float(i), np.full(state_dim, i + 1, dtype=float), done=(i % 5 == 0))


def test_invalid_construction():
    with pytest.raises(ValueError):
        ReplayBuffer(0, 3, 1)
    with pytest.raises(ValueError):
        ReplayBuffer(10, 0, 1)


def test_len_grows_until_capacity():
    buffer = ReplayBuffer(5, 3, 1)
    _fill(buffer, 3)
    assert len(buffer) == 3
    _fill(buffer, 5)
    assert len(buffer) == 5


def test_ring_overwrite_keeps_most_recent():
    buffer = ReplayBuffer(3, 1, 1, seed=0)
    for i in range(6):
        buffer.add([float(i)], [0.0], float(i), [float(i)], False)
    batch = buffer.sample(3)
    # Only rewards 3, 4, 5 can remain after wrap-around.
    assert np.all(batch["rewards"] >= 3.0)


def test_sample_too_many_raises():
    buffer = ReplayBuffer(10, 2, 1)
    _fill(buffer, 4, state_dim=2)
    with pytest.raises(ValueError):
        buffer.sample(5)
    with pytest.raises(ValueError):
        buffer.sample(0)


def test_sample_shapes():
    buffer = ReplayBuffer(20, 4, 2, seed=1)
    for i in range(10):
        buffer.add(np.zeros(4), np.zeros(2), 0.0, np.zeros(4), False)
    batch = buffer.sample(6)
    assert batch["states"].shape == (6, 4)
    assert batch["actions"].shape == (6, 2)
    assert batch["rewards"].shape == (6,)
    assert batch["next_states"].shape == (6, 4)
    assert batch["dones"].shape == (6,)


def test_clear_resets():
    buffer = ReplayBuffer(5, 2, 1)
    _fill(buffer, 4, state_dim=2)
    buffer.clear()
    assert len(buffer) == 0


@given(st.integers(1, 40), st.integers(1, 15))
@settings(max_examples=30, deadline=None)
def test_size_never_exceeds_capacity(n_items, capacity):
    buffer = ReplayBuffer(capacity, 2, 1, seed=0)
    _fill(buffer, n_items, state_dim=2)
    assert len(buffer) == min(n_items, capacity)


#: SHA-256 of :func:`_sample_digest` per ``(capacity, adds)``: a small
#: buffer that wraps, and one that grows past its first rows before it wraps.
SAMPLE_SHA256 = {
    (37, 100): "0b72c1a0b9339ef5c31a559ab1c7402ff49b8f19aa8596fdbe447623434c69e2",
    (2500, 3100): "e34b306156b8101c2ac6cd5bc33cfaf61866ddf5f5978dfe5a7964bf1df9a54b",
}


def _sample_digest(capacity: int, adds: int) -> str:
    """SHA-256 of a batch sampled every 97 adds and of 50 batches sampled
    after ``adds`` seeded transitions into a seeded buffer."""
    buffer = ReplayBuffer(capacity, 3, 1, seed=4)
    rng = np.random.default_rng(9)
    digest = hashlib.sha256()

    def sample() -> None:
        for array in buffer.sample(16).values():
            digest.update(array.tobytes())

    for step in range(adds):
        buffer.add(rng.normal(size=3), rng.uniform(-1, 1, 1), float(rng.normal()), rng.normal(size=3),
                   bool(rng.random() < 0.1))
        if step % 97 == 96:
            sample()
    for _ in range(50):
        sample()
    return digest.hexdigest()


@pytest.mark.parametrize("capacity, adds", sorted(SAMPLE_SHA256))
def test_sampled_batches_are_pinned(capacity, adds):
    assert _sample_digest(capacity, adds) == SAMPLE_SHA256[capacity, adds]


def _rows(buffer: ReplayBuffer) -> int:
    allocated = {len(getattr(buffer, name)) for name in
                 ("_states", "_actions", "_rewards", "_next_states", "_dones")}
    assert len(allocated) == 1
    return allocated.pop()


def _stored(buffer: ReplayBuffer) -> list:
    """The first ``len(buffer)`` rows of every field."""
    return [getattr(buffer, name)[:len(buffer)].copy()
            for name in ("_states", "_actions", "_rewards", "_next_states", "_dones")]


class TestGrowth:
    def test_small_capacity_allocates_only_its_capacity(self):
        buffer = ReplayBuffer(37, 3, 1)
        assert _rows(buffer) == 37
        _fill(buffer, 100)
        assert _rows(buffer) == 37 and len(buffer) == 37

    def test_rows_double_at_each_boundary_up_to_capacity(self):
        capacity = 2 * INITIAL_ROWS + 100
        buffer = ReplayBuffer(capacity, 3, 1)
        expected_rows = INITIAL_ROWS
        for count in range(1, capacity + 2):
            grows = count - 1 == expected_rows < capacity
            before = _stored(buffer) if grows else None
            _fill_one(buffer, count - 1)
            if grows:
                expected_rows = min(2 * expected_rows, capacity)
                # The rows stored before growing are copied over unchanged.
                for old, new in zip(before, _stored(buffer)):
                    np.testing.assert_array_equal(new[:len(old)], old)
            assert _rows(buffer) == expected_rows, count
            assert len(buffer) == min(count, capacity)
        assert expected_rows == capacity

    def test_wrap_at_capacity_overwrites_the_oldest_row(self):
        capacity = INITIAL_ROWS + 3
        buffer = ReplayBuffer(capacity, 3, 1)
        _fill(buffer, capacity + 2)
        assert _rows(buffer) == capacity and len(buffer) == capacity
        # Entries 0 and 1 were overwritten by entries capacity and capacity + 1.
        np.testing.assert_array_equal(buffer._rewards[:3], [capacity, capacity + 1, 2])
        assert buffer._cursor == 2

    def test_samples_match_a_buffer_allocated_at_capacity(self):
        grown = ReplayBuffer(3 * INITIAL_ROWS, 3, 1, seed=6)
        whole = copy.deepcopy(grown)
        for name in ("_states", "_actions", "_rewards", "_next_states", "_dones"):
            old = getattr(whole, name)
            setattr(whole, name, np.zeros((whole.capacity,) + old.shape[1:]))
        for count in range(1, 3 * INITIAL_ROWS + 50):
            _fill_one(grown, count)
            _fill_one(whole, count)
            if count % 211 == 0 or count >= 3 * INITIAL_ROWS:
                expected = whole.sample(8)
                for key, values in grown.sample(8).items():
                    np.testing.assert_array_equal(values, expected[key])

    @pytest.mark.parametrize("duplicate", [copy.deepcopy, lambda buffer: pickle.loads(pickle.dumps(buffer))],
                             ids=["deepcopy", "pickle"])
    def test_a_copy_grows_and_samples_like_the_original(self, duplicate):
        buffer = ReplayBuffer(2 * INITIAL_ROWS, 3, 1, seed=2)
        _fill(buffer, INITIAL_ROWS - 1)
        other = duplicate(buffer)
        for count in range(INITIAL_ROWS - 1, INITIAL_ROWS + 5):
            _fill_one(buffer, count)
            _fill_one(other, count)
        assert _rows(other) == _rows(buffer) == 2 * INITIAL_ROWS
        assert len(other) == len(buffer)
        expected = buffer.sample(16)
        for key, values in other.sample(16).items():
            np.testing.assert_array_equal(values, expected[key])

    def test_clear_keeps_the_rows_and_refills_from_the_start(self):
        buffer = ReplayBuffer(4 * INITIAL_ROWS, 3, 1)
        _fill(buffer, INITIAL_ROWS + 1)
        buffer.clear()
        assert len(buffer) == 0 and _rows(buffer) == 2 * INITIAL_ROWS
        _fill(buffer, 3)
        np.testing.assert_array_equal(buffer._rewards[:3], [0.0, 1.0, 2.0])


def _fill_one(buffer: ReplayBuffer, i: int, state_dim: int = 3) -> None:
    buffer.add(np.full(state_dim, i, dtype=float), [float(i)], float(i), np.full(state_dim, i + 1, dtype=float),
               done=(i % 5 == 0))
