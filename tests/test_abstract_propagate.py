"""IBP propagation through numpy networks: soundness and shape checks."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.abstract.box import Box, split_bounds
from repro.abstract.propagate import propagate_mlp_batched
from repro.nn.mlp import MLP, make_actor


def test_propagate_mlp_dimension_check():
    model = MLP(4, (8,), 1, rng=np.random.default_rng(1))
    with pytest.raises(ValueError):
        propagate_mlp_batched(model, Box(np.zeros((1, 2)), 0.0))


def test_point_box_matches_concrete_forward():
    rng = np.random.default_rng(2)
    model = make_actor(6, hidden_sizes=(8, 4), rng=rng)
    x = rng.normal(size=(3, 6))
    out_box = propagate_mlp_batched(model, Box(x, 0.0))
    out_concrete = model.forward(x)
    assert np.allclose(out_box.center, out_concrete, atol=1e-9)
    assert np.allclose(out_box.deviation, 0.0, atol=1e-9)


def test_actor_output_bounded_by_tanh():
    rng = np.random.default_rng(3)
    model = make_actor(5, hidden_sizes=(16, 8), rng=rng)
    box = Box.from_bounds(np.full((1, 5), -10.0), np.full((1, 5), 10.0))
    out = propagate_mlp_batched(model, box)
    assert out.lo[0, 0] >= -1.0 - 1e-9
    assert out.hi[0, 0] <= 1.0 + 1e-9


def test_wider_input_gives_wider_output():
    rng = np.random.default_rng(4)
    model = make_actor(4, hidden_sizes=(8,), rng=rng)
    center = rng.normal(size=(1, 4))
    narrow = propagate_mlp_batched(model, Box(center, np.full((1, 4), 0.01)))
    wide = propagate_mlp_batched(model, Box(center, np.full((1, 4), 0.5)))
    assert wide.deviation[0, 0] >= narrow.deviation[0, 0] - 1e-12


@given(st.integers(0, 10_000), st.floats(0.0, 1.0))
@settings(max_examples=40, deadline=None)
def test_ibp_soundness_random_networks(seed, t):
    """Concrete outputs of points inside each component lie inside its IBP bounds."""
    rng = np.random.default_rng(seed)
    model = make_actor(4, hidden_sizes=(8, 4), rng=rng)
    lo = rng.uniform(-2.0, 0.0, size=4)
    hi = lo + rng.uniform(0.0, 2.0, size=4)
    components = Box._trusted(*split_bounds(lo, hi, 3, np.array([1])))
    points = components.lo + t * (components.hi - components.lo)
    out_box = propagate_mlp_batched(model, components)
    out_concrete = model.forward(points)
    assert np.all(out_box.lo - 1e-7 <= out_concrete) and np.all(out_concrete <= out_box.hi + 1e-7)
