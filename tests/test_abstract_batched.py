"""Tests for the batched Box convention and one-pass batched propagation,
pinned against the per-layer box oracle in ``tests/oracle``."""

import numpy as np
import pytest

from oracle import Interval, affine, interval_feedback, propagate_mlp, relu, split, tanh
from repro.abstract.box import Box, split_bounds
from repro.abstract.propagate import BLOCK_ROWS, propagate_mlp_batched
from repro.core.qc import interval_feedback_batch
from repro.nn import make_actor
from repro.nn.layers import Dense, Identity, Layer, ReLU, Sequential, Tanh


def rows(box):
    """The per-component boxes of a batched ``(N, d)`` box."""
    return [Box(box.center[i], box.deviation[i]) for i in range(box.shape[0])]


def split_box(lo, hi, n, dims=None):
    """The ``n`` components of the boxes ``[lo, hi]`` along ``dims``, as one batched Box."""
    return Box._trusted(*split_bounds(lo, hi, n, None if dims is None else np.array(dims, dtype=np.intp)))


class TestBatchedBox:
    def test_split_bounds_matches_split(self):
        rng = np.random.default_rng(5)
        lo = rng.uniform(-1.0, 0.0, 6)
        hi = lo + rng.uniform(0.0, 2.0, 6)
        box = Box.from_bounds(lo, hi)
        for dims in (None, [1, 3], [0]):
            batched = split_box(box.lo, box.hi, 4, dims)
            pieces = split(box, 4, dims=dims)
            assert batched.shape == (4, 6)
            for row, piece in zip(rows(batched), pieces):
                np.testing.assert_array_equal(row.lo, piece.lo)
                np.testing.assert_array_equal(row.hi, piece.hi)

    def test_split_bounds_over_a_stack_matches_each_box(self):
        rng = np.random.default_rng(6)
        lo = rng.uniform(-1.0, 0.0, (5, 6))
        hi = lo + rng.uniform(0.0, 2.0, (5, 6))
        for dims in (None, [1, 3], []):
            batched = split_box(lo, hi, 4, dims)
            assert batched.shape == (5, 4, 6)
            for row in range(5):
                single = split_box(lo[row], hi[row], 4, dims)
                np.testing.assert_array_equal(batched.center[row], single.center)
                np.testing.assert_array_equal(batched.deviation[row], single.deviation)

    def test_batched_affine_matches_per_row(self):
        rng = np.random.default_rng(9)
        weight = rng.normal(size=(3, 4))
        bias = rng.normal(size=3)
        stacked = Box.from_bounds(rng.uniform(-1, 0, (5, 4)), rng.uniform(0, 1, (5, 4)))
        batched = affine(stacked, weight, bias)
        assert batched.shape == (5, 3)
        for row, box in zip(rows(batched), rows(stacked)):
            single = affine(box, weight, bias)
            np.testing.assert_allclose(row.lo, single.lo, rtol=0.0, atol=1e-12)
            np.testing.assert_allclose(row.hi, single.hi, rtol=0.0, atol=1e-12)

    def test_batched_elementwise_transformers_match_per_row(self):
        rng = np.random.default_rng(13)
        stacked = Box.from_bounds(rng.uniform(-2, 0, (4, 3)), rng.uniform(0, 2, (4, 3)))
        for transformer in (relu, tanh):
            for row, box in zip(rows(transformer(stacked)), rows(stacked)):
                single = transformer(box)
                np.testing.assert_array_equal(row.lo, single.lo)
                np.testing.assert_array_equal(row.hi, single.hi)


class TestBatchedPropagation:
    def test_batched_mlp_matches_per_component(self):
        rng = np.random.default_rng(21)
        actor = make_actor(6, hidden_sizes=(8, 4), rng=rng)
        box = Box.from_bounds(rng.uniform(0, 0.5, 6), rng.uniform(0.5, 1.0, 6))
        batched_out = propagate_mlp_batched(actor, split_box(box.lo, box.hi, 7))
        assert batched_out.shape == (7, 1)
        for row, component in zip(rows(batched_out), split(box, 7)):
            single = propagate_mlp(actor, component)
            np.testing.assert_allclose(row.lo, single.lo, rtol=0.0, atol=1e-12)
            np.testing.assert_allclose(row.hi, single.hi, rtol=0.0, atol=1e-12)

    def test_stacked_mlp_is_bit_identical_per_slice(self):
        rng = np.random.default_rng(22)
        actor = make_actor(6, hidden_sizes=(64, 32), rng=rng)
        lo = rng.uniform(0.0, 0.5, (9, 6))
        stack = split_box(lo, lo + rng.uniform(0.0, 0.5, (9, 6)), 50)
        out = propagate_mlp_batched(actor, stack)
        assert out.shape == (9, 50, 1)
        for row in range(9):
            single = propagate_mlp_batched(actor, Box(stack.center[row], stack.deviation[row]))
            np.testing.assert_array_equal(out.center[row], single.center)
            np.testing.assert_array_equal(out.deviation[row], single.deviation)

    def test_batched_mlp_rejects_wrong_shapes(self):
        actor = make_actor(6, hidden_sizes=(4,), rng=np.random.default_rng(0))
        with pytest.raises(ValueError):
            propagate_mlp_batched(actor, Box.from_bounds(np.zeros(6), np.ones(6)))
        with pytest.raises(ValueError):
            propagate_mlp_batched(actor, Box.from_bounds(np.zeros((3, 5)), np.ones((3, 5))))


def _random_stack(rng, n_decisions, n_components, state_dim):
    lo = rng.uniform(-1.0, 1.0, (n_decisions, state_dim))
    return split_box(lo, lo + rng.uniform(0.0, 0.5, lo.shape), n_components, [0, 2])


def _assert_matches_per_slice(model, stack):
    """The blocked kernel on a ``(D, N, d)`` stack equals the oracle's
    per-layer transformers on each ``(N, d)`` slice, bit for bit."""
    out = propagate_mlp_batched(model, stack)
    assert out.shape == stack.shape[:-1] + (1,)
    for row in range(stack.shape[0]):
        single = propagate_mlp(model, Box._trusted(stack.center[row], stack.deviation[row]))
        np.testing.assert_array_equal(out.center[row], single.center)
        np.testing.assert_array_equal(out.deviation[row], single.deviation)


class TestBlockedKernel:
    @pytest.mark.parametrize("n_components", (50, 5))
    @pytest.mark.parametrize("blocks", ((0, 1), (1, -1), (1, 0), (1, 1), (3, 2)))
    def test_block_edges_match_per_slice(self, n_components, blocks):
        # D = blocks[0] * block + blocks[1]: one decision, one short of a
        # block, a block, one over, and three blocks plus a partial one.
        block = BLOCK_ROWS // n_components
        n_decisions = blocks[0] * block + blocks[1]
        rng = np.random.default_rng(n_decisions * n_components)
        actor = make_actor(6, hidden_sizes=(64, 32), rng=rng)
        _assert_matches_per_slice(actor, _random_stack(rng, n_decisions, n_components, 6))

    def test_plain_box_matches_box_transformers(self):
        rng = np.random.default_rng(41)
        actor = make_actor(6, hidden_sizes=(64, 32), rng=rng)
        components = _random_stack(rng, 1, 50, 6)
        box = Box._trusted(components.center[0], components.deviation[0])
        out = propagate_mlp_batched(actor, box)
        single = propagate_mlp(actor, box)
        assert out.shape == (50, 1)
        np.testing.assert_array_equal(out.center, single.center)
        np.testing.assert_array_equal(out.deviation, single.deviation)

    @pytest.mark.parametrize("layout", ("nested", "leading_activation"))
    def test_nested_sequential_tanh_hidden_and_identity_head(self, layout):
        rng = np.random.default_rng(42)
        if layout == "nested":
            model = Sequential([
                Dense(6, 16, rng=rng), Tanh(),
                Sequential([Dense(16, 8, rng=rng), ReLU(), Identity()]),
                Dense(8, 1, rng=rng), Identity(),
            ])
        else:
            # Activations straight on the input box, and back to back.
            model = Sequential([ReLU(), Tanh(), Dense(6, 8, rng=rng), ReLU(), Tanh(), Dense(8, 1, rng=rng)])
        for param in model.parameters():
            if param.ndim == 1:
                param[:] = rng.normal(size=param.shape)  # non-zero biases
        stack = _random_stack(rng, 2 * (BLOCK_ROWS // 50) + 3, 50, 6)
        center, deviation = stack.center.copy(), stack.deviation.copy()
        _assert_matches_per_slice(model, stack)
        np.testing.assert_array_equal(stack.center, center)  # the input box is never written
        np.testing.assert_array_equal(stack.deviation, deviation)

    def test_float32_weights(self):
        rng = np.random.default_rng(43)
        actor = make_actor(6, hidden_sizes=(16, 8), rng=rng)
        for layer in actor.layers:
            if isinstance(layer, Dense):
                layer.weight = layer.weight.astype(np.float32)
                layer.bias = rng.normal(size=layer.bias.shape).astype(np.float32)
        stack = _random_stack(rng, BLOCK_ROWS // 50 + 1, 50, 6)
        assert propagate_mlp_batched(actor, stack).center.dtype == np.float64
        _assert_matches_per_slice(actor, stack)

    def test_in_place_weight_update_is_seen_by_the_next_call(self):
        rng = np.random.default_rng(44)
        actor = make_actor(6, hidden_sizes=(16, 8), rng=rng)
        stack = _random_stack(rng, 3, 5, 6)
        before = propagate_mlp_batched(actor, stack)
        for param in actor.parameters():
            param += rng.normal(scale=0.1, size=param.shape)  # an optimizer step, in place
        after = propagate_mlp_batched(actor, stack)
        assert not np.array_equal(after.center, before.center)
        _assert_matches_per_slice(actor, stack)

    def test_unknown_layer_type_is_rejected(self):
        class Doubling(Layer):
            def forward(self, x):
                return 2.0 * x

        model = Sequential([Dense(6, 4, rng=np.random.default_rng(0)), Doubling()])
        with pytest.raises(TypeError, match="Doubling"):
            propagate_mlp_batched(model, _random_stack(np.random.default_rng(1), 2, 5, 6))


class TestBatchedFeedback:
    def test_matches_scalar_feedback_on_random_intervals(self):
        rng = np.random.default_rng(31)
        allowed = Interval(-0.5, 1.5)
        lo = rng.uniform(-3.0, 2.0, 200)
        hi = lo + rng.uniform(0.0, 3.0, 200)
        # Mix in degenerate (point) intervals.
        hi[::5] = lo[::5]
        satisfied, feedback = interval_feedback_batch(lo, hi, -0.5, 1.5)
        for i in range(lo.shape[0]):
            output = Interval(lo[i], hi[i])
            assert satisfied[i] == allowed.contains_interval(output)
            assert feedback[i] == pytest.approx(interval_feedback(output, allowed), rel=0.0, abs=0.0)

    def test_boundary_cases(self):
        lo = np.array([0.0, -1.0, 1.0, 2.0, 0.25, -1.0])
        hi = np.array([1.0, -0.5, 1.0, 3.0, 0.75, 1.0])
        satisfied, feedback = interval_feedback_batch(lo, hi, 0.0, 1.0)
        assert list(satisfied) == [True, False, True, False, True, False]
        np.testing.assert_allclose(feedback, [1.0, 0.0, 1.0, 0.0, 1.0, 0.5])
