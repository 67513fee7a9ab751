"""Tests for the batched Box convention and one-pass batched propagation."""

import numpy as np
import pytest

from repro.abstract.box import Box
from repro.abstract.interval import Interval
from repro.abstract.propagate import propagate_mlp, propagate_mlp_batched
from repro.core.qc import interval_feedback, interval_feedback_batch
from repro.nn import make_actor


class TestBatchedBox:
    def test_stack_and_unstack_roundtrip(self):
        boxes = [Box.from_bounds([0.0, 1.0], [1.0, 2.0]), Box.from_bounds([-1.0, 0.5], [0.0, 0.5])]
        stacked = Box.stack(boxes)
        assert stacked.shape == (2, 2)
        for original, recovered in zip(boxes, stacked.unstack()):
            np.testing.assert_array_equal(original.lo, recovered.lo)
            np.testing.assert_array_equal(original.hi, recovered.hi)

    def test_stack_empty_rejected(self):
        with pytest.raises(ValueError):
            Box.stack([])

    def test_unstack_requires_batch_axis(self):
        with pytest.raises(ValueError):
            Box.from_bounds([0.0], [1.0]).unstack()

    def test_split_batched_matches_split(self):
        rng = np.random.default_rng(5)
        lo = rng.uniform(-1.0, 0.0, 6)
        hi = lo + rng.uniform(0.0, 2.0, 6)
        box = Box.from_bounds(lo, hi)
        for dims in (None, [1, 3], [0]):
            batched = box.split_batched(4, dims=dims)
            pieces = box.split(4, dims=dims)
            assert batched.shape == (4, 6)
            for row, piece in zip(batched.unstack(), pieces):
                np.testing.assert_array_equal(row.lo, piece.lo)
                np.testing.assert_array_equal(row.hi, piece.hi)

    def test_split_batched_rejects_scalar_boxes_and_bad_counts(self):
        with pytest.raises(ValueError):
            Box.from_bounds(0.0, 1.0).split_batched(2)
        with pytest.raises(ValueError):
            Box.from_bounds([0.0], [1.0]).split_batched(0)

    def test_split_batched_over_a_stack_matches_each_box(self):
        rng = np.random.default_rng(6)
        lo = rng.uniform(-1.0, 0.0, (5, 6))
        hi = lo + rng.uniform(0.0, 2.0, (5, 6))
        stack = Box.from_bounds(lo, hi)
        for dims in (None, [1, 3], []):
            batched = stack.split_batched(4, dims=dims)
            assert batched.shape == (5, 4, 6)
            for row in range(5):
                single = Box.from_bounds(lo[row], hi[row]).split_batched(4, dims=dims)
                np.testing.assert_array_equal(batched.center[row], single.center)
                np.testing.assert_array_equal(batched.deviation[row], single.deviation)

    def test_batched_affine_matches_per_row(self):
        rng = np.random.default_rng(9)
        weight = rng.normal(size=(3, 4))
        bias = rng.normal(size=3)
        boxes = [Box.from_bounds(rng.uniform(-1, 0, 4), rng.uniform(0, 1, 4)) for _ in range(5)]
        batched = Box.stack(boxes).affine(weight, bias)
        assert batched.shape == (5, 3)
        for row, box in zip(batched.unstack(), boxes):
            single = box.affine(weight, bias)
            np.testing.assert_allclose(row.lo, single.lo, rtol=0.0, atol=1e-12)
            np.testing.assert_allclose(row.hi, single.hi, rtol=0.0, atol=1e-12)

    def test_batched_elementwise_transformers_match_per_row(self):
        rng = np.random.default_rng(13)
        boxes = [Box.from_bounds(rng.uniform(-2, 0, 3), rng.uniform(0, 2, 3)) for _ in range(4)]
        stacked = Box.stack(boxes)
        for name in ("relu", "tanh"):
            batched = getattr(stacked, name)()
            for row, box in zip(batched.unstack(), boxes):
                single = getattr(box, name)()
                np.testing.assert_array_equal(row.lo, single.lo)
                np.testing.assert_array_equal(row.hi, single.hi)

    def test_add_elements_single_and_batched(self):
        box = Box.from_bounds([0.0, 1.0, 2.0], [1.0, 2.0, 3.0])
        summed = box.add_elements(0, 1, 2)
        np.testing.assert_array_equal(summed.lo, [3.0, 1.0, 2.0])
        np.testing.assert_array_equal(summed.hi, [5.0, 2.0, 3.0])
        batched = Box.stack([box, box]).add_elements(0, 1, 2)
        np.testing.assert_array_equal(batched.lo[1], [3.0, 1.0, 2.0])


class TestBatchedPropagation:
    def test_batched_mlp_matches_per_component(self):
        rng = np.random.default_rng(21)
        actor = make_actor(6, hidden_sizes=(8, 4), rng=rng)
        box = Box.from_bounds(rng.uniform(0, 0.5, 6), rng.uniform(0.5, 1.0, 6))
        batched_out = propagate_mlp_batched(actor, box.split_batched(7))
        assert batched_out.shape == (7, 1)
        for row, component in zip(batched_out.unstack(), box.split(7)):
            single = propagate_mlp(actor, component)
            np.testing.assert_allclose(row.lo, single.lo, rtol=0.0, atol=1e-12)
            np.testing.assert_allclose(row.hi, single.hi, rtol=0.0, atol=1e-12)

    def test_stacked_mlp_is_bit_identical_per_slice(self):
        rng = np.random.default_rng(22)
        actor = make_actor(6, hidden_sizes=(64, 32), rng=rng)
        lo = rng.uniform(0.0, 0.5, (9, 6))
        stack = Box.from_bounds(lo, lo + rng.uniform(0.0, 0.5, (9, 6))).split_batched(50)
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


class TestBatchedFeedback:
    def test_matches_scalar_feedback_on_random_intervals(self):
        rng = np.random.default_rng(31)
        allowed = Interval(-0.5, 1.5)
        lo = rng.uniform(-3.0, 2.0, 200)
        hi = lo + rng.uniform(0.0, 3.0, 200)
        # Mix in degenerate (point) intervals.
        hi[::5] = lo[::5]
        satisfied, feedback = interval_feedback_batch(lo, hi, allowed)
        for i in range(lo.shape[0]):
            output = Interval(lo[i], hi[i])
            assert satisfied[i] == allowed.contains_interval(output)
            assert feedback[i] == pytest.approx(interval_feedback(output, allowed), rel=0.0, abs=0.0)

    def test_boundary_cases(self):
        allowed = Interval(0.0, 1.0)
        lo = np.array([0.0, -1.0, 1.0, 2.0, 0.25, -1.0])
        hi = np.array([1.0, -0.5, 1.0, 3.0, 0.75, 1.0])
        satisfied, feedback = interval_feedback_batch(lo, hi, allowed)
        assert list(satisfied) == [True, False, True, False, True, False]
        np.testing.assert_allclose(feedback, [1.0, 0.0, 1.0, 0.0, 1.0, 0.5])
