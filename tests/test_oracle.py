"""Self-tests of the object-level IBP oracle in ``tests/oracle``."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracle import Interval, affine, interval_feedback, propagate_layer, propagate_mlp, propagate_sequential, relu, split, tanh
from repro.abstract.box import Box
from repro.nn.layers import Dense, Identity, ReLU, Sequential, Tanh
from repro.nn.mlp import MLP, make_actor


class TestInterval:
    def test_invalid_bounds_raise(self):
        with pytest.raises(ValueError):
            Interval(1.0, 0.0)

    def test_contains_point(self):
        iv = Interval([0.0, 0.0], [1.0, 2.0])
        assert iv.contains([0.5, 1.5])
        assert not iv.contains([0.5, 2.5])

    def test_point_interval_has_zero_width(self):
        iv = Interval([1.0, -2.0], [1.0, -2.0])
        np.testing.assert_array_equal(iv.width, 0.0)
        np.testing.assert_array_equal(iv.center, [1.0, -2.0])

    def test_contains_interval_and_intersects(self):
        outer = Interval(0.0, 4.0)
        assert outer.contains_interval(Interval(1.0, 2.0))
        assert not outer.contains_interval(Interval(3.0, 5.0))
        assert outer.intersects(Interval(3.0, 5.0))
        assert outer.intersects(Interval(4.0, 5.0))
        assert not outer.intersects(Interval(4.5, 5.0))

    def test_overlap_fraction_full(self):
        assert Interval(0.0, 1.0).overlap_fraction(Interval(-1.0, 2.0)) == pytest.approx(1.0)

    def test_overlap_fraction_none(self):
        assert Interval(0.0, 1.0).overlap_fraction(Interval(2.0, 3.0)) == pytest.approx(0.0)

    def test_overlap_fraction_partial(self):
        assert Interval(0.0, 2.0).overlap_fraction(Interval(1.0, 5.0)) == pytest.approx(0.5)

    def test_overlap_fraction_degenerate_point(self):
        point = Interval(1.0, 1.0)
        assert point.overlap_fraction(Interval(0.0, 2.0)) == pytest.approx(1.0)
        assert point.overlap_fraction(Interval(2.0, 3.0)) == pytest.approx(0.0)

    def test_split_dims_only_touches_selected(self):
        pieces = Interval([0.0, 0.0], [1.0, 4.0]).split_dims(2, [1])
        assert len(pieces) == 2
        for piece in pieces:
            assert piece.lo[0] == pytest.approx(0.0)
            assert piece.hi[0] == pytest.approx(1.0)
        assert pieces[0].hi[1] == pytest.approx(2.0)
        assert pieces[1].lo[1] == pytest.approx(2.0)

    def test_split_dims_rejects_bad_counts(self):
        with pytest.raises(ValueError):
            Interval([0.0], [1.0]).split_dims(0, [0])


class TestIntervalFeedback:
    def test_fully_inside_allowed(self):
        assert interval_feedback(Interval(1.0, 2.0), Interval(0.0, 10.0)) == pytest.approx(1.0)

    def test_fully_inside_forbidden(self):
        assert interval_feedback(Interval(-5.0, -1.0), Interval(0.0, 10.0)) == pytest.approx(0.0)

    def test_partial_overlap_fraction(self):
        assert interval_feedback(Interval(-1.0, 1.0), Interval(0.0, 10.0)) == pytest.approx(0.5)

    def test_point_output(self):
        assert interval_feedback(Interval(1.0, 1.0), Interval(0.0, 2.0)) == pytest.approx(1.0)
        assert interval_feedback(Interval(-1.0, -1.0), Interval(0.0, 2.0)) == pytest.approx(0.0)


class TestLayerTransformers:
    def test_affine_exactness_on_point(self):
        weight = np.array([[2.0, 0.5], [1.0, -1.0]])
        bias = np.array([0.1, -0.2])
        result = affine(Box([1.0, -1.0], 0.0), weight, bias)
        assert np.allclose(result.center, weight @ np.array([1.0, -1.0]) + bias)
        assert np.allclose(result.deviation, 0.0)

    def test_affine_deviation_uses_abs_weight(self):
        result = affine(Box([0.0, 0.0], [1.0, 2.0]), np.array([[1.0, -1.0]]))
        assert result.deviation[0] == pytest.approx(3.0)

    def test_relu_matches_paper_formula(self):
        result = relu(Box([0.0], [2.0]))  # concretization [-2, 2]
        assert result.lo[0] == pytest.approx(0.0)
        assert result.hi[0] == pytest.approx(2.0)

    def test_relu_all_negative(self):
        result = relu(Box([-3.0], [1.0]))
        assert result.lo[0] == pytest.approx(0.0)
        assert result.hi[0] == pytest.approx(0.0)

    def test_tanh_bounds(self):
        result = tanh(Box([0.0], [1.0]))
        assert result.lo[0] == pytest.approx(np.tanh(-1.0))
        assert result.hi[0] == pytest.approx(np.tanh(1.0))

    def test_split_covers_width(self):
        pieces = split(Box.from_bounds([0.0, 0.0], [1.0, 1.0]), 4, dims=[0])
        assert len(pieces) == 4
        assert sum(piece.hi[0] - piece.lo[0] for piece in pieces) == pytest.approx(1.0)


class TestPropagation:
    def test_propagate_dense_matches_affine(self):
        layer = Dense(3, 2, rng=np.random.default_rng(0))
        box = Box.from_bounds([-1.0, 0.0, 0.5], [1.0, 1.0, 0.5])
        result = propagate_layer(layer, box)
        expected = affine(box, layer.weight, layer.bias)
        np.testing.assert_array_equal(result.lo, expected.lo)
        np.testing.assert_array_equal(result.hi, expected.hi)

    def test_propagate_identity_is_noop(self):
        box = Box.from_bounds([0.0], [1.0])
        assert propagate_layer(Identity(), box) is box

    def test_propagate_unknown_layer_raises(self):
        class Weird:
            pass

        with pytest.raises(TypeError):
            propagate_layer(Weird(), Box([0.0], 0.0))

    def test_propagate_mlp_dimension_check(self):
        model = MLP(4, (8,), 1, rng=np.random.default_rng(1))
        with pytest.raises(ValueError):
            propagate_mlp(model, Box([0.0, 0.0], 0.0))

    def test_point_box_matches_concrete_forward(self):
        rng = np.random.default_rng(2)
        model = make_actor(6, hidden_sizes=(8, 4), rng=rng)
        x = rng.normal(size=6)
        out_box = propagate_mlp(model, Box(x, 0.0))
        assert np.allclose(out_box.center, model.forward(x.reshape(1, -1))[0], atol=1e-9)
        assert np.allclose(out_box.deviation, 0.0, atol=1e-9)

    def test_propagate_sequential_chains_layers(self):
        rng = np.random.default_rng(5)
        layers = [Dense(3, 3, rng=rng), ReLU(), Dense(3, 1, rng=rng), Tanh()]
        box = Box.from_bounds([-1.0, -1.0, -1.0], [1.0, 1.0, 1.0])
        result = propagate_sequential(layers, box)
        assert result.lo.shape == (1,)
        nested = propagate_layer(Sequential(layers), box)
        np.testing.assert_array_equal(nested.lo, result.lo)


# ---------------------------------------------------------------------- #
# Soundness: for random points in the box, the concrete image of each
# transformer lies inside the abstract image.
# ---------------------------------------------------------------------- #
coord = st.floats(min_value=-10.0, max_value=10.0, allow_nan=False, allow_infinity=False)


@st.composite
def box_and_point(draw, dim=3):
    center = np.array([draw(coord) for _ in range(dim)])
    deviation = np.array([abs(draw(coord)) / 2.0 for _ in range(dim)])
    box = Box(center, deviation)
    t = np.array([draw(st.floats(0.0, 1.0)) for _ in range(dim)])
    return box, box.lo + t * (box.hi - box.lo)


def contains(box, value, tol):
    return bool(np.all(box.lo - tol <= value) and np.all(value <= box.hi + tol))


@given(box_and_point())
@settings(max_examples=50, deadline=None)
def test_affine_soundness(data):
    box, point = data
    weight = np.array([[1.0, -2.0, 0.5], [0.0, 3.0, -1.0]])
    bias = np.array([0.5, -0.5])
    assert contains(affine(box, weight, bias), weight @ point + bias, tol=1e-6)


@given(box_and_point())
@settings(max_examples=50, deadline=None)
def test_relu_soundness(data):
    box, point = data
    assert contains(relu(box), np.maximum(point, 0.0), tol=1e-9)


@given(box_and_point())
@settings(max_examples=50, deadline=None)
def test_tanh_soundness(data):
    box, point = data
    assert contains(tanh(box), np.tanh(point), tol=1e-9)


@given(st.floats(-50.0, 50.0), st.floats(0.0, 20.0), st.integers(1, 10), st.floats(0.0, 1.0))
@settings(max_examples=60, deadline=None)
def test_split_covers_every_point(lo, width, n, t):
    box = Box.from_bounds([lo], [lo + width])
    point = box.lo[0] + t * (box.hi[0] - box.lo[0])
    pieces = split(box, n)
    assert len(pieces) == n
    assert any(contains(piece, point, tol=1e-9) for piece in pieces)
