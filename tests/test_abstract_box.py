"""Tests for the box abstract domain."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.abstract.box import Box, split_bounds


class TestConstruction:
    def test_point_box(self):
        box = Box([1.0, 2.0], 0.0)
        np.testing.assert_array_equal(box.deviation, [0.0, 0.0])
        np.testing.assert_array_equal(box.lo, box.hi)

    def test_negative_deviation_rejected(self):
        with pytest.raises(ValueError, match=r"deviation must be non-negative, got -1.0 at index \(1,\)"):
            Box([0.0, 0.0], [0.0, -1.0])

    def test_from_bounds_round_trip(self):
        box = Box.from_bounds([0.0, -1.0], [2.0, 3.0])
        assert np.allclose(box.lo, [0.0, -1.0])
        assert np.allclose(box.hi, [2.0, 3.0])

    def test_from_bounds_rejects_inverted_bounds(self):
        with pytest.raises(ValueError, match=r"lo exceeds hi at index \(0, 1\)"):
            Box.from_bounds([[0.0, 2.0]], [[1.0, 1.0]])

    def test_from_bounds_matches_trusted_bounds(self):
        rng = np.random.default_rng(3)
        lo = rng.uniform(-1.0, 1.0, (4, 6))
        hi = lo + rng.uniform(0.0, 1.0, lo.shape)
        checked, trusted = Box.from_bounds(lo, hi), Box._trusted_bounds(lo, hi)
        np.testing.assert_array_equal(checked.center, trusted.center)
        np.testing.assert_array_equal(checked.deviation, trusted.deviation)

    def test_shape_and_ndim_follow_the_center(self):
        box = Box(np.zeros((2, 5, 3)), 1.0)
        assert box.shape == (2, 5, 3)
        assert box.ndim == 3
        assert box.deviation.shape == (2, 5, 3)

    def test_constructor_copies_its_inputs(self):
        center = np.zeros(3)
        box = Box(center, np.ones(3))
        center[0] = 5.0
        assert box.center[0] == 0.0


class TestNonFiniteInputs:
    # NaN fails every `<` / `>` comparison, so the sign and ordering checks
    # alone let these through.
    @pytest.mark.parametrize("bad", (np.nan, np.inf, -np.inf))
    def test_scalar_box(self, bad):
        with pytest.raises(ValueError, match=r"box center must be finite, got .* at index \(\)"):
            Box(bad, 1.0)
        with pytest.raises(ValueError, match=r"box deviation must be finite, got .* at index \(\)"):
            Box(0.0, bad)

    @pytest.mark.parametrize("bad", (np.nan, np.inf, -np.inf))
    def test_from_bounds(self, bad):
        with pytest.raises(ValueError, match=r"box lo must be finite, got .* at index \(\)"):
            Box.from_bounds(bad, 1.0)
        with pytest.raises(ValueError, match=r"box hi must be finite, got .* at index \(\)"):
            Box.from_bounds(0.0, bad)

    def test_index_names_the_first_bad_entry(self):
        deviation = np.ones((2, 3))
        deviation[1, 2] = np.nan
        with pytest.raises(ValueError, match=r"box deviation must be finite, got nan at index \(1, 2\)"):
            Box(np.zeros((2, 3)), deviation)
        hi = np.ones(4)
        hi[2] = np.inf
        with pytest.raises(ValueError, match=r"box hi must be finite, got inf at index \(2,\)"):
            Box.from_bounds(np.zeros(4), hi)


class TestSplitBounds:
    def test_split_covers_width(self):
        center, deviation = split_bounds(np.array([0.0, 0.0]), np.array([1.0, 1.0]), 4, np.array([0]))
        lo, hi = center - deviation, center + deviation
        assert lo.shape == (4, 2)
        assert np.sum(hi[:, 0] - lo[:, 0]) == pytest.approx(1.0)
        np.testing.assert_array_equal(lo[:, 1], 0.0)
        np.testing.assert_array_equal(hi[:, 1], 1.0)


coord = st.floats(min_value=-10.0, max_value=10.0, allow_nan=False, allow_infinity=False)


@given(st.lists(coord, min_size=3, max_size=3), st.lists(coord, min_size=3, max_size=3),
       st.integers(1, 10), st.floats(0.0, 1.0))
@settings(max_examples=60, deadline=None)
def test_split_bounds_covers_every_point(a, b, n, t):
    lo, hi = np.minimum(a, b), np.maximum(a, b)
    point = lo + t * (hi - lo)
    center, deviation = split_bounds(lo, hi, n, np.array([0, 2]))
    inside = np.all((center - deviation - 1e-9 <= point) & (point <= center + deviation + 1e-9), axis=-1)
    assert inside.any()
