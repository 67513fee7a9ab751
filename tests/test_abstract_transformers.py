"""Tests for the cwnd-map abstract transformers."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.abstract import transformers
from repro.abstract.box import Box


class TestExp2:
    def test_exp2(self):
        result = transformers.exp2(Box([1.0], [1.0]))
        assert result.lo[0] == pytest.approx(1.0)
        assert result.hi[0] == pytest.approx(4.0)


class TestCwndMap:
    def test_point_action_matches_equation(self):
        action = Box([0.5], 0.0)
        cwnd = transformers.cwnd_from_action(action, cwnd_tcp=10.0)
        expected = 2.0 ** (2 * 0.5) * 10.0
        assert cwnd.lo[0] == pytest.approx(expected)
        assert cwnd.hi[0] == pytest.approx(expected)

    def test_full_action_range_bounds(self):
        action = Box.from_bounds([-1.0], [1.0])
        cwnd = transformers.cwnd_from_action(action, cwnd_tcp=10.0)
        assert cwnd.lo[0] == pytest.approx(2.5)   # 2^-2 * 10
        assert cwnd.hi[0] == pytest.approx(40.0)  # 2^2 * 10

    def test_action_clipping(self):
        action = Box.from_bounds([-5.0], [5.0])
        cwnd = transformers.cwnd_from_action(action, cwnd_tcp=10.0)
        assert cwnd.lo[0] == pytest.approx(2.5)
        assert cwnd.hi[0] == pytest.approx(40.0)

    def test_negative_cwnd_tcp_rejected(self):
        with pytest.raises(ValueError):
            transformers.cwnd_from_action(Box([0.0], 0.0), cwnd_tcp=-1.0)

    def test_delta_cwnd(self):
        cwnd = Box.from_bounds([8.0], [12.0])
        delta = transformers.delta_cwnd(cwnd, cwnd_prev=10.0)
        assert delta.lo[0] == pytest.approx(-2.0)
        assert delta.hi[0] == pytest.approx(2.0)

    def test_cwnd_change_fraction(self):
        cwnd = Box.from_bounds([9.0], [11.0])
        frac = transformers.cwnd_change_fraction(cwnd, cwnd_ref=10.0)
        assert frac.lo[0] == pytest.approx(-0.1)
        assert frac.hi[0] == pytest.approx(0.1)

    def test_cwnd_change_fraction_requires_positive_reference(self):
        with pytest.raises(ValueError):
            transformers.cwnd_change_fraction(Box([10.0], 0.0), cwnd_ref=0.0)

    def test_negative_window_anywhere_in_a_stack_rejected(self):
        action = Box(np.zeros((3, 4, 1)), 0.1)
        with pytest.raises(ValueError):
            transformers.cwnd_from_action(action, cwnd_tcp=np.array([10.0, -1.0, 5.0]).reshape(3, 1, 1))
        with pytest.raises(ValueError):
            transformers.cwnd_change_fraction(action, cwnd_ref=np.array([10.0, 0.0, 5.0]).reshape(3, 1, 1))


class TestPerDecisionWindows:
    """A ``(D, N, 1)`` stack takes one concrete window per decision, shaped
    ``(D, 1, 1)``, and gives each slice the result of its own call."""

    def stack(self):
        rng = np.random.default_rng(6)
        lo = rng.uniform(-1.5, 1.0, (3, 4, 1))
        return Box.from_bounds(lo, lo + rng.uniform(0.0, 0.5, lo.shape))

    def test_cwnd_from_action(self):
        action, windows = self.stack(), np.array([4.0, 10.0, 250.0])
        stacked = transformers.cwnd_from_action(action, windows.reshape(3, 1, 1))
        for d, window in enumerate(windows):
            single = transformers.cwnd_from_action(Box(action.center[d], action.deviation[d]), window)
            np.testing.assert_array_equal(stacked.lo[d], single.lo)
            np.testing.assert_array_equal(stacked.hi[d], single.hi)

    def test_delta_cwnd_and_change_fraction(self):
        cwnd, windows = self.stack().shift(20.0), np.array([4.0, 10.0, 250.0])
        for transform in (transformers.delta_cwnd, transformers.cwnd_change_fraction):
            stacked = transform(cwnd, windows.reshape(3, 1, 1))
            for d, window in enumerate(windows):
                single = transform(Box(cwnd.center[d], cwnd.deviation[d]), window)
                np.testing.assert_array_equal(stacked.lo[d], single.lo)
                np.testing.assert_array_equal(stacked.hi[d], single.hi)


@given(
    st.floats(-1.0, 1.0),
    st.floats(-1.0, 1.0),
    st.floats(0.0, 1.0),
    st.floats(1.0, 500.0),
)
@settings(max_examples=60, deadline=None)
def test_cwnd_map_soundness(a, b, t, cwnd_tcp):
    lo, hi = min(a, b), max(a, b)
    action_box = Box.from_bounds([lo], [hi])
    concrete_action = lo + t * (hi - lo)
    concrete_cwnd = 2.0 ** (2 * concrete_action) * cwnd_tcp
    abstract = transformers.cwnd_from_action(action_box, cwnd_tcp)
    tol = 1e-6 * max(1.0, concrete_cwnd)
    assert abstract.lo[0] - tol <= concrete_cwnd <= abstract.hi[0] + tol


@given(st.floats(-20.0, 20.0), st.floats(-20.0, 20.0), st.floats(0.0, 1.0))
@settings(max_examples=60, deadline=None)
def test_exp2_soundness(a, b, t):
    lo, hi = min(a, b), max(a, b)
    concrete = 2.0 ** (lo + t * (hi - lo))
    abstract = transformers.exp2(Box.from_bounds([lo], [hi]))
    tol = 1e-9 * max(1.0, concrete)
    assert abstract.lo[0] - tol <= concrete <= abstract.hi[0] + tol
