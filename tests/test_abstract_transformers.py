"""Tests for the cwnd-map abstract transformers: the composed
:func:`repro.abstract.transformers.checked_action_arrays` and each of the
array-level steps it runs."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.abstract.transformers import (
    _cwnd_change_fraction,
    _cwnd_from_action,
    _delta_cwnd,
    _exp2,
    checked_action_arrays,
)


def bounds_of(lo, hi, cwnd_tcp, **windows):
    """Checked-action bounds of the action box ``[lo, hi]``."""
    lo, hi = np.atleast_1d(np.asarray(lo, dtype=np.float64)), np.atleast_1d(np.asarray(hi, dtype=np.float64))
    return checked_action_arrays((lo + hi) / 2.0, (hi - lo) / 2.0, cwnd_tcp, **windows)


class TestExp2:
    def test_exp2(self):
        center, deviation = _exp2(np.array([1.0]), np.array([1.0]))
        assert center[0] - deviation[0] == pytest.approx(1.0)
        assert center[0] + deviation[0] == pytest.approx(4.0)


class TestCwndMap:
    # With cwnd_prev = 0 the checked Δcwnd is the window itself.
    def test_point_action_matches_equation(self):
        lo, hi = bounds_of(0.5, 0.5, cwnd_tcp=10.0, cwnd_prev=0.0)
        expected = 2.0 ** (2 * 0.5) * 10.0
        assert lo[0] == pytest.approx(expected)
        assert hi[0] == pytest.approx(expected)

    def test_full_action_range_bounds(self):
        lo, hi = bounds_of(-1.0, 1.0, cwnd_tcp=10.0, cwnd_prev=0.0)
        assert lo[0] == pytest.approx(2.5)   # 2^-2 * 10
        assert hi[0] == pytest.approx(40.0)  # 2^2 * 10

    def test_action_clipping(self):
        lo, hi = bounds_of(-5.0, 5.0, cwnd_tcp=10.0, cwnd_prev=0.0)
        assert lo[0] == pytest.approx(2.5)
        assert hi[0] == pytest.approx(40.0)

    def test_negative_cwnd_tcp_rejected(self):
        with pytest.raises(ValueError, match="cwnd_tcp must be non-negative"):
            bounds_of(0.0, 0.0, cwnd_tcp=-1.0, cwnd_prev=0.0)

    def test_delta_cwnd(self):
        # The window spans [10, 20]; Δcwnd against 10 spans [0, 10].
        lo, hi = bounds_of(0.0, 0.5, cwnd_tcp=10.0, cwnd_prev=10.0)
        assert lo[0] == pytest.approx(0.0)
        assert hi[0] == pytest.approx(10.0)

    def test_cwnd_change_fraction(self):
        lo, hi = bounds_of(0.0, 0.5, cwnd_tcp=10.0, cwnd_ref=10.0)
        assert lo[0] == pytest.approx(0.0)
        assert hi[0] == pytest.approx(1.0)

    def test_cwnd_change_fraction_requires_positive_reference(self):
        with pytest.raises(ValueError, match="cwnd_ref must be positive"):
            bounds_of(0.0, 0.0, cwnd_tcp=10.0, cwnd_ref=0.0)

    def test_bad_window_anywhere_in_a_stack_rejected(self):
        center, deviation = np.zeros((3, 4, 1)), np.full((3, 4, 1), 0.1)
        with pytest.raises(ValueError, match="cwnd_tcp"):
            checked_action_arrays(center, deviation, np.array([10.0, -1.0, 5.0]).reshape(3, 1, 1), cwnd_prev=0.0)
        with pytest.raises(ValueError, match="cwnd_ref"):
            checked_action_arrays(center, deviation, 10.0, cwnd_ref=np.array([10.0, 0.0, 5.0]).reshape(3, 1, 1))


class TestPerDecisionWindows:
    """A ``(D, N, 1)`` stack takes one concrete window per decision, shaped
    ``(D, 1, 1)``, and gives each slice the result of its own call."""

    @pytest.mark.parametrize("window", ("cwnd_prev", "cwnd_ref"))
    def test_stack_matches_each_decision(self, window):
        rng = np.random.default_rng(6)
        lo = rng.uniform(-1.5, 1.0, (3, 4, 1))
        hi = lo + rng.uniform(0.0, 0.5, lo.shape)
        center, deviation = (lo + hi) / 2.0, (hi - lo) / 2.0
        tcp, windows = np.array([8.0, 20.0, 120.0]), np.array([4.0, 10.0, 250.0])
        stacked = checked_action_arrays(center, deviation, tcp.reshape(3, 1, 1), **{window: windows.reshape(3, 1, 1)})
        for d in range(3):
            single = checked_action_arrays(center[d], deviation[d], tcp[d], **{window: windows[d]})
            np.testing.assert_array_equal(stacked[0][d], single[0])
            np.testing.assert_array_equal(stacked[1][d], single[1])

    def stack(self):
        rng = np.random.default_rng(6)
        lo = rng.uniform(-1.5, 1.0, (3, 4, 1))
        hi = lo + rng.uniform(0.0, 0.5, lo.shape)
        return (lo + hi) / 2.0, (hi - lo) / 2.0

    def test_cwnd_from_action(self):
        (center, deviation), windows = self.stack(), np.array([4.0, 10.0, 250.0])
        stacked = _cwnd_from_action(center, deviation, windows.reshape(3, 1, 1), (-1.0, 1.0))
        for d, window in enumerate(windows):
            single = _cwnd_from_action(center[d], deviation[d], window, (-1.0, 1.0))
            np.testing.assert_array_equal(stacked[0][d], single[0])
            np.testing.assert_array_equal(stacked[1][d], single[1])

    def test_delta_cwnd_and_change_fraction(self):
        (center, deviation), windows = self.stack(), np.array([4.0, 10.0, 250.0])
        center = center + 20.0
        for transform in (_delta_cwnd, _cwnd_change_fraction):
            stacked = transform(center, deviation, windows.reshape(3, 1, 1))
            for d, window in enumerate(windows):
                single = transform(center[d], deviation[d], window)
                np.testing.assert_array_equal(stacked[0][d], single[0])
                np.testing.assert_array_equal(stacked[1][d], single[1])


@given(
    st.floats(-3.0, 3.0),
    st.floats(-3.0, 3.0),
    st.floats(0.0, 1.0),
    st.floats(1.0, 500.0),
    st.floats(1.0, 500.0),
)
@settings(max_examples=60, deadline=None)
def test_checked_actions_are_sound(a, b, t, cwnd_tcp, window):
    """Every concrete action of the box maps into the checked-action bounds:
    the cwnd map (action clipped to [-1, 1], through ``2^(2a)``) followed by
    Δcwnd or the fractional change."""
    lo, hi = min(a, b), max(a, b)
    concrete_action = float(np.clip(lo + t * (hi - lo), -1.0, 1.0))
    concrete_cwnd = 2.0 ** (2 * concrete_action) * cwnd_tcp
    tol = 1e-6 * max(1.0, concrete_cwnd)
    delta_lo, delta_hi = bounds_of(lo, hi, cwnd_tcp, cwnd_prev=window)
    assert delta_lo[0] - tol <= concrete_cwnd - window <= delta_hi[0] + tol
    fraction_lo, fraction_hi = bounds_of(lo, hi, cwnd_tcp, cwnd_ref=window)
    fraction = (concrete_cwnd - window) / window
    assert fraction_lo[0] - tol / window <= fraction <= fraction_hi[0] + tol / window


@given(
    st.floats(-1.0, 1.0),
    st.floats(-1.0, 1.0),
    st.floats(0.0, 1.0),
    st.floats(1.0, 500.0),
)
@settings(max_examples=60, deadline=None)
def test_cwnd_map_soundness(a, b, t, cwnd_tcp):
    """With ``cwnd_prev = 0`` the checked Δcwnd is the window: every action of
    a box inside [-1, 1] maps into it."""
    lo, hi = min(a, b), max(a, b)
    concrete_action = lo + t * (hi - lo)
    concrete_cwnd = 2.0 ** (2 * concrete_action) * cwnd_tcp
    cwnd_lo, cwnd_hi = bounds_of(lo, hi, cwnd_tcp, cwnd_prev=0.0)
    tol = 1e-6 * max(1.0, concrete_cwnd)
    assert cwnd_lo[0] - tol <= concrete_cwnd <= cwnd_hi[0] + tol


@given(st.floats(-20.0, 20.0), st.floats(-20.0, 20.0), st.floats(0.0, 1.0))
@settings(max_examples=60, deadline=None)
def test_exp2_soundness(a, b, t):
    lo, hi = min(a, b), max(a, b)
    concrete = 2.0 ** (lo + t * (hi - lo))
    center, deviation = _exp2(np.array([(lo + hi) / 2.0]), np.array([(hi - lo) / 2.0]))
    tol = 1e-9 * max(1.0, concrete)
    assert center[0] - deviation[0] - tol <= concrete <= center[0] + deviation[0] + tol
