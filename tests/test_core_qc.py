"""Tests for quantitative certificates and the Eq. 6 feedback."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracle import Interval, interval_feedback
from repro.core.qc import CertificateBatch, interval_feedback_batch


def feedback_of(lo, hi, allowed_lo, allowed_hi):
    """Eq. 6 feedback of one output interval ``[lo, hi]``."""
    return float(interval_feedback_batch(np.array([lo]), np.array([hi]), allowed_lo, allowed_hi)[1][0])


class TestIntervalFeedback:
    def test_fully_inside_allowed(self):
        assert feedback_of(1.0, 2.0, 0.0, 10.0) == pytest.approx(1.0)

    def test_fully_inside_forbidden(self):
        assert feedback_of(-5.0, -1.0, 0.0, 10.0) == pytest.approx(0.0)

    def test_partial_overlap_fraction(self):
        assert feedback_of(-1.0, 1.0, 0.0, 10.0) == pytest.approx(0.5)

    def test_point_output(self):
        assert feedback_of(1.0, 1.0, 0.0, 2.0) == pytest.approx(1.0)
        assert feedback_of(-1.0, -1.0, 0.0, 2.0) == pytest.approx(0.0)

    def test_point_output_on_the_boundary(self):
        assert feedback_of(2.0 + 5e-10, 2.0 + 5e-10, 0.0, 2.0) == 1.0
        assert feedback_of(2.0 + 1e-8, 2.0 + 1e-8, 0.0, 2.0) == 0.0

    def test_subnormal_width_does_not_overflow(self):
        # overlap / width would be -4 / 2.2e-308 = -inf before clipping.
        with np.errstate(over="raise", divide="raise", invalid="raise"):
            assert feedback_of(0.0, 2.2250738585072014e-308, 4.0, 4.0) == 0.0
            assert feedback_of(-5e-324, 5e-324, 0.0, 1.0) == 1.0
            assert feedback_of(0.0, 5e-324, 1.0, 2.0) == 0.0

    def test_stack_matches_each_row(self):
        rng = np.random.default_rng(4)
        lo = rng.uniform(-2.0, 2.0, (3, 7))
        hi = lo + rng.uniform(0.0, 2.0, lo.shape)
        satisfied, feedback = interval_feedback_batch(lo, hi, -0.5, 1.0)
        assert satisfied.shape == feedback.shape == (3, 7)
        for row in range(3):
            row_satisfied, row_feedback = interval_feedback_batch(lo[row], hi[row], -0.5, 1.0)
            np.testing.assert_array_equal(satisfied[row], row_satisfied)
            np.testing.assert_array_equal(feedback[row], row_feedback)


def applicable_rows(n_rows, n_components=3, dim=2, seed=0):
    """Component arrays of ``n_rows`` applicable decisions, allowed region [0, 1]."""
    rng = np.random.default_rng(seed)
    input_lo = rng.uniform(-1.0, 0.0, (n_rows, n_components, dim))
    input_hi = input_lo + 1.0
    output_lo = rng.uniform(-0.5, 0.5, (n_rows, n_components))
    output_hi = output_lo + rng.uniform(0.0, 1.0, output_lo.shape)
    satisfied, feedback = interval_feedback_batch(output_lo, output_hi, 0.0, 1.0)
    return input_lo, input_hi, output_lo, output_hi, satisfied, feedback


class TestCertificateBatch:
    def test_inapplicable_decisions_get_vacuous_rows(self):
        rows = applicable_rows(2)
        batch = CertificateBatch.from_applicable("P1", 0, 1, np.array([True, False, True]), *rows)
        assert (batch.allowed_lo, batch.allowed_hi) == (0.0, 1.0)
        assert type(batch.allowed_lo) is float
        assert batch.n_decisions == 3 and batch.applicable
        assert np.isnan(batch.output_lo[1]).all() and np.isnan(batch.input_hi[1]).all()
        assert not batch.satisfied[1].any()
        np.testing.assert_array_equal(batch.output_hi[[0, 2]], rows[3])
        assert batch.feedback[1] == 1.0
        np.testing.assert_array_equal(batch.feedback[[0, 2]], np.mean(rows[5], axis=-1))

    def test_mixed_components(self):
        # A satisfied, a violated and a partly satisfied component.
        output_lo, output_hi = np.array([[1.0, -2.0, -1.0]]), np.array([[2.0, -1.0, 1.0]])
        satisfied, feedback = interval_feedback_batch(output_lo, output_hi, 0.0, 100.0)
        batch = CertificateBatch.from_applicable("P1", 0.0, 100.0, np.array([True]), np.zeros((1, 3, 2)),
                                                 np.ones((1, 3, 2)), output_lo, output_hi, satisfied, feedback)
        np.testing.assert_array_equal(batch.component_feedback, [[1.0, 0.0, 0.5]])
        assert batch.feedback.tolist() == [0.5]
        assert batch.satisfied.mean() == pytest.approx(1.0 / 3.0)
        assert not batch.satisfied[0].all()

    def test_no_applicable_decision(self):
        rows = applicable_rows(0)
        batch = CertificateBatch.from_applicable("P5", -0.01, 0.01, np.zeros(4, dtype=bool), *rows)
        assert not batch.applicable
        np.testing.assert_array_equal(batch.feedback, 1.0)
        assert batch.output_lo.shape == (4, 3)


@given(st.floats(-10, 10), st.floats(0, 5), st.floats(-10, 10), st.floats(0, 5))
@settings(max_examples=60, deadline=None)
def test_feedback_always_in_unit_interval(a, wa, b, wb):
    assert 0.0 <= feedback_of(a, a + wa, b, b + wb) <= 1.0


@given(st.floats(-5, 5), st.floats(0.01, 5))
@settings(max_examples=40, deadline=None)
def test_feedback_one_iff_contained(lo, width):
    assert feedback_of(lo, lo + width, -100.0, 100.0) == pytest.approx(1.0)


@given(st.floats(-10, 10), st.floats(0, 5), st.floats(-10, 10), st.floats(0, 5))
@settings(max_examples=60, deadline=None)
def test_feedback_matches_the_oracle(a, wa, b, wb):
    expected = interval_feedback(Interval(a, a + wa), Interval(b, b + wb))
    assert feedback_of(a, a + wa, b, b + wb) == expected
