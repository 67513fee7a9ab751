"""Tests for quantitative certificates and the Eq. 6 feedback."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracle import Interval, interval_feedback
from repro.core.qc import CertificateBatch, ComponentCertificate, QuantitativeCertificate, interval_feedback_batch


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


def make_component(index, lo, hi, allowed):
    satisfied, feedback = interval_feedback_batch(np.array([lo]), np.array([hi]), *allowed)
    return ComponentCertificate(
        index=index,
        input_lo=np.zeros(2),
        input_hi=np.ones(2),
        output_lo=lo,
        output_hi=hi,
        satisfied=bool(satisfied[0]),
        feedback=float(feedback[0]),
    )


class TestQuantitativeCertificate:
    def test_empty_certificate_is_trivially_satisfied(self):
        qc = QuantitativeCertificate("P1", 0.0, 100.0)
        assert qc.feedback == pytest.approx(1.0)
        assert qc.proof
        assert qc.satisfied_fraction == pytest.approx(1.0)

    def test_mixed_components(self):
        allowed = (0.0, 100.0)
        qc = QuantitativeCertificate("P1", 0.0, 100.0, components=[
            make_component(0, 1.0, 2.0, allowed),      # satisfied, feedback 1
            make_component(1, -2.0, -1.0, allowed),    # violated, feedback 0
            make_component(2, -1.0, 1.0, allowed),     # partial, feedback 0.5
        ])
        assert qc.n_components == 3
        assert qc.feedback == pytest.approx(0.5)
        assert qc.satisfied_fraction == pytest.approx(1.0 / 3.0)
        assert not qc.proof

    def test_proof_when_all_satisfied(self):
        allowed = (0.0, 100.0)
        qc = QuantitativeCertificate("P1", 0.0, 100.0, components=[
            make_component(i, float(i), float(i) + 0.5, allowed) for i in range(5)
        ])
        assert qc.proof
        assert qc.feedback == pytest.approx(1.0)

    def test_output_bounds_matrix(self):
        allowed = (0.0, 100.0)
        qc = QuantitativeCertificate("P1", 0.0, 100.0, components=[
            make_component(0, 1.0, 2.0, allowed),
            make_component(1, 3.0, 4.0, allowed),
        ])
        bounds = qc.output_bounds()
        assert bounds.shape == (2, 2)
        assert bounds[1, 0] == pytest.approx(3.0)

    def test_component_output_interval(self):
        component = make_component(0, -1.0, 2.0, (0.0, 5.0))
        assert (component.output_lo, component.output_hi) == (-1.0, 2.0)
        assert not component.satisfied
        assert component.feedback == pytest.approx(2.0 / 3.0)

    def test_summary_keys(self):
        qc = QuantitativeCertificate("P5", -0.01, 0.01)
        summary = qc.summary()
        assert summary["property"] == "P5"
        assert set(summary) >= {"feedback", "satisfied_fraction", "proof", "n_components", "applicable"}


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

    def test_certificate_matches_its_row(self):
        rows = applicable_rows(2, seed=1)
        batch = CertificateBatch.from_applicable("P1", 0.0, 1.0, np.array([False, True, True]), *rows)
        vacuous = batch.certificate(0)
        assert not vacuous.applicable and vacuous.n_components == 0 and vacuous.feedback == 1.0
        certificate = batch.certificate(2)
        assert certificate.applicable and certificate.n_components == 3
        np.testing.assert_array_equal(certificate.output_bounds(), np.stack([rows[2][1], rows[3][1]], axis=-1))
        assert certificate.feedback == pytest.approx(batch.feedback[2], rel=0.0, abs=1e-15)
        np.testing.assert_array_equal(certificate.components[1].input_lo, rows[0][1, 1])

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
