"""Tests for the property language and the P1–P5 definitions."""

from dataclasses import replace

import numpy as np
import pytest
from oracle import checked_action_concrete, satisfied_concretely

from repro.core.properties import (
    ACTION_BOUND,
    ActionKind,
    PropertySet,
    PropertySpec,
    all_properties,
    deep_buffer_properties,
    property_p1,
    property_p2,
    property_p3,
    property_p4_case_i,
    property_p4_case_ii,
    property_p5,
    robustness_properties,
    shallow_buffer_properties,
)
from repro.orca.observations import ObservationBuilder, ObservationConfig


@pytest.fixture
def observer():
    return ObservationBuilder(ObservationConfig())


class TestSpecValidation:
    def test_delta_property_needs_direction(self):
        with pytest.raises(ValueError):
            PropertySpec(name="X", description="", kind=ActionKind.DELTA_CWND)

    def test_robustness_needs_epsilon_and_mu(self):
        with pytest.raises(ValueError):
            PropertySpec(name="X", description="", kind=ActionKind.CWND_CHANGE_FRACTION,
                         epsilon=0.0, noise_mu=0.05)
        with pytest.raises(ValueError):
            PropertySpec(name="X", description="", kind=ActionKind.CWND_CHANGE_FRACTION,
                         epsilon=0.01, noise_mu=0.0)

    def test_invalid_dcwnd_sign(self):
        with pytest.raises(ValueError):
            PropertySpec(name="X", description="", kind=ActionKind.DELTA_CWND,
                         allowed_direction=1, dcwnd_sign=2)

    def test_invalid_range_order(self):
        with pytest.raises(ValueError):
            PropertySpec(name="X", description="", kind=ActionKind.DELTA_CWND,
                         allowed_direction=1, delay_range=(0.5, 0.1))

    def test_invalid_weight(self):
        with pytest.raises(ValueError):
            replace(property_p1(), weight=0.0)


class TestTableTwoDefinitions:
    def test_p1_allows_non_decrease_under_good_shallow_conditions(self):
        p1 = property_p1(q_min_delay=0.01)
        assert p1.delay_range == (0.0, 0.01)
        assert p1.loss_range == (0.0, 0.0)
        assert p1.dcwnd_sign == -1
        assert p1.allowed_direction == +1

    def test_p2_forbids_increase_under_loss(self):
        p2 = property_p2(q_min_delay=0.01, p_loss=0.75)
        assert p2.loss_range == (0.75, 1.0)
        assert p2.allowed_direction == -1
        assert p2.dcwnd_sign == +1

    def test_p3_uses_deep_buffer_delay_threshold(self):
        assert property_p3(q_delay=0.25).delay_range == (0.0, 0.25)

    def test_p4_cases_are_mirror_images(self):
        case_i = property_p4_case_i(p_delay=0.75)
        case_ii = property_p4_case_ii(p_delay=0.75)
        assert case_i.delay_range == case_ii.delay_range == (0.75, 1.0)
        assert case_i.allowed_direction == -1 and case_i.dcwnd_sign == +1
        assert case_ii.allowed_direction == +1 and case_ii.dcwnd_sign == -1

    def test_p5_parameters(self):
        p5 = property_p5(mu=0.05, epsilon=0.01)
        assert p5.kind is ActionKind.CWND_CHANGE_FRACTION
        assert p5.noise_mu == pytest.approx(0.05)
        assert p5.epsilon == pytest.approx(0.01)


class TestAllowedRegions:
    def test_non_decrease_region(self):
        assert property_p1().allowed_bounds() == (0.0, ACTION_BOUND)

    def test_non_increase_region(self):
        assert property_p2().allowed_bounds() == (-ACTION_BOUND, 0.0)

    def test_robustness_region_symmetric(self):
        assert property_p5(epsilon=0.02).allowed_bounds() == (-0.02, 0.02)

    def test_every_allowed_region_is_ordered_and_holds_zero(self):
        for prop in all_properties():
            lo, hi = prop.allowed_bounds()
            assert isinstance(lo, float) and isinstance(hi, float)
            assert lo <= 0.0 <= hi and lo < hi

    def test_checked_action_concrete(self):
        p1 = property_p1()
        assert checked_action_concrete(p1, cwnd=12.0, cwnd_prev=10.0, cwnd_reference=10.0) == pytest.approx(2.0)
        p5 = property_p5()
        assert checked_action_concrete(p5, cwnd=11.0, cwnd_prev=0.0, cwnd_reference=10.0) == pytest.approx(0.1)
        with pytest.raises(ValueError):
            checked_action_concrete(p5, cwnd=11.0, cwnd_prev=0.0, cwnd_reference=0.0)

    def test_satisfied_concretely(self):
        p1 = property_p1()
        assert satisfied_concretely(p1, cwnd=12.0, cwnd_prev=10.0, cwnd_reference=10.0)
        assert not satisfied_concretely(p1, cwnd=8.0, cwnd_prev=10.0, cwnd_reference=10.0)
        p5 = property_p5(epsilon=0.02)
        assert satisfied_concretely(p5, cwnd=10.2, cwnd_prev=0.0, cwnd_reference=10.0)
        assert satisfied_concretely(p5, cwnd=9.8, cwnd_prev=0.0, cwnd_reference=10.0)
        assert not satisfied_concretely(p5, cwnd=10.3, cwnd_prev=0.0, cwnd_reference=10.0)
        assert not satisfied_concretely(p1, cwnd=np.nan, cwnd_prev=10.0, cwnd_reference=10.0)


class TestInputRegions:
    def test_p1_region_abstracts_delay_loss_dcwnd(self, observer):
        p1 = property_p1()
        state = np.full(observer.state_dim, 0.5)
        lo, hi = p1.region_plan(observer).bounds(state)
        for idx in observer.feature_indices("delay"):
            assert lo[idx] == pytest.approx(0.0)
            assert hi[idx] == pytest.approx(0.01)
        for idx in observer.feature_indices("loss"):
            assert lo[idx] == pytest.approx(0.0)
            assert hi[idx] == pytest.approx(0.0)
        for idx in observer.feature_indices("dcwnd"):
            assert lo[idx] == pytest.approx(-1.0)
            assert hi[idx] == pytest.approx(0.0)
        # Non-precondition dimensions keep their observed values.
        for idx in observer.feature_indices("throughput"):
            assert lo[idx] == pytest.approx(0.5)
            assert hi[idx] == pytest.approx(0.5)

    def test_p5_region_scales_noise_features(self, observer):
        p5 = property_p5(mu=0.1)
        state = np.full(observer.state_dim, 0.5)
        lo, hi = p5.region_plan(observer).bounds(state)
        for idx in observer.feature_indices("delay"):
            assert lo[idx] == pytest.approx(0.45)
            assert hi[idx] == pytest.approx(0.55)

    def test_p5_region_of_a_negative_state_is_ordered(self, observer):
        state = np.full(observer.state_dim, -0.5)
        lo, hi = property_p5(mu=0.1).region_plan(observer).bounds(state)
        assert np.all(lo <= state) and np.all(state <= hi)
        for idx in observer.feature_indices("delay"):
            assert lo[idx] == pytest.approx(-0.55)
            assert hi[idx] == pytest.approx(-0.45)

    @pytest.mark.parametrize("factory", (property_p1, property_p5))
    def test_region_bounds_are_fresh_arrays(self, observer, factory):
        state = np.full(observer.state_dim, 0.5)
        lo, hi = factory().region_plan(observer).bounds(state)
        lo[:] = -9.0
        hi[:] = 9.0
        np.testing.assert_array_equal(state, 0.5)
        assert not np.shares_memory(lo, hi)

    @pytest.mark.parametrize("factory", (property_p1, property_p2, property_p5))
    def test_region_of_a_state_stack_is_the_stack_of_regions(self, observer, factory):
        states = np.random.default_rng(8).uniform(-1.0, 1.0, (6, observer.state_dim))
        stack_lo, stack_hi = factory().region_plan(observer).bounds(states)
        assert stack_lo.shape == stack_hi.shape == states.shape
        for row, state in enumerate(states):
            lo, hi = factory().region_plan(observer).bounds(state)
            np.testing.assert_array_equal(stack_lo[row], lo)
            np.testing.assert_array_equal(stack_hi[row], hi)

    def test_partition_dims_point_at_delay(self, observer):
        dims = property_p1().partition_dims(observer)
        assert dims == observer.feature_indices("delay")


class TestPropertySets:
    def test_shallow_set(self):
        props = shallow_buffer_properties()
        assert {p.name for p in props} == {"P1", "P2"}

    def test_deep_set(self):
        props = deep_buffer_properties()
        assert {p.name for p in props} == {"P3", "P4i", "P4ii"}

    def test_robustness_set(self):
        assert {p.name for p in robustness_properties()} == {"P5"}

    def test_all_properties(self):
        assert len(all_properties()) == 6

    def test_empty_set_rejected(self):
        with pytest.raises(ValueError):
            PropertySet("empty", [])

    def test_duplicate_names_rejected(self):
        with pytest.raises(ValueError):
            PropertySet("dup", [property_p1(), property_p1()])
