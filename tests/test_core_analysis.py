"""Tests for the offline property-satisfaction analysis tools."""

import numpy as np
import pytest

from repro.core.analysis import compare_controllers, property_report, satisfaction_grid
from repro.core.properties import property_p1, property_p5, shallow_buffer_properties
from repro.core.verifier import Verifier, VerifierConfig
from repro.nn import make_actor
from repro.orca.observations import ObservationConfig


@pytest.fixture
def obs_config():
    return ObservationConfig()


def make_verifier(obs_config, bias=None, seed=0, n_components=4):
    actor = make_actor(obs_config.state_dim, hidden_sizes=(8,), rng=np.random.default_rng(seed))
    if bias is not None:
        dense = actor.layers[-2]
        dense.weight[...] = 0.0
        dense.bias[...] = bias
    return Verifier(actor, obs_config, VerifierConfig(n_components=n_components))


class TestSatisfactionGrid:
    def test_grid_shape_and_bounds(self, obs_config):
        verifier = make_verifier(obs_config, n_components=3)
        grid = satisfaction_grid(verifier, property_p1(), x_values=(0.2, 0.8), y_values=(0.1, 0.5, 0.9))
        assert grid.feedback.shape == (3, 2)
        assert np.all((grid.feedback >= 0.0) & (grid.feedback <= 1.0))
        assert 0.0 <= grid.mean_feedback <= 1.0
        assert 0.0 <= grid.certified_fraction <= 1.0

    def test_rows_enumeration(self, obs_config):
        verifier = make_verifier(obs_config, n_components=2)
        grid = satisfaction_grid(verifier, property_p1(), x_values=(0.2, 0.8), y_values=(0.3,))
        rows = grid.to_rows()
        assert len(rows) == 2
        assert set(rows[0]) == {"throughput", "inv_rtt", "feedback"}

    def test_always_increase_policy_fully_certified_for_p1(self, obs_config):
        verifier = make_verifier(obs_config, bias=10.0, n_components=3)  # tanh saturates at +1 => always grow
        grid = satisfaction_grid(verifier, property_p1(), cwnd_tcp=20.0, cwnd_prev=20.0)
        assert grid.certified_fraction == pytest.approx(1.0)

    def test_constant_policy_robust_grid(self, obs_config):
        verifier = make_verifier(obs_config, bias=0.0, n_components=3)
        grid = satisfaction_grid(verifier, property_p5())
        assert grid.mean_feedback == pytest.approx(1.0)

    def test_cells_match_one_certify_per_cell(self, obs_config):
        verifier = make_verifier(obs_config, n_components=3)
        grid = satisfaction_grid(verifier, property_p1(), x_values=(0.2, 0.8), y_values=(0.1, 0.9),
                                 cwnd_tcp=30.0, cwnd_prev=25.0)
        observer = verifier.observer
        for row in grid.to_rows():
            state = np.full(observer.state_dim, 0.5)
            state[observer.feature_indices("throughput")] = row["throughput"]
            state[observer.feature_indices("inv_rtt")] = row["inv_rtt"]
            assert row["feedback"] == verifier.certify(property_p1(), state, 30.0, 25.0).feedback[0]


class TestReports:
    def test_property_report_rows(self, obs_config):
        verifier = make_verifier(obs_config)
        rng = np.random.default_rng(3)
        states = [np.clip(rng.uniform(0, 1, obs_config.state_dim), 0, 1) for _ in range(5)]
        rows = property_report(verifier, shallow_buffer_properties(), states)
        assert {row["property"] for row in rows} == {"P1", "P2"}
        for row in rows:
            assert 0.0 <= row["min_feedback"] <= row["mean_feedback"] <= 1.0
            assert row["n_states"] == 5

    def test_property_report_of_an_array_matches_the_list(self, obs_config):
        # An (S, d) array used to fail on `if states` after certifying.
        verifier = make_verifier(obs_config, n_components=3)
        states = np.random.default_rng(5).uniform(0, 1, (6, obs_config.state_dim))
        rows = property_report(verifier, shallow_buffer_properties(), states)
        assert rows == property_report(verifier, shallow_buffer_properties(), list(states))
        assert compare_controllers({"a": verifier}, shallow_buffer_properties(), states) == \
            compare_controllers({"a": verifier}, shallow_buffer_properties(), list(states))

    def test_property_report_of_no_states_is_vacuous(self, obs_config):
        verifier = make_verifier(obs_config)
        for states in ([], np.empty((0, obs_config.state_dim))):
            rows = property_report(verifier, shallow_buffer_properties(), states)
            assert rows == [{"property": name, "mean_feedback": 1.0, "min_feedback": 1.0,
                             "proof_fraction": 1.0, "n_states": 0} for name in ("P1", "P2")]

    def test_compare_controllers_ordering(self, obs_config):
        always_up = make_verifier(obs_config, bias=10.0, n_components=3)
        always_down = make_verifier(obs_config, bias=-10.0, n_components=3)
        rng = np.random.default_rng(4)
        states = [np.clip(rng.uniform(0, 1, obs_config.state_dim), 0, 1) for _ in range(4)]
        rows = compare_controllers({"up": always_up, "down": always_down},
                                   shallow_buffer_properties(), states,
                                   cwnd_tcp=20.0, cwnd_prev=20.0)
        by_name = {row["controller"]: row for row in rows}
        # The always-increase policy satisfies P1 but violates P2, and vice
        # versa, so both land at ~0.5 mean feedback with symmetric breakdowns.
        assert by_name["up"]["P1_feedback"] == pytest.approx(1.0)
        assert by_name["up"]["P2_feedback"] == pytest.approx(0.0, abs=1e-6)
        assert by_name["down"]["P2_feedback"] == pytest.approx(1.0)
        assert by_name["down"]["P1_feedback"] == pytest.approx(0.0, abs=1e-6)
