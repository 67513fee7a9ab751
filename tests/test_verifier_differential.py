"""Differential tests: the batched certification engine vs the scalar reference.

``Verifier.certify`` propagates all N components as one batched box;
``Verifier.certify_reference`` retains the original one-component-at-a-time
path.  Over randomized (MLP shape, property, decision context) draws the two
must produce numerically identical certificates — same proofs, same Eq. 6
feedback, same component bounds — to within ``ATOL`` (the only permitted
difference is matmul summation order).
"""

import numpy as np
import pytest

from repro.core.properties import (
    all_properties,
    property_p1,
    property_p2,
    property_p3,
    property_p4_case_i,
    property_p4_case_ii,
    property_p5,
)
from repro.core.verifier import Verifier, VerifierConfig
from repro.nn import make_actor
from repro.orca.observations import ObservationConfig

ATOL = 1e-12
N_SEEDS = 24

PROPERTY_FACTORIES = (
    property_p1,
    property_p2,
    property_p3,
    property_p4_case_i,
    property_p4_case_ii,
    property_p5,
)


def random_setup(seed):
    """A random (actor, decision context, partition count) draw."""
    rng = np.random.default_rng(seed)
    obs_config = ObservationConfig()
    depth = int(rng.integers(1, 4))
    hidden_sizes = tuple(int(rng.integers(4, 33)) for _ in range(depth))
    actor = make_actor(obs_config.state_dim, hidden_sizes=hidden_sizes, rng=rng)
    state = rng.uniform(0.0, 1.0, obs_config.state_dim)
    cwnd_tcp = float(rng.uniform(5.0, 200.0))
    cwnd_prev = float(rng.uniform(5.0, 200.0))
    n_components = int(rng.integers(1, 13))
    return obs_config, actor, state, cwnd_tcp, cwnd_prev, n_components


def assert_certificates_identical(batched, reference):
    assert batched.property_name == reference.property_name
    assert batched.applicable == reference.applicable
    assert batched.allowed_lo == reference.allowed_lo
    assert batched.allowed_hi == reference.allowed_hi
    assert batched.n_components == reference.n_components
    for got, expected in zip(batched.components, reference.components):
        assert got.index == expected.index
        assert got.satisfied == expected.satisfied
        np.testing.assert_allclose(got.input_lo, expected.input_lo, rtol=0.0, atol=ATOL)
        np.testing.assert_allclose(got.input_hi, expected.input_hi, rtol=0.0, atol=ATOL)
        assert got.output_lo == pytest.approx(expected.output_lo, rel=0.0, abs=ATOL)
        assert got.output_hi == pytest.approx(expected.output_hi, rel=0.0, abs=ATOL)
        assert got.feedback == pytest.approx(expected.feedback, rel=0.0, abs=ATOL)


@pytest.mark.parametrize("seed", range(N_SEEDS))
def test_certify_differential(seed):
    """Batched certify == scalar certify_reference for every property."""
    obs_config, actor, state, cwnd_tcp, cwnd_prev, n = random_setup(seed)
    verifier = Verifier(actor, obs_config, VerifierConfig(n_components=n))
    for factory in PROPERTY_FACTORIES:
        prop = factory()
        batched = verifier.certify(prop, state, cwnd_tcp, cwnd_prev)
        reference = verifier.certify_reference(prop, state, cwnd_tcp, cwnd_prev)
        assert_certificates_identical(batched, reference)


@pytest.mark.parametrize("seed", range(N_SEEDS))
def test_certify_all_and_feedback_differential(seed):
    obs_config, actor, state, cwnd_tcp, cwnd_prev, n = random_setup(seed + 1000)
    verifier = Verifier(actor, obs_config, VerifierConfig(n_components=n))
    properties = all_properties()

    batched = verifier.certify_all(properties, state, cwnd_tcp, cwnd_prev)
    reference = verifier.certify_all_reference(properties, state, cwnd_tcp, cwnd_prev)
    assert set(batched) == set(reference)
    for name in batched:
        assert_certificates_identical(batched[name], reference[name])

    feedback = verifier.verifier_feedback(properties, state, cwnd_tcp, cwnd_prev)
    feedback_reference = verifier.verifier_feedback_reference(properties, state, cwnd_tcp, cwnd_prev)
    assert feedback == pytest.approx(feedback_reference, rel=0.0, abs=ATOL)


@pytest.mark.parametrize("seed", range(4))
def test_certify_differential_at_evaluation_scale(seed):
    """The paper's evaluation setting: N=50 components."""
    obs_config, actor, state, cwnd_tcp, cwnd_prev, _ = random_setup(seed + 2000)
    verifier = Verifier(actor, obs_config, VerifierConfig(n_components=50))
    for factory in (property_p1, property_p5):
        prop = factory()
        assert_certificates_identical(
            verifier.certify(prop, state, cwnd_tcp, cwnd_prev),
            verifier.certify_reference(prop, state, cwnd_tcp, cwnd_prev),
        )


def assert_batch_row_bit_identical(batch, index, single):
    """Row ``index`` of a CertificateBatch == a lone certify, bit for bit."""
    got = batch.certificate(index)
    assert got.property_name == single.property_name
    assert got.applicable == single.applicable == bool(batch.applicable_mask[index])
    assert (got.allowed_lo, got.allowed_hi) == (single.allowed_lo, single.allowed_hi)
    assert got.n_components == single.n_components
    for component, expected in zip(got.components, single.components):
        assert component.index == expected.index
        assert np.array_equal(component.input_lo, expected.input_lo)
        assert np.array_equal(component.input_hi, expected.input_hi)
        assert (component.output_lo, component.output_hi) == (expected.output_lo, expected.output_hi)
        assert (component.satisfied, component.feedback) == (expected.satisfied, expected.feedback)
    assert batch.feedback[index] == single.feedback


@pytest.mark.parametrize("check_applicability", (False, True))
@pytest.mark.parametrize("n_components", (1, 5, 50))
@pytest.mark.parametrize("n_decisions", (1, 7, 64))
def test_stacked_certify_is_bit_identical_to_per_decision_certify(n_decisions, n_components,
                                                                check_applicability):
    rng = np.random.default_rng(4000 + 100 * n_decisions + n_components)
    obs_config = ObservationConfig()
    hidden_sizes = tuple(int(rng.integers(4, 65)) for _ in range(int(rng.integers(1, 4))))
    actor = make_actor(obs_config.state_dim, hidden_sizes=hidden_sizes, rng=rng)
    verifier = Verifier(actor, obs_config, VerifierConfig(n_components=n_components,
                                                          check_applicability=check_applicability))
    states = rng.uniform(0.0, 1.0, (n_decisions, obs_config.state_dim))
    # Past Δcwnd histories of every sign pattern, so gating splits the batch.
    dcwnd = verifier.observer.feature_indices("dcwnd")
    states[:, dcwnd] = rng.uniform(-1.0, 1.0, (n_decisions, len(dcwnd)))
    states[::3, dcwnd] = -np.abs(states[::3, dcwnd])
    states[1::3, dcwnd] = np.abs(states[1::3, dcwnd])
    cwnd_tcp = rng.uniform(5.0, 200.0, n_decisions)
    cwnd_prev = rng.uniform(5.0, 200.0, n_decisions)
    for factory in PROPERTY_FACTORIES:
        prop = factory()
        batch = verifier.certify(prop, states, cwnd_tcp, cwnd_prev)
        assert batch.n_decisions == n_decisions
        for index in range(n_decisions):
            single = verifier.certify(prop, states[index], cwnd_tcp[index], cwnd_prev[index])
            assert_batch_row_bit_identical(batch, index, single)
        if check_applicability and prop.dcwnd_sign is not None and n_decisions > 1:
            assert 0 < batch.applicable_mask.sum() < n_decisions


def test_stacked_certify_of_no_decisions():
    obs_config, actor, *_ = random_setup(5000)
    verifier = Verifier(actor, obs_config)
    batch = verifier.certify(property_p5(), np.empty((0, obs_config.state_dim)),
                             np.empty(0), np.empty(0), n_components=3)
    assert batch.n_decisions == 0
    assert batch.output_lo.shape == (0, 3) and batch.feedback.shape == (0,)
    assert not batch.applicable


def test_certify_differential_with_applicability_gating():
    """Both paths agree on non-applicable certificates when gating is on."""
    obs_config, actor, state, cwnd_tcp, cwnd_prev, _ = random_setup(3000)
    verifier = Verifier(actor, obs_config, VerifierConfig(n_components=4, check_applicability=True))
    gated_state = state.copy()
    for idx in verifier.observer.feature_indices("dcwnd"):
        gated_state[idx] = 0.5  # history of increases gates the dcwnd<=0 properties
    for factory in (property_p1, property_p2):
        batched = verifier.certify(factory(), gated_state, cwnd_tcp, cwnd_prev)
        reference = verifier.certify_reference(factory(), gated_state, cwnd_tcp, cwnd_prev)
        assert_certificates_identical(batched, reference)
