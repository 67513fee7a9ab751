"""Differential tests: the batched certification engine vs the scalar oracle.

``Verifier.certify`` propagates all N components as one batched box;
``oracle.certify_reference`` is the one-component-at-a-time path over
per-layer box transformers.  Over randomized (MLP shape, property, decision context) draws the two
must produce numerically identical certificate batches — same proofs, same Eq. 6
feedback, same component bounds — to within ``ATOL`` (the only permitted
difference is matmul summation order).
"""

import numpy as np
import pytest

from oracle import certify_reference
from repro.abstract.box import Box
from repro.core.properties import (
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
from repro.core.qc import CertificateSet
from repro.core.verifier import _MAX_PLANS, Verifier, VerifierConfig, weighted_feedback
from repro.nn import make_actor
from repro.nn.optim import Adam
from repro.orca.observations import ObservationBuilder, ObservationConfig

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


BATCH_ARRAYS = ("input_lo", "input_hi", "output_lo", "output_hi", "satisfied",
                "component_feedback", "feedback", "applicable_mask")
EXACT_ARRAYS = ("satisfied", "applicable_mask")


def assert_certificates_identical(batched, reference):
    assert (batched.property_name, batched.allowed_lo, batched.allowed_hi) == (
        reference.property_name, reference.allowed_lo, reference.allowed_hi)
    for name in BATCH_ARRAYS:
        got, expected = getattr(batched, name), getattr(reference, name)
        assert got.shape == expected.shape, name
        if name in EXACT_ARRAYS:
            np.testing.assert_array_equal(got, expected, err_msg=name)
        else:
            np.testing.assert_allclose(got, expected, rtol=0.0, atol=ATOL, err_msg=name)


@pytest.mark.parametrize("seed", range(N_SEEDS))
def test_certify_differential(seed):
    """Batched certify == the oracle's certify_reference for every property."""
    obs_config, actor, state, cwnd_tcp, cwnd_prev, n = random_setup(seed)
    verifier = Verifier(actor, obs_config, VerifierConfig(n_components=n))
    for factory in PROPERTY_FACTORIES:
        prop = factory()
        batched = verifier.certify(prop, state, cwnd_tcp, cwnd_prev)
        reference = certify_reference(verifier, prop, state, cwnd_tcp, cwnd_prev)
        assert_certificates_identical(batched, reference)


@pytest.mark.parametrize("seed", range(N_SEEDS))
def test_property_set_and_feedback_differential(seed):
    obs_config, actor, state, cwnd_tcp, cwnd_prev, n = random_setup(seed + 1000)
    verifier = Verifier(actor, obs_config, VerifierConfig(n_components=n))
    properties = all_properties()

    batched = verifier.certify(properties, state, cwnd_tcp, cwnd_prev)
    reference = {prop.name: certify_reference(verifier, prop, state, cwnd_tcp, cwnd_prev) for prop in properties}
    assert set(batched) == set(reference)
    for name in batched:
        assert_certificates_identical(batched[name], reference[name])

    feedback = weighted_feedback(properties, batched)[0]
    feedback_reference = weighted_feedback(properties, reference)[0]
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
            certify_reference(verifier, prop, state, cwnd_tcp, cwnd_prev),
        )


def assert_batch_row_bit_identical(batch, index, single):
    """Row ``index`` of a CertificateBatch == a lone certify (a D=1 batch), bit for bit."""
    assert (batch.property_name, batch.allowed_lo, batch.allowed_hi) == (
        single.property_name, single.allowed_lo, single.allowed_hi)
    assert single.n_decisions == 1
    for name in BATCH_ARRAYS:
        assert np.array_equal(getattr(batch, name)[index], getattr(single, name)[0], equal_nan=True), name


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
    verifier = Verifier(actor, obs_config, VerifierConfig(n_components=3))
    batch = verifier.certify(property_p5(), np.empty((0, obs_config.state_dim)), np.empty(0), np.empty(0))
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
        reference = certify_reference(verifier, factory(), gated_state, cwnd_tcp, cwnd_prev)
        assert_certificates_identical(batched, reference)


# ---------------------------------------------------------------------- #
# Cross-property stack: certify(properties, ...) == per-property certify
# ---------------------------------------------------------------------- #
PROPERTY_SETS = {
    "shallow": shallow_buffer_properties,
    "deep": deep_buffer_properties,
    "robustness": robustness_properties,
    "all": all_properties,
}

def assert_batches_bit_identical(got, expected):
    assert (got.property_name, got.allowed_lo, got.allowed_hi) == (
        expected.property_name, expected.allowed_lo, expected.allowed_hi)
    for name in BATCH_ARRAYS:
        got_array, expected_array = getattr(got, name), getattr(expected, name)
        assert got_array.shape == expected_array.shape, name
        assert np.array_equal(got_array, expected_array, equal_nan=True), name


def stack_setup(seed, n_components, check_applicability, n_decisions=9):
    rng = np.random.default_rng(seed)
    obs_config = ObservationConfig()
    hidden_sizes = tuple(int(rng.integers(4, 33)) for _ in range(int(rng.integers(1, 4))))
    actor = make_actor(obs_config.state_dim, hidden_sizes=hidden_sizes, rng=rng)
    verifier = Verifier(actor, obs_config, VerifierConfig(n_components=n_components,
                                                          check_applicability=check_applicability))
    states = rng.uniform(0.0, 1.0, (n_decisions, obs_config.state_dim))
    dcwnd = verifier.observer.feature_indices("dcwnd")
    states[:, dcwnd] = rng.uniform(-1.0, 1.0, (n_decisions, len(dcwnd)))
    states[::3, dcwnd] = -np.abs(states[::3, dcwnd])
    states[1::3, dcwnd] = np.abs(states[1::3, dcwnd])
    cwnd_tcp = rng.uniform(5.0, 200.0, n_decisions)
    cwnd_prev = rng.uniform(5.0, 200.0, n_decisions)
    return verifier, states, cwnd_tcp, cwnd_prev


@pytest.mark.parametrize("check_applicability", (False, True))
@pytest.mark.parametrize("n_components", (5, 50))
@pytest.mark.parametrize("set_name", sorted(PROPERTY_SETS))
def test_property_stack_is_bit_identical_to_per_property_certify(set_name, n_components,
                                                                 check_applicability):
    verifier, states, cwnd_tcp, cwnd_prev = stack_setup(
        6000 + 10 * n_components + sorted(PROPERTY_SETS).index(set_name), n_components, check_applicability)
    properties = PROPERTY_SETS[set_name]()
    names = [prop.name for prop in properties]

    stacked = verifier.certify(properties, states, cwnd_tcp, cwnd_prev)
    assert isinstance(stacked, CertificateSet)
    assert list(stacked) == names
    assert stacked.applicable is any(batch.applicable for batch in stacked.values())
    for prop in properties:
        assert_batches_bit_identical(stacked[prop.name], verifier.certify(prop, states, cwnd_tcp, cwnd_prev))
    if check_applicability and any(prop.dcwnd_sign is not None for prop in properties):
        masks = [stacked[prop.name].applicable_mask for prop in properties if prop.dcwnd_sign is not None]
        assert any(0 < mask.sum() < len(states) for mask in masks)

    for index in range(3):
        args = (states[index], cwnd_tcp[index], cwnd_prev[index])
        one = verifier.certify(properties, *args)
        assert isinstance(one, CertificateSet) and list(one) == names
        assert one.applicable is any(certificate.applicable for certificate in one.values())
        per_property = {prop.name: verifier.certify(prop, *args) for prop in properties}
        for prop in properties:
            assert_batches_bit_identical(one[prop.name], per_property[prop.name])
        expected = sum(prop.weight * float(per_property[prop.name].feedback[0]) for prop in properties)
        expected /= sum(prop.weight for prop in properties)
        assert weighted_feedback(properties, one)[0] == expected


def test_property_stack_with_no_applicable_property():
    verifier, states, cwnd_tcp, cwnd_prev = stack_setup(6100, 5, True)
    properties = [property_p1(), property_p3(), property_p4_case_ii()]
    assert {prop.dcwnd_sign for prop in properties} == {-1}
    gated = states[1]  # a history of increases: no property that needs decreases applies
    one = verifier.certify(properties, gated, cwnd_tcp[1], cwnd_prev[1])
    assert not one.applicable
    assert all(batch.feedback.tolist() == [1.0] for batch in one.values())
    stacked = verifier.certify(properties, states[1::3], cwnd_tcp[1::3], cwnd_prev[1::3])
    assert not stacked.applicable
    for prop in properties:
        assert_batches_bit_identical(
            stacked[prop.name], verifier.certify(prop, states[1::3], cwnd_tcp[1::3], cwnd_prev[1::3]))


def test_empty_property_sequence_is_rejected():
    verifier, states, cwnd_tcp, cwnd_prev = stack_setup(6200, 5, False)
    with pytest.raises(ValueError, match="at least one property"):
        verifier.certify([], states, cwnd_tcp, cwnd_prev)


@pytest.mark.parametrize("n_components", (5, 50))
def test_batch_feedback_is_the_mean_of_its_component_list(n_components):
    """``CertificateBatch.feedback`` is bit for bit the ``np.mean`` of each
    applicable row's component feedback taken as a Python list, the value
    Eq. 7 has always averaged over the properties."""
    for seed in range(4):
        verifier, states, cwnd_tcp, cwnd_prev = stack_setup(
            7000 + 10 * n_components + seed, n_components, check_applicability=seed % 2 == 1, n_decisions=32)
        for batch in verifier.certify(all_properties(), states, cwnd_tcp, cwnd_prev).values():
            for index in np.flatnonzero(batch.applicable_mask):
                assert batch.feedback[index] == float(np.mean(batch.component_feedback[index].tolist()))


def fresh_certify(verifier, properties, *decision):
    """``certify`` on a new verifier over the same actor, observer and config
    (so no plan built by an earlier call can be reused)."""
    fresh = Verifier(verifier.actor, verifier.observer.config, verifier.config)
    return fresh.certify(properties, *decision)


def assert_sets_bit_identical(got, expected):
    assert list(got) == list(expected)
    for name in expected:
        assert_batches_bit_identical(got[name], expected[name])


@pytest.mark.parametrize("check_applicability", (False, True))
def test_one_verifier_reusing_its_plans_matches_fresh_verifiers(check_applicability):
    """One verifier alternating over every property set, at D=1 and D=9,
    gives what a fresh verifier gives on each call."""
    verifier, states, cwnd_tcp, cwnd_prev = stack_setup(8000 + check_applicability, 5, check_applicability)
    for _ in range(2):
        for set_name in sorted(PROPERTY_SETS):
            properties = PROPERTY_SETS[set_name]()
            for decision in ((states[4], cwnd_tcp[4], cwnd_prev[4]), (states, cwnd_tcp, cwnd_prev)):
                assert_sets_bit_identical(verifier.certify(properties, *decision),
                                          fresh_certify(verifier, properties, *decision))
    assert len(verifier._plans) == len(PROPERTY_SETS)


def test_a_full_plan_cache_is_emptied_and_rebuilt():
    """Past ``_MAX_PLANS`` property sequences the cache starts over; a plan
    built again after that certifies like a fresh verifier."""
    verifier, states, cwnd_tcp, cwnd_prev = stack_setup(8050, 5, True)
    variants = [property_p1(q_min_delay=0.01 + 1e-4 * i) for i in range(_MAX_PLANS + 1)]
    for prop in variants:
        verifier.certify(prop, states, cwnd_tcp, cwnd_prev)
        assert 1 <= len(verifier._plans) <= _MAX_PLANS
    assert list(verifier._plans) == [(variants[-1],)]
    for prop in (variants[0], variants[-1]):
        assert_batches_bit_identical(verifier.certify(prop, states, cwnd_tcp, cwnd_prev),
                                     fresh_certify(verifier, prop, states, cwnd_tcp, cwnd_prev))
    assert len(verifier._plans) == 2


@pytest.mark.parametrize("n_components", (1, 5, 50))
@pytest.mark.parametrize("n_decisions", (1, 9))
def test_plan_holds_no_weights(n_decisions, n_components):
    """After an Adam step moves the actor in place, a verifier that already
    built its plan (and its IBP buffers) certifies the updated actor like a
    fresh verifier, at the training shape D = 1 as on a stack."""
    verifier, states, cwnd_tcp, cwnd_prev = stack_setup(8100 + n_components, n_components, False)
    decision = (states, cwnd_tcp, cwnd_prev) if n_decisions > 1 else (states[0], cwnd_tcp[0], cwnd_prev[0])
    properties = all_properties()
    before = verifier.certify(properties, *decision)
    actor = verifier.actor
    optimizer = Adam.for_model(actor, lr=0.05)
    actor.zero_grad()
    actor.forward(states)
    actor.backward(np.ones((len(states), 1)))
    optimizer.step()
    after = verifier.certify(properties, *decision)
    assert_sets_bit_identical(after, fresh_certify(verifier, properties, *decision))
    assert not np.array_equal(after["P1"].output_lo, before["P1"].output_lo)


@pytest.mark.parametrize("check_applicability", (False, True))
@pytest.mark.parametrize("n_components", (1, 5, 50))
def test_returned_certificates_keep_their_values_after_later_calls(n_components, check_applicability):
    """No array of a returned :class:`CertificateSet` is a buffer the plan
    keeps: every set keeps its values while the same verifier certifies
    other decisions with the same and the other property sets.  A set whose
    input bounds are first read after those calls (they are streamed
    through the plan's block buffers on demand) reads the same values."""
    verifier, states, cwnd_tcp, cwnd_prev = stack_setup(8400 + n_components, n_components, check_applicability)
    order = np.random.default_rng(8401).permutation(len(states))
    later_stack = (states[order] * 0.5, cwnd_tcp[order] + 1.0, cwnd_prev[order])
    decisions = [((states[4], cwnd_tcp[4], cwnd_prev[4]), tuple(array[0] for array in later_stack)),
                 ((states, cwnd_tcp, cwnd_prev), later_stack)]
    returned = []
    for set_name in sorted(PROPERTY_SETS):
        properties = PROPERTY_SETS[set_name]()
        for decision, later in decisions:
            got = verifier.certify(properties, *decision)
            expected = {name: {array: getattr(batch, array).copy() for array in BATCH_ARRAYS}
                        for name, batch in got.items()}
            returned.append((got, expected))
            returned.append((verifier.certify(properties, *decision), expected))  # read only at the end
            # The same shapes again, at once and after the other sets.
            verifier.certify(properties, *later)
    for set_name in sorted(PROPERTY_SETS):
        for _, later in decisions:
            verifier.certify(PROPERTY_SETS[set_name](), *later)
    for got, expected in returned:
        for name, batch in got.items():
            for array in BATCH_ARRAYS:
                assert np.array_equal(getattr(batch, array), expected[name][array], equal_nan=True), (name, array)


@pytest.mark.parametrize("set_name", sorted(PROPERTY_SETS))
def test_sampling_regions_are_the_round_tripped_regions(set_name):
    """``CertifyPlan.sampling_regions`` samples, bit for bit, the regions
    ``Box._trusted_bounds`` makes of ``RegionPlan.bounds``: what the trainer's
    regularization step sampled before the plan kept the constant columns."""
    verifier, states, _, _ = stack_setup(8500, 5, False)
    states[0, :4] = -0.0
    states[1] *= 1e-310
    plan = verifier.plan(PROPERTY_SETS[set_name]())
    draws = np.random.default_rng(8501).random((8, states.shape[1]))
    for state in states:
        for region, (lo, width) in zip(plan.regions, plan.sampling_regions(state)):
            box = Box._trusted_bounds(*region.bounds(state))
            expected = box.lo + draws * (box.hi - box.lo)
            np.testing.assert_array_equal((lo + draws * width).view(np.uint64), expected.view(np.uint64))


def test_repeat_certify_looks_up_no_feature_indices(monkeypatch):
    verifier, states, cwnd_tcp, cwnd_prev = stack_setup(8200, 5, True)
    properties = all_properties()
    verifier.certify(properties, states[0], cwnd_tcp[0], cwnd_prev[0])
    calls = []
    lookup = ObservationBuilder.feature_indices
    monkeypatch.setattr(ObservationBuilder, "feature_indices",
                        lambda self, *args, **kwargs: calls.append(args) or lookup(self, *args, **kwargs))
    verifier.certify(properties, states[1], cwnd_tcp[1], cwnd_prev[1])
    verifier.certify(properties, states, cwnd_tcp, cwnd_prev)
    verifier.certify(all_properties(), states, cwnd_tcp, cwnd_prev)  # equal specs, new objects
    assert calls == []
    verifier.certify(shallow_buffer_properties(), states, cwnd_tcp, cwnd_prev)
    assert calls  # a new property sequence builds its plan once
