"""The warm certify path: one cached verifier per model and N, component
blocks streamed through the verifier's buffers, input bounds on demand.

A warm verifier (plans, block buffers and IBP buffers built by earlier
calls) must certify bit for bit like a fresh one, whatever ran before it,
and a certify must not build the ``(P·D, N, d)`` component stack.
"""

import dataclasses
import pickle
import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest

from repro.core.config import CanopyConfig
from repro.core.properties import (
    deep_buffer_properties,
    property_p1,
    property_p3,
    robustness_properties,
    shallow_buffer_properties,
)
from repro.core.verifier import BLOCK_ROWS, Verifier, VerifierConfig
from repro.harness.checkpoints import SavedModel
from repro.harness.models import TrainedModel
from repro.nn import make_actor
from repro.orca.observations import ObservationConfig

#: Every array of a batch, the input bounds (derived on demand) included.
BATCH_ARRAYS = ("input_lo", "input_hi", "output_lo", "output_hi", "satisfied",
                "component_feedback", "feedback", "applicable_mask")

#: Two property families and a P5 set, whose noise columns follow the state.
FAMILIES = {"shallow": shallow_buffer_properties, "deep": deep_buffer_properties,
            "robustness": robustness_properties}


def saved_model(seed):
    actor = make_actor(ObservationConfig().state_dim, rng=np.random.default_rng(seed))
    return SavedModel("canopy-shallow", actor, ObservationConfig(), shallow_buffer_properties(), {})


def trained_model(seed):
    actor = make_actor(ObservationConfig().state_dim, rng=np.random.default_rng(seed))
    training = SimpleNamespace(agent=SimpleNamespace(actor=actor))
    return TrainedModel("canopy-shallow", CanopyConfig.shallow(seed=seed), training)


MODELS = {"saved": saved_model, "trained": trained_model}


def decisions(seed, n_decisions, state_dim):
    """States whose Δcwnd histories fall, rise or mix, so gating keeps some rows."""
    rng = np.random.default_rng(seed)
    states = rng.uniform(0.0, 1.0, (n_decisions, state_dim))
    dcwnd = Verifier(None).observer.feature_indices("dcwnd")
    states[:, dcwnd] = rng.uniform(-1.0, 1.0, (n_decisions, len(dcwnd)))
    states[::3, dcwnd] = -np.abs(states[::3, dcwnd])
    states[1::3, dcwnd] = np.abs(states[1::3, dcwnd])
    return states, rng.uniform(5.0, 200.0, n_decisions), rng.uniform(5.0, 200.0, n_decisions)


def assert_ieee_identical(got, expected):
    """Every array of two certificate sets has the same shape and the same bytes."""
    assert list(got) == list(expected)
    for name in expected:
        for array in BATCH_ARRAYS:
            got_array, expected_array = getattr(got[name], array), getattr(expected[name], array)
            assert got_array.shape == expected_array.shape, (name, array)
            assert got_array.dtype == expected_array.dtype, (name, array)
            assert got_array.tobytes() == expected_array.tobytes(), (name, array)


@pytest.mark.parametrize("model_type", sorted(MODELS))
def test_make_verifier_is_one_verifier_per_component_count(model_type):
    model = MODELS[model_type](1)
    verifier = model.make_verifier(50)
    assert model.make_verifier(50) is verifier and model.make_verifier() is verifier
    assert model.make_verifier(4) is not verifier
    assert model.make_verifier(4).config == VerifierConfig(n_components=4)
    assert verifier.actor is model.actor


def test_make_verifier_follows_a_rebound_actor():
    model = saved_model(2)
    stale = model.make_verifier(4)
    model.actor = make_actor(ObservationConfig().state_dim, rng=np.random.default_rng(3))
    assert model.make_verifier(4) is not stale
    assert model.make_verifier(4).actor is model.actor


def test_make_verifier_follows_a_rebound_observation_config():
    model = saved_model(2)
    stale = model.make_verifier(4)
    model.observation_config = ObservationConfig(history_len=2)
    model.actor = make_actor(model.observation_config.state_dim, rng=np.random.default_rng(3))
    fresh = model.make_verifier(4)
    assert fresh is not stale and fresh.observer.state_dim == model.observation_config.state_dim
    # An equal but distinct config is a rebinding too: the cache compares identity.
    model.observation_config = ObservationConfig(history_len=2)
    assert model.make_verifier(4) is not fresh
    assert model.make_verifier(4) is model.make_verifier(4)


def test_the_verifier_cache_is_in_no_pickle_repr_or_equality():
    model = saved_model(4)
    twin = saved_model(4)
    text = repr(model)
    model.make_verifier(4).certify(model.properties, *decisions(5, 3, model.observation_config.state_dim))
    assert repr(model) == text and "Verifier" not in text
    copy = pickle.loads(pickle.dumps(model))
    assert "_verifiers" not in copy.__dict__ and "_verifiers" in model.__dict__
    assert copy.make_verifier(4) is not model.make_verifier(4)
    assert copy.make_verifier(4).actor is copy.actor
    twin.actor = model.actor
    assert twin == model


@pytest.mark.parametrize("model_type", sorted(MODELS))
def test_warm_verifiers_match_fresh_verifiers_bit_for_bit(model_type):
    """Calls interleaved over two families and a P5 set, N in {4, 50}, D in
    {1, 9, 50}, gating off (the model's verifier) and on, with the weights
    moved in place between rounds, give the IEEE bytes a fresh verifier
    gives.  At N = 50 a block holds 10 decisions, so at D = 9 the second
    property's rows start inside the first block."""
    model = MODELS[model_type](6)
    state_dim = model.observation_config.state_dim
    gated = {n: Verifier(model.actor, model.observation_config, VerifierConfig(n, check_applicability=True))
             for n in (4, 50)}
    assert model.make_verifier(50)._buffers.rows == 10
    for round_index in range(2):
        for n in (4, 50):
            for n_decisions in (1, 9, 50):
                decision = decisions(100 * round_index + n_decisions, n_decisions, state_dim)
                if n_decisions == 1:
                    decision = tuple(array[0] for array in decision)
                for family in sorted(FAMILIES):
                    properties = FAMILIES[family]()
                    for warm in (model.make_verifier(n), gated[n]):
                        fresh = Verifier(model.actor, model.observation_config, warm.config)
                        assert_ieee_identical(warm.certify(properties, *decision),
                                              fresh.certify(properties, *decision))
        model.actor.flat_params *= 1.25
        model.actor.flat_params += 0.01


def test_a_warm_post_run_certify_builds_no_component_stack():
    """A warm post-run certify of D = 50 decisions, P = 2 properties and
    N = 50 components peaks below one ``(P·D, N, d)`` float64 stack."""
    model = saved_model(7)
    properties = shallow_buffer_properties()
    state_dim = model.observation_config.state_dim
    stack_bytes = len(properties) * 50 * 50 * state_dim * 8
    model.make_verifier(50).certify(properties, *decisions(8, 50, state_dim))
    decision = decisions(9, 50, state_dim)
    tracemalloc.start()
    try:
        baseline = tracemalloc.get_traced_memory()[0]
        certificates = model.make_verifier(50).certify(properties, *decision)
        peak = tracemalloc.get_traced_memory()[1] - baseline
    finally:
        tracemalloc.stop()
    assert certificates["P1"].output_lo.shape == (50, 50)
    assert peak < stack_bytes, (peak, stack_bytes)


def test_duplicate_property_names_are_rejected_before_any_work():
    verifier = saved_model(10).make_verifier(5)
    state = decisions(11, 1, verifier.observer.state_dim)[0][0]
    properties = [property_p1(), dataclasses.replace(property_p3(), name="P1")]
    with pytest.raises(ValueError, match="'P1'"):
        verifier.certify(properties, state, 20.0, 10.0)
    assert not verifier._plans


@pytest.mark.parametrize("n_components", (50, 5))
@pytest.mark.parametrize("blocks", ((0, 1), (1, -1), (1, 0), (1, 1), (3, 2)))
def test_block_edges_match_per_decision(n_components, blocks):
    """D = blocks[0] * block + blocks[1] decisions of one property: one
    decision, one short of a block, a block, one over, and three blocks plus
    a partial one.  Each decision's certificate is the one a fresh verifier
    gives it alone (one block of one decision), as IEEE bytes."""
    block = BLOCK_ROWS // n_components
    n_decisions = blocks[0] * block + blocks[1]
    model = saved_model(n_decisions * n_components)
    properties = [property_p1()]
    verifier = model.make_verifier(n_components)
    states, tcp, prev = decisions(n_decisions, n_decisions, model.observation_config.state_dim)
    certificates = verifier.certify(properties, states, tcp, prev)
    for index in range(n_decisions):
        alone = Verifier(model.actor, model.observation_config, verifier.config).certify(
            properties, states[index], tcp[index], prev[index])
        for array in BATCH_ARRAYS:
            got, expected = getattr(certificates["P1"], array)[index], getattr(alone["P1"], array)[0]
            assert got.tobytes() == expected.tobytes(), (index, array)


def test_one_set_of_block_buffers_serves_every_plan():
    """Certifying a second property family on a warm verifier allocates no
    block or IBP arrays: the verifier's one set serves both plans."""
    model = saved_model(12)
    verifier = model.make_verifier(50)
    decision = decisions(13, 50, model.observation_config.state_dim)
    verifier.certify(shallow_buffer_properties(), *decision)
    arrays, outputs = verifier._buffers._arrays, verifier._buffers.ibp._outputs
    verifier.certify(deep_buffer_properties(), *decision)
    verifier.certify(shallow_buffer_properties(), *decision)
    assert len(verifier._plans) == 2
    assert verifier._buffers._arrays is arrays and verifier._buffers.ibp._outputs is outputs
