"""IBP soundness fuzz tests for the batched certification engine.

Soundness condition: for every concrete state inside a certified input
component, the concretely computed checked action (Δcwnd for the direction
properties, the fractional cwnd change for robustness) must lie inside that
component's certified ``[output_lo, output_hi]`` interval.

``cwnd_tcp`` is drawn from [10, 100] so the concrete cwnd map's MIN_CWND
clamp (``max(MIN_CWND, 2^(2a)·cwnd_tcp)`` with a >= -1) can never bind —
inside that regime the concrete map coincides exactly with the abstract
transformer the verifier uses.
"""

import numpy as np
import pytest

from repro.core.properties import (
    property_p1,
    property_p2,
    property_p3,
    property_p4_case_i,
    property_p4_case_ii,
    property_p5,
)
from repro.core.verifier import Verifier, VerifierConfig
from repro.nn import make_actor
from repro.orca.agent import cwnd_from_action
from repro.orca.observations import ObservationConfig

N_SEEDS = 12
POINTS_PER_COMPONENT = 8
TOL = 1e-6

DELTA_PROPERTIES = (
    property_p1,
    property_p2,
    property_p3,
    property_p4_case_i,
    property_p4_case_ii,
)


def random_verifier(seed, n_components):
    rng = np.random.default_rng(seed)
    obs_config = ObservationConfig()
    hidden_sizes = tuple(int(rng.integers(4, 25)) for _ in range(int(rng.integers(1, 3))))
    actor = make_actor(obs_config.state_dim, hidden_sizes=hidden_sizes, rng=rng)
    verifier = Verifier(actor, obs_config, VerifierConfig(n_components=n_components))
    state = rng.uniform(0.0, 1.0, obs_config.state_dim)
    cwnd_tcp = float(rng.uniform(10.0, 100.0))
    cwnd_prev = float(rng.uniform(10.0, 100.0))
    return rng, verifier, actor, state, cwnd_tcp, cwnd_prev


def components(certificate):
    """``(input_lo, input_hi, output_lo, output_hi)`` of each component of a one-decision certificate."""
    return zip(certificate.input_lo[0], certificate.input_hi[0], certificate.output_lo[0], certificate.output_hi[0])


def sample_points(rng, input_lo, input_hi, n_points):
    span = input_hi - input_lo
    return [input_lo + rng.random(span.shape[0]) * span for _ in range(n_points)]


def concrete_cwnd(actor, point, cwnd_tcp):
    action = float(actor.forward(point.reshape(1, -1))[0, 0])
    return cwnd_from_action(action, cwnd_tcp)


@pytest.mark.parametrize("seed", range(N_SEEDS))
def test_delta_cwnd_soundness(seed):
    """Concrete Δcwnd stays inside the certified interval (P1-P4)."""
    rng, verifier, actor, state, cwnd_tcp, cwnd_prev = random_verifier(seed, n_components=5)
    prop = DELTA_PROPERTIES[seed % len(DELTA_PROPERTIES)]()
    certificate = verifier.certify(prop, state, cwnd_tcp, cwnd_prev)
    for input_lo, input_hi, output_lo, output_hi in components(certificate):
        for point in sample_points(rng, input_lo, input_hi, POINTS_PER_COMPONENT):
            delta = concrete_cwnd(actor, point, cwnd_tcp) - cwnd_prev
            assert output_lo - TOL <= delta <= output_hi + TOL


@pytest.mark.parametrize("seed", range(N_SEEDS))
def test_cwnd_change_fraction_soundness(seed):
    """Concrete fractional cwnd change stays inside the certified interval (P5)."""
    rng, verifier, actor, state, cwnd_tcp, cwnd_prev = random_verifier(seed + 500, n_components=5)
    prop = property_p5(mu=0.05, epsilon=0.01)
    certificate = verifier.certify(prop, state, cwnd_tcp, cwnd_prev)
    cwnd_reference = verifier.concrete_cwnd(state, cwnd_tcp)
    for input_lo, input_hi, output_lo, output_hi in components(certificate):
        for point in sample_points(rng, input_lo, input_hi, POINTS_PER_COMPONENT):
            fraction = (concrete_cwnd(actor, point, cwnd_tcp) - cwnd_reference) / cwnd_reference
            assert output_lo - TOL <= fraction <= output_hi + TOL


@pytest.mark.parametrize("seed", range(4))
def test_component_endpoints_are_sound(seed):
    """The component corners themselves (worst cases for IBP) stay inside."""
    _rng, verifier, actor, state, cwnd_tcp, cwnd_prev = random_verifier(seed + 900, n_components=3)
    prop = property_p1()
    certificate = verifier.certify(prop, state, cwnd_tcp, cwnd_prev)
    for input_lo, input_hi, output_lo, output_hi in components(certificate):
        for point in (input_lo, input_hi):
            delta = concrete_cwnd(actor, point, cwnd_tcp) - cwnd_prev
            assert output_lo - TOL <= delta <= output_hi + TOL
