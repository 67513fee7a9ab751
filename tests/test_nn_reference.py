"""The network forward, backward and the agent's action against plain numpy, as IEEE bytes.

The references restate each layer in its textbook form: ``x @ W.T + b``,
``max(x, 0)`` with the gradient masked by ``x > 0``, ``tanh`` with the
gradient scaled by ``1 - y²``, and the action ``np.clip(π(s) + noise, -m, m)``.
Inputs mix ordinary values with ``±0.0``, subnormals, ``±inf`` and NaN, so a
ReLU mask or a clip that treats a zero, a boundary or a NaN differently
shows up as a byte that differs.
"""

import numpy as np
import pytest

from repro.nn import make_actor, make_critic
from repro.nn.layers import Dense, ReLU, Sequential, Tanh
from repro.nn.mlp import MLP, MLPStack
from repro.rl.td3 import TD3Agent, TD3Config

SPECIAL = np.array([0.0, -0.0, 5e-324, -5e-324, 1e-310, np.inf, -np.inf, np.nan, 1.0, -1.0])


def inputs(rng, shape, special=True):
    """Normal draws with a share of the special values scattered in."""
    values = rng.normal(size=shape)
    if special:
        mask = rng.uniform(size=shape) < 0.3
        values[mask] = rng.choice(SPECIAL, size=int(mask.sum()))
    return values


def reference_forward(layers, x):
    """Per layer, the input it saw and its output."""
    trace = []
    for layer in layers:
        if isinstance(layer, Dense):
            out = x @ np.swapaxes(layer.weight, -1, -2) + layer.bias[..., None, :]
        elif isinstance(layer, ReLU):
            out = np.maximum(x, 0.0)
        elif isinstance(layer, Tanh):
            out = np.tanh(x)
        else:
            out = x
        trace.append((x, out))
        x = out
    return trace


def reference_backward(layers, trace, grad):
    """The input gradient and each Dense layer's ``(grad_weight, grad_bias)``."""
    dense_grads = []
    for layer, (x, out) in zip(reversed(layers), reversed(trace)):
        if isinstance(layer, Dense):
            dense_grads.append((np.swapaxes(grad, -1, -2) @ x, grad.sum(axis=-2)))
            grad = grad @ layer.weight
        elif isinstance(layer, ReLU):
            grad = grad * (x > 0)
        elif isinstance(layer, Tanh):
            grad = grad * (1.0 - out ** 2)
    return grad, dense_grads[::-1]


def assert_bytes(got, expected):
    got, expected = np.asarray(got), np.asarray(expected)
    assert got.shape == expected.shape and got.dtype == expected.dtype
    assert got.tobytes() == expected.tobytes()


NETWORKS = {
    "actor": lambda rng: make_actor(7, hidden_sizes=(16, 8), rng=rng),
    "tanh_hidden": lambda rng: MLP(7, (9, 5), 2, hidden_activation="tanh", output_activation="relu", rng=rng),
    "critic": lambda rng: make_critic(6, 1, hidden_sizes=(12, 6), rng=rng),
}


@pytest.mark.parametrize("name", sorted(NETWORKS))
@pytest.mark.parametrize("seed", range(3))
@pytest.mark.parametrize("special", (False, True))
def test_forward_and_backward_match_plain_numpy(name, seed, special):
    rng = np.random.default_rng(seed)
    network = NETWORKS[name](rng)
    for param in network.parameters():
        param[rng.uniform(size=param.shape) < 0.2] = -0.0
    for batch in (1, 5):
        x = inputs(rng, (batch, network.in_features), special)
        grad = inputs(rng, (batch, network.out_features), special)
        with np.errstate(all="ignore"):
            trace = reference_forward(network.layers, x)
            assert_bytes(network.forward(x), trace[-1][1])
            expected_input_grad, expected_dense = reference_backward(network.layers, trace, grad)
            network.zero_grad()
            assert_bytes(network.backward(grad), expected_input_grad)
        for layer, (grad_weight, grad_bias) in zip([layer for layer in network.layers if isinstance(layer, Dense)],
                                                   expected_dense):
            assert_bytes(layer.grad_weight, grad_weight + 0.0)
            assert_bytes(layer.grad_bias, grad_bias + 0.0)


def test_stacked_critics_match_plain_numpy():
    rng = np.random.default_rng(7)
    stack = MLPStack([make_critic(6, 1, hidden_sizes=(12, 6), rng=rng) for _ in range(2)])
    x = inputs(rng, (4, 7))
    grad = inputs(rng, (2, 4, 1))
    with np.errstate(all="ignore"):
        trace = reference_forward(stack.layers, x)
        assert_bytes(stack.forward(x), trace[-1][1])
        stack.zero_grad()
        assert_bytes(stack.backward(grad), reference_backward(stack.layers, trace, grad)[0])


BACKWARD_NETWORKS = {
    "actor": (lambda rng: make_actor(7, hidden_sizes=(16, 8), rng=rng), (5, 1)),
    "critic": (lambda rng: make_critic(6, 1, hidden_sizes=(12, 6), rng=rng), (5, 1)),
    "critic_pair": (lambda rng: MLPStack([make_critic(6, 1, hidden_sizes=(12, 6), rng=rng) for _ in range(2)]),
                    (2, 5, 1)),
}


@pytest.mark.parametrize("name", sorted(BACKWARD_NETWORKS))
@pytest.mark.parametrize("special", (False, True))
def test_backward_flags_keep_the_full_backward_bytes(name, special):
    """``param_grads=False`` returns the full backward's input gradient and
    leaves ``flat_grads`` as it was; ``input_grad=False`` returns ``None``
    and accumulates the full backward's parameter gradients."""
    rng = np.random.default_rng(17)
    build, grad_shape = BACKWARD_NETWORKS[name]
    network = build(rng)
    x = inputs(rng, (5, network.layers[0].in_features), special)
    grad = inputs(rng, grad_shape, special)
    before = inputs(rng, network.flat_grads.shape, special)
    with np.errstate(all="ignore"):
        network.forward(x)
        network.flat_grads[...] = before
        expected_input_grad = network.backward(grad)
        expected_grads = network.flat_grads.copy()

        network.flat_grads[...] = before
        assert_bytes(network.backward(grad, param_grads=False), expected_input_grad)
        assert_bytes(network.flat_grads, before)

        network.flat_grads[...] = before
        assert network.backward(grad, input_grad=False) is None
        assert_bytes(network.flat_grads, expected_grads)

        assert network.backward(grad, param_grads=False, input_grad=False) is None
        assert_bytes(network.flat_grads, expected_grads)


@pytest.mark.parametrize("values", ([0.0, -0.0, 2.0, -3.0], [5e-324, -5e-324, np.nan, -np.inf],
                                    [np.inf, -1e-310, 1e-310, 0.0]))
def test_relu_backward_masks_exactly_the_positive_inputs(values):
    relu = ReLU()
    x = np.array([values, values[::-1]])
    grad = np.array([[1.0, -2.0, 3.0, np.inf], [np.nan, 0.5, -0.0, 7.0]])
    with np.errstate(all="ignore"):
        assert_bytes(relu.forward(x), np.maximum(x, 0.0))
        assert_bytes(relu.backward(grad), grad * (x > 0))


def test_relu_backward_before_forward_raises():
    with pytest.raises(RuntimeError, match="before forward"):
        ReLU().backward(np.ones((1, 2)))


def test_sequential_forward_takes_lists_and_lone_samples():
    rng = np.random.default_rng(3)
    model = Sequential([Dense(3, 4, rng=rng), ReLU(), Dense(4, 2, rng=rng), Tanh()])
    sample = [0.5, -1.0, 2.0]
    expected = reference_forward(model.layers, np.array([sample]))[-1][1]
    assert_bytes(model.forward(sample), expected)
    assert_bytes(model.forward(np.array(sample)), expected)
    assert_bytes(model.forward(np.array([sample], dtype=np.float32)),
                 reference_forward(model.layers, np.array([sample], dtype=np.float32).astype(np.float64))[-1][1])


@pytest.mark.parametrize("max_action", (1.0, 0.25))
@pytest.mark.parametrize("explore", (False, True))
@pytest.mark.parametrize("special", (False, True))
def test_act_matches_a_clipped_plain_forward(max_action, explore, special):
    config = TD3Config(state_dim=7, hidden_sizes=(16, 8), seed=5, max_action=max_action,
                       exploration_sigma=0.8)
    agent, twin = TD3Agent(config), TD3Agent(config)
    for member in (agent, twin):
        member.actor.layers[-2].weight *= 400.0  # saturate the tanh head
        if special:
            member.actor.layers[-2].weight[:, ::2] = -0.0  # -0.0 actions from zero inputs
            member.actor.layers[-2].bias[...] = -0.0
    rng = np.random.default_rng(11)
    clipped = 0
    for _ in range(60):
        state = inputs(rng, 7, special=special) * 3.0
        with np.errstate(all="ignore"):
            raw = reference_forward(twin.actor.layers, state.reshape(1, -1))[-1][1][0]
            if explore:
                raw = raw + twin.exploration_noise.sample()
            expected = np.clip(raw, -max_action, max_action)
            action = agent.act(state, explore=explore)
        clipped += int(np.any(expected != raw))
        assert_bytes(action, expected)
        assert action.base is None or not np.shares_memory(action, agent.actor.layers[-1]._output)
    # A tanh head never leaves [-1, 1]: only noise or a smaller bound clips
    # (a NaN action, which compares unequal to itself, counts as clipped).
    assert (clipped > 0) == (explore or max_action < 1.0 or special)
