"""The IBP kernel against a verbatim copy of its earlier form, as IEEE bytes.

``_legacy_run_plan`` below is the kernel as it was when every affine and
ReLU step still clamped its deviation at zero (and the step list and
buffers it ran on, built the way ``IBPBuffers.plan`` built them then).
Hypothesis draws networks with ``-0.0``, zero and subnormal weights and
ReLU or tanh hidden layers, and boxes built with ``Box._trusted`` whose
centres and deviations hold ``±0.0``, subnormals, ``±inf`` and NaN; the
kernel must give the copy's bytes on every one of them.
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from repro.abstract import propagate
from repro.abstract.box import Box
from repro.abstract.propagate import IBPBuffers, propagate_mlp_batched
from repro.nn.layers import Dense, Identity, ReLU, Sequential, Tanh

SPECIAL = (0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, -1e-310, np.inf, -np.inf, np.nan, 1.0, -1.0)

#: Box entries: the special values above mixed with ordinary ones.
VALUES = st.one_of(st.sampled_from(SPECIAL), st.floats(-4.0, 4.0))

#: Weight entries: signed zeros and subnormals, no inf or NaN.
WEIGHTS = st.one_of(st.sampled_from((0.0, -0.0, 5e-324, -5e-324, 1e-310)), st.floats(-2.0, 2.0))


def _legacy_relu(values):
    np.maximum(values, 0.0, out=values)


def _legacy_tanh(values):
    np.tanh(values, out=values)


def _legacy_plan(layers, shape, tanh=_legacy_tanh):
    """The steps and one-box output buffers of the earlier ``IBPBuffers.plan``."""
    steps, outputs = [], []
    leading, width = shape[:-1], shape[-1]
    for layer in _inlined(layers):
        if isinstance(layer, Dense):
            weight = np.asarray(layer.weight, dtype=np.float64)
            bias = np.asarray(layer.bias, dtype=np.float64)
            steps.append((weight.T, np.abs(weight, out=np.empty(weight.shape)).T, bias))
            width = weight.shape[0]
            outputs.append((np.empty(leading + (width,)), np.empty(leading + (width,))))
        elif isinstance(layer, (ReLU, Tanh)):
            steps.append(_legacy_relu if isinstance(layer, ReLU) else tanh)
            outputs.append(np.empty(leading + (width,)))
    return steps, outputs


def _inlined(layers):
    for layer in layers:
        if isinstance(layer, Sequential):
            yield from _inlined(layer.layers)
        elif not isinstance(layer, Identity):
            yield layer


def _legacy_run_plan(steps, center, deviation, buffers):
    # Verbatim: the kernel before the dead clamps were dropped.
    rows = center.shape[0]
    if steps and not isinstance(steps[0], tuple):
        center, deviation = center.copy(), deviation.copy()
    for step, step_buffers in zip(steps, buffers):
        if isinstance(step, tuple):
            weight_t, abs_weight_t, bias = step
            center_out, deviation_out = step_buffers
            center = np.matmul(center, weight_t, out=center_out[:rows])
            center += bias
            deviation = np.matmul(deviation, abs_weight_t, out=deviation_out[:rows])
            np.maximum(deviation, 0.0, out=deviation)
        else:
            upper = np.add(center, deviation, out=step_buffers[:rows])
            lower = np.subtract(center, deviation, out=deviation)
            step(upper)
            step(lower)
            np.add(upper, lower, out=center)
            center *= 0.5
            deviation = np.subtract(upper, lower, out=upper)
            deviation *= 0.5
            np.maximum(deviation, 0.0, out=deviation)
    return center, deviation


def legacy_propagate(model, box, tanh=_legacy_tanh):
    steps, outputs = _legacy_plan(model.layers, box.center.shape, tanh)
    return Box._trusted(*_legacy_run_plan(steps, box.center, box.deviation, outputs))


@st.composite
def networks(draw):
    """A Sequential of Dense layers with ReLU/tanh hidden layers, maybe an
    activation on the input, and a tanh, ReLU or linear head."""
    widths = [draw(st.integers(1, 4))] + draw(st.lists(st.integers(1, 6), min_size=1, max_size=3))
    layers = []
    if draw(st.booleans()):
        layers.append(draw(st.sampled_from((ReLU, Tanh)))())
    for index, (fan_in, fan_out) in enumerate(zip(widths, widths[1:])):
        dense = Dense(fan_in, fan_out, rng=np.random.default_rng(0))
        dense.weight = draw(arrays(np.float64, (fan_out, fan_in), elements=WEIGHTS))
        dense.bias = draw(arrays(np.float64, (fan_out,), elements=WEIGHTS))
        layers.append(dense)
        last = index == len(widths) - 2
        layers.append(draw(st.sampled_from((Tanh, ReLU, Identity) if last else (ReLU, Tanh)))())
    return Sequential(layers), widths[0]


@st.composite
def boxes(draw, width):
    shape = draw(st.sampled_from(((1,), (2,), (3,)))) + (draw(st.integers(1, 4)), width)
    if draw(st.booleans()):
        shape = shape[1:]
    center = draw(arrays(np.float64, shape, elements=VALUES))
    deviation = draw(arrays(np.float64, shape, elements=VALUES))
    if draw(st.booleans()):
        deviation[...] = 0.0
    return Box._trusted(center, deviation)


def assert_same_bytes(got, expected):
    for name in ("center", "deviation"):
        got_array, expected_array = getattr(got, name), getattr(expected, name)
        assert got_array.shape == expected_array.shape, name
        assert got_array.dtype == expected_array.dtype, name
        assert got_array.tobytes() == expected_array.tobytes(), name


@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(data=st.data())
def test_kernel_matches_the_legacy_kernel_bytewise(data):
    model, width = data.draw(networks())
    box = data.draw(boxes(width))
    center, deviation = box.center.copy(), box.deviation.copy()
    with np.errstate(all="ignore"):
        expected = legacy_propagate(model, box)
        assert_same_bytes(propagate_mlp_batched(model, box), expected)
        buffers = IBPBuffers()
        for _ in range(2):  # fresh and then warm buffers
            assert_same_bytes(propagate_mlp_batched(model, box, buffers), expected)
    assert box.center.tobytes() == center.tobytes() and box.deviation.tobytes() == deviation.tobytes()


def _decreasing_tanh(values):
    """A stand-in for a tanh whose images of ``c + d`` and ``c - d`` come out
    in the wrong order, as a libm ``tanh`` that is not monotone may give."""
    np.tanh(values, out=values)
    np.negative(values, out=values)


@pytest.mark.parametrize("seed", range(4))
def test_the_tanh_step_clamps_an_out_of_order_image(monkeypatch, seed):
    rng = np.random.default_rng(seed)
    model = Sequential([Dense(3, 5, rng=rng), Tanh(), Dense(5, 2, rng=rng), Tanh()])
    box = Box._trusted(rng.normal(size=(2, 4, 3)), rng.uniform(0.0, 1.0, (2, 4, 3)))
    expected = legacy_propagate(model, box, tanh=_decreasing_tanh)
    monkeypatch.setattr(propagate, "_tanh_inplace", _decreasing_tanh)
    got = propagate_mlp_batched(model, box)
    assert_same_bytes(got, expected)
    assert (got.deviation == 0.0).all()


@settings(max_examples=200, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(data=st.data())
def test_a_shared_first_layer_deviation_matches_each_slice_alone(data):
    """A box whose decisions share their ``(N, d)`` deviation rows, with the
    first-layer product handed in, gives each decision the bytes that
    decision's own ``(N, d)`` box gives."""
    model, width = data.draw(networks())
    if not isinstance(model.layers[0], Dense):
        model = Sequential(model.layers[1:])
    box = data.draw(boxes(width))
    stack = box if box.ndim == 3 else Box._trusted(box.center[None], box.deviation[None])
    shared = stack.deviation[0]
    center = np.array(stack.center)
    with np.errstate(all="ignore"):
        first = propagate.first_layer_deviation(model, shared)
        broadcast = Box._trusted(center, np.broadcast_to(shared, center.shape))
        got = propagate_mlp_batched(model, broadcast, IBPBuffers(), first)
        for row in range(center.shape[0]):
            alone = propagate_mlp_batched(model, Box._trusted(center[row], shared))
            assert_same_bytes(Box._trusted(got.center[row], got.deviation[row]), alone)


@pytest.mark.parametrize("n_decisions", (1, 2, 10))
@pytest.mark.parametrize("n_components", (1, 50))
def test_a_shared_first_layer_deviation_at_the_actor_sizes(n_decisions, n_components):
    from repro.nn import make_actor

    rng = np.random.default_rng(n_decisions + 100 * n_components)
    actor = make_actor(21, hidden_sizes=(64, 32), rng=rng)
    shared = rng.uniform(0.0, 0.3, (n_components, 21))
    shared[:, rng.uniform(size=21) < 0.5] = 0.0  # dimensions a property keeps at their state value
    center = rng.normal(size=(n_decisions, n_components, 21))
    buffers = IBPBuffers()
    got = propagate_mlp_batched(actor, Box._trusted(center, np.broadcast_to(shared, center.shape)), buffers,
                                propagate.first_layer_deviation(actor, shared))
    for row in range(n_decisions):
        alone = propagate_mlp_batched(actor, Box._trusted(center[row], shared))
        assert np.array_equal(got.center[row], alone.center)
        assert np.array_equal(got.deviation[row], alone.deviation)


def test_a_shared_first_layer_deviation_needs_an_affine_first_layer():
    model = Sequential([ReLU(), Dense(3, 2, rng=np.random.default_rng(0))])
    box = Box._trusted(np.zeros((2, 4, 3)), np.ones((2, 4, 3)))
    assert propagate.first_layer_deviation(model, np.ones((4, 3))) is None
    with pytest.raises(ValueError, match="affine"):
        propagate_mlp_batched(model, box, None, np.ones((4, 2)))
