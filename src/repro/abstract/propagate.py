"""Interval bound propagation (IBP) through numpy neural networks.

Canopy wraps its controller with composable per-layer abstractions (Sonnet in
the paper's prototype) and pushes an abstract input box through the network.
Here we do the same for the :mod:`repro.nn` layer set: each concrete layer has
a sound abstract counterpart from :mod:`repro.abstract.transformers`, and
:func:`propagate_sequential` chains them.

The output box over-approximates the set of actions the controller can emit
for any concrete input in the box — the object ``a# = π#(s#)`` of
Section 4.3.1.

Every propagation function also accepts *batched* boxes (``lo``/``hi`` of
shape ``(N, d)``, or a stack ``(D, N, d)``; see :mod:`repro.abstract.box`):
the affine transformer contracts the trailing feature axis and the
element-wise transformers apply per element, so all component boxes move
through the network in a single numpy call per layer.

:func:`propagate_mlp_batched` is the entry point used by the batched
verifier.  It does not go through the per-layer :class:`Box` transformers:
it flattens the model into a plan of ``(W.T, |W|.T, b)`` affine steps and
element-wise activations once per call, then runs that plan over blocks of
about :data:`BLOCK_ROWS` component rows on bare centre/deviation arrays,
reusing their buffers in place.  Every step repeats the transformer's
arithmetic operation for operation, so the output is bit-identical to
:func:`propagate_sequential` on each ``(N, d)`` slice, while the
temporaries stay cache-sized whatever the number of decisions.
"""

from __future__ import annotations

from typing import Iterable

import numpy as np

from repro.abstract.box import Box
from repro.abstract import transformers

__all__ = ["propagate_layer", "propagate_sequential", "propagate_mlp", "propagate_mlp_batched"]

#: Component rows per block of :func:`propagate_mlp_batched`: a ``(D, N, d)``
#: stack runs in blocks of ``max(1, BLOCK_ROWS // N)`` decisions, so each
#: layer's temporaries stay a few hundred kB instead of growing with ``D``.
BLOCK_ROWS = 512


def propagate_layer(layer, box: Box) -> Box:
    """Push an abstract box through a single :mod:`repro.nn` layer."""
    # Imported lazily to avoid an import cycle at package-init time.
    from repro.nn.layers import Dense, Identity, ReLU, Sequential, Tanh

    if isinstance(layer, Dense):
        return transformers.affine(box, layer.weight, layer.bias)
    if isinstance(layer, ReLU):
        return transformers.relu(box)
    if isinstance(layer, Tanh):
        return transformers.tanh(box)
    if isinstance(layer, Identity):
        return box
    if isinstance(layer, Sequential):
        return propagate_sequential(layer.layers, box)
    raise TypeError(f"no abstract transformer registered for layer type {type(layer).__name__}")


def propagate_sequential(layers: Iterable, box: Box) -> Box:
    """Push an abstract box through a sequence of layers in order."""
    current = box
    for layer in layers:
        current = propagate_layer(layer, current)
    return current


def propagate_mlp(model, box: Box) -> Box:
    """Push an abstract box through an :class:`repro.nn.mlp.MLP` (or Sequential).

    The input box dimensionality must match the model's input features.
    """
    in_features = getattr(model, "in_features", None)
    if in_features is not None and box.center.shape[-1] != in_features:
        raise ValueError(
            f"input box has {box.center.shape[-1]} dims but model expects {in_features}"
        )
    return propagate_sequential(model.layers, box)


def _ibp_plan(layers: Iterable) -> list:
    """Flatten ``layers`` into IBP steps: ``(W.T, |W|.T, b)`` for a Dense
    layer, ``np.maximum``-against-zero for ReLU and ``np.tanh`` for Tanh.

    Nested Sequentials are inlined and Identity layers dropped.  The weights
    are read afresh on every call: training updates them in place.
    """
    from repro.nn.layers import Dense, Identity, ReLU, Sequential, Tanh

    steps = []
    for layer in layers:
        if isinstance(layer, Dense):
            weight = np.asarray(layer.weight, dtype=np.float64)
            steps.append((weight.T, np.abs(weight).T, np.asarray(layer.bias, dtype=np.float64)))
        elif isinstance(layer, ReLU):
            steps.append(_relu_inplace)
        elif isinstance(layer, Tanh):
            steps.append(_tanh_inplace)
        elif isinstance(layer, Sequential):
            steps.extend(_ibp_plan(layer.layers))
        elif not isinstance(layer, Identity):
            raise TypeError(f"no abstract transformer registered for layer type {type(layer).__name__}")
    return steps


def _relu_inplace(values: np.ndarray) -> None:
    np.maximum(values, 0.0, out=values)


def _tanh_inplace(values: np.ndarray) -> None:
    np.tanh(values, out=values)


def _run_plan(steps: list, center: np.ndarray, deviation: np.ndarray, buffers: list) -> tuple:
    """One block through the plan, writing only into ``buffers``.

    ``buffers[i]`` holds step ``i``'s preallocated outputs (see
    :func:`_plan_buffers`), sliced to the block's decisions.  An affine step
    is :meth:`Box.affine` (``c @ W.T + b``, ``d @ |W|.T``, clamped at zero);
    an activation is the midpoint/half-width of its images of ``c + d`` and
    ``c - d``, as in :meth:`Box.relu` (``* 0.5`` rounds exactly like
    ``/ 2.0``), computed over the arrays of the step before it.
    """
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


def _plan_buffers(steps: list, shape: tuple) -> list:
    """Per-step output arrays for a block of shape ``shape = (..., width)``."""
    leading, width = shape[:-1], shape[-1]
    buffers = []
    for step in steps:
        if isinstance(step, tuple):
            width = step[0].shape[1]
            buffers.append((np.empty(leading + (width,)), np.empty(leading + (width,))))
        else:
            buffers.append(np.empty(leading + (width,)))
    return buffers


def propagate_mlp_batched(model, box: Box) -> Box:
    """Push a batched box of shape ``(N, d)`` or ``(D, N, d)`` through an MLP in one pass.

    The result has shape ``(N, out_features)`` (or ``(D, N, out_features)``).
    Row ``i`` equals ``propagate_mlp(model, box.unstack()[i])`` up to
    floating-point associativity (the differential test suite pins them to
    within 1e-12).  Slice ``j`` of a ``(D, N, d)`` stack is exactly — bit for
    bit — the result of propagating that ``(N, d)`` slice alone: every affine
    layer runs the same ``(N, d) @ W.T`` gemm per slice, and every other step
    is element-wise.  A stack runs in blocks of ``max(1, BLOCK_ROWS // N)``
    decisions through one set of per-step buffers.
    """
    if box.ndim not in (2, 3):
        raise ValueError(f"batched propagation expects lo/hi of shape (N, d) or (D, N, d), got ndim={box.ndim}")
    in_features = getattr(model, "in_features", None)
    if in_features is not None and box.center.shape[-1] != in_features:
        raise ValueError(
            f"input box has {box.center.shape[-1]} dims but model expects {in_features}"
        )
    steps = _ibp_plan(model.layers)
    center, deviation = box.center, box.deviation
    n_rows = center.shape[-2]
    block = max(1, BLOCK_ROWS // max(n_rows, 1))
    if box.ndim == 2 or center.shape[0] <= block:
        return Box._trusted(*_run_plan(steps, center, deviation, _plan_buffers(steps, center.shape)))
    buffers = _plan_buffers(steps, (block,) + center.shape[1:])
    # The buffers are reused by the next block, so each block's result is copied out.
    blocks = [
        [array.copy() for array in _run_plan(
            steps, center[start:start + block], deviation[start:start + block], buffers)]
        for start in range(0, center.shape[0], block)
    ]
    return Box._trusted(np.concatenate([c for c, _ in blocks]), np.concatenate([d for _, d in blocks]))
