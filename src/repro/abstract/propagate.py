"""IBP, interval bound propagation, through numpy neural networks.

Canopy wraps its controller with composable per-layer abstractions (Sonnet in
the paper's prototype) and pushes an abstract input box through the network.
Here the :mod:`repro.nn` layer set is lifted the same way, in the textbook
IBP form (Gowal et al. 2018): an affine layer maps a box
``(c, d)`` to ``(c @ W.T + b, d @ |W|.T)``, and a monotone activation ``f``
maps it to the midpoint and half-width of ``f(c + d)`` and ``f(c - d)``.

The output box over-approximates the set of actions the controller can emit
for any concrete input in the box — the object ``a# = π#(s#)`` of
Section 4.3.1.

:func:`propagate_mlp_batched` is the one propagation entry point.  It takes
the component boxes as one batched box (``(N, d)``, or a stack
``(D, N, d)``; see :mod:`repro.abstract.box`), flattens the model into a plan
of ``(W.T, |W|.T, b)`` affine steps and element-wise activations once per
call, then runs that plan over blocks of about :data:`BLOCK_ROWS` component
rows on bare centre/deviation arrays, reusing their buffers in place, so the
temporaries stay cache-sized whatever the number of decisions.  The test
suite pins it bit for bit (``np.array_equal``) against a per-layer box
oracle on each ``(N, d)`` slice.
"""

from __future__ import annotations

from typing import Iterable

import numpy as np

from repro.abstract.box import Box

__all__ = ["BLOCK_ROWS", "propagate_mlp_batched"]

#: Component rows per block of :func:`propagate_mlp_batched`: a ``(D, N, d)``
#: stack runs in blocks of ``max(1, BLOCK_ROWS // N)`` decisions, so each
#: layer's temporaries stay a few hundred kB instead of growing with ``D``.
BLOCK_ROWS = 512


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
    is ``c @ W.T + b``, ``d @ |W|.T``, clamped at zero; an activation is the
    midpoint/half-width of its images of ``c + d`` and ``c - d`` (``* 0.5``
    rounds exactly like ``/ 2.0``), computed over the arrays of the step
    before it.
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
    Slice ``j`` of a ``(D, N, d)`` stack is exactly — bit for bit — the
    result of propagating that ``(N, d)`` slice alone: every affine
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
