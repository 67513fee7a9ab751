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
of ``(W.T, |W|.T, b)`` affine steps and element-wise activations on every
call, and runs that plan over the whole box in one pass on bare
centre/deviation arrays, reusing their buffers in place.  It does no
blocking of its own: a caller that wants cache-sized temporaries hands in
blocks.  The verifier does, filling the components of a few decisions at a
time into buffers of its own (:data:`repro.core.verifier.BLOCK_ROWS`) and
calling this function once per block.  A caller that propagates the same
shapes again and again hands in an :class:`IBPBuffers`, which keeps the
``|W|`` and output arrays between calls and refills ``|W|`` from the live
weights; the result is then a view of those arrays, which the caller copies
out before the next call.  The test suite pins it bit for bit
(``np.array_equal``) against a per-layer box oracle on each ``(N, d)``
slice.

A box whose decisions all have the same ``(N, d)`` deviation rows (every
decision of a P1–P4 property: only the centre follows the state) has the
same first-layer deviation product ``d @ |W1|.T`` in every decision.  A
caller computes it once with :func:`first_layer_deviation` and hands it in;
the kernel then reads it broadcast over the box's decisions instead of
running that gemm per decision.  It is the gemm the kernel runs on each
``(N, d)`` slice, with ``|W1|.T`` in the same layout, so every bit is the
same (pinned per slice with ``np.array_equal``).

Which deviation clamps remain
-----------------------------

A half-width must never be negative, yet only the tanh step clamps
``max(deviation, 0)``; the affine and ReLU steps would clamp values that
cannot be negative, and ``np.maximum`` returns its first operand unchanged
when it is a NaN, so each such clamp returned its input bit for bit:

* Every :class:`~repro.abstract.box.Box` the kernel receives has
  ``np.maximum(deviation, 0.0)`` applied, so each deviation entry is
  ``+0.0``, positive or NaN: ``np.maximum(x, 0.0)`` turns ``-0.0`` into
  ``+0.0`` and never returns ``-0.0``.
* Affine step: ``|W|`` holds ``+0.0``, positive values or NaN, so every
  product in ``d @ |W|.T`` is ``+0.0``, positive, ``+inf`` or NaN
  (``0 · inf``), and a sum of such terms, in any order and with or
  without fused multiply-adds, is again one of them.  No ``-0.0`` and no
  negative value can appear.
* ReLU step: with ``d >= +0``, ``c + d >= c - d`` exactly, and rounding is
  monotone, so ``fl(c + d) >= fl(c - d)``; ``max(·, 0)`` keeps the order
  and returns ``+0.0`` for every non-positive input.  The difference of two
  ordered values that are ``+0.0`` or positive is ``+0.0`` or positive
  (``x - x`` is ``+0.0``), and ``* 0.5`` keeps the sign.  A NaN (``inf -
  inf``, or a NaN input) stays a NaN, which the clamp leaves as it is.
* Tanh step: keeps its clamp.  libm's ``tanh`` is not guaranteed to be
  monotone, so ``tanh(c + d)`` may come out below ``tanh(c - d)``, and
  ``tanh(-0.0)`` is ``-0.0``.

``tests/test_ibp_kernel_differential.py`` holds the kernel to a verbatim
copy of its earlier form, which clamped after every step, as IEEE bytes on
boxes with signed zeros, subnormals, infinities and NaN.
"""

from __future__ import annotations

from typing import Iterable

import numpy as np

from repro.abstract.box import Box
from repro.nn.layers import Dense, Identity, ReLU, Sequential, Tanh

__all__ = ["IBPBuffers", "first_layer_deviation", "propagate_mlp_batched"]


def _flatten(layers: Iterable) -> list:
    """The IBP steps of ``layers`` in order: the float64 ``(W, b)`` of each
    Dense layer, read afresh (training updates them in place), and
    ``np.maximum``-against-zero for ReLU and ``np.tanh`` for Tanh.

    Nested Sequentials are inlined and Identity layers dropped.
    """
    steps = []
    for layer in layers:
        if isinstance(layer, Dense):
            steps.append((np.asarray(layer.weight, dtype=np.float64), np.asarray(layer.bias, dtype=np.float64)))
        elif isinstance(layer, ReLU):
            steps.append(_relu_inplace)
        elif isinstance(layer, Tanh):
            steps.append(_tanh_inplace)
        elif isinstance(layer, Sequential):
            steps.extend(_flatten(layer.layers))
        elif not isinstance(layer, Identity):
            raise TypeError(f"no abstract transformer registered for layer type {type(layer).__name__}")
    return steps


class IBPBuffers:
    """The arrays of :func:`propagate_mlp_batched` kept from one call to the next.

    Per affine step an ``(out, in)`` array for ``|W|``, refilled from
    ``layer.weight`` on every call and read through its transposed view
    (the layout of ``np.abs(W).T``, so every gemm takes the path it takes
    without buffers), and per step the outputs of one box of component
    rows: an affine step's centre and deviation, an activation's upper
    image, the array its lower image goes to (the deviation array of the
    step before it, or a fresh one on the input box) and the array its
    centre goes to.  The arrays are reallocated when a layer shape or the
    box's trailing shape changes, or when a box has more rows than they
    hold.  Nothing is keyed on the identity of a network and no weight is
    kept, so one holder stays valid while a network trains in place or is
    replaced.
    """

    def __init__(self) -> None:
        self._key: tuple | None = None
        self._rows = 0
        self._abs_weights: list = []
        self._outputs: list = []

    def plan(self, layers: Iterable, shape: tuple) -> tuple:
        """The steps of ``layers``, ``(W.T, |W|.T, b)`` per Dense layer with
        ``|W|`` refilled, and per step the outputs for a box of shape
        ``shape = (rows, ..., width)``, at least ``rows`` long."""
        steps = _flatten(layers)
        key = (shape[1:], *[step[0].shape if isinstance(step, tuple) else step for step in steps])
        if key != self._key or shape[0] > self._rows:
            self._allocate(steps, shape)
            self._key, self._rows = key, shape[0]
        for index, abs_weight in enumerate(self._abs_weights):
            if abs_weight is not None:
                weight, bias = steps[index]
                steps[index] = (weight.T, np.abs(weight, out=abs_weight).T, bias)
        return steps, self._outputs

    def _allocate(self, steps: list, shape: tuple) -> None:
        leading, width = shape[:-1], shape[-1]
        self._abs_weights, self._outputs = [], []
        center = deviation = None  # the input box's own arrays, never written
        for step in steps:
            if isinstance(step, tuple):
                width = step[0].shape[0]
                self._abs_weights.append(np.empty(step[0].shape))
                center, deviation = np.empty(leading + (width,)), np.empty(leading + (width,))
                self._outputs.append((center, deviation))
            else:
                self._abs_weights.append(None)
                if center is None:
                    center, deviation = np.empty(leading + (width,)), np.empty(leading + (width,))
                upper = np.empty(leading + (width,))
                self._outputs.append((upper, deviation, center))
                deviation = upper


def _relu_inplace(values: np.ndarray) -> None:
    np.maximum(values, 0.0, out=values)


def _tanh_inplace(values: np.ndarray) -> None:
    np.tanh(values, out=values)


def first_layer_deviation(model, deviation: np.ndarray) -> np.ndarray | None:
    """``deviation @ |W1|.T`` for ``model``'s first layer, or ``None`` when
    the model does not start with an affine layer.

    ``deviation`` is the ``(N, d)`` deviation every decision of a box shares;
    the product is the ``(N, out)`` gemm :func:`propagate_mlp_batched` runs
    on each ``(N, d)`` slice of such a box, with ``|W1|.T`` in the same
    layout, so handing it in changes no bit.  Weights are read afresh.
    """
    steps = _flatten(model.layers)
    if not steps or not isinstance(steps[0], tuple):
        return None
    return np.matmul(deviation, np.abs(steps[0][0]).T)


def _run_plan(steps: list, center: np.ndarray, deviation: np.ndarray, buffers: list,
              first_deviation: np.ndarray | None) -> tuple:
    """One box through the plan, writing only into ``buffers``.

    ``buffers[i]`` holds step ``i``'s preallocated outputs (see
    :class:`IBPBuffers`), sliced to the box's decisions.  An affine step
    is ``c @ W.T + b`` and ``d @ |W|.T`` (for the first step, the shared
    ``first_deviation`` copied to every decision when one is given: a
    contiguous copy, since the element-wise steps after it run about twice
    as slow on a broadcast operand);
    an activation is the midpoint/half-width of its images of ``c + d``
    and ``c - d`` (``* 0.5`` rounds exactly like ``/ 2.0``).  Only the
    tanh step clamps the half-width at zero (see the module docstring).
    """
    rows = center.shape[0]
    for step, step_buffers in zip(steps, buffers):
        if isinstance(step, tuple):
            weight_t, abs_weight_t, bias = step
            center_out, deviation_out = step_buffers
            center = np.matmul(center, weight_t, out=center_out[:rows])
            center += bias
            if first_deviation is None:
                deviation = np.matmul(deviation, abs_weight_t, out=deviation_out[:rows])
            else:
                deviation = deviation_out[:rows]
                np.copyto(deviation, first_deviation)  # broadcast over the decisions
                first_deviation = None
        else:
            upper_out, lower_out, center_out = step_buffers
            upper = np.add(center, deviation, out=upper_out[:rows])
            lower = np.subtract(center, deviation, out=lower_out[:rows])
            step(upper)
            step(lower)
            center = np.add(upper, lower, out=center_out[:rows])
            center *= 0.5
            deviation = np.subtract(upper, lower, out=upper)
            deviation *= 0.5
            if step is _tanh_inplace:
                np.maximum(deviation, 0.0, out=deviation)
    return center, deviation


def propagate_mlp_batched(model, box: Box, buffers: IBPBuffers | None = None,
                          first_deviation: np.ndarray | None = None) -> Box:
    """Push a batched box of shape ``(N, d)`` or ``(D, N, d)`` through an MLP in one pass.

    The result has shape ``(N, out_features)`` (or ``(D, N, out_features)``).
    Slice ``j`` of a ``(D, N, d)`` stack is exactly — bit for bit — the
    result of propagating that ``(N, d)`` slice alone: every affine
    layer runs the same ``(N, d) @ W.T`` gemm per slice, and every other step
    is element-wise.  The whole box is one pass through one set of per-step
    buffers.  Given ``buffers``, those are its arrays and the result is a
    view of them: it holds until the next call with the same ``buffers``.
    ``first_deviation`` is :func:`first_layer_deviation` of the ``(N, d)``
    deviation rows every decision of ``box`` has, for a model that starts
    with an affine layer; the first layer then reads it instead of
    multiplying ``box.deviation`` again.
    """
    if box.ndim not in (2, 3):
        raise ValueError(f"batched propagation expects lo/hi of shape (N, d) or (D, N, d), got ndim={box.ndim}")
    in_features = getattr(model, "in_features", None)
    if in_features is not None and box.center.shape[-1] != in_features:
        raise ValueError(
            f"input box has {box.center.shape[-1]} dims but model expects {in_features}"
        )
    steps, outputs = (IBPBuffers() if buffers is None else buffers).plan(model.layers, box.center.shape)
    if first_deviation is not None and not (steps and isinstance(steps[0], tuple)):
        raise ValueError("a shared first-layer deviation needs a model that starts with an affine layer")
    return Box._trusted(*_run_plan(steps, box.center, box.deviation, outputs, first_deviation))
