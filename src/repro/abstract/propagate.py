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
:func:`propagate_mlp_batched` is the explicit entry point used by the
batched verifier.
"""

from __future__ import annotations

from typing import Iterable

from repro.abstract.box import Box
from repro.abstract import transformers

__all__ = ["propagate_layer", "propagate_sequential", "propagate_mlp", "propagate_mlp_batched"]


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


def propagate_mlp_batched(model, box: Box) -> Box:
    """Push a batched box of shape ``(N, d)`` or ``(D, N, d)`` through an MLP in one pass.

    The result has shape ``(N, out_features)`` (or ``(D, N, out_features)``).
    Row ``i`` equals ``propagate_mlp(model, box.unstack()[i])`` up to
    floating-point associativity (the differential test suite pins them to
    within 1e-12).  Slice ``j`` of a ``(D, N, d)`` stack is exactly — bit for
    bit — the result of propagating that ``(N, d)`` slice alone: every affine
    layer runs the same ``(N, d) @ W.T`` gemm per slice, and every other step
    is element-wise.
    """
    if box.ndim not in (2, 3):
        raise ValueError(f"batched propagation expects lo/hi of shape (N, d) or (D, N, d), got ndim={box.ndim}")
    in_features = getattr(model, "in_features", None)
    if in_features is not None and box.center.shape[-1] != in_features:
        raise ValueError(
            f"input box has {box.center.shape[-1]} dims but model expects {in_features}"
        )
    return propagate_sequential(model.layers, box)
