"""Per-layer IBP over :class:`repro.abstract.box.Box` values, one box at a time.

Each transformer builds a fresh Box from the one before it, as in the
textbook layer-by-layer formulation (Gowal et al. 2018).  A 1-d box goes
through an affine layer as ``W @ c``; a batched box ``(N, d)`` as
``c @ W.T``, the same gemm the production kernel issues per slice.
"""

from __future__ import annotations

from typing import Iterable, Sequence

import numpy as np

from oracle.interval import Interval
from repro.abstract.box import Box
from repro.nn.layers import Dense, Identity, ReLU, Sequential, Tanh

__all__ = ["affine", "relu", "tanh", "split", "propagate_layer", "propagate_sequential", "propagate_mlp"]


def affine(box: Box, weight: np.ndarray, bias: np.ndarray | None = None) -> Box:
    """``f(x) = W x + b`` lifted to the box domain: ``(W b_c + b, |W| b_e)``."""
    weight = np.asarray(weight, dtype=np.float64)
    if box.center.ndim >= 2:
        center = box.center @ weight.T
        deviation = box.deviation @ np.abs(weight).T
    else:
        center = weight @ box.center
        deviation = np.abs(weight) @ box.deviation
    if bias is not None:
        center = center + np.asarray(bias, dtype=np.float64)
    return Box._trusted(center, deviation)


def relu(box: Box) -> Box:
    """ReLU transformer from Section 3.2 (midpoint/half-width of end-point images)."""
    upper = np.maximum(box.center + box.deviation, 0.0)
    lower = np.maximum(box.center - box.deviation, 0.0)
    return Box._trusted((upper + lower) / 2.0, (upper - lower) / 2.0)


def tanh(box: Box) -> Box:
    upper = np.tanh(box.center + box.deviation)
    lower = np.tanh(box.center - box.deviation)
    return Box._trusted((upper + lower) / 2.0, (upper - lower) / 2.0)


def split(box: Box, n: int, dims: Sequence[int] | None = None) -> list:
    """Partition a 1-d box into ``n`` components along ``dims`` (default: all dims jointly)."""
    interval = Interval(box.center - box.deviation, box.center + box.deviation)
    if dims is None:
        dims = list(range(interval.lo.shape[0]))
    return [Box(piece.center, piece.deviation) for piece in interval.split_dims(n, dims)]


def propagate_layer(layer, box: Box) -> Box:
    """Push an abstract box through a single :mod:`repro.nn` layer."""
    if isinstance(layer, Dense):
        return affine(box, layer.weight, layer.bias)
    if isinstance(layer, ReLU):
        return relu(box)
    if isinstance(layer, Tanh):
        return tanh(box)
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
    """Push an abstract box through an :class:`repro.nn.mlp.MLP` (or Sequential)."""
    in_features = getattr(model, "in_features", None)
    if in_features is not None and box.center.shape[-1] != in_features:
        raise ValueError(
            f"input box has {box.center.shape[-1]} dims but model expects {in_features}"
        )
    return propagate_sequential(model.layers, box)
