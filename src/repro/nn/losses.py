"""Loss functions for the numpy neural-network substrate."""

from __future__ import annotations

from typing import Tuple

import numpy as np

__all__ = ["mse_loss"]


def mse_loss(prediction: np.ndarray, target: np.ndarray) -> Tuple[float, np.ndarray]:
    """Mean-squared error and its gradient with respect to ``prediction``.

    Returns ``(loss, grad)`` where ``grad`` has the same shape as
    ``prediction`` and already includes the ``1/N`` averaging factor so it can
    be fed straight into ``model.backward``.
    """
    prediction = np.asarray(prediction, dtype=np.float64)
    target = np.asarray(target, dtype=np.float64)
    if prediction.shape != target.shape:
        raise ValueError(f"shape mismatch: {prediction.shape} vs {target.shape}")
    diff = prediction - target
    loss = float(np.mean(diff ** 2))
    grad = 2.0 * diff / diff.size
    return loss, grad

