"""Feed-forward layers with explicit forward/backward passes.

Each layer exposes:

* ``forward(x)`` — batched forward pass (``x`` has shape ``(batch, features)``),
  caching whatever is needed for the backward pass.
* ``backward(grad_output)`` — propagates gradients back to the input and
  accumulates parameter gradients in ``layer.grads``.
  :class:`Dense` and :class:`Sequential` take two keyword flags, both
  ``True`` by default: ``param_grads=False`` accumulates no parameter
  gradient (the gradient buffers are left untouched), and
  ``input_grad=False`` skips the first layer's input gradient and returns
  ``None``.  Whatever a flag keeps is computed by the same operations, so
  its bits are those of the full backward.
* ``parameters()`` / ``grads()`` — flat lists used by the optimizers in
  :mod:`repro.nn.optim`.

The layer set intentionally mirrors what the Canopy verifier knows how to lift
to the box abstract domain: affine (Dense), ReLU and Tanh.
"""

from __future__ import annotations

from typing import Iterable, List, Sequence

import numpy as np

from repro.nn import init as initializers

__all__ = ["Layer", "Dense", "ReLU", "Tanh", "Identity", "Sequential"]


_FLOAT64 = np.dtype(np.float64)


def _float64(x) -> np.ndarray:
    """``x`` as a float64 array; a float64 ndarray is returned as it is."""
    return x if type(x) is np.ndarray and x.dtype is _FLOAT64 else np.asarray(x, dtype=np.float64)


def _rows(x) -> np.ndarray:
    """``x`` as a float64 array of at least two dimensions (a lone sample
    becomes one row); a float64 ndarray of two or more dimensions, what
    every layer hands the next, is returned as it is."""
    x = _float64(x)
    return x if x.ndim >= 2 else x.reshape(1, -1)


class Layer:
    """Base class for all layers."""

    def forward(self, x: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def backward(self, grad_output: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def parameters(self) -> List[np.ndarray]:
        return []

    def grads(self) -> List[np.ndarray]:
        return []

    def zero_grad(self) -> None:
        for grad in self.grads():
            grad[...] = 0.0

    def __call__(self, x: np.ndarray) -> np.ndarray:
        return self.forward(x)


class Dense(Layer):
    """Fully connected layer ``y = x @ W.T + b``.

    A stack of ``k`` layers of one shape is one Dense whose ``weight`` is
    ``(k, out, in)`` and ``bias`` ``(k, out)``: an input ``(batch, in)``
    (shared) or ``(k, batch, in)`` gives ``(k, batch, out)``, slice ``i``
    bit for bit what layer ``i`` alone computes (``matmul`` runs the same
    gemm per slice).
    """

    def __init__(
        self,
        in_features: int,
        out_features: int,
        rng: np.random.Generator | None = None,
        weight_init: str = "glorot",
        init_scale: float = 3e-3,
    ) -> None:
        rng = rng if rng is not None else np.random.default_rng()
        if weight_init == "glorot":
            self.weight = initializers.glorot_uniform(rng, in_features, out_features)
        elif weight_init == "he":
            self.weight = initializers.he_uniform(rng, in_features, out_features)
        elif weight_init == "uniform":
            self.weight = initializers.uniform(rng, in_features, out_features, scale=init_scale)
        else:
            raise ValueError(f"unknown weight_init {weight_init!r}")
        self.bias = initializers.zeros(out_features)
        self.grad_weight = np.zeros_like(self.weight)
        self.grad_bias = np.zeros_like(self.bias)
        self._cached_input: np.ndarray | None = None

    @property
    def in_features(self) -> int:
        return self.weight.shape[-1]

    @property
    def out_features(self) -> int:
        return self.weight.shape[-2]

    def forward(self, x: np.ndarray) -> np.ndarray:
        x = _rows(x)
        self._cached_input = x
        return x @ self.weight.mT + self.bias[..., None, :]

    def backward(self, grad_output: np.ndarray, *, param_grads: bool = True,
                 input_grad: bool = True) -> np.ndarray | None:
        if self._cached_input is None:
            raise RuntimeError("backward() called before forward()")
        grad_output = _rows(grad_output)
        if param_grads:
            self.grad_weight += grad_output.mT @ self._cached_input
            self.grad_bias += grad_output.sum(axis=-2)
        return grad_output @ self.weight if input_grad else None

    def parameters(self) -> List[np.ndarray]:
        return [self.weight, self.bias]

    def grads(self) -> List[np.ndarray]:
        return [self.grad_weight, self.grad_bias]


class ReLU(Layer):
    """Element-wise rectified linear unit.

    The forward pass keeps only its output; ``backward`` masks the gradient
    with ``output > 0``, which is ``x > 0`` for every ``x`` (``max(x, 0)``
    is ``x`` where ``x > 0`` and ``+0.0`` or NaN elsewhere), so inference
    forwards never build the mask.
    """

    def __init__(self) -> None:
        self._output: np.ndarray | None = None

    def forward(self, x: np.ndarray) -> np.ndarray:
        self._output = np.maximum(_float64(x), 0.0)
        return self._output

    def backward(self, grad_output: np.ndarray) -> np.ndarray:
        if self._output is None:
            raise RuntimeError("backward() called before forward()")
        return grad_output * (self._output > 0)


class Tanh(Layer):
    """Element-wise hyperbolic tangent."""

    def __init__(self) -> None:
        self._output: np.ndarray | None = None

    def forward(self, x: np.ndarray) -> np.ndarray:
        self._output = np.tanh(_float64(x))
        return self._output

    def backward(self, grad_output: np.ndarray) -> np.ndarray:
        if self._output is None:
            raise RuntimeError("backward() called before forward()")
        return grad_output * (1.0 - self._output ** 2)


class Identity(Layer):
    """No-op layer (linear output head)."""

    def forward(self, x: np.ndarray) -> np.ndarray:
        return np.asarray(x, dtype=np.float64)

    def backward(self, grad_output: np.ndarray) -> np.ndarray:
        return grad_output


class Sequential(Layer):
    """Container applying layers in order."""

    def __init__(self, layers: Sequence[Layer]) -> None:
        self.layers: List[Layer] = list(layers)

    def forward(self, x: np.ndarray) -> np.ndarray:
        out = _rows(x)
        for layer in self.layers:
            out = layer.forward(out)
        return out

    def backward(self, grad_output: np.ndarray, *, param_grads: bool = True,
                 input_grad: bool = True) -> np.ndarray | None:
        """Backpropagate ``grad_output`` through every layer.  The flags
        (see the module docstring) reach every :class:`Dense` or nested
        :class:`Sequential`, ``input_grad`` only the first layer."""
        grad = grad_output
        layers = self.layers
        for index in range(len(layers) - 1, -1, -1):
            layer = layers[index]
            if isinstance(layer, (Dense, Sequential)):
                grad = layer.backward(grad, param_grads=param_grads, input_grad=input_grad or index > 0)
            else:
                grad = layer.backward(grad)
        return grad if input_grad else None

    def parameters(self) -> List[np.ndarray]:
        params: List[np.ndarray] = []
        for layer in self.layers:
            params.extend(layer.parameters())
        return params

    def grads(self) -> List[np.ndarray]:
        grads: List[np.ndarray] = []
        for layer in self.layers:
            grads.extend(layer.grads())
        return grads

    def zero_grad(self) -> None:
        for layer in self.layers:
            layer.zero_grad()

    def __iter__(self) -> Iterable[Layer]:
        return iter(self.layers)
