"""Gradient-descent optimizers for the numpy neural-network substrate."""

from __future__ import annotations

from typing import List, Sequence

import numpy as np

__all__ = ["Optimizer", "Adam"]


class Optimizer:
    """Base class: holds references to parameters and their gradient buffers."""

    def __init__(self, parameters: Sequence[np.ndarray], grads: Sequence[np.ndarray], lr: float) -> None:
        if len(parameters) != len(grads):
            raise ValueError("parameters and grads must have the same length")
        if lr <= 0:
            raise ValueError("learning rate must be positive")
        self.parameters: List[np.ndarray] = list(parameters)
        self.grads: List[np.ndarray] = list(grads)
        self.lr = lr

    @classmethod
    def for_model(cls, model, lr: float, **kwargs) -> "Optimizer":
        """Build an optimizer over a :class:`repro.nn.mlp.MLP`'s flat
        parameter and gradient buffers: one array each, so a step is one
        pass of array operations over the whole network."""
        return cls([model.flat_params], [model.flat_grads], lr=lr, **kwargs)

    def step(self) -> None:
        raise NotImplementedError

    def zero_grad(self) -> None:
        for grad in self.grads:
            grad[...] = 0.0


class Adam(Optimizer):
    """Adam optimizer (Kingma & Ba), the optimizer used by TD3."""

    def __init__(
        self,
        parameters: Sequence[np.ndarray],
        grads: Sequence[np.ndarray],
        lr: float = 1e-3,
        beta1: float = 0.9,
        beta2: float = 0.999,
        eps: float = 1e-8,
    ) -> None:
        super().__init__(parameters, grads, lr)
        if not 0.0 <= beta1 < 1.0 or not 0.0 <= beta2 < 1.0:
            raise ValueError("betas must be in [0, 1)")
        self.beta1 = beta1
        self.beta2 = beta2
        self.eps = eps
        self._m = [np.zeros_like(p) for p in self.parameters]
        self._v = [np.zeros_like(p) for p in self.parameters]
        self._t = 0

    def step(self) -> None:
        self._t += 1
        bias1 = 1.0 - self.beta1 ** self._t
        bias2 = 1.0 - self.beta2 ** self._t
        for param, grad, m, v in zip(self.parameters, self.grads, self._m, self._v):
            # θ -= lr · m̂ / (√v̂ + eps), in place: the same roundings as the
            # textbook expression, operation for operation.
            m *= self.beta1
            m += (1.0 - self.beta1) * grad
            v *= self.beta2
            v += (1.0 - self.beta2) * np.square(grad)
            step = m / bias1
            step *= self.lr
            denominator = v / bias2
            np.sqrt(denominator, out=denominator)
            denominator += self.eps
            step /= denominator
            param -= step
