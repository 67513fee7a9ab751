"""Multi-layer perceptrons used by the TD3 actor and critics.

The architectures follow Orca's agent: two hidden layers with ReLU
activations; the actor ends with a tanh squashing the coarse-grained action
into ``[-1, 1]`` (Eq. 1 of the paper then maps it to a cwnd multiplier), and
the critics end with a linear head producing a scalar Q-value.

Flat buffers
------------

An :class:`MLP` keeps all its parameters in one contiguous ``flat_params``
array and all their gradients in one ``flat_grads`` array.  Each
:class:`~repro.nn.layers.Dense` layer's ``weight``, ``bias``, ``grad_weight``
and ``grad_bias`` are reshaped views into them, every tensor starting at a
multiple of :data:`ALIGN` elements; the padding between tensors stays 0.  An
optimizer built with :meth:`repro.nn.optim.Optimizer.for_model`, zeroing the
gradients, Polyak averaging and cloning are therefore one array operation
per network, element for element the same arithmetic as the per-tensor
loops.  Anything that reads ``layer.weight`` (the forward pass, IBP) sees
every in-place update.  Pickling or deep-copying an MLP rebuilds the views.

An :class:`MLPStack` stacks ``k`` MLPs of one architecture as the rows of
``(k, n)`` buffers: each member's ``flat_params``/``flat_grads`` is a row
view, and the stack's own Dense layers view the same memory as ``(k, out,
in)`` weights and ``(k, out)`` biases.  One forward, backward, optimizer
step or Polyak update on the stack then does every member's work; each
``matmul`` runs member ``i``'s gemm on slice ``i`` (the rows are never
flattened into one bigger gemm), so the bits are the members' own.
"""

from __future__ import annotations

import copy
from typing import List, Sequence

import numpy as np

from repro.nn.layers import Dense, Identity, Layer, ReLU, Sequential, Tanh

__all__ = ["ALIGN", "MLP", "MLPStack", "make_actor", "make_critic"]

#: Each tensor of an MLP's flat buffers starts at a multiple of this many
#: elements (64 bytes of float64).
ALIGN = 8

_ACTIVATIONS = {
    "relu": ReLU,
    "tanh": Tanh,
    "linear": Identity,
    "identity": Identity,
}


def _padded(size: int) -> int:
    """``size`` rounded up to a multiple of :data:`ALIGN`."""
    return -(-size // ALIGN) * ALIGN


def _architecture(mlp: MLP) -> tuple:
    return (mlp.in_features, mlp.hidden_sizes, mlp.out_features, mlp.hidden_activation, mlp.output_activation)


def _slots(layers: Sequence[Layer]):
    """``(layer, param name, grad name, start, end)`` of every Dense tensor,
    in flat-buffer order."""
    offset = 0
    for layer in layers:
        if not isinstance(layer, Dense):
            continue
        for param_name, grad_name in (("weight", "grad_weight"), ("bias", "grad_bias")):
            end = offset + getattr(layer, param_name).size
            yield layer, param_name, grad_name, offset, end
            offset = _padded(end)


class _FlatNetwork(Sequential):
    """A network whose parameters and gradients live in the arrays
    ``flat_params`` and ``flat_grads``, its layer tensors views into them
    (made by ``_bind_flat``)."""

    flat_params: np.ndarray
    flat_grads: np.ndarray

    def _bind_flat(self) -> None:
        raise NotImplementedError

    def __setstate__(self, state: dict) -> None:
        # Pickle and deepcopy restore each view as an array of its own.
        self.__dict__.update(state)
        self._bind_flat()

    def zero_grad(self) -> None:
        self.flat_grads.fill(0.0)

    def soft_update_from(self, source: "_FlatNetwork", tau: float) -> None:
        """Polyak averaging ``θ ← τ θ_src + (1−τ) θ`` (target network update)."""
        if not 0.0 <= tau <= 1.0:
            raise ValueError("tau must be in [0, 1]")
        self.flat_params[...] = tau * source.flat_params + (1.0 - tau) * self.flat_params

    def copy_from(self, source: "_FlatNetwork") -> None:
        self.soft_update_from(source, tau=1.0)


class MLP(_FlatNetwork):
    """A fully-connected network built from a list of hidden sizes, its
    parameters and gradients held in the flat buffers ``flat_params`` and
    ``flat_grads``."""

    def __init__(
        self,
        in_features: int,
        hidden_sizes: Sequence[int],
        out_features: int,
        hidden_activation: str = "relu",
        output_activation: str = "linear",
        rng: np.random.Generator | None = None,
        output_init_scale: float = 3e-3,
    ) -> None:
        rng = rng if rng is not None else np.random.default_rng()
        if hidden_activation not in _ACTIVATIONS:
            raise ValueError(f"unknown hidden activation {hidden_activation!r}")
        if output_activation not in _ACTIVATIONS:
            raise ValueError(f"unknown output activation {output_activation!r}")

        layers: List[Layer] = []
        prev = in_features
        weight_init = "he" if hidden_activation == "relu" else "glorot"
        for size in hidden_sizes:
            layers.append(Dense(prev, size, rng=rng, weight_init=weight_init))
            layers.append(_ACTIVATIONS[hidden_activation]())
            prev = size
        layers.append(Dense(prev, out_features, rng=rng, weight_init="uniform", init_scale=output_init_scale))
        layers.append(_ACTIVATIONS[output_activation]())
        super().__init__(layers)

        self.in_features = in_features
        self.out_features = out_features
        self.hidden_sizes = tuple(hidden_sizes)
        self.hidden_activation = hidden_activation
        self.output_activation = output_activation
        n_flat = sum(_padded(param.size) for param in self.parameters())
        self.flat_params = np.zeros(n_flat)
        self.flat_grads = np.zeros(n_flat)
        self._bind_flat()

    def _bind_flat(self) -> None:
        """Copy every Dense tensor into its slot of the flat buffers and make
        the layer attribute a view of that slot."""
        for layer, param_name, grad_name, start, end in _slots(self.layers):
            shape = getattr(layer, param_name).shape
            for name, flat in ((param_name, self.flat_params), (grad_name, self.flat_grads)):
                view = flat[start:end].reshape(shape)
                view[...] = getattr(layer, name)
                setattr(layer, name, view)

    # ------------------------------------------------------------------ #
    # Parameter (de)serialization — used for target-network updates.
    # ------------------------------------------------------------------ #
    def get_weights(self) -> List[np.ndarray]:
        return [p.copy() for p in self.parameters()]

    def set_weights(self, weights: Sequence[np.ndarray]) -> None:
        params = self.parameters()
        if len(weights) != len(params):
            raise ValueError(f"expected {len(params)} arrays, got {len(weights)}")
        for param, new in zip(params, weights):
            if param.shape != np.asarray(new).shape:
                raise ValueError("weight shape mismatch")
            param[...] = new

    def clone(self) -> "MLP":
        """A structural copy with identical weights (its own flat buffers)."""
        other = MLP(
            self.in_features,
            self.hidden_sizes,
            self.out_features,
            hidden_activation=self.hidden_activation,
            output_activation=self.output_activation,
        )
        other.flat_params[...] = self.flat_params
        return other


class MLPStack(_FlatNetwork):
    """``k`` MLPs of one architecture stepped as one network.

    ``flat_params`` and ``flat_grads`` are ``(k, n)``: row ``i`` is member
    ``i``'s flat buffer, and each member stays a full :class:`MLP` whose
    buffers and layer tensors are views of its row.  The stack's own Dense
    layers view the same memory as ``(k, out, in)`` weights and ``(k, out)``
    biases, so one forward, one backward, one optimizer step or one Polyak
    update covers every member, bit for bit what each member would compute
    alone.  Pickling or deep-copying the stack rebinds the members to its
    rows.
    """

    def __init__(self, members: Sequence[MLP]) -> None:
        self.members = list(members)
        first = self.members[0]
        if len({_architecture(member) for member in self.members}) != 1:
            raise ValueError("stacked MLPs need one architecture")
        self.flat_params = np.stack([member.flat_params for member in self.members])
        self.flat_grads = np.stack([member.flat_grads for member in self.members])
        super().__init__([copy.copy(layer) for layer in first.layers])
        self._bind_flat()

    def _bind_flat(self) -> None:
        """Make every member's buffers row views and every stacked tensor a
        ``(k, ...)`` view of the stack's buffers."""
        for row, member in enumerate(self.members):
            member.flat_params = self.flat_params[row]
            member.flat_grads = self.flat_grads[row]
            member._bind_flat()
        first = self.members[0]
        stacked = {id(member_layer): layer for member_layer, layer in zip(first.layers, self.layers)}
        for member_layer, param_name, grad_name, start, end in _slots(first.layers):
            shape = (len(self.members),) + getattr(member_layer, param_name).shape
            layer = stacked[id(member_layer)]
            setattr(layer, param_name, self.flat_params[:, start:end].reshape(shape))
            setattr(layer, grad_name, self.flat_grads[:, start:end].reshape(shape))


def make_actor(
    state_dim: int,
    action_dim: int = 1,
    hidden_sizes: Sequence[int] = (64, 32),
    rng: np.random.Generator | None = None,
) -> MLP:
    """The Orca/Canopy actor: ReLU hidden layers, tanh output in [-1, 1]."""
    return MLP(
        state_dim,
        hidden_sizes,
        action_dim,
        hidden_activation="relu",
        output_activation="tanh",
        rng=rng,
    )


def make_critic(
    state_dim: int,
    action_dim: int = 1,
    hidden_sizes: Sequence[int] = (64, 32),
    rng: np.random.Generator | None = None,
) -> MLP:
    """A Q-network taking the concatenated (state, action) and returning a scalar."""
    return MLP(
        state_dim + action_dim,
        hidden_sizes,
        1,
        hidden_activation="relu",
        output_activation="linear",
        rng=rng,
    )
