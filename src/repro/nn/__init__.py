"""Minimal pure-numpy neural network library.

Canopy's prototype uses TensorFlow + Sonnet; this reproduction substitutes a
small, dependency-free numpy implementation providing exactly what the paper
needs:

* fully-connected (Dense) layers with ReLU / Tanh activations,
* a :class:`~repro.nn.mlp.MLP` container used for the TD3 actor and critics,
* the Adam optimizer,
* reverse-mode gradients implemented layer-by-layer (no autograd framework),
* per-layer access to weights so the IBP verifier in
  :mod:`repro.abstract.propagate` can lift each layer to the box domain.
"""

from repro.nn.layers import Dense, Identity, ReLU, Sequential, Tanh
from repro.nn.mlp import MLP, make_actor, make_critic
from repro.nn.optim import Adam
from repro.nn.serialization import load_mlp, save_mlp

__all__ = [
    "Dense",
    "Identity",
    "ReLU",
    "Tanh",
    "Sequential",
    "MLP",
    "make_actor",
    "make_critic",
    "Adam",
    "save_mlp",
    "load_mlp",
]
