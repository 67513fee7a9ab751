"""Persisting trained models to disk.

The in-process model zoo (:mod:`repro.harness.models`) retrains per process;
these helpers let long examples and users keep a trained Canopy/Orca policy
around: the actor (and, optionally, the full TD3 agent) is stored as ``.npz``
next to a small JSON metadata file describing the model kind and the trained
property set, enough to rebuild a usable :class:`TrainedModel`-like handle for
evaluation and certification.
"""

from __future__ import annotations

import json
import os
import shutil
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Optional

import numpy as np

from repro.core.properties import (
    PropertySet,
    deep_buffer_properties,
    robustness_properties,
    shallow_buffer_properties,
)
from repro.core.verifier import Verifier, VerifierConfig
from repro.nn.mlp import MLP
from repro.nn.serialization import load_mlp, save_mlp
from repro.orca.observations import ObservationConfig

__all__ = ["VerifierCache", "SavedModel", "save_model", "load_model", "publish_model"]

_PROPERTY_SETS = {
    "shallow": shallow_buffer_properties,
    "deep": deep_buffer_properties,
    "robustness": robustness_properties,
}


class VerifierCache:
    """The one :meth:`make_verifier` of both model handles: a
    :class:`~repro.core.verifier.Verifier` per component count, built on
    first use and then reused, so its certify plans and buffers stay warm
    from one cell to the next (the post-run certify, the runtime monitor and
    the Figs. 6/8 columns all share it).

    The handle's ``actor`` and ``observation_config`` define it.  The cache
    keeps, per component count, the two objects its verifier was built from
    and rebuilds the verifier when either attribute was rebound (compared by
    identity, never keyed on an ``id``); the actor may train in place.  The
    cache lives outside the dataclass fields, so it is in no ``repr`` or
    equality, and pickling a handle drops it.
    """

    def make_verifier(self, n_components: int = 50) -> Verifier:
        verifiers = self.__dict__.setdefault("_verifiers", {})
        actor, observation_config, verifier = verifiers.get(n_components, (None, None, None))
        if verifier is None or actor is not self.actor or observation_config is not self.observation_config:
            verifier = Verifier(self.actor, self.observation_config, VerifierConfig(n_components=n_components))
            verifiers[n_components] = (self.actor, self.observation_config, verifier)
        return verifier

    def __getstate__(self) -> dict:
        state = self.__dict__.copy()
        state.pop("_verifiers", None)
        return state


@dataclass
class SavedModel(VerifierCache):
    """A trained policy restored from disk, usable by the evaluation harness."""

    kind: str
    actor: MLP
    observation_config: ObservationConfig
    properties: PropertySet
    metadata: dict

    @property
    def policy(self) -> Callable[[np.ndarray], np.ndarray]:
        def _policy(state: np.ndarray) -> np.ndarray:
            output = self.actor.forward(np.asarray(state, dtype=np.float64).reshape(1, -1))
            return np.clip(output[0], -1.0, 1.0)

        return _policy


def save_model(model, directory: str | Path, name: Optional[str] = None) -> Path:
    """Persist a trained model (from the model zoo or a trainer run).

    ``model`` is any object exposing ``kind``, ``actor``, ``observation_config``
    and ``properties`` (both :class:`repro.harness.models.TrainedModel` and
    :class:`SavedModel` qualify).  Returns the directory containing the
    checkpoint files.
    """
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    name = name or model.kind
    actor_path = save_mlp(model.actor, directory / f"{name}-actor.npz")
    obs = model.observation_config
    metadata = {
        "kind": model.kind,
        "property_set": model.properties.name,
        "property_names": [p.name for p in model.properties],
        "actor_file": actor_path.name,
        "observation": {
            "history_len": obs.history_len,
            "delay_scale": obs.delay_scale,
            "ack_scale": obs.ack_scale,
            "monitor_interval": obs.monitor_interval,
            "dcwnd_scale": obs.dcwnd_scale,
        },
    }
    (directory / f"{name}.json").write_text(json.dumps(metadata, indent=2))
    return directory


def publish_model(model, directory: str | Path, name: str = "model") -> Path:
    """Atomically publish a checkpoint directory (first writer wins).

    The checkpoint is written to a sibling tmp directory and renamed into
    place, so readers never observe a half-written checkpoint — the rename
    either succeeds whole or not at all.  When the rename fails and
    ``directory/{name}.json`` now exists (another process published the
    same content address concurrently, the model-zoo case) the tmp copy is
    discarded and the existing checkpoint kept: content addressing makes
    the two equivalent, so losing the race costs nothing.  Any other failed
    rename (a cross-device move, a permission error) removes the tmp copy
    and raises.
    """
    directory = Path(directory)
    if (directory / f"{name}.json").exists():
        return directory
    directory.parent.mkdir(parents=True, exist_ok=True)
    tmp = directory.parent / f".{directory.name}.tmp-{os.getpid()}"
    save_model(model, tmp, name=name)
    try:
        os.rename(tmp, directory)
    except OSError:
        shutil.rmtree(tmp, ignore_errors=True)
        if not (directory / f"{name}.json").exists():
            raise
        # Lost the publish race: the winner's copy stays.
    return directory


def load_model(directory: str | Path, name: str) -> SavedModel:
    """Load a checkpoint written by :func:`save_model`."""
    directory = Path(directory)
    metadata_path = directory / f"{name}.json"
    if not metadata_path.exists():
        raise FileNotFoundError(f"no checkpoint named {name!r} under {directory}")
    metadata = json.loads(metadata_path.read_text())
    actor = load_mlp(directory / metadata["actor_file"])
    obs_meta = metadata["observation"]
    observation_config = ObservationConfig(
        history_len=obs_meta["history_len"],
        delay_scale=obs_meta["delay_scale"],
        ack_scale=obs_meta["ack_scale"],
        monitor_interval=obs_meta["monitor_interval"],
        dcwnd_scale=obs_meta["dcwnd_scale"],
    )
    property_factory = _PROPERTY_SETS.get(metadata["property_set"])
    if property_factory is not None:
        properties = property_factory()
    else:
        # Unknown / custom property set: default to the shallow family, which
        # only affects which properties certification defaults to.
        properties = shallow_buffer_properties()
    return SavedModel(
        kind=metadata["kind"],
        actor=actor,
        observation_config=observation_config,
        properties=properties,
        metadata=metadata,
    )
