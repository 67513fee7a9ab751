"""Training and caching of the learned models used across experiments.

The paper trains three Canopy models (shallow-buffer, deep-buffer, robustness)
and an Orca baseline.  Every learned experiment cell needs one of them, so
this module trains each model once per process at a configurable (CI-scale)
budget and memoizes the result.  Models are identified by
``(kind, training_steps, seed)``; the default budget is intentionally small —
large enough for the qualitative trends of the paper (Canopy's verifier reward
rises, Orca's does not; QC_sat ordering) to emerge, small enough for the whole
benchmark suite to run in minutes.

With ``REPRO_MODEL_ZOO`` set to a directory, the in-process cache is backed by
a **content-addressed on-disk zoo**: every freshly-trained model is published
(atomically, first writer wins) under a digest of its full cache identity, and
:func:`model_for_task` consults the zoo before training.  N serve workers —
or entirely separate processes pointed at the same directory — therefore
share one training run per cache key.  A zoo-loaded
:class:`~repro.harness.checkpoints.SavedModel` evaluates byte-identically to
the :class:`TrainedModel` it was published from: the actor weights round-trip
exactly through ``.npz`` (float64, uncompressed) and both policies clip the
actor output to the same ``[-1, 1]`` action box.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Dict, Optional, Sequence, Tuple

import numpy as np

from repro.core.config import CanopyConfig
from repro.core.properties import PropertySet
from repro.core.trainer import CanopyTrainer, TrainerConfig, TrainingResult
from repro.harness.checkpoints import SavedModel, VerifierCache, load_model, publish_model
from repro.harness.store import fingerprint
from repro.orca.observations import ObservationConfig
from repro.telemetry import log

__all__ = ["TrainedModel", "get_trained_model", "model_for_task", "clear_model_cache",
           "DEFAULT_TRAINING_STEPS", "MODEL_KINDS", "ZOO_ENV", "zoo_digest", "zoo_root"]

#: Environment variable naming the shared on-disk model-zoo directory.
ZOO_ENV = "REPRO_MODEL_ZOO"

DEFAULT_TRAINING_STEPS = 800

MODEL_KINDS = ("canopy-shallow", "canopy-deep", "canopy-robust", "orca")


@dataclass
class TrainedModel(VerifierCache):
    """A trained policy plus everything needed to evaluate it."""

    kind: str
    config: CanopyConfig
    training: TrainingResult

    @property
    def policy(self) -> Callable[[np.ndarray], np.ndarray]:
        return self.training.policy()

    @property
    def actor(self):
        return self.training.agent.actor

    @property
    def properties(self) -> PropertySet:
        return self.config.properties

    @property
    def observation_config(self) -> ObservationConfig:
        return self.config.observation


def _make_config(kind: str, lam: float | None, n_components: int | None, seed: int,
                 topologies: Tuple[str, ...] | None = None) -> CanopyConfig:
    if kind == "canopy-shallow":
        config = CanopyConfig.shallow(seed=seed)
    elif kind == "canopy-deep":
        config = CanopyConfig.deep(seed=seed)
    elif kind == "canopy-robust":
        config = CanopyConfig.robustness(seed=seed)
    elif kind == "orca":
        config = CanopyConfig.orca_baseline(seed=seed)
    else:
        raise ValueError(f"unknown model kind {kind!r}; known: {MODEL_KINDS}")
    if lam is not None:
        config = config.with_lambda(lam)
    if n_components is not None:
        config = config.with_components(n_components)
    if topologies is not None:
        config = config.with_topologies(topologies)
    return config


_CACHE: Dict[Tuple, TrainedModel] = {}

#: Zoo checkpoints already loaded this process (SavedModel handles).
_DISK_CACHE: Dict[Tuple, SavedModel] = {}


def _normalize_identity(kind: str, training_steps: int, seed: int,
                        lam: float | None, n_components: int | None,
                        topologies: Sequence[str] | None) -> Tuple:
    """The one cache/zoo identity for a model, shared by every lookup path."""
    topologies = tuple(str(spec) for spec in topologies) if topologies is not None else None
    if topologies == ("single_bottleneck",):
        # Every preset trains on single_bottleneck by default, so an explicit
        # single-bottleneck catalog shares the preset's cache entry instead of
        # retraining a bit-identical model under a second key.
        topologies = None
    return (kind, training_steps, seed, lam, n_components, topologies)


# ---------------------------------------------------------------------- #
# Content-addressed on-disk zoo (REPRO_MODEL_ZOO)
# ---------------------------------------------------------------------- #
def zoo_root() -> Optional[Path]:
    """The shared zoo directory, or None when ``REPRO_MODEL_ZOO`` is unset."""
    raw = os.environ.get(ZOO_ENV)
    return Path(raw) if raw else None


def zoo_digest(kind: str, training_steps: int = DEFAULT_TRAINING_STEPS,
               seed: int = 1, lam: float | None = None,
               n_components: int | None = None,
               topologies: Sequence[str] | None = None) -> str:
    """The content address of one model identity: readable prefix + digest.

    The digest covers the *full* normalized cache key (including λ,
    component-count and training-topology overrides), so two models that
    could ever train differently never share a checkpoint directory.
    """
    kind, training_steps, seed, lam, n_components, topologies = \
        _normalize_identity(kind, training_steps, seed, lam, n_components, topologies)
    digest = fingerprint({
        "kind": kind, "training_steps": training_steps, "seed": seed,
        "lam": lam, "n_components": n_components,
        "topologies": list(topologies) if topologies is not None else None,
    })
    return f"{kind}-s{training_steps}-r{seed}-{digest}"


def _zoo_load(key: Tuple) -> Optional[SavedModel]:
    root = zoo_root()
    if root is None:
        return None
    if key in _DISK_CACHE:
        return _DISK_CACHE[key]
    directory = root / zoo_digest(*key)
    if not (directory / "model.json").exists():
        return None
    model = load_model(directory, "model")
    _DISK_CACHE[key] = model
    log.debug("zoo_hit", logger="harness", kind=key[0], checkpoint=str(directory))
    return model


def _zoo_publish(model: "TrainedModel", key: Tuple) -> None:
    root = zoo_root()
    if root is None:
        return
    directory = publish_model(model, root / zoo_digest(*key), name="model")
    log.debug("zoo_publish", logger="harness", kind=key[0], checkpoint=str(directory))


def get_trained_model(
    kind: str,
    training_steps: int = DEFAULT_TRAINING_STEPS,
    seed: int = 1,
    lam: float | None = None,
    n_components: int | None = None,
    topologies: Sequence[str] | None = None,
) -> TrainedModel:
    """Train (or fetch a cached) model of the requested kind.

    Args:
        kind: One of :data:`MODEL_KINDS`.
        training_steps: Number of environment (monitor-interval) steps.
        seed: Seed for the environment and networks.
        lam: Override of the verifier-reward weight λ (None keeps the preset).
        n_components: Override of the number of QC partitions N.
        topologies: Override of the training-scenario catalog — topology
            family specs sampled per episode (None keeps the preset's
            single-bottleneck training; several specs train a
            domain-randomized model).
    """
    key = _normalize_identity(kind, training_steps, seed, lam, n_components, topologies)
    kind, training_steps, seed, lam, n_components, topologies = key
    if key in _CACHE:
        return _CACHE[key]
    config = _make_config(kind, lam, n_components, seed, topologies)
    trainer_config = TrainerConfig(
        total_steps=training_steps,
        log_every=max(10, training_steps // 20),
        use_verifier_reward=(kind != "orca"),
    )
    trainer = CanopyTrainer(config, trainer_config)
    training = trainer.train()
    model = TrainedModel(kind=kind, config=config, training=training)
    _CACHE[key] = model
    _zoo_publish(model, key)
    return model


def model_for_task(task):
    """The zoo model an :class:`~repro.harness.parallel.ExperimentTask` names.

    One definition of the task→model mapping, shared by pool workers
    (:func:`repro.harness.parallel.run_task`) and the registry's pre-training
    pass, so a task's model identity cannot drift between the pre-training
    parent and the forked workers.

    Resolution order: in-process cache, then the ``REPRO_MODEL_ZOO`` on-disk
    zoo (returning a :class:`~repro.harness.checkpoints.SavedModel`, which
    evaluates byte-identically), then a fresh training run (which publishes
    to the zoo when one is configured).  Callers that need the training
    history (``.training``) must go through :func:`get_trained_model`
    directly — evaluation-side callers only need the policy/verifier surface
    both model types share.
    """
    if task.model_kind is None:
        raise ValueError("task has no learned model (model_kind is None)")
    key = _normalize_identity(task.model_kind, task.training_steps, task.model_seed,
                              task.lam, task.model_components, task.model_topologies)
    if key in _CACHE:
        return _CACHE[key]
    saved = _zoo_load(key)
    if saved is not None:
        return saved
    return get_trained_model(key[0], training_steps=key[1], seed=key[2],
                             lam=key[3], n_components=key[4], topologies=key[5])


def clear_model_cache() -> None:
    """Drop every cached model handle (in-memory and loaded-from-zoo)."""
    _CACHE.clear()
    _DISK_CACHE.clear()
