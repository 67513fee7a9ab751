"""Shared fixtures for the test suite."""

from __future__ import annotations

import numpy as np
import pytest

from repro.nn import make_actor
from repro.orca.observations import ObservationBuilder, ObservationConfig
from repro.telemetry import log


@pytest.fixture(autouse=True)
def _drop_cli_log_handler():
    """A CLI call installs a stderr handler on the ``repro`` logger, bound to
    the test's captured stderr; drop it when the test ends, so later log
    lines do not go to a closed stream."""
    yield
    logger = log.get_logger()
    for handler in list(logger.handlers):
        if getattr(handler, "_repro_installed", False):
            logger.removeHandler(handler)


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(12345)


@pytest.fixture
def observation_config() -> ObservationConfig:
    return ObservationConfig()


@pytest.fixture
def observer(observation_config) -> ObservationBuilder:
    return ObservationBuilder(observation_config)


@pytest.fixture
def small_actor(observation_config, rng):
    """A small, deterministic actor network matching the observation dimension."""
    return make_actor(observation_config.state_dim, hidden_sizes=(16, 8), rng=rng)


@pytest.fixture(scope="session")
def quick_model():
    """A very small trained Canopy-shallow model shared across tests."""
    from repro.harness.models import get_trained_model

    return get_trained_model("canopy-shallow", training_steps=150, seed=11)


@pytest.fixture(scope="session")
def quick_orca_model():
    """A very small trained Orca baseline shared across tests."""
    from repro.harness.models import get_trained_model

    return get_trained_model("orca", training_steps=150, seed=11)
