"""Tests for model checkpointing (save/load to disk)."""

import errno
import os

import numpy as np
import pytest

from repro.harness import checkpoints
from repro.harness.checkpoints import SavedModel, load_model, publish_model, save_model
from repro.harness.evaluate import (
    EvaluationSettings,
    certificates_for_decisions,
    qcsat_columns,
    run_scheme_on_trace,
    scheme_factory,
)
from repro.traces.trace import BandwidthTrace


def test_save_and_load_round_trip(tmp_path, quick_model):
    directory = save_model(quick_model, tmp_path, name="checkpoint")
    loaded = load_model(directory, "checkpoint")

    assert isinstance(loaded, SavedModel)
    assert loaded.kind == quick_model.kind
    assert [p.name for p in loaded.properties] == [p.name for p in quick_model.properties]
    assert loaded.observation_config.history_len == quick_model.observation_config.history_len

    state = np.clip(np.random.default_rng(0).uniform(0, 1, quick_model.observation_config.state_dim), 0, 1)
    assert np.allclose(loaded.policy(state), quick_model.policy(state))


def test_load_missing_checkpoint_raises(tmp_path):
    with pytest.raises(FileNotFoundError):
        load_model(tmp_path, "nothing-here")


def test_loaded_model_drives_evaluation(tmp_path, quick_model):
    directory = save_model(quick_model, tmp_path)
    loaded = load_model(directory, quick_model.kind)
    trace = BandwidthTrace.constant(24.0, duration=20.0, name="const-24")
    settings = EvaluationSettings(duration=3.0, buffer_bdp=1.0, seed=2)

    run = run_scheme_on_trace(scheme_factory("canopy", model=loaded, seed=2), trace, settings,
                              scheme_name="canopy")
    assert run.summary.utilization > 0.0

    qcsat = qcsat_columns(certificates_for_decisions(
        loaded.make_verifier(n_components=4), loaded.properties, run.decisions))
    assert 0.0 <= qcsat["qcsat"] <= 1.0


def test_saved_model_verifier(tmp_path, quick_model):
    directory = save_model(quick_model, tmp_path)
    loaded = load_model(directory, quick_model.kind)
    verifier = loaded.make_verifier(n_components=3)
    state = np.zeros(loaded.observation_config.state_dim)
    cert = verifier.certify(loaded.properties.by_name("P1"), state, cwnd_tcp=20.0, cwnd_prev=20.0)
    assert cert.output_lo.shape == (1, 3)


@pytest.fixture
def small_saved_model():
    from repro.core.properties import shallow_buffer_properties
    from repro.nn import make_actor
    from repro.orca.observations import ObservationConfig

    actor = make_actor(ObservationConfig().state_dim, hidden_sizes=(4,), rng=np.random.default_rng(0))
    return SavedModel("canopy-shallow", actor, ObservationConfig(), shallow_buffer_properties(), {})


def test_publish_model_renames_into_place(tmp_path, small_saved_model):
    directory = publish_model(small_saved_model, tmp_path / "zoo" / "abc")
    assert load_model(directory, "model").kind == "canopy-shallow"
    assert sorted(path.name for path in (tmp_path / "zoo").iterdir()) == ["abc"]
    assert publish_model(small_saved_model, directory) == directory  # already published: kept


@pytest.mark.parametrize("code", (errno.EXDEV, errno.EACCES))
def test_publish_model_raises_a_failed_rename_that_is_no_lost_race(tmp_path, small_saved_model, monkeypatch,
                                                                    code):
    def failing_rename(source, target):
        raise OSError(code, os.strerror(code))

    monkeypatch.setattr(checkpoints.os, "rename", failing_rename)
    with pytest.raises(OSError) as raised:
        publish_model(small_saved_model, tmp_path / "zoo" / "abc")
    assert raised.value.errno == code
    assert list((tmp_path / "zoo").iterdir()) == []  # no checkpoint, no tmp copy left behind


def test_publish_model_keeps_the_winner_of_a_lost_race(tmp_path, small_saved_model, monkeypatch):
    target = tmp_path / "zoo" / "abc"
    winner = SavedModel("orca", small_saved_model.actor, small_saved_model.observation_config,
                        small_saved_model.properties, {})

    def racing_rename(source, destination):
        save_model(winner, destination, name="model")  # another process got there first
        raise OSError(errno.ENOTEMPTY, os.strerror(errno.ENOTEMPTY))

    monkeypatch.setattr(checkpoints.os, "rename", racing_rename)
    assert publish_model(small_saved_model, target) == target
    assert load_model(target, "model").kind == "orca"
    assert sorted(path.name for path in (tmp_path / "zoo").iterdir()) == ["abc"]
