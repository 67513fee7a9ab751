"""Tests for the command-line interface."""

from pathlib import Path

import pytest

from repro.cli import FIGURE_EXPERIMENTS, build_parser, main
from repro.nn.serialization import load_weight_dict


def test_parser_requires_subcommand():
    parser = build_parser()
    with pytest.raises(SystemExit):
        parser.parse_args([])


def test_list_traces(capsys):
    assert main(["list-traces"]) == 0
    out = capsys.readouterr().out
    assert "step-12-48" in out
    assert "cellular-att" in out


def test_unknown_trace_errors():
    with pytest.raises(SystemExit):
        main(["evaluate", "--trace", "not-a-trace", "--steps", "30"])


def test_train_command_saves_weights(tmp_path, capsys):
    out_path = tmp_path / "agent.npz"
    code = main(["train", "--kind", "orca", "--steps", "30", "--seed", "51",
                 "--out", str(out_path)])
    assert code == 0
    output = capsys.readouterr().out
    assert "trained orca" in output
    # The per-window reward curve (Fig. 17) prints as a table.
    trained, header, separator, *rows, saved = output.splitlines()
    assert header.split() == ["step", "raw", "verifier", "total"]
    assert set(separator) == {"-", " "}
    assert [int(row.split()[0]) for row in rows] == [10, 20, 30]
    assert all(len(row.split()) == 4 for row in rows)
    assert saved.startswith("saved agent weights")
    weights = load_weight_dict(out_path)
    assert "actor" in weights and "critic1" in weights


def test_evaluate_command_prints_table(capsys):
    code = main(["evaluate", "--kind", "canopy-shallow", "--steps", "30", "--seed", "52",
                 "--trace", "step-12-48", "--duration", "3.0"])
    assert code == 0
    out = capsys.readouterr().out
    assert "canopy-shallow" in out and "cubic" in out and "utilization" in out


def test_certify_command_reports_qcsat(capsys):
    code = main(["certify", "--kind", "canopy-shallow", "--steps", "30", "--seed", "52",
                 "--trace", "step-12-48", "--duration", "3.0", "--components", "5"])
    assert code == 0
    out = capsys.readouterr().out
    assert "QC_sat" in out


def test_certify_rejects_zero_components_before_training(monkeypatch):
    def no_training(*args, **kwargs):
        raise AssertionError("trained a model for an invalid task")

    # With the model caches empty and no zoo, every model acquisition (the
    # registry's pre-training pass included) trains through CanopyTrainer.
    monkeypatch.setattr("repro.harness.models._CACHE", {})
    monkeypatch.delenv("REPRO_MODEL_ZOO", raising=False)
    monkeypatch.setattr("repro.harness.models.CanopyTrainer", no_training)
    with pytest.raises(ValueError, match="n_components must be positive"):
        main(["certify", "--kind", "canopy-shallow", "--steps", "30", "--seed", "52",
              "--trace", "step-12-48", "--duration", "3.0", "--components", "0"])


def test_figure_command_unknown_id():
    with pytest.raises(SystemExit):
        main(["figure", "99"])


def test_figure_experiments_cover_every_simulated_figure():
    # Every figure id is a registry experiment; the training curves (17)
    # print from `train` and Table 4 lives in the benchmarks.
    assert set(FIGURE_EXPERIMENTS) == {
        "1", "2", "5", "6", "7", "8", "9", "10", "11", "12", "13", "14", "15", "16",
        "topology"}


@pytest.mark.parametrize("figure_id", ["17", "table4"])
def test_figure_ids_without_a_grid_are_unknown(figure_id):
    with pytest.raises(SystemExit) as excinfo:
        main(["figure", figure_id])
    assert "known: 1, 2, 5" in str(excinfo.value)


def test_list_traces_includes_topology_families(capsys):
    assert main(["list-traces"]) == 0
    out = capsys.readouterr().out
    assert "chain(3)" in out and "dumbbell" in out


def test_evaluate_with_topology_flag(capsys):
    code = main(["evaluate", "--kind", "canopy-shallow", "--steps", "30", "--seed", "52",
                 "--trace", "step-12-48", "--duration", "3.0", "--topology", "chain(2)"])
    assert code == 0
    out = capsys.readouterr().out
    assert "canopy-shallow" in out and "utilization" in out


def test_evaluate_rejects_bad_topology():
    with pytest.raises(ValueError):
        main(["evaluate", "--kind", "canopy-shallow", "--steps", "30", "--seed", "52",
              "--trace", "step-12-48", "--duration", "3.0", "--topology", "mesh(9)"])


def test_list_traces_includes_workload_specs(capsys):
    assert main(["list-traces"]) == 0
    out = capsys.readouterr().out
    assert "poisson(0.25)" in out and "responsive(cubic:2)" in out


def test_evaluate_with_workload_flag(capsys):
    code = main(["evaluate", "--kind", "canopy-shallow", "--steps", "30", "--seed", "52",
                 "--trace", "step-12-48", "--duration", "3.0",
                 "--topology", "fan_in(2)", "--workload", "responsive(cubic)"])
    assert code == 0
    out = capsys.readouterr().out
    assert "canopy-shallow" in out and "utilization" in out


def test_evaluate_rejects_bad_workload():
    with pytest.raises(ValueError):
        main(["evaluate", "--kind", "canopy-shallow", "--steps", "30", "--seed", "52",
              "--trace", "step-12-48", "--duration", "3.0", "--workload", "surge(9)"])


def test_compare_classical_with_workload(capsys):
    code = main(["compare-classical", "--traces", "1", "--duration", "3.0",
                 "--topology", "shared_segment", "--workload", "step(1-2)"])
    assert code == 0
    out = capsys.readouterr().out
    assert "cubic" in out


def test_compare_classical_with_topology(capsys):
    code = main(["compare-classical", "--traces", "1", "--duration", "3.0",
                 "--topology", "parking_lot(2)"])
    assert code == 0
    out = capsys.readouterr().out
    assert "cubic" in out


def test_compare_classical_command(capsys):
    code = main(["compare-classical", "--traces", "1", "--duration", "3.0"])
    assert code == 0
    out = capsys.readouterr().out
    for scheme in ("cubic", "newreno", "vegas", "bbr"):
        assert scheme in out


#: Byte-for-byte stdout pins of the evaluate/certify/compare-classical
#: presets (regenerate per tests/golden/cli/README.md).
CLI_GOLDEN_DIR = Path(__file__).resolve().parent / "golden" / "cli"
SMALL_MODEL = ["--steps", "30", "--seed", "52", "--duration", "3.0"]
COMPARE_PARKING_LOT = ["compare-classical", "--traces", "2", "--duration", "3.0",
                       "--topology", "parking_lot(2)"]


@pytest.mark.parametrize("golden, argv", [
    ("evaluate_fan_in_responsive.txt",
     ["evaluate", *SMALL_MODEL, "--topology", "fan_in(2)", "--workload", "responsive(cubic)"]),
    ("evaluate_rtt_buffer.txt", ["evaluate", *SMALL_MODEL, "--rtt", "0.06", "--buffer-bdp", "2.0"]),
    ("certify_components_5.txt", ["certify", *SMALL_MODEL, "--components", "5"]),
    ("compare_classical_parking_lot.txt", [*COMPARE_PARKING_LOT, "--jobs", "1"]),
    ("compare_classical_parking_lot.txt", [*COMPARE_PARKING_LOT, "--jobs", "2"]),
], ids=["evaluate-fan_in", "evaluate-rtt-buffer", "certify-N5",
        "compare-classical-jobs1", "compare-classical-jobs2"])
def test_cli_stdout_matches_golden(golden, argv, capsys):
    assert main(argv) == 0
    assert capsys.readouterr().out == (CLI_GOLDEN_DIR / golden).read_text()


RUN_SETS = ["--set", "schemes=cubic", "--set", "families=single_bottleneck,chain(2)",
            "--set", "duration=2.0", "--set", "n_synthetic=1", "--set", "seeds=0"]


def test_run_list_shows_registered_experiments(capsys):
    assert main(["run", "--list"]) == 0
    out = capsys.readouterr().out
    for name in ("topology_sweep", "topology_generalization", "fallback_runtime",
                 "friendliness", "fairness"):
        assert name in out
    assert "--set seeds=" in out


def test_run_unknown_experiment_errors(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    with pytest.raises(SystemExit, match="no experiment named"):
        main(["run", "not-an-experiment", "--resume"])
    # The typo'd name must not leave a stray default store directory behind.
    assert not (tmp_path / "runs").exists()


def test_run_unknown_axis_errors_listing_valid_axes():
    with pytest.raises(SystemExit, match="valid axes"):
        main(["run", "topology_sweep", "--set", "familiez=single_bottleneck"])


def test_run_malformed_set_errors():
    with pytest.raises(SystemExit, match="malformed"):
        main(["run", "topology_sweep", "--set", "families"])


def test_run_topology_sweep_with_store_and_resume(tmp_path, capsys):
    store = str(tmp_path / "store")
    assert main(["run", "topology_sweep", *RUN_SETS, "--store", store, "--resume"]) == 0
    first = capsys.readouterr().out
    assert "Run topology_sweep" in first
    assert "computed_cells: 2" in first and "cached_cells: 0" in first
    # Second run must serve every cell from the store.
    assert main(["run", "topology_sweep", *RUN_SETS, "--store", store, "--resume"]) == 0
    second = capsys.readouterr().out
    assert "computed_cells: 0" in second
    assert "resume: all 2 cells cached" in second
    # Cached cells did not tick this run, so no throughput is claimed.
    assert "ticks_per_sec: 0.0" in second
    # The store passes RunRecord schema validation end to end.
    from repro.harness.store import main as store_main

    assert store_main([store]) == 0


def test_resumed_run_prints_the_fresh_table(tmp_path, capsys):
    """Cached rows come back from the store with the columns in the order
    the fresh run printed them."""
    argv = ["run", "scheme_grid", "--set", "schemes=cubic,bbr", "--set", "traces=step-12-48",
            "--set", "duration=2.0", "--store", str(tmp_path / "store"), "--resume"]
    assert main(argv) == 0
    fresh = capsys.readouterr().out
    assert main(argv) == 0
    resumed = capsys.readouterr().out
    assert "computed_cells: 2" in fresh and "resume: all 2 cells cached" in resumed
    table = fresh.split("wall_clock_s:")[0]
    assert table.strip().splitlines()[3].split()[:4] == ["scheme", "trace", "seed", "topology"]
    assert resumed.split("wall_clock_s:")[0] == table


def test_experiment_subcommand_is_gone(capsys):
    with pytest.raises(SystemExit) as excinfo:
        main(["experiment", "topology_sweep"])
    assert excinfo.value.code == 2
    assert "invalid choice: 'experiment'" in capsys.readouterr().err
    subcommands = next(action for action in build_parser()._actions
                       if action.dest == "command")
    assert len(subcommands.choices) == 11


def test_figure_experiments_are_known_figure_ids():
    from repro.harness.registry import REGISTRY

    for name, overrides in FIGURE_EXPERIMENTS.values():
        axes = REGISTRY.get(name).axes
        assert {"training_steps", "seeds"} <= set(axes)
        assert set(overrides) <= set(axes)


def test_figure_routes_registry_figures_through_resumable_store(
        tmp_path, capsys, monkeypatch):
    monkeypatch.setitem(FIGURE_EXPERIMENTS, "topology",
                        ("topology_sweep", {"families": ("single_bottleneck",),
                                            "schemes": ("cubic",),
                                            "duration": 2.0, "n_synthetic": 1}))
    store = str(tmp_path / "figstore")
    assert main(["figure", "topology", "--steps", "30", "--store", store]) == 0
    first = capsys.readouterr().out
    assert "Figure topology" in first and "computed_cells: 1" in first
    assert f"store: {store}" in first
    # Re-rendering the figure against the same store recomputes nothing.
    assert main(["figure", "topology", "--steps", "30", "--store", store]) == 0
    second = capsys.readouterr().out
    assert "computed_cells: 0" in second and "cached_cells: 1" in second
    # --fresh forces a full recompute.
    assert main(["figure", "topology", "--steps", "30", "--store", store,
                 "--fresh"]) == 0
    assert "computed_cells: 1" in capsys.readouterr().out


def test_figure_11_resumes_from_its_store(tmp_path, capsys, monkeypatch):
    # A former driver figure takes --store and --jobs like every other id.
    monkeypatch.setitem(FIGURE_EXPERIMENTS, "11",
                        ("noise_sensitivity", {"duration": 2.0, "n_traces": 1}))
    store = str(tmp_path / "fig11")
    assert main(["figure", "11", "--steps", "30", "--store", store, "--jobs", "2"]) == 0
    first = capsys.readouterr().out
    assert "Figure 11" in first and "computed_cells: 4" in first
    assert main(["figure", "11", "--steps", "30", "--store", store]) == 0
    second = capsys.readouterr().out
    assert "computed_cells: 0" in second and "cached_cells: 4" in second


# --------------------------------------------------------------------- #
# serve / status subcommands (ISSUE 8)
# --------------------------------------------------------------------- #
SERVE_SETS = ["--set", "schemes=cubic", "--set", "topology=single_bottleneck",
              "--set", "workload=static", "--set", "duration=2.0",
              "--set", "seeds=1,2"]


def test_serve_inline_then_status(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("REPRO_MODEL_ZOO", str(tmp_path / "zoo"))
    store = str(tmp_path / "store")
    assert main(["serve", "workload_stress", *SERVE_SETS, "--store", store,
                 "--workers", "0"]) == 0
    out = capsys.readouterr().out
    assert "Serve workload_stress" in out
    assert "served: 2 cell(s)" in out and "0 reclaim(s)" in out
    assert main(["status", store]) == 0
    status_out = capsys.readouterr().out
    assert "experiment: workload_stress (done)" in status_out
    assert "2 completed" in status_out


def test_serve_unknown_experiment_errors(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    with pytest.raises(SystemExit, match="no experiment named"):
        main(["serve", "not-an-experiment"])
    assert not (tmp_path / "runs").exists()


def test_status_without_journal_errors(tmp_path):
    with pytest.raises(SystemExit, match="no lease journal"):
        main(["status", str(tmp_path)])


def test_run_command_runs_generalization_grid(capsys):
    code = main(["run", "topology_generalization", "--set", "training_steps=40",
                 "--set", "seeds=54", "--set", "duration=2.0",
                 "--set", "families=single_bottleneck,chain(2)", "--jobs", "1"])
    assert code == 0
    out = capsys.readouterr().out
    assert "Run topology_generalization" in out
    assert "train_family" in out and "eval_family" in out
    assert "mixed" in out and "chain(2)" in out


# --------------------------------------------------------------------- #
# trace subcommand (ISSUE 7)
# --------------------------------------------------------------------- #
TRACED_SETS = ["--set", "schemes=cubic", "--set", "topology=fan_in(3)",
               "--set", "workload=poisson(0.1)", "--set", "duration=2.0",
               "--set", "seeds=1", "--set", "telemetry=on(10)"]


@pytest.fixture(scope="module")
def traced_store(tmp_path_factory):
    """A one-cell traced workload_stress store, built once per module."""
    store = str(tmp_path_factory.mktemp("traced") / "store")
    assert main(["run", "workload_stress", *TRACED_SETS, "--store", store]) == 0
    return store


def test_trace_renders_timeline_and_summary(traced_store, capsys):
    capsys.readouterr()
    assert main(["trace", traced_store, "--validate"]) == 0
    out = capsys.readouterr().out
    assert "(schema valid)" not in out  # count and validity share one tag...
    assert "events, schema valid)" in out  # ...formatted as "(N events, schema valid)"
    assert "cell: scheme=cubic" in out
    for lane in ("drop", "flow", "conservation"):
        assert lane in out
    assert "tele_n_events" in out
    assert "1 traced cell(s)" in out


def test_trace_filters_event_groups(traced_store, capsys):
    capsys.readouterr()
    assert main(["trace", traced_store, "--events", "flow", "--width", "32"]) == 0
    out = capsys.readouterr().out
    assert "flow" in out and "conservation |" not in out


def test_trace_rejects_unknown_group(traced_store):
    with pytest.raises(SystemExit, match="unknown event group"):
        main(["trace", traced_store, "--events", "fallback,nope"])


def test_trace_cell_filter_no_match_lists_traced_cells(traced_store):
    with pytest.raises(SystemExit, match="no traced cell matching"):
        main(["trace", traced_store, "--cell", "scheme=bbr"])


def test_trace_untraced_store_exits_one(tmp_path, capsys):
    store = str(tmp_path / "store")
    assert main(["run", "topology_sweep", *RUN_SETS, "--store", store]) == 0
    capsys.readouterr()
    assert main(["trace", store]) == 1
    assert "no traced cells" in capsys.readouterr().out


def test_trace_rejects_non_store_path(tmp_path):
    with pytest.raises(SystemExit, match="not a run store"):
        main(["trace", str(tmp_path)])


def test_quiet_and_verbose_flags_configure_logging(tmp_path, capsys):
    import logging

    store = str(tmp_path / "store")
    assert main(["--verbose", "run", "topology_sweep", *RUN_SETS,
                 "--store", store]) == 0
    assert logging.getLogger("repro").level == logging.INFO
    assert main(["--quiet", "trace", store]) == 1  # untraced: exit 1, not a crash
    assert logging.getLogger("repro").level == logging.ERROR
