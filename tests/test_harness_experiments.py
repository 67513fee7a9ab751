"""Smoke tests for the evaluation experiments (at very small scale).

These tests verify the structural contract of every figure through
``REGISTRY.run``, and the benchmark suite exercises them at the reporting
scale.
"""

import numpy as np
import pytest

from repro.harness import experiments
from repro.harness.registry import REGISTRY
from repro.harness.store import RunStore

#: Training budget and seed of every learned model in these tests.
QUICK_AXES = {"training_steps": 60, "seeds": (31,)}


@pytest.mark.slow
class TestMotivation:
    def test_fig1_noise(self):
        result = REGISTRY.run("motivation_noise", {"duration": 4.0, **QUICK_AXES})
        assert result["figure"] == "1"
        assert {r["scheme"] for r in result["rows"]} == {"orca", "orca-noise", "canopy", "canopy-noise"}
        assert "orca_noise_drop" in result and "canopy_noise_drop" in result
        assert len(result["series"]["orca"]["time"]) > 0

    def test_fig2_bad_state(self):
        result = REGISTRY.run("motivation_bad_state", {"duration": 4.0, **QUICK_AXES})
        assert result["figure"] == "2"
        assert {r["scheme"] for r in result["rows"]} == {"orca", "canopy"}
        assert len(result["series"]["canopy"]["decision_time"]) > 0

    def test_series_keys_carry_the_seed_when_several_run(self):
        result = REGISTRY.run("motivation_bad_state", {"duration": 2.0, "training_steps": 30,
                                                        "seeds": (1, 2)})
        assert set(result["series"]) == {"orca/seed=1", "canopy/seed=1",
                                         "orca/seed=2", "canopy/seed=2"}
        assert all("series" not in row for row in result["rows"])


@pytest.mark.slow
class TestQCSatFigures:
    def test_fig5_structure(self):
        result = REGISTRY.run("qcsat_buffers", {"duration": 3.0, "n_components": 5,
                                                "n_synthetic": 1, "n_cellular": 1,
                                                **QUICK_AXES})
        rows = result["rows"]
        assert len(rows) == 8  # 2 families x 2 trace kinds x 2 schemes
        for row in rows:
            assert 0.0 <= row["qcsat_mean"] <= 1.0

    def test_fig6_components(self):
        result = REGISTRY.run("certified_components", {"duration": 3.0, "n_components": 6,
                                                       "max_steps": 5, **QUICK_AXES})
        assert result["figure"] == "6/8"
        (row,) = result["rows"]
        assert row["model"] == "canopy-shallow"
        assert len(row["steps"]) > 0
        first = row["steps"][0]
        assert np.asarray(first["output_bounds"]).shape == (6, 2)

    def test_fig8_grid_shards_identically(self):
        # The model x trace grid of Fig. 8, its certificate columns computed
        # in pool workers through the registered partial runner.
        overrides = {"model_kind": "canopy-robust,orca", "property_family": "robustness",
                     "trace_name": "step-12-48,flux-mid", "buffer_bdp": 2.0,
                     "duration": 2.0, "n_components": 4, "max_steps": 3, **QUICK_AXES}
        serial = REGISTRY.run("certified_components", overrides, n_jobs=1)
        parallel = REGISTRY.run("certified_components", overrides, n_jobs=2)
        assert serial["rows"] == parallel["rows"]
        assert [(row["model"], row["trace"]) for row in serial["rows"]] == [
            ("canopy-robust", "step-12-48"), ("canopy-robust", "flux-mid"),
            ("orca", "step-12-48"), ("orca", "flux-mid")]
        for row in serial["rows"]:
            assert {step["property"] for step in row["steps"]} == {"P5"}
            assert len(row["steps"]) == 3

    def test_fig7_robustness(self):
        result = REGISTRY.run("qcsat_robustness", {"duration": 3.0, "n_components": 5,
                                                   "n_synthetic": 1, "n_cellular": 1,
                                                   **QUICK_AXES})
        assert len(result["rows"]) == 4
        for row in result["rows"]:
            assert row["scheme"] in ("canopy", "orca")


@pytest.mark.slow
class TestPerformanceFigures:
    def test_fig9_shallow_sweep(self):
        result = REGISTRY.run("performance_sweep", {"buffer_bdp": 1.0, "duration": 4.0,
                                                    "n_synthetic": 1, "n_cellular": 1,
                                                    **QUICK_AXES})
        assert result["figure"] == "9"
        schemes = {row["scheme"] for row in result["rows"]}
        assert schemes == {"canopy", "orca", "cubic", "vegas", "bbr"}

    def test_fig10_deep_sweep(self):
        result = REGISTRY.run("performance_sweep", {"buffer_bdp": 5.0,
                                                    "canopy_kind": "canopy-deep",
                                                    "duration": 4.0, "n_synthetic": 1,
                                                    "n_cellular": 1, **QUICK_AXES})
        assert result["figure"] == "10"

    def test_fig11_noise_sensitivity(self):
        result = REGISTRY.run("noise_sensitivity", {"duration": 4.0, "n_traces": 1,
                                                    **QUICK_AXES})
        assert {row["scheme"] for row in result["rows"]} == {"orca", "canopy"}
        for row in result["rows"]:
            assert np.isfinite(row["utilization_change_pct"])

    def test_fig12_realworld(self):
        result = REGISTRY.run("realworld_deployment", {"duration": 4.0,
                                                       "profiles_per_category": 1,
                                                       **QUICK_AXES})
        categories = {row["category"] for row in result["rows"]}
        assert categories == {"intra", "inter"}
        for row in result["rows"]:
            assert 0.0 < row["normalized_throughput"] <= 1.0 + 1e-9
            assert row["normalized_delay"] >= 1.0 - 1e-9

    FALLBACK = {"duration": 3.0, "thresholds": (0.0, 0.8), "n_components": 4,
                "n_traces": 1, **QUICK_AXES}

    def test_fig13_fallback(self):
        result = REGISTRY.run("fallback_runtime", self.FALLBACK)
        assert len(result["rows"]) == 8  # 2 families x 2 schemes x 2 thresholds
        for row in result["rows"]:
            assert 0.0 <= row["fallback_fraction"] <= 1.0

    def test_fig13_fallback_shards_identically(self):
        serial = REGISTRY.run("fallback_runtime", self.FALLBACK, n_jobs=1)
        parallel = REGISTRY.run("fallback_runtime", self.FALLBACK, n_jobs=2)
        assert serial["rows"] == parallel["rows"]


@pytest.mark.slow
class TestTopologySweep:
    def test_topology_sweep_structure(self):
        result = REGISTRY.run("topology_sweep", {
            "families": ("single_bottleneck", "chain(2)", "parking_lot(2)"),
            "schemes": ("cubic", "vegas"), "duration": 3.0, "n_synthetic": 1,
            "seeds": (31,)})
        assert result["figure"] == "topology"
        assert len(result["rows"]) == 6  # 3 families x 2 schemes
        assert result["ticks"] == 6 * 300
        assert result["ticks_per_sec"] > 0.0
        for row in result["rows"]:
            assert 0.0 < row["utilization"] <= 1.5
            assert row["avg_delay_ms"] >= 0.0

    def test_topology_sweep_defaults_cover_family_catalog(self):
        result = REGISTRY.run("topology_sweep", {"duration": 2.0, "n_synthetic": 1,
                                                 "seeds": (31,)})
        assert set(result["families"]) == {"single_bottleneck", "chain(3)",
                                           "parking_lot(3)", "dumbbell",
                                           "fan_in(3)", "tree(2)", "shared_segment"}

    def test_performance_sweep_topology_axis(self):
        result = REGISTRY.run("performance_sweep", {
            "buffer_bdp": 1.0, "duration": 3.0, "n_synthetic": 1, "n_cellular": 1,
            "topologies": ("single_bottleneck", "chain(2)"), **QUICK_AXES})
        rows = result["rows"]
        assert len(rows) == 20  # 2 topologies x 2 trace kinds x 5 schemes
        assert {row["topology"] for row in rows} == {"single_bottleneck", "chain(2)"}


@pytest.mark.slow
class TestTopologyGeneralization:
    GRID = {"families": ("single_bottleneck", "chain(2)", "parking_lot(2)"),
            "duration": 2.0, "n_components": 4, "n_traces": 1, **QUICK_AXES}
    #: Two families, per-family models only.
    PAIR = {**GRID, "families": ("single_bottleneck", "chain(2)"), "include_mixed": False}

    def test_needs_at_least_two_families(self):
        with pytest.raises(ValueError):
            REGISTRY.run("topology_generalization", {"families": ["chain(2)"], **QUICK_AXES})

    def test_mixed_label_is_reserved(self):
        with pytest.raises(ValueError):
            REGISTRY.run("topology_generalization", {
                "families": [experiments.MIXED_TRAINING_LABEL, "chain(2)"], **QUICK_AXES})

    def test_duplicate_families_rejected(self):
        with pytest.raises(ValueError):
            REGISTRY.run("topology_generalization",
                         {"families": ["chain(2)", "chain(2)"], **QUICK_AXES})

    def test_grid_structure_and_mixed_model(self):
        result = REGISTRY.run("topology_generalization", self.GRID, n_jobs=1)
        families = list(self.GRID["families"])
        assert result["figure"] == "topology_generalization"
        assert result["families"] == families
        assert result["train_families"] == families + [experiments.MIXED_TRAINING_LABEL]
        assert len(result["rows"]) == 4 * 3  # (3 single-family models + mixed) x 3 eval families
        cells = {(row["train_family"], row["eval_family"]) for row in result["rows"]}
        assert len(cells) == len(result["rows"]), "duplicate (train, eval) cells"
        for row in result["rows"]:
            assert 0.0 <= row["qcsat"] <= 1.0
            assert 0.0 < row["utilization"] <= 1.5
            assert row["avg_delay_ms"] >= 0.0
            assert row["n_traces"] == 1
        assert result["certificates"] > 0
        assert result["certificates_per_sec"] > 0.0

    def test_include_mixed_false_trains_per_family_only(self):
        result = REGISTRY.run("topology_generalization", self.PAIR, n_jobs=1)
        assert result["train_families"] == ["single_bottleneck", "chain(2)"]
        assert len(result["rows"]) == 4

    def test_serial_and_parallel_rows_identical(self):
        serial = REGISTRY.run("topology_generalization", self.GRID, n_jobs=1)
        parallel = REGISTRY.run("topology_generalization", self.GRID, n_jobs=2)
        assert serial["rows"] == parallel["rows"]
        assert serial["train_families"] == parallel["train_families"]

    def test_registry_run_resumes_from_store(self, tmp_path):
        stored = REGISTRY.run("topology_generalization", self.GRID,
                              store=RunStore(tmp_path), resume=True)
        resumed = REGISTRY.run("topology_generalization", self.GRID,
                               store=RunStore(tmp_path), resume=True)
        assert resumed["computed_cells"] == 0
        assert resumed["rows"] == stored["rows"]
        # Cached cells certified nothing this run: no throughput is claimed.
        assert resumed["certificates_per_sec"] == 0.0

    def test_property_family_product_axis_in_one_store(self, tmp_path):
        # The ROADMAP open item: families x property_family certified within
        # ONE grid (and one resumable store) instead of one rerun per family.
        overrides = {"families": "single_bottleneck,chain(2)", "include_mixed": "0",
                     "training_steps": "40", "duration": "2.0", "n_components": "4",
                     "n_traces": "1", "seeds": "1", "property_family": "shallow,deep"}
        store = RunStore(tmp_path)
        result = REGISTRY.run("topology_generalization", overrides, store=store,
                              resume=True)
        assert result["property_family"] == ["shallow", "deep"]
        assert len(result["rows"]) == 2 * 4  # 2 property families x (2x2) grid
        assert {row["property_family"] for row in result["rows"]} == {"shallow", "deep"}
        for row in result["rows"]:
            assert 0.0 <= row["qcsat"] <= 1.0
        # One store holds both certified families, and a rerun is fully cached.
        families_in_store = {record.spec["property_family"]
                             for record in store.records()}
        assert families_in_store == {"shallow", "deep"}
        resumed = REGISTRY.run("topology_generalization", overrides, store=store,
                               resume=True)
        assert resumed["computed_cells"] == 0
        assert resumed["rows"] == result["rows"]
        # Growing a single-family store to the product axis reuses the cached
        # single-family cells (the family lives in the scenario key, not in a
        # fingerprint-changing tag): only the new family's cells compute.
        grown = REGISTRY.run("topology_generalization",
                             {**overrides, "property_family": "shallow,deep,robustness"},
                             store=store, resume=True)
        assert grown["computed_cells"] == 4  # only the robustness cells

    def test_single_property_family_keeps_legacy_row_shape(self):
        result = REGISTRY.run("topology_generalization", self.PAIR, n_jobs=1)
        assert result["property_family"] == "shallow"
        assert all("property_family" not in row for row in result["rows"])

    def test_larger_grid_via_set_overrides_no_code_change(self):
        # The ROADMAP scale-up: >= 3 seeds per cell and the cellular suite on
        # the eval axis, purely through string (--set style) overrides.
        result = REGISTRY.run("topology_generalization", {
            "families": "single_bottleneck,chain(2)",
            "include_mixed": "0",
            "training_steps": "40",
            "duration": "2.0",
            "n_components": "4",
            "trace": "cellular",
            "n_traces": "1",
            "seeds": "0..2",
        })
        assert result["train_families"] == ["single_bottleneck", "chain(2)"]
        assert len(result["rows"]) == 4
        for row in result["rows"]:
            assert row["n_cells"] == 3  # 3 seeds x 1 cellular trace per cell
            assert row["n_traces"] == 1
            assert 0.0 <= row["qcsat"] <= 1.0
        assert result["computed_cells"] == 12
        assert result["axes"]["trace"] == ["cellular"]
        assert result["axes"]["seeds"] == [0, 1, 2]


@pytest.mark.slow
class TestWorkloadStress:
    GRID = {"schemes": ("canopy-shallow",), "topology": ("single_bottleneck", "fan_in(2)"),
            "workload": ("static", "poisson(0.5)"), "duration": 2.0, "n_components": 4,
            "n_traces": 1, **QUICK_AXES}

    def test_grid_structure_and_certification(self):
        result = REGISTRY.run("workload_stress", self.GRID, n_jobs=1)
        assert result["figure"] == "workload_stress"
        assert result["workloads"] == ["static", "poisson(0.5)"]
        assert len(result["rows"]) == 4  # 2 topologies x 2 workloads
        for row in result["rows"]:
            assert row["workload"] in ("static", "poisson(0.5)")
            assert 0.0 < row["utilization"] <= 1.5
            assert 0.0 <= row["qcsat"] <= 1.0
        assert result["certificates"] > 0

    def test_serial_and_parallel_rows_identical(self):
        serial = REGISTRY.run("workload_stress", self.GRID, n_jobs=1)
        parallel = REGISTRY.run("workload_stress", self.GRID, n_jobs=2)
        assert serial["rows"] == parallel["rows"]

    def test_registry_resume_round_trip(self, tmp_path):
        # The acceptance shape: run, resume (all cached), rows byte-identical.
        import json

        overrides = {"schemes": "canopy-shallow", "topology": "fan_in(2)",
                     "workload": "poisson(0.5)", "training_steps": "60",
                     "duration": "2.0", "n_components": "4", "seeds": "31"}
        first = REGISTRY.run("workload_stress", overrides, n_jobs=2,
                             store=RunStore(tmp_path), resume=True)
        again = REGISTRY.run("workload_stress", overrides, n_jobs=1,
                             store=RunStore(tmp_path), resume=True)
        assert again["computed_cells"] == 0
        assert json.dumps(first["rows"]) == json.dumps(again["rows"])
        # The scenario keys carry the workload axis.
        (record,) = RunStore(tmp_path).records()
        assert record.spec["workload"] == "poisson(0.5)"
        assert "workload=poisson(0.5)" in record.key

    def test_classical_schemes_run_uncertified(self):
        result = REGISTRY.run("workload_stress", {
            "schemes": ("cubic",), "topology": ("fan_in(2)",),
            "workload": ("responsive(cubic)",), "duration": 2.0, "n_traces": 1,
            **QUICK_AXES}, n_jobs=1)
        (row,) = result["rows"]
        assert "qcsat" not in row
        assert result["certificates"] == 0


@pytest.mark.slow
class TestSensitivity:
    GRID = {"n_values": (1, 2), "lambda_values": (0.25,), "training_steps": 40,
            "duration": 3.0, "n_traces": 1, "seeds": (31,)}

    def test_fig16_sensitivity(self):
        result = REGISTRY.run("sensitivity", self.GRID)
        labels = {row["label"] for row in result["rows"]}
        assert "N1-lam0.25" in labels and "N2-lam0.25" in labels

    def test_fig16_trains_each_configuration_once(self):
        # (5, 0.25) is both on the N axis and on the lambda axis: one model.
        plan = REGISTRY.plan("sensitivity", {**self.GRID, "n_values": (1, 5),
                                             "lambda_values": (0.25, 0.5)})
        assert [(task.model_components, task.lam) for task in plan.tasks] == [
            (1, 0.25), (5, 0.25), (5, 0.5)]
