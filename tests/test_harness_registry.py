"""Tests for the experiment registry: axes, overrides, store-backed resume."""

import hashlib
import json

import pytest

from repro.harness.evaluate import EvaluationSettings
from repro.harness.parallel import ExperimentTask, run_task
from repro.harness.registry import (
    REGISTRY,
    ExperimentRegistry,
    coerce_axis_value,
    parse_set_overrides,
)
from repro.harness.store import RunStore
from repro.traces.trace import BandwidthTrace

TOY_AXES = {
    "schemes": ("cubic", "vegas", "newreno"),
    "duration": 2.0,
    "buffer_bdp": 1.0,
    "seeds": (7,),
    "stochastic": False,
    "label": None,
}


def _toy_build(axes):
    trace = BandwidthTrace.constant(12.0, duration=30.0, name="const-12")
    tasks = []
    for seed in axes["seeds"]:
        settings = EvaluationSettings(duration=axes["duration"],
                                      buffer_bdp=axes["buffer_bdp"], seed=seed)
        for index, scheme in enumerate(axes["schemes"]):
            tasks.append(ExperimentTask(scheme=scheme, trace=trace, settings=settings,
                                        tags={"cell": index}))
    return tasks


def make_registry() -> ExperimentRegistry:
    registry = ExperimentRegistry()
    registry.register("toy", axes=TOY_AXES, description="toy classical grid")(_toy_build)
    return registry


#: Module-level flaky runner so the interruption test can kill a sweep
#: mid-grid deterministically (serial order) and then let the resume finish.
_FLAKY = {"fail_after": None, "count": 0}


def flaky_run_task(task):
    if _FLAKY["fail_after"] is not None and _FLAKY["count"] >= _FLAKY["fail_after"]:
        raise RuntimeError("simulated mid-sweep crash")
    _FLAKY["count"] += 1
    return run_task(task)


class TestRegistration:
    def test_names_describe_and_lookup(self):
        registry = make_registry()
        assert registry.names() == ["toy"]
        entry = registry.describe()[0]
        assert entry["experiment"] == "toy"
        assert entry["description"] == "toy classical grid"
        assert entry["axes"]["duration"] == 2.0
        with pytest.raises(ValueError, match="no experiment named"):
            registry.get("nope")

    def test_builtin_experiments_registered(self):
        assert {"topology_sweep", "topology_generalization", "fallback_runtime",
                "friendliness", "fairness", "workload_stress",
                # The paper-figure grids demoted to registry experiments.
                "qcsat_buffers", "qcsat_robustness", "performance_sweep",
                "realworld_deployment"} <= set(REGISTRY.names())

    def test_builtin_experiments_share_no_cell_key(self):
        # One store can hold several experiments, so a key names one row
        # shape: no two experiments plan the same cell at their defaults.
        owners = {}
        for name in REGISTRY.names():
            for key in set(REGISTRY.plan(name).keys):
                assert key not in owners, f"{name} and {owners[key]} share {key}"
                owners[key] = name

    def test_reregistering_replaces(self):
        registry = make_registry()
        registry.register("toy", axes={"duration": 1.0})(_toy_build)
        assert registry.get("toy").axes == {"duration": 1.0}


class TestAxisOverrides:
    def test_unknown_axis_rejected_with_valid_axes(self):
        registry = make_registry()
        with pytest.raises(ValueError) as excinfo:
            registry.run("toy", {"durations": "3.0"})
        message = str(excinfo.value)
        assert "durations" in message and "duration" in message and "seeds" in message

    def test_string_coercion_by_default_type(self):
        registry = make_registry()
        axes = registry.resolve_axes("toy", {
            "duration": "3.5", "stochastic": "true", "label": "none",
            "schemes": "cubic,bbr", "seeds": "0..3,9",
        })
        assert axes["duration"] == 3.5
        assert axes["stochastic"] is True
        assert axes["label"] is None
        assert axes["schemes"] == ("cubic", "bbr")
        assert axes["seeds"] == (0, 1, 2, 3, 9)

    def test_typed_overrides_pass_through(self):
        registry = make_registry()
        axes = registry.resolve_axes("toy", {"seeds": [1, 2], "duration": 4.0,
                                             "schemes": "vegas"})
        assert axes["seeds"] == (1, 2)
        assert axes["duration"] == 4.0
        assert axes["schemes"] == ("vegas",)

    def test_typed_numbers_cast_to_the_axis_type(self):
        # A library override keys its cell like the same --set spelling.
        assert coerce_axis_value("x", 20, (20.0, 50.0)) == (20.0,)
        assert isinstance(coerce_axis_value("x", [20, 50], (1.0,))[0], float)
        assert isinstance(coerce_axis_value("x", 2, 1.0), float)
        assert isinstance(coerce_axis_value("x", 2.0, 1), int)
        assert coerce_axis_value("x", True, 1) is True
        assert coerce_axis_value("x", 3, None) == 3
        with pytest.raises(ValueError, match="axis 'x'.*integer-typed"):
            coerce_axis_value("x", (1, 2.5), (1,))

    @pytest.mark.parametrize("name, typed, spelled", [
        ("friendliness", {"rtts_ms": 20, "duration": 3}, {"rtts_ms": "20", "duration": "3"}),
        ("fallback_runtime", {"thresholds": (0, 1)}, {"thresholds": "0,1"}),
        ("sensitivity", {"lambda_values": [1], "n_values": 2.0},
         {"lambda_values": "1", "n_values": "2"}),
    ])
    def test_typed_and_string_overrides_plan_identical_keys(self, name, typed, spelled):
        assert REGISTRY.plan(name, typed).keys == REGISTRY.plan(name, spelled).keys

    def test_scalar_coercion_helpers(self):
        assert coerce_axis_value("x", "3", 1) == 3
        assert coerce_axis_value("x", "off", True) is False
        assert coerce_axis_value("x", "1.5,2", (1.0,)) == (1.5, 2.0)
        assert coerce_axis_value("x", 5, (1,)) == (5,)
        with pytest.raises(ValueError, match="axis 'x'"):
            coerce_axis_value("x", "not-a-number", 1)
        with pytest.raises(ValueError, match="boolean"):
            coerce_axis_value("x", "maybe", True)

    def test_coerce_scalar_int_axis_accepts_whole_floats(self):
        # "2.0" is a whole number, so an int-typed axis takes it; a true
        # fraction is a pointed error, not a silent truncation.
        assert coerce_axis_value("x", "2.0", 1) == 2
        assert isinstance(coerce_axis_value("x", "2.0", 1), int)
        with pytest.raises(ValueError, match="integer-typed"):
            coerce_axis_value("x", "0.5", 1)

    def test_coerce_scalar_bool_not_int(self):
        # bool is an int subclass; the coercion must not treat a bool axis
        # as integer-typed (nor an int axis as boolean).
        assert coerce_axis_value("x", "yes", False) is True
        assert coerce_axis_value("x", "3", 1) == 3

    def test_float_ranges_expand(self):
        # Ranges work for float-typed axes too, cast to the axis type.
        assert coerce_axis_value("x", "0..2", (0.0, 0.5)) == (0.0, 1.0, 2.0)
        assert all(isinstance(v, float)
                   for v in coerce_axis_value("x", "0..2", (0.0,)))
        assert coerce_axis_value("x", "5..1", (1,)) == (5, 4, 3, 2, 1)
        # A fractional endpoint is a plain list element, not a range.
        assert coerce_axis_value("x", "0.5,1.5", (0.0,)) == (0.5, 1.5)

    def test_parse_set_overrides(self):
        assert parse_set_overrides(["a=1", "b=x,y"]) == {"a": "1", "b": "x,y"}
        with pytest.raises(ValueError, match="malformed"):
            parse_set_overrides(["a"])
        with pytest.raises(ValueError, match="duplicate"):
            parse_set_overrides(["a=1", "a=2"])


class TestRunAndResume:
    def test_serial_and_parallel_rows_identical(self):
        registry = make_registry()
        serial = registry.run("toy")
        parallel = registry.run("toy", n_jobs=2)
        assert serial["rows"] == parallel["rows"]
        assert serial["experiment"] == "toy"
        assert serial["computed_cells"] == 3 and serial["cached_cells"] == 0
        assert serial["axes"]["seeds"] == [7]

    def test_store_resume_serves_cached_rows_byte_identical(self, tmp_path):
        registry = make_registry()
        baseline = registry.run("toy")
        first = registry.run("toy", store=RunStore(tmp_path), resume=True)
        second = registry.run("toy", store=RunStore(tmp_path), resume=True)
        assert first["rows"] == baseline["rows"] == second["rows"]
        assert first["computed_cells"] == 3 and first["cached_cells"] == 0
        assert second["computed_cells"] == 0 and second["cached_cells"] == 3

    def test_fully_cached_resume_skips_setup(self, tmp_path):
        # Setup (model pre-training) is the dominant cost of learned grids; a
        # resume that computes nothing must not pay it.
        calls = {"setup": 0}

        def counting_setup(axes):
            calls["setup"] += 1

        registry = ExperimentRegistry()
        registry.register("toy-setup", axes=TOY_AXES, setup=counting_setup)(_toy_build)
        registry.run("toy-setup", store=RunStore(tmp_path), resume=True)
        assert calls["setup"] == 1
        cached = registry.run("toy-setup", store=RunStore(tmp_path), resume=True)
        assert cached["computed_cells"] == 0
        assert calls["setup"] == 1  # not called again

    def test_store_without_resume_recomputes_but_persists(self, tmp_path):
        registry = make_registry()
        store = RunStore(tmp_path)
        registry.run("toy", store=store)
        result = registry.run("toy", store=store)  # no resume: recompute all
        assert result["cached_cells"] == 0 and result["computed_cells"] == 3
        assert len(RunStore(tmp_path)) == 3

    def test_override_invalidates_cache_keys(self, tmp_path):
        registry = make_registry()
        registry.run("toy", store=RunStore(tmp_path), resume=True)
        changed = registry.run("toy", {"duration": "3.0"},
                               store=RunStore(tmp_path), resume=True)
        assert changed["cached_cells"] == 0 and changed["computed_cells"] == 3

    def test_kill_mid_sweep_then_resume_matches_serial_run(self, tmp_path):
        """The satellite resume contract: a sweep killed mid-grid keeps its
        finished cells, and the resumed run's rows are byte-identical to an
        uninterrupted serial run."""
        registry = ExperimentRegistry()
        registry.register("toy-flaky", axes=TOY_AXES,
                          runner=flaky_run_task)(_toy_build)
        baseline = make_registry().run("toy")

        _FLAKY["fail_after"], _FLAKY["count"] = 2, 0
        store = RunStore(tmp_path)
        try:
            with pytest.raises(RuntimeError, match="simulated mid-sweep crash"):
                registry.run("toy-flaky", store=store, resume=True)
            # The two cells that finished before the crash were persisted.
            assert len(RunStore(tmp_path)) == 2
            _FLAKY["fail_after"] = None
            resumed = registry.run("toy-flaky", store=RunStore(tmp_path), resume=True)
        finally:
            _FLAKY["fail_after"], _FLAKY["count"] = None, 0
        assert resumed["cached_cells"] == 2 and resumed["computed_cells"] == 1
        assert resumed["rows"] == baseline["rows"]
        assert [row["cell"] for row in resumed["rows"]] == [0, 1, 2]

    def test_multi_seed_axis_expands_grid(self):
        registry = make_registry()
        result = registry.run("toy", {"seeds": "5,6", "schemes": "cubic"})
        assert result["computed_cells"] == 2
        assert [row["seed"] for row in result["rows"]] == [5, 6]

    def test_records_stamp_producer_provenance(self, tmp_path):
        registry = make_registry()
        registry.run("toy", store=RunStore(tmp_path / "serial"))
        registry.run("toy", n_jobs=2, store=RunStore(tmp_path / "pool"))
        assert {record.producer
                for record in RunStore(tmp_path / "serial").records()} == {"serial"}
        assert {record.producer
                for record in RunStore(tmp_path / "pool").records()} == {"pool"}


class TestPlanAndFinalize:
    def test_plan_expands_grid_without_running(self):
        registry = make_registry()
        plan = registry.plan("toy", {"schemes": "cubic,vegas"})
        assert [task.scheme for task in plan.tasks] == ["cubic", "vegas"]
        assert plan.keys == [task.cell_key() for task in plan.tasks]
        assert plan.axes["schemes"] == ("cubic", "vegas")

    def test_finalize_matches_run_result(self):
        # run() and the serve daemon both aggregate through finalize(); the
        # result shape (rows, axes echo, cache accounting) must agree.
        registry = make_registry()
        result = registry.run("toy")
        plan = registry.plan("toy")
        finalized = registry.finalize(plan, result["rows"], wall_clock_s=1.0,
                                      n_jobs=1, n_cached=0)
        assert finalized["rows"] == result["rows"]
        assert finalized["experiment"] == "toy"
        assert finalized["axes"] == result["axes"]
        assert finalized["computed_cells"] == result["computed_cells"]


#: Cell keys of the default friendliness/fairness grids (model seed 1).  Run
#: stores are indexed by exactly these strings, so any drift here would
#: silently stop those stores from resuming.
FRIENDLINESS_KEYS = [
    "scheme=canopy trace=constant-48mbps topology=single_bottleneck workload=responsive(cubic) seed=1 model=canopy-shallow #a47f2ddb207d",
    "scheme=canopy trace=constant-48mbps topology=single_bottleneck workload=responsive(cubic:2) seed=1 model=canopy-shallow #acab82b85ada",
    "scheme=canopy trace=constant-48mbps topology=single_bottleneck workload=responsive(cubic:4) seed=1 model=canopy-shallow #24ef89e8c922",
    "scheme=orca trace=constant-48mbps topology=single_bottleneck workload=responsive(cubic) seed=1 model=orca #a47f2ddb207d",
    "scheme=orca trace=constant-48mbps topology=single_bottleneck workload=responsive(cubic:2) seed=1 model=orca #acab82b85ada",
    "scheme=orca trace=constant-48mbps topology=single_bottleneck workload=responsive(cubic:4) seed=1 model=orca #24ef89e8c922",
    "scheme=cubic trace=constant-48mbps topology=single_bottleneck workload=responsive(cubic) seed=1 #a47f2ddb207d",
    "scheme=cubic trace=constant-48mbps topology=single_bottleneck workload=responsive(cubic:2) seed=1 #acab82b85ada",
    "scheme=cubic trace=constant-48mbps topology=single_bottleneck workload=responsive(cubic:4) seed=1 #24ef89e8c922",
    "scheme=canopy trace=constant-48mbps topology=single_bottleneck workload=responsive(cubic) seed=1 model=canopy-deep #793d78c7b20e",
    "scheme=canopy trace=constant-48mbps topology=single_bottleneck workload=responsive(cubic:2) seed=1 model=canopy-deep #3293264b6f61",
    "scheme=canopy trace=constant-48mbps topology=single_bottleneck workload=responsive(cubic:4) seed=1 model=canopy-deep #9e9f7233aca2",
    "scheme=orca trace=constant-48mbps topology=single_bottleneck workload=responsive(cubic) seed=1 model=orca #793d78c7b20e",
    "scheme=orca trace=constant-48mbps topology=single_bottleneck workload=responsive(cubic:2) seed=1 model=orca #3293264b6f61",
    "scheme=orca trace=constant-48mbps topology=single_bottleneck workload=responsive(cubic:4) seed=1 model=orca #9e9f7233aca2",
    "scheme=cubic trace=constant-48mbps topology=single_bottleneck workload=responsive(cubic) seed=1 #793d78c7b20e",
    "scheme=cubic trace=constant-48mbps topology=single_bottleneck workload=responsive(cubic:2) seed=1 #3293264b6f61",
    "scheme=cubic trace=constant-48mbps topology=single_bottleneck workload=responsive(cubic:4) seed=1 #9e9f7233aca2",
    "scheme=canopy trace=constant-48mbps topology=single_bottleneck workload=responsive(cubic) seed=1 model=canopy-shallow #69d398a5ebff",
    "scheme=canopy trace=constant-48mbps topology=single_bottleneck workload=responsive(cubic) seed=1 model=canopy-shallow #fd9ddd3b3273",
    "scheme=canopy trace=constant-48mbps topology=single_bottleneck workload=responsive(cubic) seed=1 model=canopy-shallow #6c496699b3f3",
    "scheme=orca trace=constant-48mbps topology=single_bottleneck workload=responsive(cubic) seed=1 model=orca #69d398a5ebff",
    "scheme=orca trace=constant-48mbps topology=single_bottleneck workload=responsive(cubic) seed=1 model=orca #fd9ddd3b3273",
    "scheme=orca trace=constant-48mbps topology=single_bottleneck workload=responsive(cubic) seed=1 model=orca #6c496699b3f3",
    "scheme=cubic trace=constant-48mbps topology=single_bottleneck workload=responsive(cubic) seed=1 #69d398a5ebff",
    "scheme=cubic trace=constant-48mbps topology=single_bottleneck workload=responsive(cubic) seed=1 #fd9ddd3b3273",
    "scheme=cubic trace=constant-48mbps topology=single_bottleneck workload=responsive(cubic) seed=1 #6c496699b3f3",
]

FAIRNESS_KEYS = [
    "scheme=cubic trace=constant-48mbps topology=single_bottleneck workload=step(12-:24-:self) seed=1 #9b0c1539dc2a",
    "scheme=orca trace=constant-48mbps topology=single_bottleneck workload=step(12-:24-:self) seed=1 model=orca #9b0c1539dc2a",
    "scheme=canopy-shallow trace=constant-48mbps topology=single_bottleneck workload=step(12-:24-:self) seed=1 model=canopy-shallow #9b0c1539dc2a",
    "scheme=canopy-deep trace=constant-48mbps topology=single_bottleneck workload=step(12-:24-:self) seed=1 model=canopy-deep #9b0c1539dc2a",
]


class TestMultiFlowCellKeys:
    @pytest.mark.parametrize("name, keys", [("friendliness", FRIENDLINESS_KEYS),
                                            ("fairness", FAIRNESS_KEYS)])
    def test_default_grid_keys_are_pinned(self, name, keys):
        assert REGISTRY.plan(name).keys == keys
        assert REGISTRY.plan(name, {"seeds": (1,)}).keys == keys

    def test_an_int_rtt_keys_like_the_float_default(self):
        # Found in the multi-flow port: {"rtts_ms": 20} used to key its RTT
        # cells apart from the 20.0 of the default grid and of --set.
        keys = REGISTRY.plan("friendliness", {"rtts_ms": 20}).keys
        assert keys == FRIENDLINESS_KEYS[:18] + FRIENDLINESS_KEYS[18::3]

    @pytest.mark.parametrize("name, keys", [("friendliness", FRIENDLINESS_KEYS),
                                            ("fairness", FAIRNESS_KEYS)])
    def test_seeds_axis_extends_the_grid(self, name, keys):
        grown = REGISTRY.plan(name, {"seeds": "1,2"}).keys
        assert len(grown) == 2 * len(keys) == len(set(grown))
        assert set(keys) <= set(grown)


#: One ``--set`` variant per built-in experiment that grows a product axis
#: (``fallback_runtime`` also switches telemetry on, which enters its keys).
PLAN_VARIANTS = {
    "certified_components": {"model_kind": "canopy-shallow,canopy-deep"},
    "fairness": {"schemes": "cubic,orca"},
    "fallback_runtime": {"seeds": "1,2", "telemetry": "on(10)"},
    "friendliness": {"seeds": "1,2"},
    "motivation_bad_state": {"seeds": "1,2"},
    "motivation_noise": {"seeds": "1,2"},
    "noise_sensitivity": {"seeds": "1,2"},
    "performance_sweep": {"topologies": "single_bottleneck,chain(2)"},
    "qcsat_buffers": {"seeds": "1,2"},
    "qcsat_robustness": {"seeds": "1,2"},
    "realworld_deployment": {"seeds": "1,2"},
    "scheme_grid": {"schemes": "canopy-shallow,cubic"},
    "sensitivity": {"seeds": "1,2"},
    "topology_generalization": {"property_family": "shallow,deep"},
    "topology_sweep": {"seeds": "1,2"},
    "workload_stress": {"schemes": "canopy-shallow,cubic"},
}

#: SHA-256 of each experiment's ordered ``[(cell_key, list(tags.items()))]``
#: plan: (at its defaults, under its ``PLAN_VARIANTS`` entry).  Tags are
#: hashed in insertion order because a row's columns follow it, while the
#: cell-key fingerprint sorts them.
PLAN_DIGESTS = {
    "certified_components": (
        "c1968e6a92eb145505a243a1ac61c505aa684a75592f105a3ad58b9dcf86fc8e",
        "cfb6f417734436da1f5812b86871547a878b0ff4f4bb505c950bb5a4c14ed169"),
    "fairness": (
        "5264c21b270a1c4bea7dfa80eda7ab290dbf4dd0b9fe2ad3d84006adcb05de29",
        "271466c7b9ba1f9f776223f92727b1002935c0561041accc7a4d4122b841942d"),
    "fallback_runtime": (
        "446fe4e03257435d6b6900613a2301a650a71a583091a2f0f7143b91f6c4425c",
        "92aa094dba96e2aa0641df132075978be8cb19098331b46ca70abf48835f9c7c"),
    "friendliness": (
        "2d5f469f5c637272c112c40a56b774baa871a87a09cbeb52214bb92812783daa",
        "a3115f7bf3f196b7d7f7d18d4fac9871a0734ea3d4aa6729e923497beb789ca2"),
    "motivation_bad_state": (
        "d00f9c36c0d0f8ff174419c8fb45484ad8928b40370ce5f5483f443d66a21249",
        "449fbe5d524782e61543b25e8586a7c00ee886e490cff2e65562e8e159cc519c"),
    "motivation_noise": (
        "c32bd6b727c44d5502ad740706d67bd00e825ad5ab2d0810d06e41e4553ab6aa",
        "be17aecc25068a680fb9b3a0718788dd5b3f9b0488799b6ee48f839fcd805de3"),
    "noise_sensitivity": (
        "109fa00a3900647add5cd4af8f408a7544d0aa356f2e8185ce1c2b478da8c064",
        "a4f5b0ff4b227ca9ac51591b254e4b4a8f579b5168bdce2a9a4b5543302e2a15"),
    "performance_sweep": (
        "5695d881274af4b8ffd8426825a54db15c4c149452c49ff8546c715834e6a3b2",
        "66dd072be98c972f5d9c525982a20149c059cd988c5e4447557d92a6635906ad"),
    "qcsat_buffers": (
        "500edea4c6341d403fe3fe58f89beec54044b2175b4801418ccb73024459372b",
        "598d4c63679e28d97fa1e02c5e63f7bc956cd00ed27b5e011c580a58aae156ef"),
    "qcsat_robustness": (
        "0a189824c012e8502d1ba19ccf8284523af08898360531996c55ed23b1a104ff",
        "40dfc6505e782c3676648d4028410af51497d44f70556b757530b44fb6a8b6e5"),
    "realworld_deployment": (
        "d9591349209a8e6a26484b83bd19d624da6c5023637731bd4210bbd6eb28e7a4",
        "2c0401269519e6d74fdc0e995e13a813bfcb4c40d9d2a6b7fcca94bebf16d220"),
    "scheme_grid": (
        "2a61e9a84450e28996f0f2764c6bc59be7acd42b910879a6337758a3a9052193",
        "6cf4d5c9b07405189d76984f3acffc2de7bed917c14ad30378424bd9dd4b9e81"),
    "sensitivity": (
        "ab5b74897af1a8e22ce4891d9097049c19713c3e45f7f6188ab027a6bd388360",
        "d59067a23085d1f3f1ad74243b707c3649788cb238ceff6ff25d259d820d9aba"),
    "topology_generalization": (
        "3fae76be3461642f436487f0be1f54bb4f27eb2c1a0786bb8b4cc0e552ac1704",
        "b5b962ff66d33209241241572119231a905c991ba206429c24efad3a8e1d9dd9"),
    "topology_sweep": (
        "845b8b3323796062d8d65f5bba690207fae0e9d0df753e1e422fbbd86a7d8c7a",
        "5f6ec38570fce61b42538426e7f4a8de8fb6ba2c938f92dc229ccd2cf8c98f21"),
    "workload_stress": (
        "52807436b50b688112f2675bbe966f199f305e9db8947d4ad76230463ffd88ac",
        "9e002968d708afe0f726cdb177746c8ef3e49f0d27c6b7e7c4f9340cef63405a"),
}


def plan_digest(name, overrides):
    plan = REGISTRY.plan(name, overrides)
    cells = [(key, list(task.tags.items())) for key, task in zip(plan.keys, plan.tasks)]
    return hashlib.sha256(json.dumps(cells).encode()).hexdigest()


class TestPlanPins:
    """Every built-in grid plans the same ordered cells and tags, so stores
    resume and rows print their columns in the same order."""

    def test_every_builtin_experiment_is_pinned(self):
        # Other test modules and examples register toy experiments too.
        builtins = [name for name in REGISTRY.names()
                    if REGISTRY.get(name).build.__module__ == "repro.harness.experiments"]
        assert sorted(PLAN_DIGESTS) == sorted(PLAN_VARIANTS) == builtins

    @pytest.mark.parametrize("name", sorted(PLAN_DIGESTS))
    def test_default_plan_is_pinned(self, name):
        assert plan_digest(name, {}) == PLAN_DIGESTS[name][0]

    @pytest.mark.parametrize("name", sorted(PLAN_DIGESTS))
    def test_variant_plan_is_pinned(self, name):
        assert plan_digest(name, PLAN_VARIANTS[name]) == PLAN_DIGESTS[name][1]
