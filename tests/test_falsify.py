"""Tests for the falsification subsystem: objectives, search, shrink, promote.

Covers the objective score functions (including the conservation balance
math), the task replay codec, template reshaping per objective, seeded
mutations, the determinism contract the ISSUE pins (same campaign seed ⇒
byte-identical candidate sequence and shrink trace; serial == ``--jobs 2``;
fully-cached reruns identical), greedy shrinking, idempotent promotion, the
``--check`` regression gate (green and both red modes), campaign reporting,
the CLI front door, and an in-process replay of the committed golden
counterexample store.
"""

import json
import os
from dataclasses import replace

import numpy as np
import pytest

from repro.cli import main
from repro.falsify.objective import OBJECTIVES, objective_names, resolve_objective
from repro.falsify.promote import (
    check_counterexamples,
    counterexample_id,
    load_counterexamples,
    promote_counterexample,
)
from repro.falsify.report import format_report, read_campaign, report_stats
from repro.falsify.scenario import (
    MUTATION_AXES,
    mutate_task,
    prepare_template,
    task_from_json,
    task_to_json,
    topology_pool,
)
from repro.falsify.search import (
    STRATEGIES,
    CampaignConfig,
    resolve_strategy,
    run_campaign,
)
from repro.falsify.shrink import shrink_counterexample, shrink_reductions
from repro.harness.evaluate import EvaluationSettings
from repro.harness.parallel import ExperimentTask, run_task
from repro.harness.spec import resolve_trace
from repro.harness.store import RunStore, canonical_json
from repro.topology.families import parse_topology
from repro.workload.spec import parse_workload

LOSS_BURST = resolve_objective("loss_burst", threshold=0.001)


def classical_task(workload="static", topology="single_bottleneck",
                   duration=3.0, seed=1, trace="step-12-48", **task_kwargs):
    settings = EvaluationSettings(duration=duration, buffer_bdp=0.25,
                                  topology=topology, workload=workload, seed=seed)
    return ExperimentTask(scheme="cubic", trace=resolve_trace(trace),
                          settings=settings, **task_kwargs)


#: The deterministic toy campaign every search test replays: classical cubic
#: at a shallow buffer, where mutated cross-traffic workloads exceed the
#: loss threshold but the static template does not (same cell family as the
#: committed golden store and the CI falsify-smoke job).
def toy_campaign_config(**overrides):
    defaults = dict(
        experiment="workload_stress",
        objective=LOSS_BURST,
        budget=6,
        strategy="random",
        campaign_seed=7,
        jobs=1,
        overrides={"schemes": "cubic", "duration": "3", "buffer_bdp": "0.25"},
        max_counterexamples=2,
    )
    defaults.update(overrides)
    return CampaignConfig(**defaults)


# ---------------------------------------------------------------------- #
# Objectives
# ---------------------------------------------------------------------- #
class TestObjectives:
    def test_registry_names_and_resolution(self):
        assert objective_names() == sorted(OBJECTIVES)
        for name in objective_names():
            assert resolve_objective(name).name == name

    def test_unknown_objective_lists_known(self):
        with pytest.raises(ValueError, match="loss_burst"):
            resolve_objective("not-an-objective")

    def test_threshold_override(self):
        objective = resolve_objective("loss_burst", threshold=0.25)
        assert objective.threshold == 0.25
        assert OBJECTIVES["loss_burst"].threshold == 0.05  # registry untouched

    def test_violation_is_strictly_above_threshold(self):
        objective = resolve_objective("loss_burst", threshold=0.01)
        assert not objective.violated({"loss_rate": 0.01})
        assert objective.violated({"loss_rate": 0.0100001})

    def test_qc_violation_score(self):
        objective = OBJECTIVES["qc_violation"]
        assert objective({"qcsat": 0.9}) == pytest.approx(0.1)
        assert objective({}) == pytest.approx(0.0)  # missing qcsat defaults safe
        assert objective.violated({"qcsat": 0.9})
        assert not objective.violated({"qcsat": 0.96})

    def test_qc_gap_score(self):
        objective = OBJECTIVES["qc_gap"]
        # Certified confident while dropping 5% of packets: the bad cell.
        assert objective({"qcsat": 0.98, "loss_rate": 0.05}) == pytest.approx(0.98)
        # Certified confident with a clean run: no gap.
        assert objective({"qcsat": 0.98, "loss_rate": 0.0}) == pytest.approx(-0.02)
        assert not objective.violated({"qcsat": 0.98, "loss_rate": 0.0})

    def test_fallback_storm_prefers_telemetry_summary(self):
        objective = OBJECTIVES["fallback_storm"]
        assert objective({"tele_fallback_longest_s": 2.5,
                          "fallback_fraction": 0.1}) == pytest.approx(2.5)
        assert objective({"fallback_fraction": 0.1}) == pytest.approx(0.1)

    def test_conservation_balance_math(self):
        objective = OBJECTIVES["conservation"]
        balanced = {"kind": "conservation", "sent": 100.0, "acked": 60.0,
                    "lost": 10.0, "hops": {"hop0": 20.0, "hop1": 5.0},
                    "transit": 3.0, "pending": 2.0}
        leaky = dict(balanced, acked=59.0)  # one packet vanished
        assert objective({"telemetry_events": [balanced]}) == pytest.approx(0.0)
        assert objective({"telemetry_events": [balanced, leaky]}) == pytest.approx(1.0)
        assert objective({}) == 0.0  # untraced rows score clean

    def test_requires_declarations(self):
        assert OBJECTIVES["qc_gap"].requires == {"certify"}
        assert OBJECTIVES["fallback_storm"].requires == {"monitor", "telemetry"}
        assert OBJECTIVES["conservation"].requires == {"telemetry"}
        assert OBJECTIVES["loss_burst"].requires == frozenset()


# ---------------------------------------------------------------------- #
# Replay codec + template preparation
# ---------------------------------------------------------------------- #
class TestTaskCodec:
    def test_round_trip_preserves_cell_key(self):
        task = classical_task(workload="poisson(0.25:vegas)", topology="fan_in(3)",
                              seed=42, tags={"workload": "poisson(0.25:vegas)"})
        rebuilt = task_from_json(task_to_json(task))
        assert rebuilt.cell_key() == task.cell_key()
        assert rebuilt.settings == task.settings
        assert rebuilt.trace.name == task.trace.name

    def test_round_trip_survives_json_serialization(self):
        task = classical_task(monitor_threshold=None)
        payload = json.loads(json.dumps(task_to_json(task), sort_keys=True))
        assert task_from_json(payload).cell_key() == task.cell_key()

    def test_unknown_field_rejected(self):
        payload = task_to_json(classical_task())
        payload["surprise"] = 1
        with pytest.raises(ValueError, match="surprise"):
            task_from_json(payload)


class TestPrepareTemplate:
    def test_scheme_agnostic_objective_only_clears_tags(self):
        task = classical_task(tags={"workload": "static"})
        template = prepare_template(task, OBJECTIVES["loss_burst"])
        assert template.tags == {}
        assert template == replace(task, tags={})

    def test_certify_objective_requires_learned_scheme(self):
        with pytest.raises(ValueError, match="learned scheme"):
            prepare_template(classical_task(), OBJECTIVES["qc_gap"])

    def test_monitor_objective_reshapes_learned_cell(self):
        learned = ExperimentTask(scheme="canopy-shallow",
                                 trace=resolve_trace("step-12-48"),
                                 settings=EvaluationSettings(duration=3.0),
                                 model_kind="canopy-shallow", training_steps=30,
                                 certify=True, property_family="shallow")
        template = prepare_template(learned, OBJECTIVES["fallback_storm"],
                                    monitor_threshold=0.7, telemetry="on(5)")
        assert template.certify is False
        assert template.property_family is None
        assert template.monitor_threshold == 0.7
        assert template.monitor_family == "shallow"
        assert template.settings.telemetry == "on(5)"

    def test_telemetry_objective_enables_tracing_on_classical(self):
        template = prepare_template(classical_task(), OBJECTIVES["conservation"],
                                    telemetry="on(10)")
        assert template.settings.telemetry == "on(10)"
        assert template.scheme == "cubic"


# ---------------------------------------------------------------------- #
# Mutations
# ---------------------------------------------------------------------- #
class TestMutations:
    def test_topology_pool_all_parse(self):
        for spec in topology_pool():
            parse_topology(spec)

    def test_mutation_sequence_is_seed_deterministic(self):
        task = classical_task()
        runs = []
        for _ in range(2):
            rng = np.random.default_rng(11)
            current, keys, actions = task, [], []
            for _ in range(12):
                current, step_actions = mutate_task(current, rng)
                keys.append(current.cell_key())
                actions.extend(step_actions)
            runs.append((keys, actions))
        assert runs[0] == runs[1]

    def test_mutations_stay_valid_and_journal_their_axis(self):
        rng = np.random.default_rng(3)
        current = classical_task()
        for _ in range(20):
            current, actions = mutate_task(current, rng, 1)
            assert len(actions) == 1
            axis = actions[0].split("=", 1)[0]
            assert axis in MUTATION_AXES
            # Every mutated cell is inside the validated grammar.
            parse_topology(current.settings.topology)
            parse_workload(current.settings.workload)
            current.cell_key()

    def test_n_mutations_controls_action_count(self):
        rng = np.random.default_rng(5)
        _, actions = mutate_task(classical_task(), rng, 3)
        assert len(actions) == 3

    def test_model_identity_never_mutated(self):
        rng = np.random.default_rng(9)
        template = classical_task()
        for _ in range(30):
            mutated, _ = mutate_task(template, rng, 2)
            assert mutated.model_kind == template.model_kind
            assert mutated.model_seed == template.model_seed
            assert mutated.training_steps == template.training_steps


# ---------------------------------------------------------------------- #
# Shrinking
# ---------------------------------------------------------------------- #
class TestShrink:
    def test_reduction_order_is_workload_first(self):
        task = classical_task(workload="poisson(0.5:cubic)", topology="fan_in(3)",
                              duration=6.0, trace="pulse-spike-24-96")
        actions = [action for action, _ in shrink_reductions(task)]
        assert actions[0] == "workload=static"
        assert "topology=single_bottleneck" in actions
        assert "topology=fan_in(2)" in actions
        assert "duration=3" in actions
        assert "trace=step-12-48" in actions

    def test_reductions_all_valid_cells(self):
        task = classical_task(workload="step(0-2:4-6)", topology="tree(3)",
                              duration=6.0)
        for action, smaller in shrink_reductions(task):
            parse_topology(smaller.settings.topology)
            parse_workload(smaller.settings.workload)
            smaller.cell_key()

    def test_fixed_shape_topology_not_shaved(self):
        actions = [action for action, _
                   in shrink_reductions(classical_task(topology="dumbbell"))]
        assert "topology=single_bottleneck" in actions
        assert not any(action.startswith("topology=dumbbell") for action in actions)

    def test_duration_never_shrinks_to_skip_seconds(self):
        # Friendliness/fairness cells skip 2 s, the shortest shrink target.
        task = classical_task(duration=4.0)
        task = replace(task, settings=replace(task.settings, skip_seconds=2.0))
        actions = [action for action, _ in shrink_reductions(task)]
        assert not any(action.startswith("duration=") for action in actions)

    def test_minimal_cell_yields_no_reductions(self):
        minimal = classical_task(workload="static", topology="single_bottleneck",
                                 duration=2.0, trace="step-12-48")
        assert shrink_reductions(minimal) == []

    def test_greedy_shrink_keeps_violation_and_journals_every_attempt(self):
        # A fake physics where only non-static workloads lose packets: the
        # shrinker must keep cross-traffic but win every other reduction.
        def evaluate(task):
            violating = task.settings.workload != "static"
            return {"loss_rate": 0.01 if violating else 0.0}

        start = classical_task(workload="responsive(cubic:2)", topology="fan_in(3)",
                               duration=6.0, trace="pulse-spike-24-96")
        emitted = []
        shrunk, trail = shrink_counterexample(start, LOSS_BURST, evaluate,
                                              emit=emitted.append)
        assert LOSS_BURST.violated(evaluate(shrunk))
        assert shrunk.settings.workload != "static"
        assert shrunk.settings.topology == "single_bottleneck"
        assert shrunk.settings.duration == 2.0
        assert shrunk.trace.name == "step-12-48"
        assert emitted == trail
        assert all(step["phase"] == "shrink" for step in trail)
        rejected = [step for step in trail if not step["accepted"]]
        assert rejected, "the workload=static cut must have been tried and rejected"

    def test_shrink_budget_caps_attempts(self):
        def evaluate(task):
            return {"loss_rate": 0.01}

        start = classical_task(workload="poisson(0.5:cubic)", topology="chain(4)",
                               duration=12.0)
        _, trail = shrink_counterexample(start, LOSS_BURST, evaluate, budget=3)
        assert len(trail) == 3


# ---------------------------------------------------------------------- #
# Promotion + the --check gate
# ---------------------------------------------------------------------- #
class TestPromoteAndCheck:
    @pytest.fixture()
    def promoted(self, tmp_path):
        # The golden store's shrunk cell: reliably violates loss_burst@0.001.
        task = classical_task(workload="responsive(cubic)")
        row = canonical_json(run_task(task))
        store_dir = tmp_path / "counterexamples"
        entry = promote_counterexample(store_dir, task, row,
                                       experiment="workload_stress",
                                       objective=LOSS_BURST,
                                       score=LOSS_BURST(row))
        return store_dir, task, row, entry

    def test_promotion_is_idempotent(self, promoted):
        store_dir, task, row, entry = promoted
        again = promote_counterexample(store_dir, task, row,
                                       experiment="workload_stress",
                                       objective=LOSS_BURST,
                                       score=LOSS_BURST(row))
        assert again["id"] == entry["id"] == counterexample_id(task.cell_key())
        assert len(load_counterexamples(store_dir)) == 1
        assert len(RunStore(store_dir)) == 1

    def test_check_green_on_fresh_promotion(self, promoted):
        store_dir, _, _, entry = promoted
        result = check_counterexamples(store_dir)
        assert result["passed"]
        (replay,) = result["results"]
        assert replay["id"] == entry["id"]
        assert replay["still_violated"] and replay["row_matches"]

    def test_check_red_on_tampered_row(self, promoted):
        store_dir, _, _, _ = promoted
        records_path = store_dir / "records.jsonl"
        record = json.loads(records_path.read_text())
        record["row"]["loss_rate"] = 0.5
        records_path.write_text(json.dumps(record, sort_keys=True) + "\n")
        result = check_counterexamples(store_dir)
        assert not result["passed"]
        (replay,) = result["results"]
        assert replay["still_violated"] and not replay["row_matches"]

    def test_check_red_when_no_longer_violating(self, promoted):
        store_dir, _, _, _ = promoted
        entries_path = store_dir / "counterexamples.jsonl"
        entry = json.loads(entries_path.read_text())
        entry["threshold"] = 10.0  # pretend the bar was much higher
        entries_path.write_text(json.dumps(entry, sort_keys=True) + "\n")
        result = check_counterexamples(store_dir)
        assert not result["passed"]
        (replay,) = result["results"]
        assert not replay["still_violated"]

    def test_check_empty_store_passes_trivially(self, tmp_path):
        result = check_counterexamples(tmp_path / "nothing-here")
        assert result["passed"] and result["results"] == []

    def test_load_rejects_incomplete_entries(self, tmp_path):
        path = tmp_path / "counterexamples.jsonl"
        path.write_text(json.dumps({"id": "abc"}) + "\n")
        with pytest.raises(ValueError, match="missing"):
            load_counterexamples(path)


# ---------------------------------------------------------------------- #
# Campaign determinism (the ISSUE's byte-identity pins)
# ---------------------------------------------------------------------- #
class TestCampaignDeterminism:
    def test_strategies_registered(self):
        assert set(STRATEGIES) == {"random", "evolve"}
        assert resolve_strategy("random").name == "random"
        with pytest.raises(ValueError, match="evolve"):
            resolve_strategy("simulated-annealing")

    def test_campaign_finds_shrinks_promotes_and_replays(self, tmp_path):
        store = RunStore(tmp_path / "campaign")
        summary = run_campaign(toy_campaign_config(), store)
        assert summary["candidates"] == 6
        assert summary["violations_found"] >= 1
        assert summary["best_score"] > LOSS_BURST.threshold
        assert len(summary["counterexamples"]) >= 1
        # The journal holds the full lifecycle: header, candidates, shrink
        # attempts, promotions.
        phases = [json.loads(line)["phase"]
                  for line in (store.path / "campaign.jsonl").read_text().splitlines()]
        assert phases[0] == "campaign"
        assert phases.count("candidate") == 6
        assert "shrink" in phases and "promote" in phases
        # Promoted counterexamples replay green in-process.
        result = check_counterexamples(store.path / "counterexamples")
        assert result["passed"] and result["results"]

    def test_same_seed_fresh_store_byte_identical(self, tmp_path):
        journals = []
        for name in ("a", "b"):
            store = RunStore(tmp_path / name)
            run_campaign(toy_campaign_config(), store)
            journals.append((store.path / "campaign.jsonl").read_bytes())
        assert journals[0] == journals[1]

    def test_serial_matches_jobs_2(self, tmp_path):
        serial = RunStore(tmp_path / "serial")
        run_campaign(toy_campaign_config(jobs=1), serial)
        sharded = RunStore(tmp_path / "sharded")
        run_campaign(toy_campaign_config(jobs=2), sharded)
        assert ((serial.path / "campaign.jsonl").read_bytes()
                == (sharded.path / "campaign.jsonl").read_bytes())
        serial_entries = (serial.path / "counterexamples"
                          / "counterexamples.jsonl").read_text()
        sharded_entries = (sharded.path / "counterexamples"
                           / "counterexamples.jsonl").read_text()
        assert serial_entries == sharded_entries

    def test_fully_cached_rerun_identical_and_computes_nothing(self, tmp_path):
        store = RunStore(tmp_path / "campaign")
        first = run_campaign(toy_campaign_config(), store)
        journal = (store.path / "campaign.jsonl").read_bytes()
        second = run_campaign(toy_campaign_config(), store)
        assert (store.path / "campaign.jsonl").read_bytes() == journal
        assert second["computed_cells"] == 0
        assert second["cached_cells"] >= first["candidates"]

    def test_different_seed_changes_candidates(self, tmp_path):
        store_a = RunStore(tmp_path / "seed7")
        run_campaign(toy_campaign_config(), store_a)
        store_b = RunStore(tmp_path / "seed8")
        run_campaign(toy_campaign_config(campaign_seed=8), store_b)
        keys_a = [json.loads(line)["key"]
                  for line in (store_a.path / "campaign.jsonl").read_text().splitlines()
                  if json.loads(line).get("phase") == "candidate"]
        keys_b = [json.loads(line)["key"]
                  for line in (store_b.path / "campaign.jsonl").read_text().splitlines()
                  if json.loads(line).get("phase") == "candidate"]
        assert keys_a != keys_b


# ---------------------------------------------------------------------- #
# Reporting
# ---------------------------------------------------------------------- #
class TestReport:
    @pytest.fixture(scope="class")
    def campaign_store(self, tmp_path_factory):
        store = RunStore(tmp_path_factory.mktemp("report") / "campaign")
        run_campaign(toy_campaign_config(), store)
        return store.path

    def test_report_stats(self, campaign_store):
        stats = report_stats(read_campaign(campaign_store))
        assert stats["experiment"] == "workload_stress"
        assert stats["objective"] == "loss_burst"
        assert stats["strategy"] == "random"
        assert stats["candidates"] == 6
        assert stats["violations_found"] >= 1
        assert stats["counterexamples_promoted"] >= 1
        assert stats["falsify_cells_per_sec"] > 0

    def test_format_report_is_human_readable(self, campaign_store):
        text = format_report(read_campaign(campaign_store))
        assert "falsify campaign: workload_stress" in text
        assert "violations:" in text
        assert "promoted" in text

    def test_non_campaign_store_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="not a falsify campaign store"):
            read_campaign(tmp_path)


# ---------------------------------------------------------------------- #
# CLI front door
# ---------------------------------------------------------------------- #
class TestFalsifyCli:
    def test_bare_falsify_shows_usage(self):
        with pytest.raises(SystemExit, match="usage"):
            main(["falsify"])

    def test_unknown_objective_rejected(self):
        with pytest.raises(SystemExit, match="loss_burst"):
            main(["falsify", "workload_stress", "--objective", "nope"])

    def test_unknown_experiment_rejected(self, tmp_path):
        with pytest.raises(SystemExit):
            main(["falsify", "no-such-experiment", "--store", str(tmp_path / "s")])

    def test_report_requires_store(self):
        with pytest.raises(SystemExit, match="report"):
            main(["falsify", "report"])

    def test_campaign_check_and_report_end_to_end(self, tmp_path, capsys):
        store = str(tmp_path / "campaign")
        code = main(["falsify", "workload_stress",
                     "--objective", "loss_burst", "--threshold", "0.001",
                     "--strategy", "random", "--budget", "6",
                     "--set", "schemes=cubic", "--set", "duration=3",
                     "--set", "buffer_bdp=0.25",
                     "--campaign-seed", "7", "--store", store])
        assert code == 0
        out = capsys.readouterr().out
        assert "falsify workload_stress [loss_burst/random]" in out
        assert "counterexample(s) promoted" in out

        assert main(["falsify", "--check",
                     str(tmp_path / "campaign" / "counterexamples")]) == 0
        assert "all green" in capsys.readouterr().out

        assert main(["falsify", "report", store]) == 0
        assert "falsify campaign: workload_stress" in capsys.readouterr().out

        assert main(["falsify", "report", store, "--json"]) == 0
        stats = json.loads(capsys.readouterr().out)
        assert stats["violations_found"] >= 1


# ---------------------------------------------------------------------- #
# The committed golden counterexample store
# ---------------------------------------------------------------------- #
class TestGoldenCounterexampleStore:
    GOLDEN_DIR = os.path.join(os.path.dirname(__file__), "golden",
                              "falsify_counterexamples")

    def test_golden_store_replays_green(self):
        entries = load_counterexamples(self.GOLDEN_DIR)
        assert entries, "golden falsify store must hold at least one counterexample"
        result = check_counterexamples(self.GOLDEN_DIR)
        assert result["passed"], (
            "golden counterexample drifted: either the physics changed (explain "
            "and regenerate per tests/golden/falsify_counterexamples/README.md) "
            "or the falsification replay codec broke")

    def test_golden_entries_carry_replay_provenance(self):
        for entry in load_counterexamples(self.GOLDEN_DIR):
            assert entry["objective"] == "loss_burst"
            assert entry["task"]["scheme"] == "cubic"  # classical: CI-reproducible
            assert entry["spec"]  # scenario spec for humans
            assert entry["source"]["shrink_attempts"] >= entry["source"]["shrink_accepted"]
