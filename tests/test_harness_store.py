"""Tests for the resumable RunStore / RunRecord layer."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.harness.evaluate import EvaluationSettings
from repro.harness.parallel import ExperimentTask
from repro.harness.store import (
    RUN_RECORD_SCHEMA,
    SCHEMA_VERSION,
    RunRecord,
    RunStore,
    SchemaVersionError,
    canonical_json,
    current_commit,
    fingerprint,
    main,
    migrate_payload,
    migrate_store,
    validate_schema,
)
from repro.seeding import derive_seed
from repro.topology.families import topology_hop_seeds, topology_link_names
from repro.traces.trace import BandwidthTrace

REPO = Path(__file__).resolve().parent.parent
GOLDEN_STORE = REPO / "tests" / "golden" / "qcsat_mini"


def make_task(duration=2.0, seed=7, topology="single_bottleneck", tags=None):
    trace = BandwidthTrace.constant(12.0, duration=30.0, name="const-12")
    settings = EvaluationSettings(duration=duration, buffer_bdp=1.0,
                                  topology=topology, seed=seed)
    return ExperimentTask(scheme="cubic", trace=trace, settings=settings,
                          tags=tags or {})


class TestSchemaValidator:
    def test_valid_record_passes(self):
        RunRecord(key="k", row={"utilization": 0.9}).validate()

    def test_missing_required_key_rejected(self):
        payload = RunRecord(key="k", row={}).to_json()
        del payload["commit"]
        with pytest.raises(ValueError, match="commit"):
            validate_schema(payload, RUN_RECORD_SCHEMA)

    def test_wrong_types_rejected(self):
        payload = RunRecord(key="k", row={}).to_json()
        payload["row"] = ["not", "a", "dict"]
        with pytest.raises(ValueError, match="row"):
            validate_schema(payload, RUN_RECORD_SCHEMA)
        payload = RunRecord(key="k", row={}).to_json()
        payload["hop_seeds"] = {"bottleneck": "not-an-int"}
        with pytest.raises(ValueError, match="hop_seeds"):
            validate_schema(payload, RUN_RECORD_SCHEMA)

    def test_empty_key_rejected(self):
        with pytest.raises(ValueError, match="minLength|shorter"):
            validate_schema(RunRecord(key="", row={}).to_json(), RUN_RECORD_SCHEMA)

    def test_boolean_is_not_an_integer(self):
        with pytest.raises(ValueError):
            validate_schema(True, {"type": "integer"})


class TestCellKeys:
    def test_cell_key_stable_and_carries_scenario(self):
        task = make_task()
        assert task.cell_key() == make_task().cell_key()
        assert task.cell_key().startswith(task.scenario().key())

    def test_cell_key_distinguishes_runtime_knobs(self):
        base = make_task()
        assert base.cell_key() != make_task(duration=3.0).cell_key()
        assert base.cell_key() != make_task(tags={"replicate": 1}).cell_key()
        # Scenario-level differences change the readable prefix too.
        other = make_task(topology="chain(2)")
        assert other.scenario().key() != base.scenario().key()
        assert other.cell_key() != base.cell_key()

    def test_multiflow_cell_keys_carry_exact_values(self):
        from repro.harness.registry import REGISTRY

        keys = REGISTRY.plan("friendliness", {"flows": "1", "rtts_ms": "20"}).keys
        assert keys == REGISTRY.plan("friendliness", {"flows": "1", "rtts_ms": "20"}).keys
        assert len(set(keys)) == len(keys)  # buffer depth and sweep tags split cells
        # RTTs that agree to 6 significant digits must still get distinct
        # keys: the fingerprint carries the exact value.
        close = REGISTRY.plan("friendliness", {"flows": (), "rtts_ms": (20.0, 20.0000001)})
        assert len(set(close.keys)) == len(close.keys) == 6

    def test_fingerprint_is_order_insensitive(self):
        assert fingerprint({"a": 1, "b": 2}) == fingerprint({"b": 2, "a": 1})
        assert fingerprint({"a": 1}) != fingerprint({"a": 2})


class TestRunRecord:
    def test_for_task_stamps_provenance(self):
        task = make_task(topology="chain(2)", seed=9)
        record = RunRecord.for_task(task, {"utilization": 1.0}, experiment="toy")
        record.validate()
        assert record.key == task.cell_key()
        assert record.experiment == "toy"
        assert record.commit == current_commit()
        assert record.spec == task.scenario().to_json()
        assert record.hop_seeds == topology_hop_seeds("chain(2)", "const-12", 9)

    def test_hop_seeds_match_builder_derivation(self):
        # The builders derive per-hop seeds as derive_seed(seed, "topology",
        # canonical-spec, trace, link); the provenance helper must agree.
        assert topology_link_names("chain(2)") == ["hop1", "hop2"]
        assert topology_link_names("chain") == ["hop1", "hop2"]  # default hops
        assert topology_link_names("dumbbell") == ["access-src", "bottleneck", "access-dst"]
        seeds = topology_hop_seeds("chain(2)", "const-12", 9)
        assert seeds == {name: derive_seed(9, "topology", "chain(2)", "const-12", name)
                         for name in ("hop1", "hop2")}
        # A bare "chain" spec derives with its canonical "chain(2)" form.
        assert topology_hop_seeds("chain", "const-12", 9) == seeds

    def test_old_spec_less_multiflow_record_loads_but_is_not_resumed(self, tmp_path):
        # Stores written before the multi-flow grids became ExperimentTask
        # cells hold records without a spec under "multiflow=..." keys.  They
        # still load and validate; no current cell has their key, so a resumed
        # grid recomputes instead of reusing them.
        from repro.harness.registry import REGISTRY

        legacy = RunRecord(key="multiflow=friendliness scheme=cubic value=1 seed=3 "
                               "#f28816468387",
                           row={"mode": "friendliness", "throughput_ratio": 1.0},
                           experiment="friendliness")
        store = RunStore(tmp_path / "store")
        store.put(legacy)
        assert main([str(tmp_path / "store")]) == 0
        (loaded,) = RunStore(tmp_path / "store").records()
        assert loaded.spec is None and loaded.hop_seeds == {}
        result = REGISTRY.run("friendliness", {"flows": "1", "rtts_ms": (), "duration": 3.0,
                                               "training_steps": 30},
                              store=RunStore(tmp_path / "store"), resume=True)
        assert result["cached_cells"] == 0 and result["computed_cells"] == 6
        assert len(RunStore(tmp_path / "store")) == 7


class TestRunStore:
    def test_put_get_load_roundtrip(self, tmp_path):
        store = RunStore(tmp_path / "store")
        record = RunRecord.for_task(make_task(), {"utilization": 0.5}, experiment="toy")
        store.put(record)
        assert len(store) == 1
        assert record.key in store
        # A fresh handle reads the same record back from disk.
        reloaded = RunStore(tmp_path / "store")
        assert reloaded.get(record.key).to_json() == record.to_json()
        assert reloaded.rows() == [{"utilization": 0.5}]

    def test_rows_keep_their_column_order_on_disk(self, tmp_path):
        store = RunStore(tmp_path)
        store.put(RunRecord(key="k", row={"scheme": "cubic", "seed": 1, "avg_rtt_ms": 2.0}))
        assert list(RunStore(tmp_path).get("k").row) == ["scheme", "seed", "avg_rtt_ms"]

    def test_sorted_key_store_reloads_equal_after_a_rewrite(self, tmp_path):
        """A committed store (written with sorted keys) loads to the same
        records after its records go through put into a fresh store."""
        golden = RunStore(GOLDEN_STORE).records()
        store = RunStore(tmp_path)
        for record in golden:
            store.put(record)
        assert [record.to_json() for record in RunStore(tmp_path).records()] == \
            [record.to_json() for record in golden]

    def test_last_record_per_key_wins(self, tmp_path):
        store = RunStore(tmp_path)
        record = RunRecord(key="k", row={"v": 1})
        store.put(record)
        store.put(RunRecord(key="k", row={"v": 2}))
        assert len(store) == 1
        assert RunStore(tmp_path).get("k").row == {"v": 2}

    def test_mid_file_corruption_raises_with_location(self, tmp_path):
        store = RunStore(tmp_path)
        store.put(RunRecord(key="k", row={}))
        with (tmp_path / "records.jsonl").open("a") as handle:
            handle.write("{not json}\n")
        store.put(RunRecord(key="k2", row={}))  # corruption is not the tail
        with pytest.raises(ValueError, match="records.jsonl:2"):
            RunStore(tmp_path).load()

    def test_torn_trailing_line_is_dropped_and_truncated(self, tmp_path):
        # A hard kill mid-append leaves a partial final line; resume must
        # keep every completed record and repair the file so the next append
        # starts on a fresh line.
        store = RunStore(tmp_path)
        store.put(RunRecord(key="k", row={"v": 1}))
        intact = (tmp_path / "records.jsonl").read_text()
        with (tmp_path / "records.jsonl").open("a") as handle:
            handle.write('{"schema_version": 1, "key": "k2", "exp')  # torn, no newline
        reopened = RunStore(tmp_path)
        assert reopened.keys() == ["k"]
        assert (tmp_path / "records.jsonl").read_text() == intact
        reopened.put(RunRecord(key="k2", row={"v": 2}))
        assert RunStore(tmp_path).keys() == ["k", "k2"]

    def test_complete_invalid_last_record_raises_and_keeps_the_file(self, tmp_path):
        # Only bytes after the last newline can be a torn append: a complete
        # last line that fails the schema is corruption, not a tail to cut.
        store = RunStore(tmp_path)
        store.put(RunRecord(key="k0", row={"v": 0}))
        store.put(RunRecord(key="k1", row={"v": 1}))
        path = tmp_path / "records.jsonl"
        lines = path.read_text().splitlines()
        payload = json.loads(lines[1])
        del payload["commit"]
        path.write_text(lines[0] + "\n" + json.dumps(payload) + "\n")
        written = path.read_bytes()
        with pytest.raises(ValueError, match="records.jsonl:2"):
            RunStore(tmp_path).load()
        assert path.read_bytes() == written

    def test_canonical_json_normalizes_rows(self):
        assert canonical_json({"t": (1, 2), 3: "x"}) == {"t": [1, 2], "3": "x"}


def _v1_payload(**extra):
    """A schema-v1 record payload as PR 1-7 checkouts wrote it (no producer)."""
    payload = RunRecord.for_task(make_task(), {"utilization": 1.0},
                                 experiment="toy").to_json()
    del payload["producer"]
    payload["schema_version"] = 1
    payload.update(extra)
    return payload


class TestSchemaVersioning:
    def test_old_version_rejected_with_migrate_hint(self, tmp_path):
        (tmp_path / "records.jsonl").write_text(json.dumps(_v1_payload()) + "\n")
        with pytest.raises(SchemaVersionError) as excinfo:
            RunStore(tmp_path).load()
        message = str(excinfo.value)
        assert "records.jsonl:1" in message
        assert "repro.harness.store migrate" in message  # pointed, not generic

    def test_newer_version_rejected_pointing_at_the_checkout(self):
        with pytest.raises(SchemaVersionError, match="newer.*update the checkout"):
            RunRecord.from_json(_v1_payload(schema_version=SCHEMA_VERSION + 1,
                                            producer="serial"))

    def test_old_version_is_not_swallowed_as_a_torn_tail(self, tmp_path):
        # Torn-tail tolerance must not quietly drop (and then truncate!) a
        # store whose only problem is its age — even on the final line.
        store = RunStore(tmp_path)
        store.put(RunRecord(key="k", row={}))
        with (tmp_path / "records.jsonl").open("a") as handle:
            handle.write(json.dumps(_v1_payload()) + "\n")
        before = (tmp_path / "records.jsonl").read_text()
        with pytest.raises(SchemaVersionError, match="records.jsonl:2"):
            RunStore(tmp_path).load()
        assert (tmp_path / "records.jsonl").read_text() == before

    def test_validate_cli_surfaces_the_migrate_hint(self, tmp_path, capsys):
        (tmp_path / "records.jsonl").write_text(json.dumps(_v1_payload()) + "\n")
        assert main([str(tmp_path)]) == 1
        assert "migrate" in capsys.readouterr().out


class TestMigration:
    def test_migrate_payload_upgrades_v1_and_is_idempotent(self):
        upgraded = migrate_payload(_v1_payload())
        assert upgraded["schema_version"] == SCHEMA_VERSION
        assert upgraded["producer"] == "unknown"  # honest: provenance predates v2
        RunRecord.from_json(upgraded)  # passes current-schema validation
        assert migrate_payload(upgraded) == upgraded

    def test_migrate_payload_rejects_newer_and_non_records(self):
        with pytest.raises(SchemaVersionError, match="newer"):
            migrate_payload(_v1_payload(schema_version=SCHEMA_VERSION + 1))
        with pytest.raises(ValueError, match="schema_version"):
            migrate_payload({"key": "k"})

    def test_migrate_store_in_place_preserving_rows_and_order(self, tmp_path):
        current = RunRecord.for_task(make_task(seed=8), {"utilization": 0.5},
                                     experiment="toy", producer="serial")
        lines = [json.dumps(_v1_payload()), json.dumps(current.to_json())]
        (tmp_path / "records.jsonl").write_text("\n".join(lines) + "\n"
                                                + '{"torn": "ta')  # interrupted append
        total, upgraded, torn = migrate_store(tmp_path)
        assert (total, upgraded, torn) == (2, 1, True)
        records = RunStore(tmp_path).load()
        assert len(records) == 2
        migrated = records[_v1_payload()["key"]]
        assert migrated.producer == "unknown"
        assert migrated.row == {"utilization": 1.0}  # rows untouched
        assert records[current.key].producer == "serial"
        # Idempotent: a second pass upgrades nothing and changes no bytes.
        before = (tmp_path / "records.jsonl").read_text()
        assert migrate_store(tmp_path) == (2, 0, False)
        assert (tmp_path / "records.jsonl").read_text() == before

    def test_migrate_cli(self, tmp_path, capsys):
        (tmp_path / "records.jsonl").write_text(json.dumps(_v1_payload()) + "\n")
        assert main(["migrate", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert f"1 records at schema v{SCHEMA_VERSION} (1 upgraded)" in out
        assert main([str(tmp_path)]) == 0  # validates clean after the upgrade
        assert main(["migrate", str(tmp_path / "missing.jsonl")]) == 1


class TestStoreCli:
    def test_validate_ok(self, tmp_path, capsys):
        store = RunStore(tmp_path / "s")
        store.put(RunRecord.for_task(make_task(), {"utilization": 1.0}, experiment="toy"))
        assert main([str(tmp_path / "s")]) == 0
        assert "1 valid records" in capsys.readouterr().out

    def test_module_command_prints_no_warning(self):
        """``python -m repro.harness.store`` runs a module its package has not
        already imported, so runpy has nothing to warn about."""
        env = {**os.environ, "PYTHONPATH": str(REPO / "src")}
        result = subprocess.run([sys.executable, "-W", "error", "-m", "repro.harness.store", str(GOLDEN_STORE)],
                                capture_output=True, text=True, env=env, cwd=REPO)
        assert result.returncode == 0, result.stderr
        assert result.stderr == ""
        assert "8 valid records" in result.stdout

    def test_validate_rejects_invalid_and_missing(self, tmp_path, capsys):
        bad = tmp_path / "bad.jsonl"
        bad.write_text(json.dumps({"key": "k"}) + "\n")
        assert main([str(bad)]) == 1
        assert main([str(tmp_path / "nope.jsonl")]) == 1
        empty = tmp_path / "empty.jsonl"
        empty.write_text("")
        assert main([str(empty)]) == 1
