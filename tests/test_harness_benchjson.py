"""Tests for the bench-JSON canonicalizer (the BENCH_ci.json trajectory)."""

import json
from pathlib import Path

import pytest

from repro.harness.benchjson import (
    SCHEMA_VERSION,
    canonical_rows,
    compare_runs,
    format_store_diff,
    load_runs,
    main,
    merge_bench_files,
    store_diff,
    store_rows,
    validate_bench_payload,
)

CANONICAL_KEYS = {"benchmark", "metric", "value", "unit", "commit"}


def payload(name="bench_grid", mean=0.25, extra_info=None):
    return {"benchmarks": [{"name": name, "stats": {"mean": mean},
                            "extra_info": extra_info or {}}]}


class TestCanonicalRows:
    def test_runtime_row_from_stats_mean(self):
        rows = canonical_rows(payload(mean=0.5), commit="abc123")
        assert rows == [{"benchmark": "bench_grid", "metric": "runtime_s",
                         "value": 0.5, "unit": "s", "commit": "abc123"}]

    def test_scalar_extras_become_rows(self):
        extras = {"certificates_per_sec": 120.0, "n_jobs": 2}
        rows = canonical_rows(payload(extra_info=extras), commit="abc")
        metrics = {row["metric"]: row for row in rows}
        assert metrics["certificates_per_sec"]["value"] == 120.0
        assert metrics["certificates_per_sec"]["unit"] == "1/s"
        assert metrics["n_jobs"]["unit"] == "count"

    def test_non_scalar_extras_are_dropped(self):
        extras = {"rows": [{"qcsat": 0.5}], "families": ["chain(2)"],
                  "label": "smoke", "flag": True, "speedup": 3.5}
        rows = canonical_rows(payload(extra_info=extras), commit="abc")
        metrics = {row["metric"] for row in rows}
        assert metrics == {"runtime_s", "speedup"}

    def test_unit_inference_for_unknown_metrics(self):
        extras = {"warmup_s": 1.0, "acks_per_sec": 9.0, "qcsat": 0.5, "ibp_block_us": 350.0}
        rows = canonical_rows(payload(extra_info=extras), commit="abc")
        units = {row["metric"]: row["unit"] for row in rows}
        assert units["warmup_s"] == "s"
        assert units["ibp_block_us"] == "us"
        assert units["acks_per_sec"] == "1/s"
        assert units["qcsat"] == ""

    def test_every_row_has_the_stable_schema(self):
        rows = canonical_rows(payload(extra_info={"ticks": 100}), commit="deadbeef")
        for row in rows:
            assert set(row) == CANONICAL_KEYS
            assert row["commit"] == "deadbeef"
            assert isinstance(row["value"], float)


class TestMergeBenchFiles:
    def test_merges_and_sorts_deterministically(self, tmp_path):
        a = tmp_path / "bench-b.json"
        a.write_text(json.dumps(payload(name="zeta", extra_info={"ticks": 10})))
        b = tmp_path / "bench-a.json"
        b.write_text(json.dumps(payload(name="alpha")))
        merged = merge_bench_files([a, b], commit="c1")
        assert merged["version"] == SCHEMA_VERSION
        assert merged["commit"] == "c1"
        assert merged["sources"] == [str(a), str(b)]
        assert merged["skipped"] == []
        keys = [(row["benchmark"], row["metric"]) for row in merged["rows"]]
        assert keys == sorted(keys)
        # Byte-determinism: merging the same inputs twice is identical.
        again = merge_bench_files([a, b], commit="c1")
        assert json.dumps(merged, sort_keys=True) == json.dumps(again, sort_keys=True)

    def test_missing_and_corrupt_files_are_skipped(self, tmp_path):
        good = tmp_path / "good.json"
        good.write_text(json.dumps(payload()))
        corrupt = tmp_path / "corrupt.json"
        corrupt.write_text("{not json")
        missing = tmp_path / "missing.json"
        merged = merge_bench_files([good, corrupt, missing], commit="c2")
        assert merged["sources"] == [str(good)]
        assert merged["skipped"] == [str(corrupt), str(missing)]
        assert len(merged["rows"]) == 1

    def test_run_store_rows_merge_and_validate(self, tmp_path):
        from repro.harness.store import RunRecord, RunStore

        store = RunStore(tmp_path / "store")
        store.put(RunRecord(key="scheme=cubic trace=t", experiment="toy",
                            row={"utilization": 0.9, "scheme": "cubic", "ok": True}))
        rows = store_rows(RunStore(tmp_path / "store"), commit="c3")
        # Scalars only (strings/bools stay out of the trajectory).
        assert rows == [{"benchmark": "toy:scheme=cubic trace=t",
                         "metric": "utilization", "value": 0.9, "unit": "",
                         "commit": "c3"}]
        merged = merge_bench_files([], commit="c3", stores=[tmp_path / "store"])
        assert merged["sources"] == [str(tmp_path / "store")]
        assert merged["rows"] == rows
        validate_bench_payload(merged)

    def test_missing_store_is_skipped_not_created(self, tmp_path):
        # A typo'd --store path must not be mkdir'd and counted as a source.
        typo = tmp_path / "runs" / "topology_sweeep"
        merged = merge_bench_files([], commit="c4", stores=[typo])
        assert merged["sources"] == []
        assert merged["skipped"] == [str(typo)]
        assert not typo.exists()

    def test_validate_requires_files_and_rejects_stores(self, tmp_path):
        # An empty glob must not pass vacuously, and --store belongs to the
        # merge path (run stores have their own validator).
        with pytest.raises(SystemExit):
            main(["--validate"])
        with pytest.raises(SystemExit):
            main(["--validate", "--store", str(tmp_path), "x.json"])

    def test_validate_rejects_schema_drift(self):
        good = merge_bench_files([], commit="c5")
        validate_bench_payload(good)
        bad = dict(good)
        bad["rows"] = [{"benchmark": "b", "metric": "m", "value": "not-a-number",
                        "unit": "", "commit": "c5"}]
        with pytest.raises(ValueError, match="value"):
            validate_bench_payload(bad)


class TestMain:
    def test_writes_canonical_file(self, tmp_path, capsys):
        src = tmp_path / "bench-verifier.json"
        src.write_text(json.dumps(payload(extra_info={"certificates_per_sec": 10.0})))
        out = tmp_path / "BENCH_ci.json"
        code = main([str(src), "--commit", "sha1", "--out", str(out)])
        assert code == 0
        assert "wrote" in capsys.readouterr().out
        written = json.loads(out.read_text())
        assert written["commit"] == "sha1"
        assert all(set(row) == CANONICAL_KEYS for row in written["rows"])

    def test_exit_code_one_when_no_rows(self, tmp_path):
        out = tmp_path / "BENCH_ci.json"
        code = main([str(tmp_path / "missing.json"), "--out", str(out)])
        assert code == 1
        written = json.loads(out.read_text())
        assert written["rows"] == [] and written["skipped"]

    def test_real_grid_payload_round_trips(self, tmp_path):
        # The shape bench_topology_generalization.py actually emits: runtime,
        # scalar throughput numbers, plus non-scalar per-cell rows that must
        # stay out of the trajectory.
        bench = {"benchmarks": [{
            "name": "test_topology_generalization_grid",
            "stats": {"mean": 1.5},
            "extra_info": {
                "certificates": 720, "certificates_per_sec": 890.9,
                "grid_wall_clock_s": 0.8, "n_jobs": 2,
                "families": ["single_bottleneck", "chain(2)"],
                "rows": [{"train_family": "mixed", "qcsat": 0.54}],
            },
        }]}
        src = tmp_path / "bench-generalization.json"
        src.write_text(json.dumps(bench))
        merged = merge_bench_files([src], commit="sha2")
        metrics = {row["metric"] for row in merged["rows"]}
        assert metrics == {"runtime_s", "certificates", "certificates_per_sec",
                           "grid_wall_clock_s", "n_jobs"}
        assert {row["unit"] for row in merged["rows"]} == {"s", "count", "1/s"}


class TestStoreDiff:
    @staticmethod
    def make_store(path, rows):
        from repro.harness.store import RunRecord, RunStore

        store = RunStore(path)
        for key, row in rows.items():
            store.put(RunRecord(key=key, row=row, experiment="e"))
        return store

    def test_identical_stores(self, tmp_path):
        rows = {"k1 #a": {"scheme": "cubic", "utilization": 0.8}}
        a = self.make_store(tmp_path / "a", rows)
        b = self.make_store(tmp_path / "b", rows)
        diff = store_diff(a, b)
        assert diff["identical"]
        assert diff["added"] == diff["removed"] == diff["changed"] == []
        assert "identical" in format_store_diff(diff)

    def test_added_removed_and_changed_cells(self, tmp_path):
        a = self.make_store(tmp_path / "a", {
            "k1 #a": {"scheme": "cubic", "utilization": 0.8, "loss_rate": 0.0},
            "k2 #a": {"scheme": "vegas", "utilization": 0.7},
        })
        b = self.make_store(tmp_path / "b", {
            "k1 #a": {"scheme": "cubic", "utilization": 0.9, "loss_rate": 0.0},
            "k3 #a": {"scheme": "bbr", "utilization": 0.6},
        })
        diff = store_diff(a, b)
        assert diff["added"] == ["k3 #a"]
        assert diff["removed"] == ["k2 #a"]
        (changed,) = diff["changed"]
        assert changed == {"key": "k1 #a", "metric": "utilization",
                           "a": 0.8, "b": 0.9, "delta": pytest.approx(0.1)}
        assert not diff["identical"]
        rendered = format_store_diff(diff, "old", "new")
        assert "only in old: k2 #a" in rendered and "only in new: k3 #a" in rendered
        assert "utilization" in rendered

    def test_non_scalar_changes_reported_without_delta(self, tmp_path):
        a = self.make_store(tmp_path / "a", {"k #a": {"scheme": "cubic", "u": 0.5}})
        b = self.make_store(tmp_path / "b", {"k #a": {"scheme": "bbr", "u": 0.5}})
        (changed,) = store_diff(a, b)["changed"]
        assert changed == {"key": "k #a", "metric": "scheme", "a": "cubic", "b": "bbr"}

    def test_main_store_diff_exit_codes(self, tmp_path, capsys):
        rows = {"k #a": {"utilization": 0.5}}
        self.make_store(tmp_path / "a", rows)
        self.make_store(tmp_path / "b", {"k #a": {"utilization": 0.6}})
        assert main(["--store-diff", str(tmp_path / "a"), str(tmp_path / "a")]) == 0
        assert main(["--store-diff", str(tmp_path / "a"), str(tmp_path / "b")]) == 1
        assert main(["--store-diff", str(tmp_path / "a"), str(tmp_path / "missing")]) == 2
        out = capsys.readouterr().out
        assert "identical" in out and "not a run store" in out

    def test_atol_suppresses_sub_tolerance_drift(self, tmp_path):
        a = self.make_store(tmp_path / "a", {"k #a": {"utilization": 0.8}})
        b = self.make_store(tmp_path / "b", {"k #a": {"utilization": 0.8 + 5e-13}})
        assert store_diff(a, b)["identical"] is False
        diff = store_diff(a, b, atol=1e-12)
        assert diff["identical"] and diff["atol"] == 1e-12
        assert "(atol 1e-12)" in format_store_diff(diff)

    def test_changed_line_reports_expected_got_and_atol(self, tmp_path):
        a = self.make_store(tmp_path / "a", {"k #a": {"utilization": 0.8}})
        b = self.make_store(tmp_path / "b", {"k #a": {"utilization": 0.9}})
        rendered = format_store_diff(store_diff(a, b, atol=1e-6), "exp", "got")
        assert "~ k #a :: utilization: expected 0.8 got 0.9" in rendered
        assert "delta +0.1" in rendered and "atol 1e-06" in rendered

    def test_main_atol_flag_gates_exit_code(self, tmp_path, capsys):
        self.make_store(tmp_path / "a", {"k #a": {"utilization": 0.5}})
        self.make_store(tmp_path / "b", {"k #a": {"utilization": 0.5 + 1e-13}})
        assert main(["--store-diff", str(tmp_path / "a"), str(tmp_path / "b")]) == 1
        assert main(["--store-diff", str(tmp_path / "a"), str(tmp_path / "b"),
                     "--atol", "1e-12"]) == 0

    def test_main_store_diff_rejects_other_inputs(self, tmp_path):
        self.make_store(tmp_path / "a", {"k #a": {"u": 0.5}})
        with pytest.raises(SystemExit):
            main(["--store-diff", str(tmp_path / "a"), str(tmp_path / "a"),
                  "--validate"])


def test_schema_version_is_pinned():
    assert SCHEMA_VERSION == 1
    with pytest.raises(SystemExit):  # argparse: files are required
        main([])


BENCHMARK = {
    "end_to_end": [
        {"name": "train_steps_per_s", "unit": "1/s", "better": "higher", "bound": 0.2},
        {"name": "setup_s", "unit": "s", "better": "lower", "bound": 0.25},
    ],
    "per_layer": [{"name": "core.certify.count", "unit": "count", "better": "lower"}],
}


def run_row(arm, pair, steps, setup, workload="train_canopy", failed=0):
    return {"workload": workload, "seed": pair, "pair": pair, "arm": arm, "commit": arm[0] * 7,
            "attempted": 3, "failed": failed,
            "metrics": {"train_steps_per_s": {"value": steps, "unit": "1/s"}, "setup_s": setup}}


class TestCompare:
    def arms(self, change_steps=600.0, change_setup=0.25, change_failed=0):
        parent = [run_row("parent", i, 480.0 + i, 0.25) for i in range(10)]
        change = [run_row("change", i, change_steps + i, change_setup, failed=change_failed) for i in range(10)]
        return parent, change

    def test_gain_is_judged_over_the_pairs(self):
        report = {entry["metric"]: entry for entry in compare_runs(*self.arms(), BENCHMARK)}
        steps = report["train_steps_per_s"]
        assert steps["pairs"] == 10 and steps["wins"] == 10
        assert steps["verdict"] == "gain"
        assert steps["ratio"] == pytest.approx(604.5 / 484.5)
        assert steps["parent"] == pytest.approx([484.5, 482.25, 486.75])
        assert report["setup_s"]["verdict"] == "same" and report["setup_s"]["wins"] == 0
        assert report["failed_frac"]["verdict"] == "same"
        assert "core.certify.count" not in report  # only metrics both arms measured

    def test_a_metric_past_its_bound_is_worse(self):
        report = {entry["metric"]: entry for entry in compare_runs(*self.arms(change_setup=0.32), BENCHMARK)}
        assert report["setup_s"]["verdict"] == "worse"
        report = {entry["metric"]: entry for entry in compare_runs(*self.arms(change_steps=380.0), BENCHMARK)}
        assert report["train_steps_per_s"]["verdict"] == "worse"
        report = {entry["metric"]: entry for entry in compare_runs(*self.arms(change_failed=1), BENCHMARK)}
        assert report["failed_frac"]["verdict"] == "worse"

    def test_a_small_lead_inside_the_parent_spread_is_not_a_gain(self):
        report = {entry["metric"]: entry for entry in compare_runs(*self.arms(change_steps=482.0), BENCHMARK)}
        assert report["train_steps_per_s"]["wins"] == 10
        assert report["train_steps_per_s"]["verdict"] == "same"

    def test_main_reads_arms_from_one_payload_or_json_lines(self, tmp_path, capsys):
        parent, change = self.arms()
        (tmp_path / "BENCHMARK.json").write_text(json.dumps(BENCHMARK))
        both = tmp_path / "bench.json"
        both.write_text(json.dumps({"rows": parent + change}))
        lines = tmp_path / "change.jsonl"
        lines.write_text("\n".join(json.dumps(row) for row in change) + "\n")
        assert load_runs(f"{both}:change") == change
        assert load_runs(str(lines)) == change
        benchmark = ["--benchmark", str(tmp_path / "BENCHMARK.json")]
        assert main(["--compare", f"{both}:parent", str(lines)] + benchmark) == 0
        out = capsys.readouterr().out
        assert "workload train_canopy (10 pairs)" in out
        assert "10/10" in out and "gain" in out
        _, slow = self.arms(change_steps=300.0)
        lines.write_text("\n".join(json.dumps(row) for row in slow) + "\n")
        assert main(["--compare", f"{both}:parent", str(lines)] + benchmark) == 1
        assert "worse" in capsys.readouterr().out
        with pytest.raises(SystemExit):
            main(["--compare", str(lines), str(lines), "--validate"])


REPO = Path(__file__).resolve().parents[1]
COMMITTED_BENCH_FILES = sorted(REPO.glob("BENCH_pr*.json"))


def test_bench_files_are_committed():
    assert COMMITTED_BENCH_FILES


@pytest.mark.parametrize("path", COMMITTED_BENCH_FILES, ids=lambda path: path.name)
def test_committed_bench_file_loads_and_compares(path):
    """Every committed ``BENCH_pr*.json`` has both arms and only correct runs
    without failures, and ``--compare`` reports each of its workloads against
    ``BENCHMARK.json``.  Whether the runs show a gain or a regression is a
    matter for review, not for this test."""
    parent, change = load_runs(f"{path}:parent"), load_runs(f"{path}:change")
    assert parent and change
    for row in parent + change:
        assert row["correct"] is True and row["failed"] == 0, (row["workload"], row["arm"], row["pair"])
    benchmark = json.loads((REPO / "BENCHMARK.json").read_text())
    report = compare_runs(parent, change, benchmark)
    workloads = {row["workload"] for row in parent}
    assert {entry["workload"] for entry in report} == workloads
