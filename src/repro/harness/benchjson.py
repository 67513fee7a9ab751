"""Canonicalize pytest-benchmark JSON files into one BENCH_ci.json.

CI produces one ``--benchmark-json`` file per smoke job (verifier throughput,
topology sweep, cross-family generalization, ...), each in pytest-benchmark's
verbose machine-specific format.  To make the performance trajectory of the
repository diffable across commits, this module merges them into a single
``BENCH_ci.json`` with a *stable* schema — a flat list of metric rows::

    {
      "version": 1,
      "commit": "<sha>",
      "rows": [
        {"benchmark": "<test name>", "metric": "<metric>",
         "value": <float>, "unit": "<unit>", "commit": "<sha>"},
        ...
      ]
    }

Every benchmark contributes its measured runtime (``stats.mean``) plus every
*scalar* ``extra_info`` entry (certificates/sec, ticks/sec, grid wall-clock,
...).  Non-scalar extras — per-family row dumps, spec lists — stay in the raw
per-job artifacts; the canonical file is for trajectories, so it keeps only
numbers.  Rows are sorted by (benchmark, metric) so the output is
byte-deterministic for a given input set.

Beyond pytest-benchmark files, the merger also flattens
:class:`~repro.harness.store.RunStore` directories (``--store DIR``): every
scalar metric of every :class:`~repro.harness.store.RunRecord` becomes one
canonical row whose benchmark name is ``<experiment>:<cell key>`` — the
experiment layer and the perf trajectory read the *same* store instead of
keeping private result shapes.

Two run stores — e.g. the same sweep at two commits — can be compared
cell-by-cell with ``--store-diff A B``: records are matched on their cell key
(:meth:`~repro.harness.spec.ScenarioSpec.key` plus the run-time-knob
fingerprint), and the report names, per cell and per metric, the expected
value (store A), the got value (store B), the delta, and the ``--atol``
tolerance under which they were compared — so a CI physics-drift failure is
diagnosable straight from the job log.  The exit status is ``diff``-like: 0
when the stores agree, 1 when they differ.

Two arms of repository-benchmark runs (``perfbench/run.py``, declared in
``BENCHMARK.json``) compare with ``--compare PARENT CHANGE``.  Each side is a
file of run rows ``{"workload", "seed", "pair", "arm", "commit", "attempted",
"failed", "metrics"}`` -- a JSON payload with a ``rows`` list (such as a
committed ``BENCH_pr<N>.json``) or one JSON row per line -- optionally
suffixed ``:ARM`` to keep only that arm's rows.  Rows pair up per workload by
their ``pair`` index.  Per workload and metric the report prints the median
and quartiles of each arm, the median ratio (change / parent), how many pairs
the change won, and a verdict judged against ``BENCHMARK.json`` (read only):
``worse`` when the change's median is worse than the parent's by more than
the metric's bound, ``gain`` when the change won at least 90% of the pairs
and its median moved by more than the parent's inter-quartile range, ``same``
otherwise.  The exit status is 1 when any metric is ``worse`` or the change
failed a larger share of operations.

Usage (what the CI trajectory job runs)::

    python -m repro.harness.benchjson --commit "$GITHUB_SHA" \
        --out BENCH_ci.json bench-verifier.json bench-topology.json ...
    python -m repro.harness.benchjson --validate BENCH_ci.json
    python -m repro.harness.benchjson --store-diff runs/old runs/new --atol 1e-12
    python -m repro.harness.benchjson --compare runs.json:parent runs.json:change
"""

from __future__ import annotations

import argparse
import json
import statistics
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

from repro.harness.store import RECORDS_FILENAME, RunStore, validate_schema
from repro.telemetry.log import console

__all__ = ["canonical_rows", "store_rows", "merge_bench_files", "store_diff",
           "format_store_diff", "validate_bench_payload", "BENCH_PAYLOAD_SCHEMA",
           "load_runs", "compare_runs", "format_compare", "main"]

SCHEMA_VERSION = 1

#: The stable schema of the canonical payload (validated in CI alongside the
#: RunRecord schema of :mod:`repro.harness.store`).
BENCH_PAYLOAD_SCHEMA = {
    "type": "object",
    "required": ["version", "commit", "rows"],
    "properties": {
        "version": {"type": "integer"},
        "commit": {"type": "string", "minLength": 1},
        "sources": {"type": "array", "items": {"type": "string"}},
        "skipped": {"type": "array", "items": {"type": "string"}},
        "rows": {
            "type": "array",
            "items": {
                "type": "object",
                "required": ["benchmark", "metric", "value", "unit", "commit"],
                "properties": {
                    "benchmark": {"type": "string", "minLength": 1},
                    "metric": {"type": "string", "minLength": 1},
                    "value": {"type": "number"},
                    "unit": {"type": "string"},
                    "commit": {"type": "string"},
                },
            },
        },
    },
}

#: Units of the well-known extra_info metrics; anything else numeric defaults
#: to a dimensionless unit so the schema never gains surprise fields.
METRIC_UNITS = {
    "runtime_s": "s",
    "wall_clock_s": "s",
    "grid_wall_clock_s": "s",
    "certificates": "count",
    "certificates_per_sec": "1/s",
    "ticks": "count",
    "ticks_per_sec": "1/s",
    "cells_per_sec": "1/s",
    "n_jobs": "count",
    "speedup": "x",
    "orca_steps_per_second": "1/s",
    "canopy_n5_steps_per_second": "1/s",
    "td3_update_us": "us",
}


def _unit_for(metric: str) -> str:
    if metric in METRIC_UNITS:
        return METRIC_UNITS[metric]
    if metric.endswith("_s"):
        return "s"
    if metric.endswith("_us"):
        return "us"
    if metric.endswith("_per_sec"):
        return "1/s"
    return ""


def canonical_rows(bench_payload: Dict, commit: str) -> List[Dict]:
    """Flatten one pytest-benchmark payload into canonical metric rows."""
    rows: List[Dict] = []

    def add(benchmark: str, metric: str, value) -> None:
        rows.append({
            "benchmark": benchmark,
            "metric": metric,
            "value": float(value),
            "unit": _unit_for(metric),
            "commit": commit,
        })

    for bench in bench_payload.get("benchmarks", []):
        name = bench.get("name", "unknown")
        stats = bench.get("stats", {})
        if "mean" in stats:
            add(name, "runtime_s", stats["mean"])
        for metric, value in (bench.get("extra_info") or {}).items():
            # Only scalars enter the trajectory; bool is excluded because it
            # is an int subclass but not a measurement.
            if isinstance(value, (int, float)) and not isinstance(value, bool):
                add(name, metric, value)
    return rows


def store_rows(store: RunStore, commit: str) -> List[Dict]:
    """Flatten a run store's records into canonical metric rows.

    One row per scalar metric per record; the benchmark name is
    ``<experiment>:<cell key>`` so every cell keeps a stable identity across
    commits (the key is deterministic for a given scenario + knobs).
    """
    rows: List[Dict] = []
    for record in store.records():
        benchmark = f"{record.experiment or 'run'}:{record.key}"
        for metric, value in record.row.items():
            if isinstance(value, (int, float)) and not isinstance(value, bool):
                rows.append({
                    "benchmark": benchmark,
                    "metric": metric,
                    "value": float(value),
                    "unit": _unit_for(metric),
                    "commit": commit,
                })
    return rows


def merge_bench_files(paths: Sequence[Path], commit: str,
                      stores: Sequence[Path] = ()) -> Dict:
    """Merge pytest-benchmark JSON files (and run stores) into the canonical payload.

    Missing or unparsable files are skipped (and recorded under ``skipped``)
    rather than failing the merge, so a partially-failed CI run still uploads
    the trajectory of the jobs that did finish.
    """
    rows: List[Dict] = []
    merged: List[str] = []
    skipped: List[str] = []
    for path in paths:
        path = Path(path)
        try:
            payload = json.loads(path.read_text())
        except (OSError, json.JSONDecodeError):
            skipped.append(str(path))
            continue
        rows.extend(canonical_rows(payload, commit))
        merged.append(str(path))
    for path in stores:
        path = Path(path)
        # A missing or record-less store is a skip, not a silent zero-row
        # source (RunStore would otherwise mkdir the typo'd path).
        if not (path / RECORDS_FILENAME).is_file():
            skipped.append(str(path))
            continue
        try:
            rows.extend(store_rows(RunStore(path), commit))
        except (OSError, ValueError):
            skipped.append(str(path))
            continue
        merged.append(str(path))
    rows.sort(key=lambda row: (row["benchmark"], row["metric"]))
    return {
        "version": SCHEMA_VERSION,
        "commit": commit,
        "sources": merged,
        "skipped": skipped,
        "rows": rows,
    }


def _scalar_metrics(row: Dict) -> Dict[str, float]:
    return {metric: float(value) for metric, value in row.items()
            if isinstance(value, (int, float)) and not isinstance(value, bool)}


def store_diff(store_a: RunStore, store_b: RunStore, atol: float = 0.0) -> Dict:
    """Cell-by-cell comparison of two run stores, keyed by record key.

    The key — :meth:`ScenarioSpec.key() <repro.harness.spec.ScenarioSpec.key>`
    plus the run-time-knob fingerprint — identifies one cell exactly, so two
    stores of the same sweep at different commits line up cell for cell.
    Returns ``added`` / ``removed`` key lists (cells only in B / only in A)
    and ``changed`` metric rows (``{key, metric, a, b, delta}``) for every
    scalar metric whose values differ by more than ``atol`` (default 0.0 —
    exact comparison); non-scalar row entries are compared by equality and
    reported with ``a``/``b`` verbatim and no delta.
    """
    records_a = store_a.load()
    records_b = store_b.load()
    added = sorted(set(records_b) - set(records_a))
    removed = sorted(set(records_a) - set(records_b))
    changed: List[Dict] = []
    for key in sorted(set(records_a) & set(records_b)):
        row_a, row_b = records_a[key].row, records_b[key].row
        scalars_a, scalars_b = _scalar_metrics(row_a), _scalar_metrics(row_b)
        for metric in sorted(set(row_a) | set(row_b)):
            if metric in scalars_a and metric in scalars_b:
                delta = scalars_b[metric] - scalars_a[metric]
                if abs(delta) > atol:
                    changed.append({"key": key, "metric": metric,
                                    "a": scalars_a[metric], "b": scalars_b[metric],
                                    "delta": delta})
            elif row_a.get(metric) != row_b.get(metric):
                changed.append({"key": key, "metric": metric,
                                "a": row_a.get(metric), "b": row_b.get(metric)})
    return {
        "added": added,
        "removed": removed,
        "changed": changed,
        "atol": atol,
        "n_cells_a": len(records_a),
        "n_cells_b": len(records_b),
        "identical": not (added or removed or changed),
    }


def format_store_diff(diff: Dict, label_a: str = "A", label_b: str = "B") -> str:
    """A human-readable rendering of one :func:`store_diff` report.

    Changed scalars print one ``expected ... got ...`` line per cell per
    metric — the diagnosable form a CI physics-drift failure needs — with the
    delta and the ``atol`` the comparison ran under.
    """
    atol = diff.get("atol", 0.0)
    lines = [f"{label_a}: {diff['n_cells_a']} cells, {label_b}: {diff['n_cells_b']} cells"
             + (f" (atol {atol:g})" if atol else "")]
    for key in diff["removed"]:
        lines.append(f"- only in {label_a}: {key}")
    for key in diff["added"]:
        lines.append(f"+ only in {label_b}: {key}")
    for entry in diff["changed"]:
        if "delta" in entry:
            lines.append(f"~ {entry['key']} :: {entry['metric']}: "
                         f"expected {entry['a']:g} got {entry['b']:g} "
                         f"(delta {entry['delta']:+g}, atol {atol:g})")
        else:
            lines.append(f"~ {entry['key']} :: {entry['metric']}: "
                         f"expected {entry['a']!r} got {entry['b']!r}")
    if diff["identical"]:
        lines.append("stores are identical")
    else:
        lines.append(f"{len(diff['removed'])} removed, {len(diff['added'])} added, "
                     f"{len(diff['changed'])} changed metric(s)")
    return "\n".join(lines)


def load_runs(spec: str) -> List[Dict]:
    """The run rows of ``spec``: a file path, optionally suffixed ``:ARM``.

    The file holds a JSON payload with a ``rows`` list or one JSON row per
    line.  With an ``:ARM`` suffix (and no file of that literal name) only
    the rows whose ``arm`` matches are kept.
    """
    path, arm = Path(spec), None
    if not path.is_file() and ":" in spec:
        raw, arm = spec.rsplit(":", 1)
        path = Path(raw)
    text = path.read_text()
    try:
        payload = json.loads(text)
        rows = payload["rows"] if isinstance(payload, dict) else payload
    except json.JSONDecodeError:
        rows = [json.loads(line) for line in text.splitlines() if line.strip()]
    return [row for row in rows if arm is None or row.get("arm") == arm]


def _run_metrics(row: Dict) -> Dict[str, float]:
    """A run row's metrics as plain numbers (perfbench prints ``{"value", "unit"}``)."""
    return {name: float(value["value"] if isinstance(value, dict) else value)
            for name, value in row["metrics"].items()}


def _quartiles(values: Sequence[float]) -> Tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, median, q3


def compare_runs(parent: Sequence[Dict], change: Sequence[Dict], benchmark: Dict) -> List[Dict]:
    """Per workload and metric, the two arms' quartiles, the median ratio,
    the change's win count over the pairs and a verdict (module docstring).

    ``benchmark`` is the parsed ``BENCHMARK.json``: its ``end_to_end``
    metrics carry a direction and a bound, its ``per_layer`` metrics a
    direction only (their verdict is never ``worse``).  Each workload also
    gets a ``failed_frac`` entry: failed over attempted operations, summed
    over its runs.
    """
    declared = {entry["name"]: entry for entry in benchmark.get("end_to_end", []) + benchmark.get("per_layer", [])}
    report: List[Dict] = []
    in_change = {row["workload"] for row in change}
    workloads = [name for name in dict.fromkeys(row["workload"] for row in parent) if name in in_change]
    for workload in workloads:
        arms = []
        for rows in (parent, change):
            own = [row for row in rows if row["workload"] == workload]
            arms.append(sorted(own, key=lambda row: row.get("pair", 0)))
        n_pairs = min(len(arm) for arm in arms)
        runs = [[_run_metrics(row) for row in arm] for arm in arms]
        names = [name for name in declared if all(name in metrics for arm in runs for metrics in arm)]
        for name in names:
            entry = declared[name]
            higher = entry["better"] == "higher"
            values = [[metrics[name] for metrics in arm] for arm in runs]
            (p_q1, p_median, p_q3), (c_q1, c_median, c_q3) = (_quartiles(arm) for arm in values)
            wins = sum((c > p) if higher else (c < p) for p, c in zip(values[0][:n_pairs], values[1][:n_pairs]))
            bound = entry.get("bound")
            if bound is not None and (c_median < p_median * (1.0 - bound) if higher
                                      else c_median > p_median * (1.0 + bound)):
                verdict = "worse"
            elif n_pairs and wins >= 0.9 * n_pairs and abs(c_median - p_median) > p_q3 - p_q1:
                verdict = "gain"
            else:
                verdict = "same"
            report.append({
                "workload": workload, "metric": name, "unit": entry.get("unit", ""), "better": entry["better"],
                "bound": bound, "pairs": n_pairs, "parent": [p_median, p_q1, p_q3],
                "change": [c_median, c_q1, c_q3], "ratio": c_median / p_median if p_median else float("nan"),
                "wins": wins, "verdict": verdict,
            })
        fractions = [sum(row.get("failed", 0) for row in arm) / max(sum(row.get("attempted", 0) for row in arm), 1)
                     for arm in arms]
        report.append({
            "workload": workload, "metric": "failed_frac", "unit": "ratio", "better": "lower", "bound": 0.0,
            "pairs": n_pairs, "parent": [fractions[0]] * 3, "change": [fractions[1]] * 3,
            "ratio": float("nan"), "wins": 0, "verdict": "worse" if fractions[1] > fractions[0] else "same",
        })
    return report


def format_compare(report: Sequence[Dict]) -> str:
    """The :func:`compare_runs` report as one table per workload."""
    lines: List[str] = []

    def arm(values: Sequence[float]) -> str:
        median, q1, q3 = values
        return f"{median:.4g} [{q1:.4g}-{q3:.4g}]"

    for workload in dict.fromkeys(entry["workload"] for entry in report):
        entries = [entry for entry in report if entry["workload"] == workload]
        lines.append(f"workload {workload} ({entries[0]['pairs']} pairs)")
        lines.append(f"  {'metric':<34} {'parent median [q1-q3]':>30} {'change median [q1-q3]':>30} "
                     f"{'ratio':>7} {'wins':>6} {'bound':>6}  verdict")
        for entry in entries:
            bound = "-" if entry["bound"] is None else f"{entry['bound']:g}"
            wins = "-" if entry["metric"] == "failed_frac" else f"{entry['wins']}/{entry['pairs']}"
            lines.append(f"  {entry['metric']:<34} {arm(entry['parent']):>30} {arm(entry['change']):>30} "
                         f"{entry['ratio']:>7.3f} {wins:>6} {bound:>6}  {entry['verdict']}")
    return "\n".join(lines)


def validate_bench_payload(payload: Dict) -> None:
    """Schema-check one canonical payload; raises ``ValueError`` on drift."""
    validate_schema(payload, BENCH_PAYLOAD_SCHEMA)


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro.harness.benchjson",
        description="merge pytest-benchmark JSON files into a canonical BENCH_ci.json",
    )
    parser.add_argument("files", nargs="*", help="pytest-benchmark JSON files to merge")
    parser.add_argument("--store", action="append", default=[], metavar="DIR",
                        help="also flatten this run-store directory into canonical rows "
                             "(repeatable)")
    parser.add_argument("--commit", default="unknown", help="commit SHA stamped into every row")
    parser.add_argument("--out", default="BENCH_ci.json", help="output path")
    parser.add_argument("--validate", action="store_true",
                        help="schema-check already-canonical payloads instead of merging")
    parser.add_argument("--store-diff", nargs=2, default=None, metavar=("A", "B"),
                        help="compare two run stores cell-by-cell (exit 1 when they "
                             "differ) instead of merging")
    parser.add_argument("--atol", type=float, default=0.0,
                        help="absolute tolerance for --store-diff scalar comparisons "
                             "(default 0.0: exact)")
    parser.add_argument("--compare", nargs=2, default=None, metavar=("PARENT", "CHANGE"),
                        help="compare two arms of benchmark runs (each a file of run rows, "
                             "optionally FILE:ARM) against the BENCHMARK.json bounds; exit 1 "
                             "when a metric is worse than its bound")
    parser.add_argument("--benchmark", default="BENCHMARK.json",
                        help="benchmark declaration read by --compare (default: BENCHMARK.json)")
    args = parser.parse_args(list(argv) if argv is not None else None)

    if args.compare is not None:
        if args.files or args.store or args.validate or args.store_diff:
            parser.error("--compare takes exactly two run files and no other inputs")
        benchmark = json.loads(Path(args.benchmark).read_text())
        report = compare_runs(load_runs(args.compare[0]), load_runs(args.compare[1]), benchmark)
        console(format_compare(report))
        return 1 if any(entry["verdict"] == "worse" for entry in report) else 0

    if args.store_diff is not None:
        if args.files or args.store or args.validate:
            parser.error("--store-diff takes exactly two run stores and no other inputs")
        path_a, path_b = (Path(raw) for raw in args.store_diff)
        for path in (path_a, path_b):
            if not (path / RECORDS_FILENAME).is_file():
                console(f"{path}: not a run store (no {RECORDS_FILENAME})")
                return 2
        diff = store_diff(RunStore(path_a), RunStore(path_b), atol=args.atol)
        console(format_store_diff(diff, label_a=str(path_a), label_b=str(path_b)))
        return 0 if diff["identical"] else 1

    if args.validate:
        if not args.files:
            parser.error("--validate needs at least one canonical JSON file "
                         "(a glob that matched nothing must not pass vacuously)")
        if args.store:
            parser.error("--validate checks canonical payloads; validate run stores "
                         "with 'python -m repro.harness.store' instead")
        status = 0
        for raw in args.files:
            path = Path(raw)
            try:
                payload = json.loads(path.read_text())
                validate_bench_payload(payload)
            except (OSError, json.JSONDecodeError, ValueError) as exc:
                console(f"{path}: INVALID: {exc}")
                status = 1
                continue
            console(f"{path}: valid ({len(payload['rows'])} rows, commit {payload['commit']})")
        return status

    if not args.files and not args.store:
        parser.error("nothing to merge: give bench JSON files and/or --store directories")
    payload = merge_bench_files([Path(p) for p in args.files], commit=args.commit,
                                stores=[Path(p) for p in args.store])
    out = Path(args.out)
    out.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    console(f"wrote {out} ({len(payload['rows'])} rows from {len(payload['sources'])} files"
            + (f", skipped {len(payload['skipped'])}" if payload["skipped"] else "") + ")")
    return 0 if payload["rows"] else 1


if __name__ == "__main__":  # pragma: no cover - exercised via tests calling main()
    raise SystemExit(main())
