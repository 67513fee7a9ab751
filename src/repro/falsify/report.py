"""Campaign reporting: violations found, shrink sizes, search efficiency.

``python -m repro falsify report <store>`` reads a campaign store — the
deterministic ``campaign.jsonl`` journal, the wall-clock
``campaign_summary.json``, and the promoted ``counterexamples/`` entries —
and renders one human summary (or, with ``--json``, the flat stats dict the
CI folds into ``BENCH_ci.json``).
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Dict, List

from repro.falsify.promote import load_counterexamples
from repro.falsify.search import JOURNAL_FILENAME, SUMMARY_FILENAME
from repro.harness.jsonl import parse_jsonl_tolerant

__all__ = ["format_report", "read_campaign", "report_stats"]


def read_campaign(store_path: str | Path) -> Dict:
    """Parse one campaign store into its report dict; raises on non-campaigns."""
    store_path = Path(store_path)
    journal_path = store_path / JOURNAL_FILENAME
    if not journal_path.is_file():
        raise ValueError(f"{store_path}: not a falsify campaign store "
                         f"(no {JOURNAL_FILENAME})")
    lines, _valid_bytes, _torn = parse_jsonl_tolerant(
        journal_path.read_text(), source=str(journal_path), label="journal line")
    phases: Dict[str, List[Dict]] = {"campaign": [], "candidate": [],
                                     "shrink": [], "promote": []}
    for number, entry in enumerate(lines, start=1):
        phase = entry.get("phase") if isinstance(entry, dict) else None
        if phase not in phases:
            raise ValueError(f"{journal_path}: journal entry {number} has unknown "
                             f"phase {phase!r}")
        phases[phase].append(entry)
    header = phases["campaign"][-1] if phases["campaign"] else {}
    summary: Dict = {}
    summary_path = store_path / SUMMARY_FILENAME
    if summary_path.is_file():
        summary = json.loads(summary_path.read_text())
    counterexample_dir = Path(summary.get("counterexample_store",
                                          store_path / "counterexamples"))
    entries = load_counterexamples(counterexample_dir) \
        if counterexample_dir.exists() else []
    return {"store": str(store_path), "header": header,
            "candidates": phases["candidate"], "shrink_steps": phases["shrink"],
            "promotions": phases["promote"],
            "summary": summary, "counterexamples": entries,
            "counterexample_store": str(counterexample_dir)}


def report_stats(report: Dict) -> Dict:
    """Flat scalar stats of one campaign (the bench/BENCH_ci.json payload)."""
    candidates = report["candidates"]
    shrink_steps = report["shrink_steps"]
    violations = [candidate for candidate in candidates if candidate.get("violated")]
    summary = report["summary"]
    accepted = sum(1 for step in shrink_steps if step.get("accepted"))
    return {
        "experiment": report["header"].get("experiment", ""),
        "objective": report["header"].get("objective", ""),
        "strategy": report["header"].get("strategy", ""),
        "budget": report["header"].get("budget", 0),
        "candidates": len(candidates),
        "unique_cells": len({candidate["key"] for candidate in candidates}),
        "violations_found": len(violations),
        "best_score": max((candidate["score"] for candidate in candidates),
                          default=0.0),
        "counterexamples_promoted": len(report["counterexamples"]),
        "shrink_attempts": len(shrink_steps),
        "shrink_accepted": accepted,
        "computed_cells": summary.get("computed_cells", 0),
        "cached_cells": summary.get("cached_cells", 0),
        "wall_clock_s": summary.get("wall_clock_s", 0.0),
        "falsify_cells_per_sec": summary.get("falsify_cells_per_sec", 0.0),
    }


def format_report(report: Dict) -> str:
    """The human-readable campaign summary."""
    header = report["header"]
    stats = report_stats(report)
    lines = [
        f"falsify campaign: {stats['experiment']} "
        f"objective={stats['objective']} (threshold {header.get('threshold')}) "
        f"strategy={stats['strategy']} budget={stats['budget']} "
        f"seed={header.get('campaign_seed')}",
        f"candidates: {stats['candidates']} ({stats['unique_cells']} unique cells), "
        f"violations: {stats['violations_found']}, "
        f"best score {stats['best_score']:.4f}",
    ]
    if report["summary"]:
        lines.append(
            f"cells: {stats['computed_cells']} computed, "
            f"{stats['cached_cells']} cached, "
            f"{stats['falsify_cells_per_sec']:.2f} cells/s")
    if stats["shrink_attempts"]:
        lines.append(f"shrink: {stats['shrink_accepted']} of "
                     f"{stats['shrink_attempts']} attempted reductions accepted")
    if report["counterexamples"]:
        lines.append(f"counterexamples ({stats['counterexamples_promoted']} promoted "
                     f"to {report['counterexample_store']}):")
        for entry in report["counterexamples"]:
            lines.append(f"  {entry['id']} score={entry['score']:.4f} "
                         f"[{entry['objective']}] {entry['scenario']}")
    else:
        lines.append("counterexamples: none promoted")
    return "\n".join(lines)
