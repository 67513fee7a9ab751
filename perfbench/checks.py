"""Output checks: rows against the committed reference, plus physical invariants.

A grid cell fails when its row is missing (the run raised before it
finished), is not in the reference, differs from the reference row under
:func:`repro.harness.benchjson.store_diff` at ``atol=0``, or breaks an
invariant.  A training run fails when its final actor parameters hash to
another digest than the reference or its reward history is not finite.
"""

from __future__ import annotations

import hashlib
import math
from pathlib import Path
from typing import Dict, List, Mapping, Optional, Sequence

__all__ = ["row_violations", "grid_failures", "actor_digest", "training_failures"]


def _finite(value) -> bool:
    return isinstance(value, (int, float)) and math.isfinite(value)


def row_violations(row: Mapping, n_properties: Optional[int]) -> List[str]:
    """The physical invariants one result row breaks (empty when it holds)."""
    problems = []
    utilization = row.get("utilization")
    if not (_finite(utilization) and 0.0 < utilization <= 1.5):
        problems.append(f"utilization {utilization!r} outside (0, 1.5]")
    loss = row.get("loss_rate")
    if not (_finite(loss) and 0.0 <= loss <= 1.0):
        problems.append(f"loss_rate {loss!r} outside [0, 1]")
    for column in ("avg_queuing_delay_ms", "p95_queuing_delay_ms", "avg_rtt_ms"):
        if not _finite(row.get(column)):
            problems.append(f"{column} {row.get(column)!r} not finite")
    if "qcsat" in row and not (_finite(row["qcsat"]) and 0.0 <= row["qcsat"] <= 1.0):
        problems.append(f"qcsat {row['qcsat']!r} outside [0, 1]")
    if n_properties is not None:
        expected = row.get("n_decisions", -1) * n_properties
        if row.get("n_certificates") != expected:
            problems.append(f"n_certificates {row.get('n_certificates')!r} != "
                            f"n_decisions x {n_properties} properties")
    return problems


def grid_failures(keys: Sequence[str], n_properties: Mapping[str, Optional[int]],
                  store_dir: Path, reference_dir: Path) -> Dict[str, str]:
    """Planned cell key → first reason it failed, for one persisted grid pass."""
    from repro.harness.benchjson import store_diff
    from repro.harness.store import RECORDS_FILENAME, RunStore

    if not (reference_dir / RECORDS_FILENAME).is_file():
        return {key: f"no reference store at {reference_dir}" for key in keys}
    fresh = RunStore(store_dir).load()
    diff = store_diff(RunStore(reference_dir), RunStore(store_dir), atol=0.0)
    failures: Dict[str, str] = {}
    for entry in diff["changed"]:
        failures.setdefault(entry["key"], f"{entry['metric']}: reference "
                                          f"{entry['a']!r}, got {entry['b']!r}")
    for key in diff["added"]:
        failures.setdefault(key, "cell not in the reference")
    for key in keys:
        if key not in fresh:
            failures.setdefault(key, "cell did not finish")
            continue
        problems = row_violations(fresh[key].row, n_properties.get(key))
        if problems:
            failures.setdefault(key, "; ".join(problems))
    return {key: failures[key] for key in keys if key in failures}


def actor_digest(model) -> str:
    """SHA-256 over the trained actor's parameter arrays (shape, dtype, bytes)."""
    digest = hashlib.sha256()
    for array in model.actor.get_weights():
        digest.update(f"{array.shape}{array.dtype}".encode())
        digest.update(array.tobytes())
    return digest.hexdigest()


def training_failures(model, training_steps: int, reference_digest: Optional[str]) -> List[str]:
    """Why one training run's output is wrong (empty when it is right)."""
    problems = []
    training = model.training
    if training.env_steps != training_steps:
        problems.append(f"env_steps {training.env_steps} != {training_steps}")
    for log in training.history:
        if not all(math.isfinite(value) for value in
                   (log.raw_reward, log.verifier_reward, log.total_reward)):
            problems.append(f"non-finite reward at step {log.step}")
            break
    digest = actor_digest(model)
    if digest != reference_digest:
        problems.append(f"actor digest {digest[:16]} != reference "
                        f"{(reference_digest or 'missing')[:16]}")
    return problems
