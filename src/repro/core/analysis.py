"""Offline analysis of a controller's property satisfaction.

Beyond the per-decision QC_sat used during evaluation, it is often useful to
see *where* in the observation space a trained controller satisfies a property
— e.g. a grid over (queuing delay, loss rate) with the certified feedback at
each cell.  The paper uses exactly this kind of view to argue that Canopy's
certified regions are larger than Orca's (Figures 6 and 8 are one-dimensional
slices of it); this module provides the general tool.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Sequence

import numpy as np

from repro.core.properties import PropertySet, PropertySpec
from repro.core.verifier import Verifier

__all__ = ["SatisfactionGrid", "satisfaction_grid", "property_report", "compare_controllers"]


@dataclass
class SatisfactionGrid:
    """QC feedback of one property over a 2-d grid of observation values."""

    property_name: str
    x_feature: str
    y_feature: str
    x_values: np.ndarray
    y_values: np.ndarray
    feedback: np.ndarray          # shape (len(y_values), len(x_values))

    @property
    def mean_feedback(self) -> float:
        return float(self.feedback.mean())

    @property
    def certified_fraction(self) -> float:
        """Fraction of grid cells with a full proof (feedback == 1)."""
        return float(np.mean(self.feedback >= 1.0 - 1e-9))

    def to_rows(self) -> List[Dict[str, float]]:
        rows = []
        for yi, y in enumerate(self.y_values):
            for xi, x in enumerate(self.x_values):
                rows.append({self.x_feature: float(x), self.y_feature: float(y),
                             "feedback": float(self.feedback[yi, xi])})
        return rows


def satisfaction_grid(
    verifier: Verifier,
    prop: PropertySpec,
    x_feature: str = "throughput",
    y_feature: str = "inv_rtt",
    x_values: Sequence[float] = (0.1, 0.3, 0.5, 0.7, 0.9),
    y_values: Sequence[float] = (0.1, 0.3, 0.5, 0.7, 0.9),
    cwnd_tcp: float = 50.0,
    cwnd_prev: float = 50.0,
    fill: float = 0.5,
) -> SatisfactionGrid:
    """Sweep two *non-abstracted* observation features and certify at each cell.

    The features the property abstracts (delay/loss/Δcwnd or the noise dims)
    are always covered by the certificate; this sweeps the remaining context
    the controller conditions on.  All cells are certified in one stacked
    :meth:`Verifier.certify` call.
    """
    observer = verifier.observer
    x_values = np.asarray(list(x_values), dtype=np.float64)
    y_values = np.asarray(list(y_values), dtype=np.float64)
    states = np.full((y_values.size, x_values.size, observer.state_dim), fill, dtype=np.float64)
    states[:, :, observer.feature_indices(x_feature)] = x_values[None, :, None]
    states[:, :, observer.feature_indices(y_feature)] = y_values[:, None, None]
    states = states.reshape(-1, observer.state_dim)
    batch = verifier.certify(prop, states, np.full(len(states), cwnd_tcp), np.full(len(states), cwnd_prev))
    feedback = batch.feedback.reshape(y_values.size, x_values.size)
    return SatisfactionGrid(prop.name, x_feature, y_feature, x_values, y_values, feedback)


def property_report(
    verifier: Verifier,
    properties: PropertySet,
    states: Sequence[np.ndarray] | np.ndarray,
    cwnd_tcp: float = 50.0,
    cwnd_prev: float = 50.0,
) -> List[Dict[str, float]]:
    """Per-property satisfaction statistics over a set of observation states
    (a sequence of ``(d,)`` states or an ``(S, d)`` array), from one stacked
    :meth:`Verifier.certify` call.  No states give vacuous 1.0 rows."""
    states = np.asarray(states, dtype=np.float64).reshape(-1, verifier.observer.state_dim)
    n_states = len(states)
    certificates = verifier.certify(properties, states, np.full(n_states, cwnd_tcp), np.full(n_states, cwnd_prev))
    rows = []
    for prop in properties:
        batch = certificates[prop.name]
        # A non-applicable decision has no components, so it is vacuously proved.
        proofs = int((batch.satisfied.all(axis=-1) | ~batch.applicable_mask).sum())
        rows.append({
            "property": prop.name,
            "mean_feedback": float(np.mean(batch.feedback)) if n_states else 1.0,
            "min_feedback": float(np.min(batch.feedback)) if n_states else 1.0,
            "proof_fraction": proofs / n_states if n_states else 1.0,
            "n_states": n_states,
        })
    return rows


def compare_controllers(
    verifiers: Dict[str, Verifier],
    properties: PropertySet,
    states: Sequence[np.ndarray] | np.ndarray,
    cwnd_tcp: float = 50.0,
    cwnd_prev: float = 50.0,
) -> List[Dict[str, float]]:
    """Side-by-side mean QC feedback of several controllers on the same states."""
    rows = []
    for name, verifier in verifiers.items():
        report = property_report(verifier, properties, states, cwnd_tcp, cwnd_prev)
        overall = float(np.mean([row["mean_feedback"] for row in report]))
        rows.append({"controller": name, "mean_feedback": overall,
                     **{f"{row['property']}_feedback": row["mean_feedback"] for row in report}})
    return rows
