"""Quantitative certificates (QCs).

A QC (Section 4.3) has two pieces:

* a **proof**: for each input component ``X_n``, whether the propagated output
  region provably lies inside the allowed action region ``A \\ Y``;
* **feedback**: the smoothed fractional-volume measure of Eq. 6, averaged
  across components, which the Canopy trainer folds into the reward.

The :class:`QuantitativeCertificate` produced by the verifier carries both,
plus enough detail (per-component output bounds) to reproduce the
certified-component visualizations of Figures 6 and 8.  A
:class:`CertificateBatch` holds the QCs of one property at many decisions as
arrays, and builds the per-decision certificate on demand.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List

import numpy as np

__all__ = [
    "interval_feedback_batch",
    "ComponentCertificate",
    "QuantitativeCertificate",
    "CertificateBatch",
]

#: Containment tolerance of the proof and of the degenerate-interval rule.
_CONTAIN_TOL = 1e-9


def interval_feedback_batch(
    output_lo: np.ndarray,
    output_hi: np.ndarray,
    allowed_lo: float,
    allowed_hi: float,
) -> tuple:
    """Vectorized proof + Eq. 6 feedback over many scalar output intervals.

    Takes the per-component checked-action bounds as arrays of one shape
    (``(N,)`` for one decision, ``(D, N)`` for a stack) and the (scalar)
    allowed region ``[allowed_lo, allowed_hi]``; returns
    ``(satisfied, feedback)`` boolean and float arrays of that shape.  A
    component is *satisfied* when its output interval lies inside the allowed
    region (within ``1e-9``).  Its feedback is

    * 1.0 when satisfied,
    * 0.0 when the output interval misses the allowed region,
    * otherwise the fraction of its width inside the allowed region; a
      zero-width interval counts 1.0 when its point lies inside (within
      ``1e-9``) and 0.0 otherwise.
    """
    output_lo = np.asarray(output_lo, dtype=np.float64)
    output_hi = np.asarray(output_hi, dtype=np.float64)

    satisfied = (output_lo >= allowed_lo - _CONTAIN_TOL) & (output_hi <= allowed_hi + _CONTAIN_TOL)
    intersects = (output_lo <= allowed_hi) & (allowed_lo <= output_hi)
    width = output_hi - output_lo
    overlap = np.minimum(output_hi, allowed_hi) - np.maximum(output_lo, allowed_lo)
    # Clip the overlap before dividing so a subnormal width cannot overflow.
    fraction = np.clip(overlap, 0.0, np.maximum(width, 0.0)) / np.where(width > 0, width, 1.0)
    center = (output_lo + output_hi) / 2.0
    center_inside = (center >= allowed_lo - _CONTAIN_TOL) & (center <= allowed_hi + _CONTAIN_TOL)
    fraction = np.where(width > 0, fraction, np.where(center_inside, 1.0, 0.0))
    feedback = np.where(satisfied, 1.0, np.where(intersects, fraction, 0.0))
    return satisfied, feedback


@dataclass(frozen=True)
class ComponentCertificate:
    """Certification outcome for one input component ``X_n``."""

    index: int
    input_lo: np.ndarray
    input_hi: np.ndarray
    output_lo: float
    output_hi: float
    satisfied: bool
    feedback: float


@dataclass
class QuantitativeCertificate:
    """The QC for one property at one decision step."""

    property_name: str
    allowed_lo: float
    allowed_hi: float
    components: List[ComponentCertificate] = field(default_factory=list)
    applicable: bool = True

    # ------------------------------------------------------------------ #
    @property
    def n_components(self) -> int:
        return len(self.components)

    @property
    def feedback(self) -> float:
        """QC feedback: mean of the per-component smoothed feedback (Eq. 6)."""
        if not self.components:
            return 1.0
        return float(np.mean([c.feedback for c in self.components]))

    @property
    def satisfied_fraction(self) -> float:
        """Fraction of components whose certification is a full (boolean) proof."""
        if not self.components:
            return 1.0
        return float(np.mean([1.0 if c.satisfied else 0.0 for c in self.components]))

    @property
    def proof(self) -> bool:
        """True iff every component provably satisfies the property.

        When this holds the QC coincides with the boolean certificate of prior
        verification work: ``π ⊢_c φ`` on the whole input region ``X``.
        """
        return all(c.satisfied for c in self.components) if self.components else True

    def output_bounds(self) -> np.ndarray:
        """Per-component ``(lo, hi)`` output bounds — the data behind Figs. 6/8."""
        return np.array([[c.output_lo, c.output_hi] for c in self.components], dtype=np.float64)

    def summary(self) -> dict:
        return {
            "property": self.property_name,
            "feedback": self.feedback,
            "satisfied_fraction": self.satisfied_fraction,
            "proof": self.proof,
            "n_components": self.n_components,
            "applicable": self.applicable,
        }


@dataclass(frozen=True)
class CertificateBatch:
    """The QCs of one property at ``D`` decisions, held as arrays.

    ``input_lo``/``input_hi`` have shape ``(D, N, d)``; ``output_lo``,
    ``output_hi``, ``satisfied`` and ``component_feedback`` have shape
    ``(D, N)``.  ``feedback`` ``(D,)`` is each decision's QC feedback (the
    component mean, exactly as :attr:`QuantitativeCertificate.feedback`
    computes it) and ``applicable_mask`` ``(D,)`` marks the decisions the
    property applies at.  A non-applicable decision has NaN bounds, no
    satisfied component and the vacuous feedback 1.0.
    """

    property_name: str
    allowed_lo: float
    allowed_hi: float
    input_lo: np.ndarray
    input_hi: np.ndarray
    output_lo: np.ndarray
    output_hi: np.ndarray
    satisfied: np.ndarray
    component_feedback: np.ndarray
    feedback: np.ndarray
    applicable_mask: np.ndarray

    @classmethod
    def from_applicable(cls, property_name: str, allowed_lo: float, allowed_hi: float,
                        applicable: np.ndarray, input_lo, input_hi, output_lo, output_hi, satisfied,
                        component_feedback) -> "CertificateBatch":
        """Assemble a batch from the arrays of its applicable decisions only.

        Row ``j`` of the component arrays belongs to the ``j``-th True entry
        of ``applicable``; the other decisions get vacuous rows.
        """
        feedback = np.mean(component_feedback, axis=-1)
        if not applicable.all():
            def scatter(values: np.ndarray, fill) -> np.ndarray:
                full = np.full(applicable.shape + values.shape[1:], fill, dtype=values.dtype)
                full[applicable] = values
                return full

            input_lo, input_hi = scatter(input_lo, np.nan), scatter(input_hi, np.nan)
            output_lo, output_hi = scatter(output_lo, np.nan), scatter(output_hi, np.nan)
            satisfied = scatter(satisfied, False)
            component_feedback = scatter(component_feedback, np.nan)
            feedback = scatter(feedback, 1.0)
        return cls(property_name, float(allowed_lo), float(allowed_hi), input_lo, input_hi,
                   output_lo, output_hi, satisfied, component_feedback, feedback, applicable)

    @property
    def n_decisions(self) -> int:
        return int(self.applicable_mask.shape[0])

    @property
    def applicable(self) -> bool:
        """Whether the property applies at one decision at least; when False
        every certificate in the batch is vacuous."""
        return bool(self.applicable_mask.any())

    def certificate(self, index: int) -> QuantitativeCertificate:
        """Decision ``index`` as a :class:`QuantitativeCertificate`."""
        certificate = QuantitativeCertificate(
            property_name=self.property_name,
            allowed_lo=self.allowed_lo,
            allowed_hi=self.allowed_hi,
            applicable=bool(self.applicable_mask[index]),
        )
        if certificate.applicable:
            input_lo, input_hi = self.input_lo[index], self.input_hi[index]
            certificate.components = [
                ComponentCertificate(
                    index=component,
                    input_lo=input_lo[component].copy(),
                    input_hi=input_hi[component].copy(),
                    output_lo=output_lo,
                    output_hi=output_hi,
                    satisfied=satisfied,
                    feedback=feedback,
                )
                for component, (output_lo, output_hi, satisfied, feedback) in enumerate(zip(
                    self.output_lo[index].tolist(), self.output_hi[index].tolist(),
                    self.satisfied[index].tolist(), self.component_feedback[index].tolist()))
            ]
        return certificate
