"""Quantitative certificates (QCs).

A QC (Section 4.3) has two pieces:

* a **proof**: for each input component ``X_n``, whether the propagated output
  region provably lies inside the allowed action region ``A \\ Y``;
* **feedback**: the smoothed fractional-volume measure of Eq. 6, averaged
  across components, which the Canopy trainer folds into the reward.

A :class:`CertificateBatch` holds the QCs of one property at ``D`` decisions
as arrays: the per-component output bounds (the data behind the
certified-component views of Figures 6 and 8), the per-component proof and
feedback, and each decision's feedback.  One decision is the ``D = 1`` batch.
The per-component input bounds are derived on first access.
A :class:`CertificateSet` maps property names to the batches one
certification of several properties produced.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

__all__ = [
    "interval_feedback_batch",
    "CertificateBatch",
    "CertificateSet",
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

    inside_lo = allowed_lo - _CONTAIN_TOL
    inside_hi = allowed_hi + _CONTAIN_TOL
    satisfied = (output_lo >= inside_lo) & (output_hi <= inside_hi)
    intersects = (output_lo <= allowed_hi) & (allowed_lo <= output_hi)
    width = output_hi - output_lo
    wide = width > 0
    overlap = np.minimum(output_hi, allowed_hi) - np.maximum(output_lo, allowed_lo)
    # Clip the overlap before dividing so a subnormal width cannot overflow.
    fraction = np.minimum(np.maximum(overlap, 0.0), np.maximum(width, 0.0)) / np.where(wide, width, 1.0)
    center = (output_lo + output_hi) / 2.0
    center_inside = (center >= inside_lo) & (center <= inside_hi)
    fraction = np.where(wide, fraction, np.where(center_inside, 1.0, 0.0))
    feedback = np.where(satisfied, 1.0, np.where(intersects, fraction, 0.0))
    return satisfied, feedback


@dataclass(frozen=True)
class CertificateBatch:
    """The QCs of one property at ``D`` decisions, held as arrays.

    The verifier certifies several properties in one stack; each property's
    batch then holds its rows of the shared stack arrays.

    ``output_lo``, ``output_hi``, ``satisfied`` and ``component_feedback``
    have shape ``(D, N)``.  ``feedback`` ``(D,)`` is each decision's QC
    feedback, the mean of its ``N`` component feedbacks (bit for bit the
    ``np.mean`` of the row as a Python list), and ``applicable_mask``
    ``(D,)`` marks the decisions the property applies at.  A non-applicable
    decision has NaN bounds, no satisfied component and the vacuous feedback
    1.0.  The proof of an applicable decision ``i`` is ``satisfied[i].all()``.

    ``input_lo``/``input_hi`` ``(D, N, d)``, the bounds of each component,
    are computed on first access by ``input_bounds``, which returns the rows
    of the applicable decisions (the verifier refills them from the state
    rows it kept), and are then kept.
    """

    property_name: str
    allowed_lo: float
    allowed_hi: float
    output_lo: np.ndarray
    output_hi: np.ndarray
    satisfied: np.ndarray
    component_feedback: np.ndarray
    feedback: np.ndarray
    applicable_mask: np.ndarray
    input_bounds: Callable[[], tuple] = field(repr=False, compare=False)

    @classmethod
    def from_applicable(cls, property_name: str, allowed_lo: float, allowed_hi: float,
                        applicable: np.ndarray, input_lo, input_hi, output_lo, output_hi, satisfied,
                        component_feedback, *, input_bounds: Callable[[], tuple] | None = None
                        ) -> "CertificateBatch":
        """Assemble a batch from the arrays of its applicable decisions only.

        Row ``j`` of the component arrays belongs to the ``j``-th True entry
        of ``applicable``; the other decisions get vacuous rows.  The input
        bounds are the arrays ``input_lo``/``input_hi``, or (both ``None``)
        what ``input_bounds()`` returns when they are first read.
        """
        if input_bounds is None:
            input_bounds = functools.partial(_given, input_lo, input_hi)
        # np.mean's own arithmetic (a sum, then a division by N) without its overhead.
        feedback = component_feedback.sum(axis=-1) / component_feedback.shape[-1]
        if not applicable.all():
            output_lo, output_hi = _scatter(applicable, output_lo, np.nan), _scatter(applicable, output_hi, np.nan)
            satisfied = _scatter(applicable, satisfied, False)
            component_feedback = _scatter(applicable, component_feedback, np.nan)
            feedback = _scatter(applicable, feedback, 1.0)
        return cls(property_name, float(allowed_lo), float(allowed_hi), output_lo, output_hi, satisfied,
                   component_feedback, feedback, applicable, input_bounds)

    @functools.cached_property
    def _inputs(self) -> tuple:
        input_lo, input_hi = self.input_bounds()
        if not self.applicable_mask.all():
            return _scatter(self.applicable_mask, input_lo, np.nan), _scatter(self.applicable_mask, input_hi, np.nan)
        return input_lo, input_hi

    @property
    def input_lo(self) -> np.ndarray:
        return self._inputs[0]

    @property
    def input_hi(self) -> np.ndarray:
        return self._inputs[1]

    @property
    def n_decisions(self) -> int:
        return int(self.applicable_mask.shape[0])

    @property
    def applicable(self) -> bool:
        """Whether the property applies at one decision at least; when False
        every certificate in the batch is vacuous."""
        return bool(self.applicable_mask.any())


def _given(input_lo: np.ndarray, input_hi: np.ndarray) -> tuple:
    return input_lo, input_hi


def _scatter(applicable: np.ndarray, values: np.ndarray, fill) -> np.ndarray:
    """``values``, the rows of the applicable decisions, with ``fill`` rows for the others."""
    full = np.full(applicable.shape + values.shape[1:], fill, dtype=values.dtype)
    full[applicable] = values
    return full


class CertificateSet(dict):
    """Certificates of several properties from one certification, keyed by
    property name in property order.

    Each value is that property's :class:`CertificateBatch`.
    """

    @property
    def applicable(self) -> bool:
        """Whether at least one property applies at one decision at least."""
        return any(certificate.applicable for certificate in self.values())
