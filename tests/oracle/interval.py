"""Closed intervals ``[lo, hi]``, element-wise over numpy arrays."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

__all__ = ["Interval", "interval_feedback"]


@dataclass(frozen=True)
class Interval:
    """A closed interval ``[lo, hi]``, element-wise over numpy arrays."""

    lo: np.ndarray
    hi: np.ndarray

    def __post_init__(self) -> None:
        lo = np.asarray(self.lo, dtype=np.float64)
        hi = np.asarray(self.hi, dtype=np.float64)
        lo, hi = np.broadcast_arrays(lo, hi)
        if np.any(lo > hi + 1e-12):
            raise ValueError(f"Interval lower bound exceeds upper bound: lo={lo}, hi={hi}")
        object.__setattr__(self, "lo", np.array(lo, dtype=np.float64))
        object.__setattr__(self, "hi", np.array(hi, dtype=np.float64))

    @property
    def center(self) -> np.ndarray:
        return (self.lo + self.hi) / 2.0

    @property
    def deviation(self) -> np.ndarray:
        return (self.hi - self.lo) / 2.0

    @property
    def width(self) -> np.ndarray:
        return self.hi - self.lo

    def contains(self, value, tol: float = 1e-9) -> bool:
        arr = np.asarray(value, dtype=np.float64)
        return bool(np.all(arr >= self.lo - tol) and np.all(arr <= self.hi + tol))

    def contains_interval(self, other: "Interval", tol: float = 1e-9) -> bool:
        return bool(np.all(other.lo >= self.lo - tol) and np.all(other.hi <= self.hi + tol))

    def intersects(self, other: "Interval") -> bool:
        return bool(np.all(self.lo <= other.hi) and np.all(other.lo <= self.hi))

    def overlap_fraction(self, target: "Interval") -> float:
        """Fraction of *this* interval's volume that lies inside ``target``.

        The smoothed QC feedback measure of Eq. 6.  For degenerate
        (zero-width) intervals the fraction is 1.0 when the point lies inside
        ``target`` and 0.0 otherwise.
        """
        lo = np.maximum(self.lo, target.lo)
        hi = np.minimum(self.hi, target.hi)
        if np.any(lo > hi):
            return 0.0
        inter = Interval(lo, hi)
        own = self.width
        if np.all(own <= 0):
            return 1.0 if target.contains(self.center) else 0.0
        # Per-dimension fractional overlap; degenerate dims count as 1 if inside.
        fracs = np.where(own > 0, inter.width / np.where(own > 0, own, 1.0), 1.0)
        return float(np.prod(np.clip(fracs, 0.0, 1.0)))

    def split_dims(self, n: int, dims: Sequence[int]) -> list:
        """Split only the listed dimensions of a 1-d interval into ``n``
        aligned slices: slice ``i`` takes the ``i``-th sub-range in each
        listed dimension, the other dimensions stay whole."""
        if n <= 0:
            raise ValueError("n must be positive")
        if self.lo.ndim != 1:
            raise ValueError("split_dims requires a 1-d interval")
        pieces = []
        for i in range(n):
            lo = self.lo.copy()
            hi = self.hi.copy()
            for d in dims:
                width = self.hi[d] - self.lo[d]
                lo[d] = self.lo[d] + width * i / n
                hi[d] = self.lo[d] + width * (i + 1) / n
            pieces.append(Interval(lo, hi))
        return pieces


def interval_feedback(output: Interval, allowed: Interval) -> float:
    """Eq. 6: the fraction of the output region provably inside ``allowed``.

    * 1.0 when the output region is entirely inside the allowed region,
    * 0.0 when it is entirely inside the undesired region ``Y``,
    * otherwise the relative volume of the overlap.
    """
    if allowed.contains_interval(output):
        return 1.0
    if not output.intersects(allowed):
        return 0.0
    return output.overlap_fraction(allowed)
