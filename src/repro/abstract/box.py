"""The box abstract domain ``s# = (b_c, b_e)#``.

Section 3.2 of the Canopy paper represents abstract states as boxes: a pair of
a center vector ``b_c`` and a non-negative deviation vector ``b_e``.  The box
encodes every concrete state whose ``i``-th coordinate lies in
``[(b_c)_i - (b_e)_i, (b_c)_i + (b_e)_i]``.  The box form is the natural one
for interval bound propagation through affine layers because

    f#(s#) = (M @ b_c + b, |M| @ b_e)

is exact for affine ``f``.

Batched convention
------------------

A Box may carry leading batch axes: ``center``/``deviation`` (and hence
``lo``/``hi``) of shape ``(N, d)`` represent ``N`` independent
``d``-dimensional boxes, and a stack ``(D, N, d)`` holds ``D`` such sets.
:meth:`Box.split_batched` partitions a ``(d,)`` box into its ``N`` QC
components directly in batched form, and a ``(D, d)`` stack into a
``(D, N, d)`` one, ready for one-shot propagation
(:func:`repro.abstract.propagate.propagate_mlp_batched`).  :meth:`Box.scale`
and :meth:`Box.shift` apply element-wise to the whole stack.

The public constructors validate their inputs: finite values, a non-negative
deviation (``lo <= hi`` for :meth:`Box.from_bounds`), each within ``1e-12``.
The verifier checks its region once and then builds boxes with
:meth:`Box._trusted` / :meth:`Box._trusted_bounds`, which keep only the
``max(deviation, 0)`` clamp.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

__all__ = ["Box"]


def _first(mask: np.ndarray) -> tuple:
    """The index of the first True entry of ``mask``."""
    return tuple(int(i) for i in np.argwhere(mask)[0])


def _check_finite(name: str, values: np.ndarray) -> None:
    finite = np.isfinite(values)
    if not finite.all():
        index = _first(~finite)
        raise ValueError(f"box {name} must be finite, got {values[index]} at index {index}")


@dataclass(frozen=True)
class Box:
    """Box abstract value: ``center ± deviation`` element-wise."""

    center: np.ndarray
    deviation: np.ndarray

    def __post_init__(self) -> None:
        center = np.asarray(self.center, dtype=np.float64)
        deviation = np.asarray(self.deviation, dtype=np.float64)
        center, deviation = np.broadcast_arrays(center, deviation)
        _check_finite("center", center)
        _check_finite("deviation", deviation)
        if np.any(deviation < -1e-12):
            index = _first(deviation < -1e-12)
            raise ValueError(f"box deviation must be non-negative, got {deviation[index]} at index {index}")
        object.__setattr__(self, "center", np.array(center, dtype=np.float64))
        object.__setattr__(self, "deviation", np.array(np.maximum(deviation, 0.0), dtype=np.float64))

    # ------------------------------------------------------------------ #
    # Constructors
    # ------------------------------------------------------------------ #
    @classmethod
    def _trusted(cls, center: np.ndarray, deviation: np.ndarray) -> "Box":
        """Internal constructor for float64 ``center``/``deviation`` arrays of
        one shape: keeps the deviation clamp, skips validation and copies."""
        box = object.__new__(cls)
        object.__setattr__(box, "center", center)
        object.__setattr__(box, "deviation", np.maximum(deviation, 0.0))
        return box

    @classmethod
    def _trusted_bounds(cls, lo: np.ndarray, hi: np.ndarray) -> "Box":
        """:meth:`from_bounds` for float64 ``lo <= hi`` arrays of one shape,
        with the same centre/deviation arithmetic and no validation."""
        return cls._trusted((lo + hi) / 2.0, (hi - lo) / 2.0)

    @classmethod
    def from_bounds(cls, lo, hi) -> "Box":
        """The box ``[lo, hi]``: finite bounds with ``lo <= hi`` (within 1e-12)."""
        lo, hi = np.broadcast_arrays(np.asarray(lo, dtype=np.float64), np.asarray(hi, dtype=np.float64))
        _check_finite("lo", lo)
        _check_finite("hi", hi)
        if np.any(lo > hi + 1e-12):
            index = _first(lo > hi + 1e-12)
            raise ValueError(f"box lo exceeds hi at index {index}: lo={lo[index]}, hi={hi[index]}")
        return cls((lo + hi) / 2.0, (hi - lo) / 2.0)

    # ------------------------------------------------------------------ #
    # Properties
    # ------------------------------------------------------------------ #
    @property
    def lo(self) -> np.ndarray:
        return self.center - self.deviation

    @property
    def hi(self) -> np.ndarray:
        return self.center + self.deviation

    @property
    def shape(self) -> tuple:
        return self.center.shape

    @property
    def ndim(self) -> int:
        return self.center.ndim

    # ------------------------------------------------------------------ #
    # Element-wise transformers
    # ------------------------------------------------------------------ #
    def scale(self, factor) -> "Box":
        """Multiplication by a concrete (possibly negative) factor."""
        factor = np.asarray(factor, dtype=np.float64)
        return Box._trusted(self.center * factor, self.deviation * np.abs(factor))

    def shift(self, offset) -> "Box":
        """Addition of a concrete offset."""
        center = self.center + np.asarray(offset, dtype=np.float64)
        return Box._trusted(center, np.broadcast_to(self.deviation, center.shape))

    def split_batched(self, n: int, dims: Sequence[int] | None = None) -> "Box":
        """Partition a box into ``n`` components as one batched Box.

        A 1-d box of shape ``(d,)`` gives a ``(n, d)`` box: the listed
        ``dims`` (default: all) are sliced *jointly* into ``n`` equal-width
        pieces, row ``i`` taking the ``i``-th sub-range in each of them, and
        every other dimension stays whole.  A stack of boxes, shape
        ``(..., d)``, splits every box the same way into a ``(..., n, d)``
        stack.
        """
        if n <= 0:
            raise ValueError("n must be positive")
        if self.ndim < 1:
            raise ValueError("split_batched requires a box with a feature axis")
        lo = self.lo
        hi = self.hi
        if dims is None:
            dims = list(range(lo.shape[-1]))
        dims = np.asarray(list(dims), dtype=int)
        lo_batched = np.repeat(lo[..., None, :], n, axis=-2)
        hi_batched = np.repeat(hi[..., None, :], n, axis=-2)
        if dims.size:
            index = np.arange(n, dtype=np.float64)[:, None]
            lo_dims = lo[..., None, dims]
            width = hi[..., None, dims] - lo_dims
            lo_batched[..., dims] = lo_dims + width * index / n
            hi_batched[..., dims] = lo_dims + width * (index + 1) / n
        return Box._trusted_bounds(lo_batched, hi_batched)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Box(center={self.center!r}, deviation={self.deviation!r})"
