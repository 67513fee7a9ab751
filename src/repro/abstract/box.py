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
:func:`split_bounds` partitions the bare bounds of a ``(d,)`` box into its
``N`` QC components in batched form, and a ``(D, d)`` stack into a
``(D, N, d)`` one, ready for one-shot propagation
(:func:`repro.abstract.propagate.propagate_mlp_batched`).

The public constructors validate their inputs: finite values, a non-negative
deviation (``lo <= hi`` for :meth:`Box.from_bounds`), each within ``1e-12``.
The verifier checks its regions once and then builds boxes with
:meth:`Box._trusted` / :meth:`Box._trusted_bounds`, which keep only the
``max(deviation, 0)`` clamp.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = ["Box", "split_bounds"]


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
        return cls._clamped(center, np.maximum(deviation, 0.0))

    @classmethod
    def _clamped(cls, center: np.ndarray, deviation: np.ndarray) -> "Box":
        """:meth:`_trusted` for a ``deviation`` already clamped at zero, so
        every entry is ``+0.0`` or above (no ``-0.0``, no NaN), on which the
        clamp would only copy: keeps both arrays as they are."""
        box = object.__new__(cls)
        object.__setattr__(box, "center", center)
        object.__setattr__(box, "deviation", deviation)
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

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Box(center={self.center!r}, deviation={self.deviation!r})"


def split_bounds(lo: np.ndarray, hi: np.ndarray, n: int, dims: np.ndarray | None) -> tuple:
    """Partition boxes into their QC components, on bare arrays.

    Splits the boxes ``[lo, hi]`` (shape ``(..., d)``) into ``n`` components
    each along the integer array ``dims`` (``None``: all dimensions) and
    returns their ``(center, deviation)``, shape ``(..., n, d)``, the
    deviation not yet clamped at zero.  The listed dimensions are sliced
    *jointly* into ``n`` equal-width pieces, row ``i`` taking the ``i``-th
    sub-range in each of them; every other dimension stays whole.
    """
    if dims is None:
        dims = np.arange(lo.shape[-1])
    lo_batched = np.repeat(lo[..., None, :], n, axis=-2)
    hi_batched = np.repeat(hi[..., None, :], n, axis=-2)
    if dims.size:
        index = np.arange(n, dtype=np.float64)[:, None]
        lo_dims = lo[..., None, dims]
        width = hi[..., None, dims] - lo_dims
        lo_batched[..., dims] = lo_dims + width * index / n
        hi_batched[..., dims] = lo_dims + width * (index + 1) / n
    # _trusted_bounds' arithmetic with the deviation computed in
    # hi_batched's memory, so at most three stack-sized arrays are alive.
    center = (lo_batched + hi_batched) / 2.0
    deviation = np.subtract(hi_batched, lo_batched, out=hi_batched)
    del lo_batched, hi_batched
    deviation /= 2.0
    return center, deviation
