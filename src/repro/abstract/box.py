"""The box abstract domain ``s# = (b_c, b_e)#``.

Section 3.2 of the Canopy paper represents abstract states as boxes: a pair of
a center vector ``b_c`` and a non-negative deviation vector ``b_e``.  The box
encodes every concrete state whose ``i``-th coordinate lies in
``[(b_c)_i - (b_e)_i, (b_c)_i + (b_e)_i]``.

A :class:`Box` is interchangeable with a :class:`repro.abstract.interval.Interval`
(same concretization); the box form is the natural one for interval bound
propagation through affine layers because

    f#(s#) = (M @ b_c + b, |M| @ b_e)

is exact for affine ``f``.

Batched convention
------------------

A Box may carry a leading batch axis: ``center``/``deviation`` (and hence
``lo``/``hi``) of shape ``(N, d)`` represent ``N`` independent ``d``-dimensional
boxes.  Every element-wise transformer (:meth:`Box.relu`, :meth:`Box.tanh`,
:meth:`Box.scale`, :meth:`Box.shift`) applies unchanged to the whole stack, and
:meth:`Box.affine` contracts the trailing feature axis, so one numpy call
propagates all ``N`` boxes at once.  :meth:`Box.stack` builds a batched box
from per-component boxes, :meth:`Box.split_batched` partitions a 1-d box into
its ``N`` QC components directly in batched form, and :meth:`Box.unstack`
recovers the per-component view.

:meth:`Box.split_batched` also stacks over leading axes: a ``(D, d)`` stack
of ``D`` boxes splits into a ``(D, N, d)`` stack, whose ``(N, d)`` slices go
through :meth:`Box.affine` as one gemm each, exactly as a lone ``(N, d)``
box would (numpy's ``matmul`` loops the same gemm over the leading axes).

The public constructor validates and copies its inputs.  The transformers
below build their results with :meth:`Box._trusted` instead: their outputs
are fresh float64 arrays of one shape with a non-negative deviation by
construction, so only the ``max(deviation, 0)`` clamp is kept.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro.abstract.interval import Interval

__all__ = ["Box"]


@dataclass(frozen=True)
class Box:
    """Box abstract value: ``center ± deviation`` element-wise."""

    center: np.ndarray
    deviation: np.ndarray

    def __post_init__(self) -> None:
        center = np.asarray(self.center, dtype=np.float64)
        deviation = np.asarray(self.deviation, dtype=np.float64)
        center, deviation = np.broadcast_arrays(center, deviation)
        if np.any(deviation < -1e-12):
            raise ValueError("box deviation must be non-negative")
        object.__setattr__(self, "center", np.array(center, dtype=np.float64))
        object.__setattr__(self, "deviation", np.array(np.maximum(deviation, 0.0), dtype=np.float64))

    # ------------------------------------------------------------------ #
    # Constructors / conversions
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
    def point(cls, value) -> "Box":
        arr = np.asarray(value, dtype=np.float64)
        return cls(arr, np.zeros_like(arr))

    @classmethod
    def from_interval(cls, interval: Interval) -> "Box":
        return cls(interval.center, interval.deviation)

    @classmethod
    def from_bounds(cls, lo, hi) -> "Box":
        return cls.from_interval(Interval(lo, hi))

    @classmethod
    def stack(cls, boxes: Sequence["Box"]) -> "Box":
        """Stack same-shape boxes along a new leading batch axis."""
        boxes = list(boxes)
        if not boxes:
            raise ValueError("cannot stack an empty sequence of boxes")
        return cls(
            np.stack([box.center for box in boxes], axis=0),
            np.stack([box.deviation for box in boxes], axis=0),
        )

    @classmethod
    def abstraction(cls, concrete_states: Sequence[np.ndarray]) -> "Box":
        """The abstraction function α(S): smallest box containing all states."""
        states = [np.asarray(s, dtype=np.float64) for s in concrete_states]
        if not states:
            raise ValueError("cannot abstract an empty set of states")
        stacked = np.stack(states, axis=0)
        lo = stacked.min(axis=0)
        hi = stacked.max(axis=0)
        return cls.from_bounds(lo, hi)

    def to_interval(self) -> Interval:
        """The concretization bounds γ(s#) as an interval."""
        return Interval(self.center - self.deviation, self.center + self.deviation)

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

    def volume(self) -> float:
        return float(np.prod(2.0 * self.deviation))

    def contains(self, value, tol: float = 1e-9) -> bool:
        return self.to_interval().contains(value, tol=tol)

    def contains_box(self, other: "Box", tol: float = 1e-9) -> bool:
        return self.to_interval().contains_interval(other.to_interval(), tol=tol)

    # ------------------------------------------------------------------ #
    # Abstract transformers (box-native forms; see paper Section 3.2)
    # ------------------------------------------------------------------ #
    def affine(self, weight: np.ndarray, bias: np.ndarray | None = None) -> "Box":
        """``f(x) = W x + b`` lifted to the box domain: ``(W b_c + b, |W| b_e)``.

        Works on single boxes (``center`` of shape ``(d,)``) and batched boxes
        (``center`` of shape ``(N, d)``): the feature axis is always the last
        one, so a batched box propagates through the layer in one matmul.
        """
        weight = np.asarray(weight, dtype=np.float64)
        if self.center.ndim >= 2:
            center = self.center @ weight.T
            deviation = self.deviation @ np.abs(weight).T
        else:
            center = weight @ self.center
            deviation = np.abs(weight) @ self.deviation
        if bias is not None:
            center = center + np.asarray(bias, dtype=np.float64)
        return Box._trusted(center, deviation)

    def add_elements(self, target: int, lhs: int, rhs: int) -> "Box":
        """The paper's 'Add' transformer.

        Replaces element ``target`` with the sum of elements ``lhs`` and
        ``rhs``; implemented through the selector matrix M of Section 3.2.
        """
        m = self.center.shape[-1]
        matrix = np.eye(m)
        matrix[target, :] = 0.0
        matrix[target, lhs] = 1.0
        matrix[target, rhs] = 1.0
        return self.affine(matrix)

    def relu(self) -> "Box":
        """ReLU transformer from Section 3.2 (midpoint/half-width of end-point images)."""
        upper = np.maximum(self.center + self.deviation, 0.0)
        lower = np.maximum(self.center - self.deviation, 0.0)
        return Box._trusted((upper + lower) / 2.0, (upper - lower) / 2.0)

    def tanh(self) -> "Box":
        upper = np.tanh(self.center + self.deviation)
        lower = np.tanh(self.center - self.deviation)
        return Box._trusted((upper + lower) / 2.0, (upper - lower) / 2.0)

    def scale(self, factor) -> "Box":
        factor = np.asarray(factor, dtype=np.float64)
        return Box._trusted(self.center * factor, self.deviation * np.abs(factor))

    def shift(self, offset) -> "Box":
        center = self.center + np.asarray(offset, dtype=np.float64)
        return Box._trusted(center, np.broadcast_to(self.deviation, center.shape))

    def join(self, other: "Box") -> "Box":
        """Least upper bound (box hull) of two boxes."""
        lo = np.minimum(self.lo, other.lo)
        hi = np.maximum(self.hi, other.hi)
        return Box.from_bounds(lo, hi)

    def split(self, n: int, dims: Sequence[int] | None = None) -> list:
        """Partition into ``n`` components along ``dims`` (default: all dims jointly)."""
        interval = self.to_interval()
        if interval.lo.ndim == 0:
            return [Box.from_interval(piece) for piece in interval.split(n)]
        if dims is None:
            dims = list(range(interval.lo.shape[0]))
        return [Box.from_interval(piece) for piece in interval.split_dims(n, dims)]

    def split_batched(self, n: int, dims: Sequence[int] | None = None) -> "Box":
        """Partition a box into ``n`` components as one batched Box.

        A 1-d box of shape ``(d,)`` gives a ``(n, d)`` box whose row ``i`` is
        numerically identical to ``self.split(n, dims)[i]`` — the slicing
        arithmetic mirrors :meth:`repro.abstract.interval.Interval.split_dims`
        exactly.  A stack of boxes, shape ``(..., d)``, splits every box the
        same way into a ``(..., n, d)`` stack, ready for one-shot propagation.
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

    def unstack(self) -> list:
        """The per-component boxes of a batched box (inverse of :meth:`stack`)."""
        if self.ndim < 2:
            raise ValueError("unstack requires a batched box")
        return [Box(self.center[i], self.deviation[i]) for i in range(self.center.shape[0])]

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Box(center={self.center!r}, deviation={self.deviation!r})"
