"""Sound abstract transformers for the operations used in Canopy.

Every function here takes one or more :class:`~repro.abstract.box.Box` values
(or intervals / concrete values, as noted) and returns a Box whose
concretization contains the image of the concrete inputs, i.e. the defining
soundness condition ``γ(f#(s#)) ⊇ {f(s) : s ∈ γ(s#)}`` holds.

Beyond the neural-network layers (affine, ReLU, tanh) described in Section 3.2
of the paper, Canopy needs a transformer for the post-network cwnd computation
(Eq. 1): ``cwnd = 2^(2a) · cwnd_TCP``, and for the derived actions used in the
property postconditions (Δcwnd and the fractional cwnd change of P5).

All transformers are batch-transparent: handed a batched box (``lo``/``hi`` of
shape ``(N, d)`` or ``(D, N, d)``, see :mod:`repro.abstract.box`) they
transform every component box in the same numpy calls, which is what makes
the batched verifier a single-propagation-per-property engine.  The concrete
windows of the cwnd transformers may be arrays broadcasting against the box
(one window per decision of a ``(D, N, d)`` stack, shaped ``(D, 1, 1)``).
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from repro.abstract.box import Box
from repro.abstract.interval import Interval

__all__ = [
    "affine",
    "relu",
    "tanh",
    "add",
    "subtract",
    "scale",
    "monotone",
    "exp2",
    "cwnd_from_action",
    "delta_cwnd",
    "cwnd_change_fraction",
]


def affine(box: Box, weight: np.ndarray, bias: np.ndarray | None = None) -> Box:
    """Affine layer transformer ``f#(s#) = (W b_c + b, |W| b_e)``."""
    return box.affine(weight, bias)


def relu(box: Box) -> Box:
    """Element-wise ReLU transformer (exact for the box domain)."""
    return box.relu()


def tanh(box: Box) -> Box:
    """Element-wise tanh transformer (exact; tanh is monotone)."""
    return box.tanh()


def add(lhs: Box, rhs: Box) -> Box:
    """Element-wise addition of two independent abstract values."""
    return Box(lhs.center + rhs.center, lhs.deviation + rhs.deviation)


def subtract(lhs: Box, rhs: Box) -> Box:
    """Element-wise subtraction of two independent abstract values."""
    return Box(lhs.center - rhs.center, lhs.deviation + rhs.deviation)


def scale(box: Box, factor) -> Box:
    """Multiplication by a concrete (possibly negative) factor."""
    return box.scale(factor)


def monotone(box: Box, fn: Callable[[np.ndarray], np.ndarray]) -> Box:
    """Lift an element-wise non-decreasing concrete function ``fn``.

    Exact for the box domain because the extrema of a monotone function over a
    box are attained at the box corners, dimension-wise.
    """
    upper = fn(box.hi)
    lower = fn(box.lo)
    return Box._trusted((upper + lower) / 2.0, (upper - lower) / 2.0)


def exp2(box: Box) -> Box:
    """``2^x`` transformer (monotone)."""
    return monotone(box, np.exp2)


def cwnd_from_action(action: Box, cwnd_tcp, action_clip: tuple[float, float] = (-1.0, 1.0)) -> Box:
    """Abstract counterpart of Orca's cwnd map (Eq. 1).

    ``cwnd = 2^(2a) * cwnd_TCP`` with ``a`` clipped to ``action_clip`` — the
    Orca agent's output layer is a tanh scaled into [-1, 1], but we clip
    defensively so the transformer stays sound for any upstream network.
    ``cwnd_TCP`` is the concrete TCP-suggested window at this step (kept
    concrete in Canopy; only the network-state variables of interest are
    abstracted).
    """
    cwnd_tcp = np.asarray(cwnd_tcp, dtype=np.float64)
    if np.any(cwnd_tcp < 0):
        raise ValueError("cwnd_tcp must be non-negative")
    lo_a, hi_a = action_clip
    clipped = Box._trusted_bounds(np.clip(action.lo, lo_a, hi_a), np.clip(action.hi, lo_a, hi_a))
    doubled = scale(clipped, 2.0)
    gain = exp2(doubled)
    return scale(gain, cwnd_tcp)


def delta_cwnd(cwnd: Box, cwnd_prev) -> Box:
    """Δcwnd# = cwnd# − cwnd_{i−1}, the checked action for P1–P4."""
    return cwnd.shift(-np.asarray(cwnd_prev, dtype=np.float64))


def cwnd_change_fraction(cwnd: Box, cwnd_ref) -> Box:
    """(cwnd# − cwnd_i) / cwnd_i, the checked action for P5 (robustness)."""
    cwnd_ref = np.asarray(cwnd_ref, dtype=np.float64)
    if np.any(cwnd_ref <= 0):
        raise ValueError("cwnd_ref must be positive")
    return cwnd.shift(-cwnd_ref).scale(1.0 / cwnd_ref)


def interval_of(box_or_interval) -> Interval:
    """Normalize a Box or Interval argument to an Interval."""
    if isinstance(box_or_interval, Box):
        return box_or_interval.to_interval()
    if isinstance(box_or_interval, Interval):
        return box_or_interval
    raise TypeError(f"expected Box or Interval, got {type(box_or_interval)!r}")
