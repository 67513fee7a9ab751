"""Sound abstract transformers for the post-network cwnd computation.

Beyond the neural-network layers (see :mod:`repro.abstract.propagate`),
Canopy needs a transformer for the cwnd map of Eq. 1,
``cwnd = 2^(2a) · cwnd_TCP``, and for the derived actions used in the
property postconditions (Δcwnd and the fractional cwnd change of P5).  Each
returns a Box whose concretization contains the image of the concrete inputs,
i.e. ``γ(f#(s#)) ⊇ {f(s) : s ∈ γ(s#)}``.

All transformers are batch-transparent: handed a batched box (``lo``/``hi`` of
shape ``(N, d)`` or ``(D, N, d)``, see :mod:`repro.abstract.box`) they
transform every component box in the same numpy calls.  The concrete windows
may be arrays broadcasting against the box (one window per decision of a
``(D, N, d)`` stack, shaped ``(D, 1, 1)``).
"""

from __future__ import annotations

import numpy as np

from repro.abstract.box import Box

__all__ = ["exp2", "cwnd_from_action", "delta_cwnd", "cwnd_change_fraction"]


def exp2(box: Box) -> Box:
    """``2^x`` transformer: exact for the box domain, as ``2^x`` is monotone."""
    upper = np.exp2(box.hi)
    lower = np.exp2(box.lo)
    return Box._trusted((upper + lower) / 2.0, (upper - lower) / 2.0)


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
    return exp2(clipped.scale(2.0)).scale(cwnd_tcp)


def delta_cwnd(cwnd: Box, cwnd_prev) -> Box:
    """Δcwnd# = cwnd# − cwnd_{i−1}, the checked action for P1–P4."""
    return cwnd.shift(-np.asarray(cwnd_prev, dtype=np.float64))


def cwnd_change_fraction(cwnd: Box, cwnd_ref) -> Box:
    """(cwnd# − cwnd_i) / cwnd_i, the checked action for P5 (robustness)."""
    cwnd_ref = np.asarray(cwnd_ref, dtype=np.float64)
    if np.any(cwnd_ref <= 0):
        raise ValueError("cwnd_ref must be positive")
    return cwnd.shift(-cwnd_ref).scale(1.0 / cwnd_ref)
