"""Sound abstract transformers for the post-network cwnd computation.

Beyond the neural-network layers (see :mod:`repro.abstract.propagate`),
Canopy needs a transformer for the cwnd map of Eq. 1,
``cwnd = 2^(2a) · cwnd_TCP``, and for the derived actions used in the
property postconditions (Δcwnd and the fractional cwnd change of P5).
:func:`checked_action_arrays` composes them on the ``center``/``deviation``
arrays of an action box and returns bounds whose interval contains the image
of the concrete inputs, i.e. ``γ(f#(s#)) ⊇ {f(s) : s ∈ γ(s#)}``.

The transformers are batch-transparent: handed a batched box (arrays of
shape ``(N, d)`` or ``(D, N, d)``, see :mod:`repro.abstract.box`) they
transform every component box in the same numpy calls.  The concrete windows
may be arrays broadcasting against the box (one window per decision of a
``(D, N, d)`` stack, shaped ``(D, 1, 1)``).
"""

from __future__ import annotations

import numpy as np

__all__ = ["checked_action_arrays"]


def _exp2(center: np.ndarray, deviation: np.ndarray) -> tuple:
    """``2^x``: exact for the box domain, as ``2^x`` is monotone."""
    upper = np.exp2(center + deviation)
    lower = np.exp2(center - deviation)
    return (upper + lower) / 2.0, np.maximum((upper - lower) / 2.0, 0.0)


def _cwnd_from_action(center: np.ndarray, deviation: np.ndarray, cwnd_tcp, action_clip: tuple) -> tuple:
    """Orca's cwnd map (Eq. 1), ``cwnd = 2^(2a) · cwnd_TCP``, with ``a``
    clipped to ``action_clip`` so the map stays sound for any upstream
    network.  ``cwnd_TCP`` stays concrete, as in Canopy."""
    cwnd_tcp = np.asarray(cwnd_tcp, dtype=np.float64)
    if np.any(cwnd_tcp < 0):
        raise ValueError("cwnd_tcp must be non-negative")
    lo_a, hi_a = action_clip
    # np.clip's result, without its Python-level dispatch.
    lo = np.minimum(np.maximum(center - deviation, lo_a), hi_a)
    hi = np.minimum(np.maximum(center + deviation, lo_a), hi_a)
    # The clipped box, scaled by 2, through 2^x, scaled by cwnd_TCP; every
    # step clamps its deviation at zero like a Box does.
    center = (lo + hi) / 2.0 * 2.0
    deviation = np.maximum(np.maximum((hi - lo) / 2.0, 0.0) * 2.0, 0.0)
    center, deviation = _exp2(center, deviation)
    return center * cwnd_tcp, np.maximum(deviation * np.abs(cwnd_tcp), 0.0)


def _delta_cwnd(center: np.ndarray, deviation: np.ndarray, cwnd_prev) -> tuple:
    """Δcwnd# = cwnd# − cwnd_{i−1}, the checked action for P1–P4."""
    return center + -np.asarray(cwnd_prev, dtype=np.float64), np.maximum(deviation, 0.0)


def _cwnd_change_fraction(center: np.ndarray, deviation: np.ndarray, cwnd_ref) -> tuple:
    """(cwnd# − cwnd_i) / cwnd_i, the checked action for P5 (robustness)."""
    cwnd_ref = np.asarray(cwnd_ref, dtype=np.float64)
    if np.any(cwnd_ref <= 0):
        raise ValueError("cwnd_ref must be positive")
    center, deviation = _delta_cwnd(center, deviation, cwnd_ref)
    factor = 1.0 / cwnd_ref
    return center * factor, np.maximum(deviation * np.abs(factor), 0.0)


def checked_action_arrays(center: np.ndarray, deviation: np.ndarray, cwnd_tcp, cwnd_prev=None,
                          cwnd_ref=None) -> tuple:
    """Bounds ``(lo, hi)`` of the checked action of an action box given as
    ``center``/``deviation`` arrays: the cwnd map of Eq. 1 (the action
    clipped to ``[-1, 1]``) followed by Δcwnd (given ``cwnd_prev``) or the
    fractional cwnd change (given ``cwnd_ref``)."""
    center, deviation = _cwnd_from_action(center, deviation, cwnd_tcp, (-1.0, 1.0))
    if cwnd_ref is None:
        center, deviation = _delta_cwnd(center, deviation, cwnd_prev)
    else:
        center, deviation = _cwnd_change_fraction(center, deviation, cwnd_ref)
    return center - deviation, center + deviation
