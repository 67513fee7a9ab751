"""Concrete (non-certified) checks of a property's postcondition.

The verifier bounds the checked action over a whole input region; these
helpers evaluate it on one concrete ``(cwnd, cwnd_prev, cwnd_reference)``
triple, so a test can hold a certified bound against what the controller
actually did.
"""

from __future__ import annotations

from repro.core.properties import ActionKind, PropertySpec

__all__ = ["checked_action_concrete", "satisfied_concretely"]


def checked_action_concrete(prop: PropertySpec, cwnd: float, cwnd_prev: float,
                            cwnd_reference: float) -> float:
    """The concrete checked action (Δcwnd or fractional change)."""
    if prop.kind is ActionKind.DELTA_CWND:
        return cwnd - cwnd_prev
    if cwnd_reference <= 0:
        raise ValueError("cwnd_reference must be positive for robustness properties")
    return (cwnd - cwnd_reference) / cwnd_reference


def satisfied_concretely(prop: PropertySpec, cwnd: float, cwnd_prev: float,
                         cwnd_reference: float, tol: float = 1e-9) -> bool:
    """Whether the concrete checked action lies in the allowed bounds."""
    action = checked_action_concrete(prop, cwnd, cwnd_prev, cwnd_reference)
    lo, hi = prop.allowed_bounds()
    return bool(lo - tol <= action <= hi + tol)
