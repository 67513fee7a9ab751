"""The one-component-at-a-time certifier, for a given verifier.

:func:`certify_reference` produces the same one-decision
:class:`~repro.core.qc.CertificateBatch` as
:meth:`repro.core.verifier.Verifier.certify` on a lone state, but builds the
region as a validated box, splits it into a list of components and propagates
each through :func:`oracle.ibp.propagate_mlp` and the cwnd transformers on its
own, scoring it with the scalar Eq. 6 feedback.  Only the finished arrays go
through :meth:`CertificateBatch.from_applicable`.
"""

from __future__ import annotations

import numpy as np

from oracle.ibp import propagate_mlp, split
from oracle.interval import Interval, interval_feedback
from repro.abstract import transformers
from repro.abstract.box import Box
from repro.core.properties import ActionKind, PropertySpec
from repro.core.qc import CertificateBatch
from repro.core.verifier import Verifier

__all__ = ["certify_reference"]


def certify_reference(
    verifier: Verifier,
    prop: PropertySpec,
    state: np.ndarray,
    cwnd_tcp: float,
    cwnd_prev: float,
) -> CertificateBatch:
    """One-component-at-a-time counterpart of :meth:`Verifier.certify`."""
    observer = verifier.observer
    state = np.asarray(state, dtype=np.float64)
    cwnd_tcp, cwnd_prev = float(cwnd_tcp), float(cwnd_prev)
    for name, value in (("state", state), ("cwnd_tcp", cwnd_tcp), ("cwnd_prev", cwnd_prev)):
        if not np.isfinite(value).all():
            raise ValueError(f"{name} must be finite")
    if cwnd_tcp <= 0:
        raise ValueError("cwnd_tcp must be positive")
    n = verifier.config.n_components
    allowed = Interval(*prop.allowed_bounds())

    components = []
    applicable = not verifier.config.check_applicability or _sign_condition_holds(prop, state, observer)
    if applicable:
        region = Box.from_bounds(*prop.input_bounds(state, observer))
        dims = prop.partition_dims(observer)
        components = split(region, n, dims=dims if dims else None)
    cwnd_reference = None
    if applicable and prop.kind is ActionKind.CWND_CHANGE_FRACTION:
        cwnd_reference = verifier.concrete_cwnd(state, cwnd_tcp)

    outputs = [_checked_action_bounds(verifier, prop, component, cwnd_tcp, cwnd_prev, cwnd_reference)
               for component in components]
    # The decision's row of each batch array: one row when applicable, none otherwise.
    d = state.shape[0]
    input_lo = np.array([component.lo for component in components]).reshape(-1, n, d)
    input_hi = np.array([component.hi for component in components]).reshape(-1, n, d)
    output_lo = np.array([output.lo for output in outputs]).reshape(-1, n)
    output_hi = np.array([output.hi for output in outputs]).reshape(-1, n)
    satisfied = np.array([allowed.contains_interval(output) for output in outputs], dtype=bool).reshape(-1, n)
    feedback = np.array([interval_feedback(output, allowed) for output in outputs]).reshape(-1, n)
    return CertificateBatch.from_applicable(prop.name, allowed.lo, allowed.hi, np.array([applicable]),
                                            input_lo, input_hi, output_lo, output_hi, satisfied, feedback)


def _sign_condition_holds(prop: PropertySpec, state: np.ndarray, observer) -> bool:
    """Whether the past Δcwnd entries of ``state`` meet ``prop``'s sign condition (within 1e-6)."""
    if prop.dcwnd_sign is None:
        return True
    history = state[observer.feature_indices("dcwnd")]
    return bool(np.all(history <= 1e-6)) if prop.dcwnd_sign < 0 else bool(np.all(history >= -1e-6))


def _checked_action_bounds(verifier: Verifier, prop: PropertySpec, component: Box, cwnd_tcp: float,
                           cwnd_prev: float, cwnd_reference) -> Interval:
    action_box = propagate_mlp(verifier.actor, component)
    cwnd_box = transformers.cwnd_from_action(action_box, cwnd_tcp)
    if prop.kind is ActionKind.DELTA_CWND:
        checked = transformers.delta_cwnd(cwnd_box, cwnd_prev)
    else:
        checked = transformers.cwnd_change_fraction(cwnd_box, cwnd_reference)
    # The action (and hence the checked quantity) is scalar; collapse the
    # 1-element vector interval into a scalar interval.
    return Interval(float(checked.lo.reshape(-1)[0]), float(checked.hi.reshape(-1)[0]))
