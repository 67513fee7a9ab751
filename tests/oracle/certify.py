"""The one-component-at-a-time certifier, for a given verifier.

:func:`certify_reference` produces the same :class:`QuantitativeCertificate`
as :meth:`repro.core.verifier.Verifier.certify` for one decision, but builds
the region as a validated box, splits it into a list of components and
propagates each through :func:`oracle.ibp.propagate_mlp` and the cwnd
transformers on its own, scoring it with the scalar Eq. 6 feedback.
"""

from __future__ import annotations

from typing import Optional, Sequence

import numpy as np

from oracle.ibp import propagate_mlp, split
from oracle.interval import Interval, interval_feedback
from repro.abstract import transformers
from repro.abstract.box import Box
from repro.core.properties import ActionKind, PropertySpec
from repro.core.qc import ComponentCertificate, QuantitativeCertificate
from repro.core.verifier import DecisionContext, Verifier, weighted_feedback

__all__ = ["certify_reference", "certify_all_reference", "verifier_feedback_reference"]


def certify_reference(
    verifier: Verifier,
    prop: PropertySpec,
    state: np.ndarray,
    cwnd_tcp: float,
    cwnd_prev: float,
    n_components: Optional[int] = None,
) -> QuantitativeCertificate:
    """One-component-at-a-time counterpart of :meth:`Verifier.certify`."""
    observer = verifier.observer
    n = verifier._n_components(n_components)
    context = DecisionContext(np.asarray(state, dtype=np.float64), float(cwnd_tcp), float(cwnd_prev))
    allowed = Interval(*prop.allowed_bounds())
    certificate = QuantitativeCertificate(
        property_name=prop.name,
        allowed_lo=float(allowed.lo),
        allowed_hi=float(allowed.hi),
    )

    if verifier.config.check_applicability:
        if not verifier._applicability_from_state(prop, context.state):
            certificate.applicable = False
            return certificate

    region = Box.from_bounds(*prop.input_bounds(context.state, observer))
    dims = prop.partition_dims(observer)
    components = split(region, n, dims=dims if dims else None)
    cwnd_reference = None
    if prop.kind is ActionKind.CWND_CHANGE_FRACTION:
        cwnd_reference = verifier.concrete_cwnd(context.state, context.cwnd_tcp)

    for index, component in enumerate(components):
        output_interval = _checked_action_bounds(verifier, prop, component, context, cwnd_reference)
        satisfied = allowed.contains_interval(output_interval)
        feedback = interval_feedback(output_interval, allowed)
        certificate.components.append(ComponentCertificate(
            index=index,
            input_lo=component.lo.copy(),
            input_hi=component.hi.copy(),
            output_lo=float(output_interval.lo),
            output_hi=float(output_interval.hi),
            satisfied=bool(satisfied),
            feedback=float(feedback),
        ))
    return certificate


def _checked_action_bounds(verifier: Verifier, prop: PropertySpec, component: Box,
                           context: DecisionContext, cwnd_reference) -> Interval:
    action_box = propagate_mlp(verifier.actor, component)
    cwnd_box = transformers.cwnd_from_action(action_box, context.cwnd_tcp)
    if prop.kind is ActionKind.DELTA_CWND:
        checked = transformers.delta_cwnd(cwnd_box, context.cwnd_prev)
    else:
        checked = transformers.cwnd_change_fraction(cwnd_box, cwnd_reference)
    # The action (and hence the checked quantity) is scalar; collapse the
    # 1-element vector interval into a scalar interval.
    return Interval(float(checked.lo.reshape(-1)[0]), float(checked.hi.reshape(-1)[0]))


def certify_all_reference(verifier: Verifier, properties: Sequence[PropertySpec], state: np.ndarray,
                          cwnd_tcp: float, cwnd_prev: float, n_components: Optional[int] = None) -> dict:
    """Counterpart of :meth:`Verifier.certify_all`."""
    return {
        prop.name: certify_reference(verifier, prop, state, cwnd_tcp, cwnd_prev, n_components=n_components)
        for prop in properties
    }


def verifier_feedback_reference(verifier: Verifier, properties: Sequence[PropertySpec], state: np.ndarray,
                                cwnd_tcp: float, cwnd_prev: float, n_components: Optional[int] = None) -> float:
    """Counterpart of :meth:`Verifier.verifier_feedback`."""
    value, _ = weighted_feedback(properties, lambda prop: certify_reference(
        verifier, prop, state, cwnd_tcp, cwnd_prev, n_components=n_components).feedback)
    return value
