"""The Canopy verifier: IBP certification of controller behaviour.

Given a property, a concrete decision context (the current state, the
TCP-suggested window, the previously enforced window) and the controller's
actor network, the verifier:

1. builds the abstract input region ``X`` prescribed by the property
   (Section 4.3.1), keeping non-abstracted features at their observed values,
2. partitions it into ``N`` components along the abstracted dimensions,
3. propagates the components through the actor with interval bound propagation
   and through the cwnd map ``2^(2a) · cwnd_TCP`` (Eq. 5),
4. compares the derived action (Δcwnd or the fractional cwnd change) with the
   allowed region and computes the per-component proof and smoothed feedback
   (Eq. 6).

The result is a :class:`repro.core.qc.CertificateBatch`.

Batched engine
--------------

One engine certifies a stack of properties over a stack of decisions.
Handed ``P`` properties and all ``D`` decisions of a run,
:meth:`Verifier.certify` builds each property's input regions at once
(:meth:`PropertySpec.input_bounds` on a ``(D, d)`` state stack, checked once
for finite, ordered bounds), stacks them in property order, partitions them
into one ``(P·D, N, d)`` box (:meth:`repro.abstract.box.Box.split_batched`,
one call per run of properties sharing their partition dimensions) and runs a
*single* IBP call for all of them
(:func:`repro.abstract.propagate.propagate_mlp_batched`, which works through
the stack in cache-sized blocks of decisions).  The cwnd map and the Δcwnd /
fractional-change transformers run once per :class:`ActionKind` present (P5's
reference window included), and the containment check and the Eq. 6 feedback
run once over the whole stack with each property's allowed bounds broadcast
over its rows.  Each property gets an array-backed
:class:`repro.core.qc.CertificateBatch`, and a sequence of properties gives a
:class:`repro.core.qc.CertificateSet` keyed by name.  One property is the
``P = 1`` case and one decision the ``D = 1`` case of the same engine, so a
lone decision gives ``D = 1`` batches.  The number of components ``N`` is
:attr:`VerifierConfig.n_components`, the same for every call.  With
``check_applicability`` a property contributes only the decisions it applies
at.

Stacking does not move a single bit.  Each ``(N, d)`` slice of the stack goes
through every affine layer as the same ``(N, d) @ W.T`` gemm a lone decision
issues (numpy's ``matmul`` loops that gemm over the leading axis), every other
step is element-wise, so neither the stacking nor the block size matters, and
the P5 reference window stays one ``(1, d)`` actor forward per decision.  The
stack is deliberately never flattened to ``(P·D·N, d)``: BLAS picks another
path for another row count, which moved action bounds by up to 2.8e-17.  The
differential tests pin a stacked ``certify`` to per-decision and
per-property ``certify`` with ``np.array_equal``.

The engine is pinned against ``tests/oracle``: a one-component-at-a-time
certifier over per-layer box transformers, kept in the test suite as the
independently simple ground truth.  The differential tests hold the engine
to it within 1e-12, and the kernel tests hold the IBP pass to the oracle's
per-layer propagation bit for bit.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Dict, Iterable, List, Mapping, Sequence, Tuple

import numpy as np

from repro.abstract import transformers
from repro.abstract.box import Box
from repro.abstract.propagate import propagate_mlp_batched
from repro.core.properties import ActionKind, PropertySet, PropertySpec
from repro.core.qc import CertificateBatch, CertificateSet, interval_feedback_batch
from repro.orca.agent import cwnd_from_action
from repro.orca.observations import ObservationBuilder, ObservationConfig

__all__ = ["VerifierConfig", "Verifier", "weighted_feedback"]


def _check_decisions(state: np.ndarray, cwnd_tcp: np.ndarray, cwnd_prev: np.ndarray) -> None:
    """Reject non-finite decision inputs and non-positive TCP windows.

    A NaN fails no ``<=`` comparison downstream, so it would otherwise come
    out as an unsatisfied certificate with feedback 0.0.
    """
    for name, value in (("state", state), ("cwnd_tcp", cwnd_tcp), ("cwnd_prev", cwnd_prev)):
        finite = np.isfinite(value)
        if not finite.all():
            index = tuple(int(i) for i in np.argwhere(~finite)[0])
            raise ValueError(f"{name} must be finite, got {value[index]} at index {index}")
    if (cwnd_tcp <= 0).any():
        raise ValueError("cwnd_tcp must be positive")


def weighted_feedback(
    properties: Iterable[PropertySpec], certificates: Mapping[str, CertificateBatch]
) -> Tuple[float, Dict[str, float]]:
    """Eq. 7: the weight-averaged QC feedback over ``properties``.

    ``certificates`` maps each property name to its batch of one decision
    (what :meth:`Verifier.certify` returns for one state and a sequence of
    properties).  Returns the weighted average and the feedback of each
    property by name.  The sum runs in property order, so the value is
    reproducible bit for bit.
    """
    per_property: Dict[str, float] = {}
    total = 0.0
    weight_sum = 0.0
    for prop in properties:
        feedback = float(certificates[prop.name].feedback[0])
        per_property[prop.name] = feedback
        total += prop.weight * feedback
        weight_sum += prop.weight
    if not per_property:
        raise ValueError("need at least one property")
    return total / weight_sum, per_property


def _stack(arrays: List[np.ndarray]) -> np.ndarray:
    """``arrays`` concatenated along the decision axis (a lone array as is)."""
    return arrays[0] if len(arrays) == 1 else np.concatenate(arrays)


@dataclass(frozen=True)
class VerifierConfig:
    """Verifier settings.

    Attributes:
        n_components: Number of QC input partitions N (the paper uses 5 during
            training and 50 during evaluation).
        check_applicability: When True, a property whose precondition side
            conditions on past Δcwnd do not hold at the current state is
            reported as non-applicable with neutral feedback 1.0.  The default
            (False) matches the paper's worst-case reading: the Δcwnd
            precondition is abstracted over its full range, so the QC covers
            every history consistent with the precondition.
    """

    n_components: int = 5
    check_applicability: bool = False

    def __post_init__(self) -> None:
        if self.n_components <= 0:
            raise ValueError("n_components must be positive")


class Verifier:
    """Computes quantitative certificates for a (learned) controller."""

    def __init__(
        self,
        actor,
        observation_config: ObservationConfig | None = None,
        config: VerifierConfig | None = None,
    ) -> None:
        self.actor = actor
        self.observer = ObservationBuilder(observation_config)
        self.config = config or VerifierConfig()

    # ------------------------------------------------------------------ #
    # Concrete helpers
    # ------------------------------------------------------------------ #
    def concrete_action(self, state: np.ndarray) -> float:
        """The controller's concrete action for ``state`` (clipped to [-1, 1])."""
        output = self.actor.forward(np.asarray(state, dtype=np.float64).reshape(1, -1))
        return float(np.clip(output.reshape(-1)[0], -1.0, 1.0))

    def concrete_cwnd(self, state: np.ndarray, cwnd_tcp: float) -> float:
        """The concrete enforced window for ``state`` (Eq. 1)."""
        return cwnd_from_action(self.concrete_action(state), cwnd_tcp)

    # ------------------------------------------------------------------ #
    # Certification (batched engine)
    # ------------------------------------------------------------------ #
    def certify(
        self,
        prop: PropertySpec | PropertySet | Sequence[PropertySpec],
        state: np.ndarray,
        cwnd_tcp,
        cwnd_prev,
    ) -> CertificateBatch | CertificateSet:
        """Produce the QC of one property, or of each property of a sequence,
        at each decision of a stack.

        A stack of ``D`` states ``(D, d)`` takes one ``cwnd_tcp`` and one
        ``cwnd_prev`` per decision; a lone state ``(d,)`` with scalar windows
        is the ``D = 1`` stack.  Each property gets a :class:`CertificateBatch`
        of ``D`` decisions with :attr:`VerifierConfig.n_components` components
        each, whose decision ``i`` is bit-identical to
        ``certify(prop, state[i], cwnd_tcp[i], cwnd_prev[i])``.  ``prop`` is
        one :class:`PropertySpec` (the result is its batch) or a sequence of
        them (the result is a :class:`CertificateSet` keyed by property name,
        in sequence order).  Either way all components of all decisions of all
        properties go through the actor in a single IBP pass.
        """
        properties = [prop] if isinstance(prop, PropertySpec) else list(prop)
        if not properties:
            raise ValueError("need at least one property")
        state = np.asarray(state, dtype=np.float64)
        cwnd_tcp = np.asarray(cwnd_tcp, dtype=np.float64)
        cwnd_prev = np.asarray(cwnd_prev, dtype=np.float64)
        if state.ndim == 1:
            state, cwnd_tcp, cwnd_prev = state[None], cwnd_tcp[None], cwnd_prev[None]
        if state.ndim != 2:
            raise ValueError(f"state must have shape (d,) or (D, d), got {state.shape}")
        if cwnd_tcp.shape != state.shape[:1] or cwnd_prev.shape != state.shape[:1]:
            raise ValueError("certify needs one cwnd_tcp and one cwnd_prev per decision")
        _check_decisions(state, cwnd_tcp, cwnd_prev)
        batches = self._certify_stack(properties, state, cwnd_tcp, cwnd_prev)
        if isinstance(prop, PropertySpec):
            return batches[0]
        return CertificateSet((batch.property_name, batch) for batch in batches)

    def _certify_stack(self, properties: List[PropertySpec], states: np.ndarray, cwnd_tcp: np.ndarray,
                       cwnd_prev: np.ndarray) -> List[CertificateBatch]:
        """The engine behind :meth:`certify`: one batch per property.

        ``states`` is a stack ``(D, d)`` with one window per decision.  Each
        property keeps the decisions it applies at (all of them unless
        ``check_applicability`` gates some out) and builds their regions.
        The regions are stacked in property order, and each run of
        consecutive properties with the same partition dimensions (every
        built-in set is one run) is split into its ``N`` components in one
        call.  The resulting ``(R, N, d)`` stack goes through one IBP call,
        and the checked-action bounds and the Eq. 6 feedback are computed over
        all ``R`` rows at once.
        """
        observer = self.observer
        n = self.config.n_components
        masks, counts, rows, regions = [], [], [], []
        for prop in properties:
            mask = np.ones(states.shape[0], dtype=bool)
            if self.config.check_applicability:
                mask = self._applicability_from_state(prop, states)
            count = int(mask.sum())
            decisions = (states, cwnd_tcp, cwnd_prev)
            if count < mask.shape[0]:
                decisions = tuple(values[mask] for values in decisions)
            masks.append(mask)
            counts.append(count)
            rows.append(decisions)
            regions.append(self._region(prop, decisions[0]) if count else None)
        applicable = [index for index, count in enumerate(counts) if count]
        if applicable:
            boxes = []
            for dims, run in itertools.groupby(applicable, key=lambda i: tuple(properties[i].partition_dims(observer))):
                lo, hi = (_stack(list(bounds)) for bounds in zip(*(regions[index] for index in run)))
                boxes.append(Box._trusted_bounds(lo, hi).split_batched(n, dims=list(dims) if dims else None))
            components = boxes[0] if len(boxes) == 1 else Box._trusted(
                np.concatenate([box.center for box in boxes]), np.concatenate([box.deviation for box in boxes]))
            del boxes
            output_lo, output_hi = self._checked_bounds(
                components, [prop.kind for prop in properties], counts,
                *(_stack(list(values)) for values in zip(*rows)))
            # The components' bounds c - d and c + d, the latter written over
            # the centre the IBP pass no longer needs.
            input_lo = components.center - components.deviation
            input_hi = np.add(components.center, components.deviation, out=components.center)
            del components
        else:
            input_lo = input_hi = np.empty((0, n, states.shape[-1]))
            output_lo = output_hi = np.empty((0, n))
        allowed = [prop.allowed_bounds() for prop in properties]
        allowed_lo, allowed_hi = (np.repeat(bounds, counts)[:, None] for bounds in zip(*allowed))
        satisfied, feedback = interval_feedback_batch(output_lo, output_hi, allowed_lo, allowed_hi)
        batches = []
        for prop, mask, (lo, hi), end, count in zip(properties, masks, allowed, np.cumsum(counts), counts):
            own = slice(end - count, end)
            batches.append(CertificateBatch.from_applicable(
                prop.name, lo, hi, mask, input_lo[own], input_hi[own], output_lo[own], output_hi[own],
                satisfied[own], feedback[own]))
        return batches

    def _region(self, prop: PropertySpec, states: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """``prop``'s input regions ``(lo, hi)`` around a stack of states.

        The regions are checked once here (finite bounds, ``lo <= hi``) and
        then built with the trusted constructors: centre ``(lo + hi) / 2``,
        deviation ``max((hi - lo) / 2, 0)``, then split on ``c ∓ d``.
        """
        lo, hi = prop.input_bounds(states, self.observer)
        if not (np.isfinite(lo).all() and np.isfinite(hi).all()) or (lo > hi + 1e-12).any():
            raise ValueError(f"{prop.name}: input region needs finite bounds with lo <= hi")
        return lo, hi

    def _checked_bounds(self, components: Box, kinds: List[ActionKind], counts: List[int], states: np.ndarray,
                        cwnd_tcp: np.ndarray, cwnd_prev: np.ndarray) -> tuple:
        """Checked-action bounds ``(R, N)`` of a stack of ``R`` component rows.

        The stack holds runs of ``counts[i]`` rows of kind ``kinds[i]``, one
        decision (state and windows) per row.  One IBP call covers the whole
        stack; the cwnd map and the Δcwnd / fractional-change transformers
        run once per :class:`ActionKind` present, on that kind's rows.
        """
        action_box = propagate_mlp_batched(self.actor, components)
        output_lo = np.empty(action_box.shape[:-1])
        output_hi = np.empty(action_box.shape[:-1])
        for kind in dict.fromkeys(kind for kind, count in zip(kinds, counts) if count):
            rows = np.repeat([other is kind for other in kinds], counts)
            if rows.all():
                action, states_k, tcp, prev = action_box, states, cwnd_tcp, cwnd_prev
            else:
                action = Box._trusted(action_box.center[rows], action_box.deviation[rows])
                states_k, tcp, prev = states[rows], cwnd_tcp[rows], cwnd_prev[rows]
            # One window per decision, broadcast over its components.
            cwnd_box = transformers.cwnd_from_action(action, tcp[:, None, None])
            if kind is ActionKind.DELTA_CWND:
                checked = transformers.delta_cwnd(cwnd_box, prev[:, None, None])
            else:
                checked = transformers.cwnd_change_fraction(
                    cwnd_box, self._cwnd_reference(states_k, tcp)[:, None, None])
            # The action (and hence the checked quantity) is scalar per
            # component; drop the trailing 1-element axis.
            output_lo[rows] = checked.lo[..., 0]
            output_hi[rows] = checked.hi[..., 0]
        return output_lo, output_hi

    def _cwnd_reference(self, states: np.ndarray, cwnd_tcp: np.ndarray) -> np.ndarray:
        """P5's concrete reference windows: one ``(1, d)`` actor forward per decision."""
        return np.array([self.concrete_cwnd(state, tcp) for state, tcp in zip(states, cwnd_tcp)])

    def _applicability_from_state(self, prop: PropertySpec, states: np.ndarray) -> np.ndarray:
        """Check the concrete Δcwnd side-condition directly on the state vector(s)."""
        if prop.dcwnd_sign is None:
            return np.ones(states.shape[:-1], dtype=bool)
        dcwnd_history = states[..., self.observer.feature_indices("dcwnd")]
        if prop.dcwnd_sign < 0:
            return np.all(dcwnd_history <= 1e-6, axis=-1)
        return np.all(dcwnd_history >= -1e-6, axis=-1)
