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

The result is a :class:`repro.core.qc.QuantitativeCertificate`.

Batched engine
--------------

One engine certifies one property over a stack of decisions.  Handed all
``D`` decisions of a run, :meth:`Verifier.certify` builds their input regions
at once (:meth:`PropertySpec.input_bounds` on a ``(D, d)`` state stack,
checked once for finite, ordered bounds), partitions them into one
``(D, N, d)`` box (:meth:`repro.abstract.box.Box.split_batched`) and runs a
*single* IBP call for the property
(:func:`repro.abstract.propagate.propagate_mlp_batched`, which works through
the stack in cache-sized blocks of decisions).  The cwnd map, the Δcwnd /
fractional-change transformers, the containment check and the Eq. 6 feedback
are vectorized over decisions and components, and the result is an
array-backed :class:`repro.core.qc.CertificateBatch`.  One decision is the
same engine on one state, propagated as an ``(N, d)`` box, and gives a
:class:`repro.core.qc.QuantitativeCertificate`.

Batching does not move a single bit.  Each ``(N, d)`` slice of the stack goes
through every affine layer as the same ``(N, d) @ W.T`` gemm a lone decision
issues (numpy's ``matmul`` loops that gemm over the leading axis), every other
step is element-wise, so neither the stacking nor the block size matters, and
the P5 reference window stays one ``(1, d)`` actor forward per decision.  The
stack is deliberately never flattened to ``(D·N, d)``: BLAS picks another
path for another row count, which moved action bounds by up to 2.8e-17.  The
differential tests pin a stacked ``certify`` to per-decision ``certify`` with
``np.array_equal``.

The engine is pinned against ``tests/oracle``: a one-component-at-a-time
certifier over per-layer box transformers, kept in the test suite as the
independently simple ground truth.  The differential tests hold the engine
to it within 1e-12, and the kernel tests hold the IBP pass to the oracle's
per-layer propagation bit for bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Dict, Iterable, Optional, Sequence, Tuple

import numpy as np

from repro.abstract import transformers
from repro.abstract.box import Box
from repro.abstract.propagate import propagate_mlp_batched
from repro.core.properties import ActionKind, PropertySet, PropertySpec
from repro.core.qc import CertificateBatch, QuantitativeCertificate, interval_feedback_batch
from repro.orca.agent import cwnd_from_action
from repro.orca.observations import ObservationBuilder, ObservationConfig

__all__ = ["VerifierConfig", "Verifier", "weighted_feedback"]


def _check_decisions(state, cwnd_tcp, cwnd_prev) -> None:
    """Reject non-finite decision inputs and non-positive TCP windows.

    Each input is a float (one decision) or an array (a stack).  A NaN fails
    no ``<=`` comparison downstream, so it would otherwise come out as an
    unsatisfied certificate with feedback 0.0.
    """
    for name, value in (("state", state), ("cwnd_tcp", cwnd_tcp), ("cwnd_prev", cwnd_prev)):
        if isinstance(value, float):
            if not math.isfinite(value):
                raise ValueError(f"{name} must be finite, got {value}")
            continue
        finite = np.isfinite(value)
        if not finite.all():
            index = tuple(int(i) for i in np.argwhere(~finite)[0])
            raise ValueError(f"{name} must be finite, got {value[index]} at index {index}")
    if (np.asarray(cwnd_tcp) <= 0).any():
        raise ValueError("cwnd_tcp must be positive")


def weighted_feedback(
    properties: Iterable[PropertySpec], feedback_of: Callable[[PropertySpec], float]
) -> Tuple[float, Dict[str, float]]:
    """Eq. 7: the weight-averaged QC feedback over ``properties``.

    ``feedback_of(prop)`` gives one property's feedback.  Returns the weighted
    average and the feedback of each property by name.  The sum runs in
    property order, so the value is reproducible bit for bit.
    """
    per_property: Dict[str, float] = {}
    total = 0.0
    weight_sum = 0.0
    for prop in properties:
        feedback = feedback_of(prop)
        per_property[prop.name] = feedback
        total += prop.weight * feedback
        weight_sum += prop.weight
    if not per_property:
        raise ValueError("need at least one property")
    return total / weight_sum, per_property


@dataclass
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


@dataclass(frozen=True)
class DecisionContext:
    """Concrete quantities surrounding one coarse-grained decision."""

    state: np.ndarray
    cwnd_tcp: float
    cwnd_prev: float

    def __post_init__(self) -> None:
        _check_decisions(self.state, self.cwnd_tcp, self.cwnd_prev)


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

    def _n_components(self, n_components: Optional[int]) -> int:
        n = self.config.n_components if n_components is None else int(n_components)
        if n <= 0:
            raise ValueError("n_components must be positive")
        return n

    # ------------------------------------------------------------------ #
    # Certification (batched engine)
    # ------------------------------------------------------------------ #
    def certify(
        self,
        prop: PropertySpec,
        state: np.ndarray,
        cwnd_tcp: float,
        cwnd_prev: float,
        n_components: Optional[int] = None,
    ) -> QuantitativeCertificate | CertificateBatch:
        """Produce the QC for one property at one decision step, or at each
        decision of a stack.

        A ``state`` of shape ``(d,)`` with scalar windows gives one
        :class:`QuantitativeCertificate`.  A stack of ``D`` states ``(D, d)``
        with one ``cwnd_tcp`` and one ``cwnd_prev`` per decision gives a
        :class:`CertificateBatch` whose decision ``i`` is bit-identical to
        ``certify(prop, state[i], cwnd_tcp[i], cwnd_prev[i])``.  Either way
        all components of all decisions go through the actor in a single IBP
        pass.
        """
        n = self._n_components(n_components)
        state = np.asarray(state, dtype=np.float64)
        if state.ndim == 1:
            context = DecisionContext(state, float(cwnd_tcp), float(cwnd_prev))
            return self._certify_stack(prop, context.state, context.cwnd_tcp, context.cwnd_prev, n).certificate(0)
        cwnd_tcp = np.asarray(cwnd_tcp, dtype=np.float64)
        cwnd_prev = np.asarray(cwnd_prev, dtype=np.float64)
        if state.ndim != 2:
            raise ValueError(f"state must have shape (d,) or (D, d), got {state.shape}")
        if cwnd_tcp.shape != state.shape[:1] or cwnd_prev.shape != state.shape[:1]:
            raise ValueError("a stack of decisions needs one cwnd_tcp and one cwnd_prev per decision")
        _check_decisions(state, cwnd_tcp, cwnd_prev)
        return self._certify_stack(prop, state, cwnd_tcp, cwnd_prev, n)

    def _certify_stack(self, prop: PropertySpec, states: np.ndarray, cwnd_tcp, cwnd_prev, n: int) -> CertificateBatch:
        """The engine behind :meth:`certify`.

        ``states`` is one state ``(d,)`` with scalar windows, propagated as an
        ``(N, d)`` box, or a stack ``(D, d)`` with one window per decision,
        propagated as one ``(D, N, d)`` box.  Decisions that fail the Δcwnd
        side condition under ``check_applicability`` are not propagated.
        """
        applicable = np.ones(states.shape[:-1], dtype=bool)
        if self.config.check_applicability:
            applicable = self._applicability_from_state(prop, states)
        if applicable.ndim and not applicable.all():
            states, cwnd_tcp, cwnd_prev = states[applicable], cwnd_tcp[applicable], cwnd_prev[applicable]
        state_dim = states.shape[-1]
        if applicable.any():
            input_lo, input_hi, output_lo, output_hi = self._component_bounds(prop, states, cwnd_tcp, cwnd_prev, n)
        else:
            input_lo = input_hi = np.empty((0, n, state_dim))
            output_lo = output_hi = np.empty((0, n))
        allowed_lo, allowed_hi = prop.allowed_bounds()
        satisfied, feedback = interval_feedback_batch(output_lo, output_hi, allowed_lo, allowed_hi)
        return CertificateBatch.from_applicable(
            prop.name, allowed_lo, allowed_hi, applicable.reshape(-1),
            input_lo.reshape(-1, n, state_dim), input_hi.reshape(-1, n, state_dim),
            output_lo.reshape(-1, n), output_hi.reshape(-1, n),
            satisfied.reshape(-1, n), feedback.reshape(-1, n),
        )

    def _component_bounds(self, prop: PropertySpec, states: np.ndarray, cwnd_tcp, cwnd_prev, n: int) -> tuple:
        """Component input bounds ``(..., N, d)`` and checked-action bounds
        ``(..., N)`` for a state ``(d,)`` or a stack ``(D, d)``, one IBP call.

        The region is checked once here (finite bounds, ``lo <= hi``) and
        then built with the trusted constructors: centre ``(lo + hi) / 2``,
        deviation ``max((hi - lo) / 2, 0)``, then split on ``c ∓ d``.
        """
        observer = self.observer
        lo, hi = prop.input_bounds(states, observer)
        if not (np.isfinite(lo).all() and np.isfinite(hi).all()) or (lo > hi + 1e-12).any():
            raise ValueError(f"{prop.name}: input region needs finite bounds with lo <= hi")
        dims = prop.partition_dims(observer)
        components = Box._trusted_bounds(lo, hi).split_batched(n, dims=dims if dims else None)
        action_box = propagate_mlp_batched(self.actor, components)
        # One window per decision, broadcast over its components.
        cwnd_box = transformers.cwnd_from_action(action_box, np.asarray(cwnd_tcp)[..., None, None])
        if prop.kind is ActionKind.DELTA_CWND:
            checked = transformers.delta_cwnd(cwnd_box, np.asarray(cwnd_prev)[..., None, None])
        else:
            cwnd_reference = self._cwnd_reference(prop, states, cwnd_tcp)
            checked = transformers.cwnd_change_fraction(cwnd_box, np.asarray(cwnd_reference)[..., None, None])
        # The action (and hence the checked quantity) is scalar per component;
        # drop the trailing 1-element axis.
        return components.lo, components.hi, checked.lo[..., 0], checked.hi[..., 0]

    def _cwnd_reference(self, prop: PropertySpec, states: np.ndarray, cwnd_tcp):
        """P5's concrete reference window: one ``(1, d)`` actor forward per decision."""
        if prop.kind is not ActionKind.CWND_CHANGE_FRACTION:
            return None
        if states.ndim == 1:
            return self.concrete_cwnd(states, cwnd_tcp)
        return np.array([self.concrete_cwnd(state, tcp) for state, tcp in zip(states, cwnd_tcp)])

    def _applicability_from_state(self, prop: PropertySpec, states: np.ndarray) -> np.ndarray:
        """Check the concrete Δcwnd side-condition directly on the state vector(s)."""
        if prop.dcwnd_sign is None:
            return np.ones(states.shape[:-1], dtype=bool)
        dcwnd_history = states[..., self.observer.feature_indices("dcwnd")]
        if prop.dcwnd_sign < 0:
            return np.all(dcwnd_history <= 1e-6, axis=-1)
        return np.all(dcwnd_history >= -1e-6, axis=-1)

    # ------------------------------------------------------------------ #
    # Aggregate feedback (Eq. 7)
    # ------------------------------------------------------------------ #
    def verifier_feedback(
        self,
        properties: PropertySet | Sequence[PropertySpec],
        state: np.ndarray,
        cwnd_tcp: float,
        cwnd_prev: float,
        n_components: Optional[int] = None,
    ) -> float:
        """Weighted average QC feedback over a set of properties (r_verifier)."""
        value, _ = weighted_feedback(properties, lambda prop: self.certify(
            prop, state, cwnd_tcp, cwnd_prev, n_components=n_components).feedback)
        return value

    def certify_all(
        self,
        properties: PropertySet | Sequence[PropertySpec],
        state: np.ndarray,
        cwnd_tcp: float,
        cwnd_prev: float,
        n_components: Optional[int] = None,
    ) -> dict:
        """QCs for every property in the set, keyed by property name."""
        return {
            prop.name: self.certify(prop, state, cwnd_tcp, cwnd_prev, n_components=n_components)
            for prop in properties
        }
