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
:meth:`Verifier.certify` builds the input regions of every property at once
on one ``(P·D, d)`` stack of states in property order (each property's
:class:`~repro.core.properties.RegionPlan`, the code path
:meth:`PropertySpec.input_bounds` also runs), checks the whole stack once
(ordered bounds with a finite centre and deviation), partitions it into one
``(P·D, N, d)`` stack of components (:func:`repro.abstract.box.split_bounds`,
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

What does not depend on the decisions is computed once per property sequence:
the verifier keeps a :class:`CertifyPlan` per tuple of (frozen) properties,
holding each property's abstracted state indices with their constant bounds
(P5: its noise indices and ``μ``), the partition-dimension runs, the
allowed-bound columns, the Δcwnd sign conditions and the per-kind row masks,
so a repeat ``certify`` looks up no feature index.  The plan holds no weights:
the IBP pass reads every ``layer.weight`` afresh on each call, so a plan stays
valid while the actor trains in place.  The trainer's regularization step
samples the regions of the same plan.

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
from repro.abstract.box import Box, split_bounds
from repro.abstract.propagate import propagate_mlp_batched
from repro.core.properties import ActionKind, PropertySet, PropertySpec
from repro.core.qc import CertificateBatch, CertificateSet, interval_feedback_batch
from repro.orca.agent import cwnd_from_action
from repro.orca.observations import ObservationBuilder, ObservationConfig

__all__ = ["CertifyPlan", "VerifierConfig", "Verifier", "weighted_feedback"]


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


#: Property sequences whose plans one verifier keeps (the cache is emptied when full).
_MAX_PLANS = 64


class CertifyPlan:
    """What certifying one property sequence needs that depends on neither
    the decisions nor the actor's weights, built once per sequence.

    Per property, in sequence order: its
    :class:`~repro.core.properties.RegionPlan` (the abstracted
    state dimensions and their constant bounds, or P5's noise dimensions and
    ``μ``), its allowed region as the columns ``allowed_lo``/``allowed_hi``
    and its past-Δcwnd sign condition
    ``(sign, dcwnd indices)`` or ``None``.  ``runs`` lists each run of
    consecutive properties with the same partition dimensions as
    ``(start, stop, dims)`` (``dims`` ``None``: every dimension), and
    ``kinds`` each :class:`ActionKind` present with its property mask.
    """

    def __init__(self, properties: Tuple[PropertySpec, ...], observer: ObservationBuilder) -> None:
        self.properties = properties
        self.regions = [prop.region_plan(observer) for prop in properties]
        self.allowed_lo, self.allowed_hi = np.array([prop.allowed_bounds() for prop in properties],
                                                    dtype=np.float64).T
        dcwnd = np.array(observer.feature_indices("dcwnd"), dtype=np.intp)
        self.sign_conditions = [None if prop.dcwnd_sign is None else (prop.dcwnd_sign, dcwnd)
                                for prop in properties]
        self.runs = []
        for dims, run in itertools.groupby(range(len(properties)),
                                           key=lambda i: tuple(properties[i].partition_dims(observer))):
            run = list(run)
            self.runs.append((run[0], run[-1] + 1, np.array(dims, dtype=np.intp) if dims else None))
        kinds = [prop.kind for prop in properties]
        self.kinds = [(kind, np.array([other is kind for other in kinds])) for kind in dict.fromkeys(kinds)]


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
        self._plans: Dict[Tuple[PropertySpec, ...], CertifyPlan] = {}

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

    def plan(self, properties: Sequence[PropertySpec]) -> CertifyPlan:
        """The :class:`CertifyPlan` of a property sequence, built on first use
        and then reused; keyed by the tuple of (frozen) properties."""
        key = tuple(properties)
        plan = self._plans.get(key)
        if plan is None:
            if len(self._plans) >= _MAX_PLANS:
                self._plans.clear()
            plan = self._plans[key] = CertifyPlan(key, self.observer)
        return plan

    def _certify_stack(self, properties: List[PropertySpec], states: np.ndarray, cwnd_tcp: np.ndarray,
                       cwnd_prev: np.ndarray) -> List[CertificateBatch]:
        """The engine behind :meth:`certify`: one batch per property.

        ``states`` is a stack ``(D, d)`` with one window per decision.  Each
        property keeps the decisions it applies at (all of them unless
        ``check_applicability`` gates some out) and builds their regions.
        The regions are stacked in property order and checked once, and each
        run of consecutive properties with the same partition dimensions
        (every built-in set is one run) is split into its ``N`` components in
        one call.  The resulting ``(R, N, d)`` stack goes through one IBP
        call, and the checked-action bounds and the Eq. 6 feedback are
        computed over all ``R`` rows at once.
        """
        plan = self.plan(properties)
        n = self.config.n_components
        n_decisions = states.shape[0]
        masks = np.ones((len(properties), n_decisions), dtype=bool)
        if self.config.check_applicability:
            for mask, condition in zip(masks, plan.sign_conditions):
                if condition is not None:
                    sign, dcwnd = condition
                    history = states[:, dcwnd]
                    mask[:] = np.all(history <= 1e-6, axis=-1) if sign < 0 else np.all(history >= -1e-6, axis=-1)
        counts = masks.sum(axis=1).tolist()
        take = np.nonzero(masks)[1]
        # Row r of the stack is decision take[r]; property i holds rows offsets[i]:offsets[i + 1].
        offsets = [0, *itertools.accumulate(counts)]
        if take.size:
            components = self._components(plan, states, take, offsets)
            output_lo, output_hi = self._checked_bounds(plan, components, counts, states, take,
                                                        cwnd_tcp[take], cwnd_prev[take])
            # The components' bounds c - d and c + d, the latter written over
            # the centre the IBP pass no longer needs.
            input_lo = components.center - components.deviation
            input_hi = np.add(components.center, components.deviation, out=components.center)
            del components
        else:
            input_lo = input_hi = np.empty((0, n, states.shape[-1]))
            output_lo = output_hi = np.empty((0, n))
        allowed_lo = np.repeat(plan.allowed_lo, counts)[:, None]
        allowed_hi = np.repeat(plan.allowed_hi, counts)[:, None]
        satisfied, feedback = interval_feedback_batch(output_lo, output_hi, allowed_lo, allowed_hi)
        batches = []
        for prop, mask, lo, hi, start, end in zip(properties, masks, plan.allowed_lo, plan.allowed_hi, offsets,
                                                  offsets[1:]):
            batches.append(CertificateBatch.from_applicable(
                prop.name, lo, hi, mask, input_lo[start:end], input_hi[start:end], output_lo[start:end],
                output_hi[start:end], satisfied[start:end], feedback[start:end]))
        return batches

    def _components(self, plan: CertifyPlan, states: np.ndarray, take: np.ndarray, offsets: List[int]) -> Box:
        """The ``(R, N, d)`` components of the regions around ``states[take]``,
        row ``r`` in its property's region.

        The regions are built in place on two copies of the stacked states
        and checked once for the whole stack, then split run by run.  Each
        region goes through the centre/deviation round trip
        ``c = (lo + hi) / 2``, ``d = max((hi - lo) / 2, 0)``, ``[c - d, c + d]``
        before it is split.
        """
        lo, hi = states[take], states[take]
        with np.errstate(over="ignore", invalid="ignore"):
            for region, start, stop in zip(plan.regions, offsets, offsets[1:]):
                if start < stop:
                    region.fill(lo[start:stop], hi[start:stop])
            center = (lo + hi) / 2.0
            deviation = (hi - lo) / 2.0
        if not (np.isfinite(center).all() and np.isfinite(deviation).all()) or (lo > hi + 1e-12).any():
            self._reject_region(plan, lo, hi, center, deviation, take, offsets)
        np.maximum(deviation, 0.0, out=deviation)
        lo = center - deviation
        hi = np.add(center, deviation, out=center)
        del center, deviation
        n = self.config.n_components
        pieces = [split_bounds(lo[offsets[start]:offsets[stop]], hi[offsets[start]:offsets[stop]], n, dims)
                  for start, stop, dims in plan.runs if offsets[start] < offsets[stop]]
        if len(pieces) == 1:
            return Box._trusted(*pieces[0])
        return Box._trusted(np.concatenate([center for center, _ in pieces]),
                            np.concatenate([deviation for _, deviation in pieces]))

    @staticmethod
    def _reject_region(plan: CertifyPlan, lo: np.ndarray, hi: np.ndarray, center: np.ndarray,
                       deviation: np.ndarray, take: np.ndarray, offsets: List[int]) -> None:
        """Raise for the first region entry that is unordered or whose centre
        or deviation is not finite (a finite state can still overflow them)."""
        bad = ~np.isfinite(center) | ~np.isfinite(deviation) | (lo > hi + 1e-12)
        row, index = (int(i) for i in np.argwhere(bad)[0])
        prop = next(i for i, end in enumerate(offsets[1:]) if row < end)
        raise ValueError(
            f"{plan.properties[prop].name}: input region needs lo <= hi with a finite centre and deviation, "
            f"got [{lo[row, index]}, {hi[row, index]}] at decision {take[row]}, state index {index}")

    def _checked_bounds(self, plan: CertifyPlan, components: Box, counts: List[int], states: np.ndarray,
                        take: np.ndarray, cwnd_tcp: np.ndarray, cwnd_prev: np.ndarray) -> tuple:
        """Checked-action bounds ``(R, N)`` of a stack of ``R`` component rows.

        The stack holds ``counts[i]`` rows of property ``i``; row ``r`` is
        decision ``take[r]`` of ``states`` and has the windows
        ``cwnd_tcp[r]``/``cwnd_prev[r]``.  One IBP call covers the whole
        stack; the cwnd map and the Δcwnd / fractional-change transformers
        run once per :class:`ActionKind` present, on that kind's rows.
        """
        action_box = propagate_mlp_batched(self.actor, components)
        output_lo = np.empty(action_box.shape[:-1])
        output_hi = np.empty(action_box.shape[:-1])
        for kind, kind_mask in plan.kinds:
            if len(plan.kinds) == 1:
                rows = slice(None)  # every row, taken as views
            else:
                rows = np.repeat(kind_mask, counts)
                if not rows.any():
                    continue
            center, deviation = action_box.center[rows], action_box.deviation[rows]
            take_k, tcp, prev = take[rows], cwnd_tcp[rows], cwnd_prev[rows]
            # One window per decision, broadcast over its components.
            if kind is ActionKind.DELTA_CWND:
                checked_lo, checked_hi = transformers.checked_action_arrays(
                    center, deviation, tcp[:, None, None], cwnd_prev=prev[:, None, None])
            else:
                checked_lo, checked_hi = transformers.checked_action_arrays(
                    center, deviation, tcp[:, None, None],
                    cwnd_ref=self._cwnd_reference(states[take_k], tcp)[:, None, None])
            # The action (and hence the checked quantity) is scalar per
            # component; drop the trailing 1-element axis.
            output_lo[rows] = checked_lo[..., 0]
            output_hi[rows] = checked_hi[..., 0]
        return output_lo, output_hi

    def _cwnd_reference(self, states: np.ndarray, cwnd_tcp: np.ndarray) -> np.ndarray:
        """P5's concrete reference windows: one ``(1, d)`` actor forward per decision."""
        return np.array([self.concrete_cwnd(state, tcp) for state, tcp in zip(states, cwnd_tcp)])
