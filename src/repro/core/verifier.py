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
:meth:`Verifier.certify` builds the components of every property's input
region at once, as one ``(P·D, N, d)`` stack in property order: the state
rows broadcast over the ``N`` components, with each property's abstracted
columns written over them (the plan's constant columns for P1–P4; P5's noise
columns through the centre/deviation round trip and
:func:`repro.abstract.box.split_bounds`).  The state columns are checked
once (their region centre must not overflow), and a *single* IBP call
covers the whole stack (:func:`repro.abstract.propagate.propagate_mlp_batched`,
which works through it in cache-sized blocks of decisions).  The cwnd map
and the Δcwnd / fractional-change transformers run once per
:class:`ActionKind` present (P5's reference window included), and the
containment check and the Eq. 6 feedback run once over the whole stack with
each property's allowed bounds broadcast over its rows.  Each property gets
an array-backed :class:`repro.core.qc.CertificateBatch`, and a sequence of
properties gives a :class:`repro.core.qc.CertificateSet` keyed by name.  One
property is the ``P = 1`` case and one decision the ``D = 1`` case of the
same engine, so a lone decision gives ``D = 1`` batches.  The number of
components ``N`` is :attr:`VerifierConfig.n_components`, the same for every
call.  With ``check_applicability`` a property contributes only the
decisions it applies at.

What does not depend on the decisions is computed once per property sequence:
the verifier keeps a :class:`CertifyPlan` per tuple of (frozen) properties,
which holds every state-independent array of a call: the region plans,
P1–P4's constant columns already split into their ``N`` components (and
checked once, when the plan is built), the row layout of the last stack
and the IBP kernel's :class:`~repro.abstract.propagate.IBPBuffers`.  So a
repeat ``certify`` looks up no feature index and splits no constant column;
it gathers the state rows, writes the columns and runs only the arithmetic
that depends on the state or the weights.  The plan holds no weights: the
IBP pass reads every ``layer.weight`` afresh and refills ``|W|`` from it on
each call, so a plan stays valid while the actor trains in place.  Every
array a ``certify`` returns is fresh, never a plan buffer.  The trainer's
regularization step samples the regions of the same plan.

Two layout traps lie in those buffers:

* ``|W|.T`` is the transposed view of an ``(out, in)`` array, the layout
  ``np.abs(W).T`` has.  A contiguous ``(in, out)`` buffer can send the
  one-output last layer, and every one-row product (``N = 1``), through
  another gemv and move the trained actors' bits.
* The buffers are keyed on the layer shapes and the block shape, never on
  the identity of a network: ids are reused once a network is collected,
  and a step list cached on ``id(actor)`` would propagate through stale
  layers.

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
from repro.abstract.propagate import IBPBuffers, propagate_mlp_batched
from repro.core.properties import ActionKind, PropertySet, PropertySpec, RegionPlan
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

#: The largest ``s`` whose ``s + s`` does not overflow.
_HALF_MAX = np.finfo(np.float64).max / 2.0

#: Slack on a past Δcwnd sign condition: ``dcwnd_sign = -1`` holds while every
#: past Δcwnd entry is at most this, ``+1`` while every entry is at least its negative.
SIGN_TOL = 1e-6


class CertifyPlan:
    """What certifying one property sequence needs that depends on neither
    the decisions nor the actor's weights, built once per sequence.

    Per property, in sequence order: its
    :class:`~repro.core.properties.RegionPlan` (the abstracted
    state dimensions and their constant bounds, or P5's noise dimensions and
    ``μ``), its allowed region as the columns ``allowed_lo``/``allowed_hi``,
    its past-Δcwnd sign condition ``(sign, dcwnd indices)`` or ``None``, its
    row of ``abstracted`` ``(P, d)``, the mask of the dimensions its region
    abstracts, and its ``columns``: the ``(N, d)`` centre and deviation its
    ``N`` components take on those dimensions (0 on every other one).  A
    robustness property's centre is ``None`` and its deviation all 0: its
    noise columns follow the state.  ``kinds`` lists each
    :class:`ActionKind` present with its property mask, ``ibp`` holds the
    IBP kernel's ``|W|`` and output arrays between calls, :meth:`layout`
    keeps the row layout of the last stack that kept every decision, and
    :meth:`sampling_regions` hands the trainer's regularization step the
    regions it certifies.

    The constant columns of P1–P4 go through exactly the arithmetic of a
    state-dependent region, the centre/deviation round trip and
    :func:`~repro.abstract.box.split_bounds` along the property's partition
    dimensions (always among its abstracted ones), and they are checked
    here, once: a non-finite or unordered constant bound raises when the
    plan is built.
    """

    def __init__(self, properties: Tuple[PropertySpec, ...], observer: ObservationBuilder,
                 n_components: int) -> None:
        self.properties = properties
        self.regions = [prop.region_plan(observer) for prop in properties]
        self.allowed_lo, self.allowed_hi = np.array([prop.allowed_bounds() for prop in properties],
                                                    dtype=np.float64).T
        dcwnd = np.array(observer.feature_indices("dcwnd"), dtype=np.intp)
        self.sign_conditions = [None if prop.dcwnd_sign is None else (prop.dcwnd_sign, dcwnd)
                                for prop in properties]
        self.abstracted = np.zeros((len(properties), observer.state_dim), dtype=bool)
        for abstracted, region in zip(self.abstracted, self.regions):
            abstracted[region.indices] = True
        self.columns, self._sampling = zip(*[
            _columns(prop, region, prop.partition_dims(observer), abstracted, n_components)
            for prop, region, abstracted in zip(properties, self.regions, self.abstracted)])
        kinds = [prop.kind for prop in properties]
        self.kinds = [(kind, np.array([other is kind for other in kinds])) for kind in dict.fromkeys(kinds)]
        self.ibp = IBPBuffers()
        self._full_layout: tuple | None = None

    def sampling_regions(self, state: np.ndarray) -> list:
        """Per property, ``(lo, width)`` of its input region around one
        ``state`` as the verifier certifies it (after the centre/deviation
        round trip): ``lo + u * width`` for ``u`` in ``[0, 1]`` covers it.
        On a dimension that keeps its state value ``lo`` is that value and
        ``width`` 0, what the round trip gives unless the state is so large
        that its region overflows, which ``certify`` rejects."""
        regions = []
        for region, (constant_lo, width) in zip(self.regions, self._sampling):
            lo = state.copy()
            if constant_lo is None:
                noise = Box._trusted_bounds(*region.noise_bounds(state[region.indices]))
                lo[region.indices] = noise.lo
                width = width.copy()
                width[region.indices] = noise.hi - noise.lo
            else:
                lo[region.indices] = constant_lo[region.indices]
            regions.append((lo, width))
        return regions

    def layout(self, n_decisions: int, masks: np.ndarray | None) -> tuple:
        """``(take, offsets, abstracted, kind_rows, allowed_lo, allowed_hi)``
        of the stack in which property ``i`` keeps the decisions
        ``masks[i]`` (``None``: all ``n_decisions``).  Row ``r`` is decision
        ``take[r]``; property ``i`` holds the rows ``offsets[i]`` to
        ``offsets[i + 1]``; ``abstracted`` ``(R, d)`` masks each row's
        abstracted dimensions; ``kind_rows`` pairs each :class:`ActionKind`
        with rows with those rows (every row, as a slice, when there is one
        kind); and the allowed bounds are one ``(R, 1)`` column each.  The
        layout that keeps every decision depends only on ``D`` and is reused
        while ``D`` stays the same."""
        if masks is None:
            if self._full_layout is not None and self._full_layout[0] == n_decisions:
                return self._full_layout[1]
            counts = [n_decisions] * len(self.properties)
            take = np.tile(np.arange(n_decisions), len(self.properties))
        else:
            counts = masks.sum(axis=1).tolist()
            take = np.nonzero(masks)[1]
        kind_rows = [(kind, np.repeat(kind_mask, counts)) for kind, kind_mask in self.kinds]
        kind_rows = [(kind, rows) for kind, rows in kind_rows if rows.any()]
        if len(kind_rows) == 1:
            kind_rows = [(kind_rows[0][0], slice(None))]
        layout = (take, [0, *itertools.accumulate(counts)], np.repeat(self.abstracted, counts, axis=0), kind_rows,
                  np.repeat(self.allowed_lo, counts)[:, None], np.repeat(self.allowed_hi, counts)[:, None])
        if masks is None:
            self._full_layout = (n_decisions, layout)
        return layout


def _columns(prop: PropertySpec, region: RegionPlan, dims: List[int], abstracted: np.ndarray,
             n_components: int) -> tuple:
    """A property's entry of :attr:`CertifyPlan.columns` and its sampling
    columns, the ``lo`` and ``width`` of its round-tripped region on the
    abstracted dimensions (``width`` 0 elsewhere), built on a placeholder
    state of zeros.  A robustness property has no constant column."""
    zeros = np.zeros(abstracted.size)
    if region.noise_mu is not None:
        return (None, np.zeros((n_components, zeros.size))), (None, zeros)
    lo, hi = region.bounds(zeros)
    bad = _unsound(lo, hi)
    if bad.any():
        index = int(np.argmax(bad))
        raise ValueError(f"{prop.name}: input region needs lo <= hi with a finite centre and deviation, "
                         f"got [{lo[index]}, {hi[index]}] at state index {index}")
    box = Box._trusted_bounds(lo, hi)  # the centre/deviation round trip
    lo, hi = box.lo, box.hi
    center, deviation = split_bounds(lo, hi, n_components, np.array(dims, dtype=np.intp) if dims else None)
    np.maximum(deviation, 0.0, out=deviation)
    center[:, ~abstracted] = 0.0
    deviation[:, ~abstracted] = 0.0
    return (center, deviation), (lo, np.where(abstracted, hi - lo, 0.0))


def _unsound(lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    """Where a region ``[lo, hi]`` is unordered or has a centre or deviation
    that is not finite (finite bounds can still overflow them)."""
    with np.errstate(over="ignore", invalid="ignore"):
        return ~np.isfinite((lo + hi) / 2.0) | ~np.isfinite((hi - lo) / 2.0) | (lo > hi + 1e-12)


@dataclass(frozen=True)
class VerifierConfig:
    """Verifier settings.

    Attributes:
        n_components: Number of QC input partitions N (the paper uses 5 during
            training and 50 during evaluation).
        check_applicability: When True, a property whose precondition side
            conditions on past Δcwnd do not hold at the current state (within
            :data:`SIGN_TOL`) is reported as non-applicable with neutral
            feedback 1.0.  The default (False) matches the paper's
            worst-case reading: the Δcwnd precondition is abstracted over its
            full range, so the QC covers every history consistent with the
            precondition.
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

        A stack of ``D`` states ``(D, d)``, ``d`` the observer's
        ``state_dim``, takes one ``cwnd_tcp`` and one ``cwnd_prev`` per
        decision; a lone state ``(d,)`` with scalar windows is the ``D = 1``
        stack.  Each property gets a :class:`CertificateBatch` of ``D``
        decisions with :attr:`VerifierConfig.n_components` components each,
        whose decision ``i`` is bit-identical to
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
        if state.ndim != 2 or state.shape[1] != self.observer.state_dim:
            raise ValueError(f"state must have shape (d,) or (D, d) with d = {self.observer.state_dim}, "
                             f"got {state.shape}")
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
            plan = self._plans[key] = CertifyPlan(key, self.observer, self.config.n_components)
        return plan

    def _certify_stack(self, properties: List[PropertySpec], states: np.ndarray, cwnd_tcp: np.ndarray,
                       cwnd_prev: np.ndarray) -> List[CertificateBatch]:
        """The engine behind :meth:`certify`: one batch per property.

        ``states`` is a stack ``(D, d)`` with one window per decision.  Each
        property keeps the decisions it applies at (all of them unless
        ``check_applicability`` gates some out).  Their components are
        stacked in property order into one ``(R, N, d)`` stack, which goes
        through one IBP call; the checked-action bounds and the Eq. 6
        feedback are computed over all ``R`` rows at once.
        """
        plan = self.plan(properties)
        n = self.config.n_components
        masks = np.ones((len(properties), states.shape[0]), dtype=bool)
        if self.config.check_applicability:
            for mask, condition in zip(masks, plan.sign_conditions):
                if condition is not None:
                    sign, dcwnd = condition
                    history = states[:, dcwnd]
                    mask[:] = (np.all(history <= SIGN_TOL, axis=-1) if sign < 0
                               else np.all(history >= -SIGN_TOL, axis=-1))
        take, offsets, abstracted, kind_rows, allowed_lo, allowed_hi = plan.layout(
            states.shape[0], masks if self.config.check_applicability else None)
        if take.size:
            components = self._components(plan, states, take, offsets, abstracted)
            output_lo, output_hi = self._checked_bounds(plan, components, kind_rows, states, take,
                                                        cwnd_tcp[take], cwnd_prev[take])
            # The components' bounds c - d and c + d, the latter written over
            # the centre the IBP pass no longer needs.
            input_lo = components.center - components.deviation
            input_hi = np.add(components.center, components.deviation, out=components.center)
            del components
        else:
            input_lo = input_hi = np.empty((0, n, states.shape[-1]))
            output_lo = output_hi = np.empty((0, n))
        satisfied, feedback = interval_feedback_batch(output_lo, output_hi, allowed_lo, allowed_hi)
        batches = []
        for prop, mask, lo, hi, start, end in zip(properties, masks, plan.allowed_lo, plan.allowed_hi, offsets,
                                                  offsets[1:]):
            batches.append(CertificateBatch.from_applicable(
                prop.name, lo, hi, mask, input_lo[start:end], input_hi[start:end], output_lo[start:end],
                output_hi[start:end], satisfied[start:end], feedback[start:end]))
        return batches

    def _components(self, plan: CertifyPlan, states: np.ndarray, take: np.ndarray, offsets: List[int],
                    abstracted: np.ndarray) -> Box:
        """The ``(R, N, d)`` components of the regions around ``states[take]``,
        row ``r`` in its property's region, whose abstracted dimensions
        ``abstracted[r]`` marks.

        Every region goes through the centre/deviation round trip
        ``c = (lo + hi) / 2``, ``d = max((hi - lo) / 2, 0)``, ``[c - d, c + d]``
        and is then split along its partition dimensions.  On a dimension
        that keeps its state value ``s`` (and is never split with a width
        other than 0) that arithmetic gives every component the centre
        ``(s + s) / 2 + 0.0`` and the deviation 0.  ``(s + s) / 2`` is ``s``
        itself unless ``s + s`` overflows, which it does exactly when
        ``|s| > MAX / 2``, and the ``+ 0.0`` is the round trip turning
        ``-0.0`` into ``0.0``.  So the state rows plus 0.0 are broadcast over
        the ``N`` components, and each property's abstracted columns are
        written over them: the plan's constant columns, or P5's noise
        columns, which go through the round trip and
        :func:`~repro.abstract.box.split_bounds` here.  A region whose centre
        or deviation is not finite raises (:meth:`_reject_region`).
        """
        n = self.config.n_components
        rows = states[take]
        noise = []
        for region, (constant, _), start, stop in zip(plan.regions, plan.columns, offsets, offsets[1:]):
            if constant is None and start < stop:
                lo, hi = region.noise_bounds(rows[start:stop, region.indices])
                if _unsound(lo, hi).any():
                    self._reject_region(plan, states, take, offsets)
                box = Box._trusted_bounds(lo, hi)  # the centre/deviation round trip
                center, deviation = split_bounds(box.lo, box.hi, n, None)
                noise.append((region.indices, center, np.maximum(deviation, 0.0, out=deviation), start, stop))
        # Only the dimensions that keep their state value are checked here.
        np.copyto(rows, 0.0, where=abstracted)
        if np.abs(rows).max() > _HALF_MAX:
            self._reject_region(plan, states, take, offsets)
        rows += 0.0
        center = rows[:, None, :].repeat(n, axis=1)
        deviation = np.empty_like(center)
        for (column_center, column_deviation), mask, start, stop in zip(plan.columns, plan.abstracted, offsets,
                                                                        offsets[1:]):
            if column_center is not None:
                np.copyto(center[start:stop], column_center, where=mask)
            deviation[start:stop] = column_deviation
        for indices, column_center, column_deviation, start, stop in noise:
            center[start:stop, :, indices] = column_center
            deviation[start:stop, :, indices] = column_deviation
        return Box._trusted(center, deviation)

    @staticmethod
    def _reject_region(plan: CertifyPlan, states: np.ndarray, take: np.ndarray, offsets: List[int]) -> None:
        """Raise for the first region entry that is unordered or whose centre
        or deviation is not finite (a finite state can still overflow them).

        Rebuilds every region of the stack in full, so the entry named is the
        first one in row-major order whichever check caught it."""
        lo, hi = states[take], states[take]
        for region, start, stop in zip(plan.regions, offsets, offsets[1:]):
            region.fill(lo[start:stop], hi[start:stop])
        row, index = (int(i) for i in np.argwhere(_unsound(lo, hi))[0])
        prop = next(i for i, end in enumerate(offsets[1:]) if row < end)
        raise ValueError(
            f"{plan.properties[prop].name}: input region needs lo <= hi with a finite centre and deviation, "
            f"got [{lo[row, index]}, {hi[row, index]}] at decision {take[row]}, state index {index}")

    def _checked_bounds(self, plan: CertifyPlan, components: Box, kind_rows: list, states: np.ndarray,
                        take: np.ndarray, cwnd_tcp: np.ndarray, cwnd_prev: np.ndarray) -> tuple:
        """Checked-action bounds ``(R, N)`` of a stack of ``R`` component rows.

        Row ``r`` is decision ``take[r]`` of ``states`` and has the windows
        ``cwnd_tcp[r]``/``cwnd_prev[r]``; ``kind_rows`` pairs each
        :class:`ActionKind` present with its rows.  One IBP call covers the
        whole stack; the cwnd map and the Δcwnd / fractional-change
        transformers run once per kind, on that kind's rows.
        """
        action_box = propagate_mlp_batched(self.actor, components, plan.ibp)
        bounds = []
        for kind, rows in kind_rows:
            center, deviation = action_box.center[rows], action_box.deviation[rows]
            tcp, prev = cwnd_tcp[rows], cwnd_prev[rows]
            # One window per decision, broadcast over its components.
            if kind is ActionKind.DELTA_CWND:
                checked_lo, checked_hi = transformers.checked_action_arrays(
                    center, deviation, tcp[:, None, None], cwnd_prev=prev[:, None, None])
            else:
                checked_lo, checked_hi = transformers.checked_action_arrays(
                    center, deviation, tcp[:, None, None],
                    cwnd_ref=self._cwnd_reference(states[take[rows]], tcp)[:, None, None])
            # The action (and hence the checked quantity) is scalar per
            # component; drop the trailing 1-element axis.
            bounds.append((rows, checked_lo[..., 0], checked_hi[..., 0]))
        if len(bounds) == 1:
            return bounds[0][1:]
        output_lo = np.empty(action_box.shape[:-1])
        output_hi = np.empty(action_box.shape[:-1])
        for rows, checked_lo, checked_hi in bounds:
            output_lo[rows] = checked_lo
            output_hi[rows] = checked_hi
        return output_lo, output_hi

    def _cwnd_reference(self, states: np.ndarray, cwnd_tcp: np.ndarray) -> np.ndarray:
        """P5's concrete reference windows: one ``(1, d)`` actor forward per decision."""
        return np.array([self.concrete_cwnd(state, tcp) for state, tcp in zip(states, cwnd_tcp)])
