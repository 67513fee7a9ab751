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
:meth:`Verifier.certify` certifies the components of every property's input
region at once, as one ``(P·D, N, d)`` stack in property order: the state
rows broadcast over the ``N`` components, with each property's abstracted
columns written over them (the plan's constant columns for P1–P4; P5's noise
columns through the centre/deviation round trip and
:func:`repro.abstract.box.split_bounds`).  The stack is never built whole.
The state columns are checked once (their region centre must not overflow),
and the stack is then filled block by block into two ``(b, N, d)`` buffers
the verifier owns, ``b`` at most ``max(1, BLOCK_ROWS // N)`` decisions
(:data:`BLOCK_ROWS`): the centre and the deviation of ``b`` consecutive rows.
Each block goes through one call of
:func:`repro.abstract.propagate.propagate_mlp_batched`, which does no
blocking of its own, and its ``(b, N, 1)`` action bounds are copied out
before the next block reuses the buffers.  Every decision of a P1–P4
property has the same deviation rows (only the centre follows the state),
so a P1–P4 property with more than one decision is blocked on its own and
its first-layer deviation product ``d @ |W1|.T`` is computed once per
``certify`` (:func:`repro.abstract.propagate.first_layer_deviation`) and
read by each of its blocks; P5's rows and single-decision properties share
blocks as before, so a one-decision stack is still one block.  The
cwnd map and the Δcwnd / fractional-change transformers run once per
:class:`ActionKind` present (P5's reference window included), and the
containment check and the Eq. 6 feedback run once over the whole stack with
each property's allowed bounds broadcast over its rows.  Each property gets
an array-backed :class:`repro.core.qc.CertificateBatch`, and a sequence of
properties gives a :class:`repro.core.qc.CertificateSet` keyed by name (the
names must differ).  The per-component input bounds ``c - d`` and ``c + d``
are not computed by a ``certify``: a batch derives them when they are first
read, by filling its rows through the same blocks.  One property is the
``P = 1`` case and one decision the ``D = 1`` case of the same engine, so a
lone decision gives ``D = 1`` batches.  The number of components ``N`` is
:attr:`VerifierConfig.n_components`, the same for every call.  With
``check_applicability`` a property contributes only the decisions it applies
at.

What does not depend on the decisions is computed once per property
sequence: the verifier keeps a :class:`CertifyPlan` per tuple of (frozen)
properties, which holds every state-independent array of a call: the region
plans, P1–P4's constant columns already split into their ``N`` components
(and checked once, when the plan is built) and the row layout of the last
stack.  The two block buffers and the IBP kernel's
:class:`~repro.abstract.propagate.IBPBuffers` depend on no property, so the
verifier keeps one set of them for all its plans.  So a repeat ``certify``
looks up no feature index, splits no constant column and allocates no
stack-sized array; it gathers the state rows, writes the columns block by
block and runs only the arithmetic that depends on the state or the weights.
Neither plan nor buffers hold weights: the IBP pass reads every
``layer.weight`` afresh and refills ``|W|`` from it on each call, so both
stay valid while the actor trains in place.  Every array a ``certify``
returns is fresh, never a buffer.  The trainer's regularization step
samples the regions of the same plan.

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
step is element-wise, so neither the stacking nor the block size matters
(nor where a block starts), the shared first-layer product is that same
gemm on one slice, and
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

import functools
import itertools
from dataclasses import dataclass
from typing import Dict, Iterable, List, Mapping, Sequence, Tuple

import numpy as np

from repro.abstract import transformers
from repro.abstract.box import Box, split_bounds
from repro.abstract.propagate import IBPBuffers, first_layer_deviation, propagate_mlp_batched
from repro.core.properties import ActionKind, PropertySet, PropertySpec, RegionPlan
from repro.core.qc import CertificateBatch, CertificateSet, interval_feedback_batch
from repro.orca.agent import cwnd_from_action
from repro.orca.observations import ObservationBuilder, ObservationConfig

__all__ = ["BLOCK_ROWS", "CertifyPlan", "VerifierConfig", "Verifier", "weighted_feedback"]


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

#: Component rows per IBP block: a verifier with ``N`` components propagates
#: ``max(1, BLOCK_ROWS // N)`` decisions per call, so each layer's
#: temporaries stay a few hundred kB instead of growing with the stack.
BLOCK_ROWS = 512

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
    abstracts, and its ``columns``: the ``(N, k)`` centre its ``N``
    components take on the ``k`` dimensions its region abstracts (in the
    order of ``region.indices``) and their ``(N, d)`` deviation (0 on every
    other dimension).  A robustness property's centre is ``None`` and its
    deviation all 0: its noise columns follow the state.  ``kinds`` lists each
    :class:`ActionKind` present with its property mask, :meth:`layout`
    keeps the row layout of the last stack that kept every decision, and
    :meth:`sampling_regions` hands the trainer's regularization step the
    regions it certifies.  The buffers a certify streams its blocks through
    depend on no property, so the verifier owns them, one set for all its
    plans (:class:`_BlockBuffers`).

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
    deviation[:, ~abstracted] = 0.0
    return (center[:, region.indices], deviation), (lo, np.where(abstracted, hi - lo, 0.0))


def _unsound(lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    """Where a region ``[lo, hi]`` is unordered or has a centre or deviation
    that is not finite (finite bounds can still overflow them)."""
    with np.errstate(over="ignore", invalid="ignore"):
        return ~np.isfinite((lo + hi) / 2.0) | ~np.isfinite((hi - lo) / 2.0) | (lo > hi + 1e-12)


class _BlockBuffers:
    """The arrays one verifier streams its component blocks through, one set
    for all its plans: they depend only on ``N``, ``d`` and the layer shapes.

    :meth:`take` hands out the centre and deviation of a block of at most
    ``rows = max(1, BLOCK_ROWS // N)`` decisions, ``(b, N, d)`` each, and
    ``ibp`` keeps the IBP kernel's ``|W|`` and per-layer output arrays.  The
    two block arrays grow to the largest block asked for, so a verifier that
    only ever certifies one decision keeps one-decision arrays.
    """

    def __init__(self, n_components: int, state_dim: int) -> None:
        self.rows = max(1, BLOCK_ROWS // n_components)
        self.ibp = IBPBuffers()
        self.component_shape = (n_components, state_dim)
        self._arrays = (np.empty((0, *self.component_shape)),) * 2

    def take(self, rows: int) -> tuple:
        """Views ``(rows, N, d)`` of the centre and deviation arrays,
        reallocated only when a block has more rows than they hold."""
        center, deviation = self._arrays
        if center.shape[0] < rows:
            shape = (rows, *self.component_shape)
            center, deviation = self._arrays = np.empty(shape), np.empty(shape)
        return center[:rows], deviation[:rows]


class _ComponentStack:
    """The ``(R, N, d)`` components of one ``certify``, never built whole.

    ``rows`` ``(R, d)`` holds the state rows with every abstracted dimension
    zeroed and 0.0 added; property ``i`` of ``plan`` holds the rows
    ``offsets[i]`` to ``offsets[i + 1]``, and ``noise[i]`` is ``None`` or,
    for a robustness property, ``(indices, center, deviation)`` of its noise
    columns on its rows.  :meth:`fill` writes the components of a run of
    rows into the verifier's block buffers: the state row broadcast over the
    ``N`` components with the property's columns written over it.  The IBP
    pass and the input bounds both read the stack through it, block by
    block.
    """

    def __init__(self, plan: CertifyPlan, buffers: _BlockBuffers, rows: np.ndarray, offsets: List[int],
                 noise: list) -> None:
        self.plan = plan
        self.buffers = buffers
        self.rows = rows
        self.offsets = offsets
        self.noise = noise

    def fill(self, start: int, stop: int) -> tuple:
        """The centre and deviation ``(stop - start, N, d)`` of the rows
        ``start`` to ``stop``, as views of the verifier's block buffers."""
        center, deviation = self.buffers.take(stop - start)
        center[...] = self.rows[start:stop, None, :]
        for (column_center, column_deviation), region, noise, first, last in zip(
                self.plan.columns, self.plan.regions, self.noise, self.offsets, self.offsets[1:]):
            lo, hi = max(first, start), min(last, stop)
            if lo >= hi:
                continue
            block = slice(lo - start, hi - start)
            if column_center is not None:
                center[block, :, region.indices] = column_center
            deviation[block] = column_deviation
            if noise is not None:
                indices, noise_center, noise_deviation = noise
                center[block, :, indices] = noise_center[lo - first:hi - first]
                deviation[block, :, indices] = noise_deviation[lo - first:hi - first]
        return center, deviation

    def blocks(self, start: int, stop: int):
        """``(first, last, center, deviation)`` per block of the rows
        ``start`` to ``stop``, at most :attr:`_BlockBuffers.rows` each; a
        block's arrays hold until the next block is filled."""
        for first in range(start, stop, self.buffers.rows):
            last = min(first + self.buffers.rows, stop)
            yield (first, last, *self.fill(first, last))

    def segments(self) -> list:
        """``(start, stop, deviation)`` per run of rows the IBP pass blocks
        on its own.  A P1–P4 property with more than one row is a run of its
        own, and ``deviation`` is the ``(N, d)`` deviation all its rows
        share (its constant columns' deviation); every other row (P5's,
        whose noise columns follow the state, or a property's only row)
        joins the run before it when that run has no shared deviation, with
        ``deviation`` ``None``.  So a one-decision stack stays one run."""
        segments: list = []
        for index, (start, stop) in enumerate(zip(self.offsets, self.offsets[1:])):
            if start == stop:
                continue
            if self.noise[index] is None and stop - start > 1:
                segments.append((start, stop, self.plan.columns[index][1]))
            elif segments and segments[-1][2] is None:
                segments[-1] = (segments[-1][0], stop, None)
            else:
                segments.append((start, stop, None))
        return segments

    def input_bounds(self, index: int) -> tuple:
        """``(lo, hi)`` ``(k, N, d)`` of the components of property
        ``index``'s ``k`` rows: ``c - d`` and ``c + d``, fresh arrays."""
        start, stop = self.offsets[index], self.offsets[index + 1]
        shape = (stop - start, *self.buffers.component_shape)
        lo, hi = np.empty(shape), np.empty(shape)
        for first, last, center, deviation in self.blocks(start, stop):
            np.subtract(center, deviation, out=lo[first - start:last - start])
            np.add(center, deviation, out=hi[first - start:last - start])
        return lo, hi


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
        self._buffers = _BlockBuffers(self.config.n_components, self.observer.state_dim)

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
        them with distinct names (the result is a :class:`CertificateSet`
        keyed by property name, in sequence order).  Either way all
        components of all decisions of all properties go through the actor
        in one IBP pass, block by block.
        """
        properties = [prop] if isinstance(prop, PropertySpec) else list(prop)
        if not properties:
            raise ValueError("need at least one property")
        names = [p.name for p in properties]
        if len(set(names)) != len(names):
            duplicate = next(name for index, name in enumerate(names) if name in names[:index])
            raise ValueError(f"property names must be unique: {duplicate!r} names more than one property")
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
        ``check_applicability`` gates some out).  Their components form one
        ``(R, N, d)`` stack in property order, which goes through the IBP
        kernel block by block (:meth:`_propagate`); the checked-action bounds
        and the Eq. 6 feedback are computed over all ``R`` rows at once.
        Each batch derives its input bounds from the same stack on demand.
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
        stack = self._stack(plan, states, take, offsets, abstracted)
        if take.size:
            output_lo, output_hi = self._checked_bounds(*self._propagate(stack), kind_rows, states, take,
                                                        cwnd_tcp[take], cwnd_prev[take])
        else:
            output_lo = output_hi = np.empty((0, n))
        satisfied, feedback = interval_feedback_batch(output_lo, output_hi, allowed_lo, allowed_hi)
        batches = []
        for index, (prop, mask, lo, hi, start, end) in enumerate(zip(
                properties, masks, plan.allowed_lo, plan.allowed_hi, offsets, offsets[1:])):
            batches.append(CertificateBatch.from_applicable(
                prop.name, lo, hi, mask, None, None, output_lo[start:end], output_hi[start:end],
                satisfied[start:end], feedback[start:end], input_bounds=functools.partial(stack.input_bounds, index)))
        return batches

    def _stack(self, plan: CertifyPlan, states: np.ndarray, take: np.ndarray, offsets: List[int],
               abstracted: np.ndarray) -> "_ComponentStack":
        """The components of the regions around ``states[take]``, row ``r``
        in its property's region, whose abstracted dimensions
        ``abstracted[r]`` marks, ready to be filled block by block.

        Every region goes through the centre/deviation round trip
        ``c = (lo + hi) / 2``, ``d = max((hi - lo) / 2, 0)``, ``[c - d, c + d]``
        and is then split along its partition dimensions.  On a dimension
        that keeps its state value ``s`` (and is never split with a width
        other than 0) that arithmetic gives every component the centre
        ``(s + s) / 2 + 0.0`` and the deviation 0.  ``(s + s) / 2`` is ``s``
        itself unless ``s + s`` overflows, which it does exactly when
        ``|s| > MAX / 2``, and the ``+ 0.0`` is the round trip turning
        ``-0.0`` into ``0.0``.  So the state rows plus 0.0 are kept, to be
        broadcast over the ``N`` components, with each property's abstracted
        columns written over them: the plan's constant columns, or P5's
        noise columns, which go through the round trip and
        :func:`~repro.abstract.box.split_bounds` here.  A region whose centre
        or deviation is not finite raises (:meth:`_reject_region`) before
        any row is propagated.
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
                noise.append((region.indices, center, np.maximum(deviation, 0.0, out=deviation)))
            else:
                noise.append(None)
        # Only the dimensions that keep their state value are checked here.
        np.copyto(rows, 0.0, where=abstracted)
        if rows.size and np.abs(rows).max() > _HALF_MAX:
            self._reject_region(plan, states, take, offsets)
        rows += 0.0
        return _ComponentStack(plan, self._buffers, rows, offsets, noise)

    def _propagate(self, stack: "_ComponentStack") -> tuple:
        """The action centre and deviation ``(R, N, out)`` of every row of
        ``stack``: one IBP call per block of the verifier's buffers, each
        ``(b, N, out)`` result copied out before the next block reuses them
        (a lone block's result is returned as it is).  Blocks never cross
        a run of :meth:`_ComponentStack.segments`; a run whose rows share
        their deviation has its first-layer deviation product computed
        once, here, and read by each of its blocks.  A block's Box is built
        without the deviation clamp (:meth:`Box._clamped`): every deviation
        entry :meth:`_ComponentStack.fill` writes is already ``+0.0`` or
        above, the plan's columns clamped in :func:`_columns`, the noise
        columns in :meth:`_stack` and the kept dimensions ``+0.0``."""
        n_rows = stack.rows.shape[0]
        action_center = action_deviation = None
        for first, last, shared in stack.segments():
            if shared is not None:
                shared = first_layer_deviation(self.actor, shared)
            for start, stop, center, deviation in stack.blocks(first, last):
                action = propagate_mlp_batched(self.actor, Box._clamped(center, deviation), self._buffers.ibp,
                                               shared)
                if stop - start == n_rows:
                    return action.center, action.deviation
                if action_center is None:
                    shape = (n_rows,) + action.shape[1:]
                    action_center, action_deviation = np.empty(shape), np.empty(shape)
                action_center[start:stop] = action.center
                action_deviation[start:stop] = action.deviation
        return action_center, action_deviation

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

    def _checked_bounds(self, action_center: np.ndarray, action_deviation: np.ndarray, kind_rows: list,
                        states: np.ndarray, take: np.ndarray, cwnd_tcp: np.ndarray, cwnd_prev: np.ndarray) -> tuple:
        """Checked-action bounds ``(R, N)`` of the actions ``(R, N, 1)`` of a
        stack of ``R`` component rows.

        Row ``r`` is decision ``take[r]`` of ``states`` and has the windows
        ``cwnd_tcp[r]``/``cwnd_prev[r]``; ``kind_rows`` pairs each
        :class:`ActionKind` present with its rows.  The cwnd map and the
        Δcwnd / fractional-change transformers run once per kind, on that
        kind's rows.
        """
        bounds = []
        for kind, rows in kind_rows:
            center, deviation = action_center[rows], action_deviation[rows]
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
        output_lo = np.empty(action_center.shape[:-1])
        output_hi = np.empty(action_center.shape[:-1])
        for rows, checked_lo, checked_hi in bounds:
            output_lo[rows] = checked_lo
            output_hi[rows] = checked_hi
        return output_lo, output_hi

    def _cwnd_reference(self, states: np.ndarray, cwnd_tcp: np.ndarray) -> np.ndarray:
        """P5's concrete reference windows: one ``(1, d)`` actor forward per decision."""
        return np.array([self.concrete_cwnd(state, tcp) for state, tcp in zip(states, cwnd_tcp)])
