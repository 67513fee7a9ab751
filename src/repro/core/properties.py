"""The Canopy property language and the five concrete properties P1–P5.

A property ``φ(π, X, Y)`` (Section 4.1) has a *precondition* ``X`` over the
past ``k`` steps of observed network state and a *postcondition* forbidding an
undesirable action region ``Y``.  In this reproduction a
:class:`PropertySpec` captures:

* which observation features are abstracted (the precondition ranges over the
  normalized queuing delay and, where relevant, the loss rate),
* the concrete side-conditions that are *not* abstracted (the sign of the past
  cwnd changes in P1–P4),
* the checked action (``Δcwnd`` for P1–P4, the fractional cwnd change for P5),
* the allowed action region ``A \\ Y``.

Default numeric parameters follow Section 6.1: ``q_min_delay = 0.01``,
``q_delay = 0.25``, ``p_delay = 0.75``, ``p_loss = 0.75``, ``μ = 0.05``,
``ε = 0.01`` and ``k = 3``.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from enum import Enum
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from repro.orca.observations import ObservationBuilder

__all__ = [
    "ActionKind",
    "RegionPlan",
    "PropertySpec",
    "PropertySet",
    "property_p1",
    "property_p2",
    "property_p3",
    "property_p4_case_i",
    "property_p4_case_ii",
    "property_p5",
    "shallow_buffer_properties",
    "deep_buffer_properties",
    "robustness_properties",
    "all_properties",
]

#: A large-but-finite bound standing in for +inf on cwnd deltas (packets).
ACTION_BOUND = 1e9


class ActionKind(Enum):
    """Which derived action a property's postcondition constrains."""

    DELTA_CWND = "delta_cwnd"              # cwnd_i − cwnd_{i−1}  (P1–P4)
    CWND_CHANGE_FRACTION = "cwnd_change"   # (cwnd − cwnd_i) / cwnd_i  (P5)


@dataclass(frozen=True, eq=False)
class RegionPlan:
    """The state-independent part of one property's input region X.

    :meth:`PropertySpec.region_plan` builds it once for a state layout;
    :meth:`bounds` then builds the region around any stack of states.  For a
    Δcwnd property (P1–P4) the abstracted dimensions ``indices`` take the
    constant bounds ``lo``/``hi``; for a robustness property (P5) they range
    over the observed value scaled by ``1 ∓ noise_mu``.
    """

    indices: np.ndarray
    lo: Optional[np.ndarray] = None
    hi: Optional[np.ndarray] = None
    noise_mu: Optional[float] = None

    def bounds(self, states: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """The regions ``(lo, hi)`` around float64 ``states`` of shape ``(..., state_dim)``."""
        lo = states.copy()
        hi = states.copy()
        self.fill(lo, hi)
        return lo, hi

    def fill(self, lo: np.ndarray, hi: np.ndarray) -> None:
        """Turn two copies of a state stack into its regions, in place."""
        if self.noise_mu is None:
            lo[..., self.indices] = self.lo
            hi[..., self.indices] = self.hi
        else:
            lo[..., self.indices], hi[..., self.indices] = self.noise_bounds(lo[..., self.indices])

    def noise_bounds(self, observed: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """A robustness region's bounds on its ``indices`` columns, given
        their ``observed`` values: the observation scaled by ``1 ∓ noise_mu``."""
        low_value = observed * (1.0 - self.noise_mu)
        high_value = observed * (1.0 + self.noise_mu)
        return np.minimum(low_value, high_value), np.maximum(low_value, high_value)


@dataclass(frozen=True)
class PropertySpec:
    """One property φ(π, X, Y) in Canopy's format.

    Attributes:
        name: Short identifier (``"P1"`` ... ``"P5"`` or user-defined).
        description: Human-readable statement of the property.
        kind: The checked action (:class:`ActionKind`).
        delay_range: Normalized queuing-delay precondition over the past ``k``
            steps (abstracted by the verifier), or ``None`` to keep the
            observed values.
        loss_range: Normalized loss-rate precondition (abstracted when the
            range has positive width), or ``None``.
        dcwnd_sign: Concrete side condition on past cwnd changes: ``-1`` means
            all past Δcwnd ≤ 0, ``+1`` means ≥ 0, ``None`` means no condition
            (checked by the verifier under ``check_applicability``).
        allowed_direction: For Δcwnd properties: ``+1`` allows non-decrease
            (Y = {Δcwnd < 0}), ``-1`` allows non-increase (Y = {Δcwnd > 0}).
        epsilon: For robustness: the allowed fractional cwnd fluctuation.
        noise_mu: For robustness: relative input perturbation bound μ.
        noise_features: Observation features perturbed by the robustness
            property (default: the queuing delay, as in the paper's prototype).
        weight: Relative weight when combined in a :class:`PropertySet`.
    """

    name: str
    description: str
    kind: ActionKind
    delay_range: Optional[Tuple[float, float]] = None
    loss_range: Optional[Tuple[float, float]] = None
    dcwnd_sign: Optional[int] = None
    allowed_direction: Optional[int] = None
    epsilon: Optional[float] = None
    noise_mu: float = 0.0
    noise_features: Tuple[str, ...] = ("delay",)
    weight: float = 1.0

    def __post_init__(self) -> None:
        # Sequences are kept as tuples so that a spec stays hashable (the
        # verifier keys its plans by the tuple of specs).
        for field_name in ("delay_range", "loss_range", "noise_features"):
            value = getattr(self, field_name)
            if value is not None and not isinstance(value, (tuple, str)):
                object.__setattr__(self, field_name, tuple(value))
        if self.kind is ActionKind.DELTA_CWND:
            if self.allowed_direction not in (-1, 1):
                raise ValueError(f"{self.name}: Δcwnd properties need allowed_direction ±1")
        elif self.kind is ActionKind.CWND_CHANGE_FRACTION:
            if self.epsilon is None or self.epsilon <= 0:
                raise ValueError(f"{self.name}: robustness properties need epsilon > 0")
            if self.noise_mu <= 0:
                raise ValueError(f"{self.name}: robustness properties need noise_mu > 0")
        if self.dcwnd_sign not in (None, -1, 1):
            raise ValueError("dcwnd_sign must be None, -1 or +1")
        for bounds in (self.delay_range, self.loss_range):
            if bounds is not None and (bounds[0] > bounds[1]):
                raise ValueError("precondition ranges must have lo <= hi")
        if self.weight <= 0:
            raise ValueError("weight must be positive")

    # ------------------------------------------------------------------ #
    # Precondition handling
    # ------------------------------------------------------------------ #
    def abstracted_features(self) -> List[str]:
        """Observation features replaced by intervals in the input region.

        For P1–P4 the region spans every feature the precondition constrains
        (queuing delay, loss rate and the sign-restricted past Δcwnd); all
        other dimensions stay at their observed values, as in the paper's
        prototype.  For P5 the perturbed features are abstracted.
        """
        if self.kind is ActionKind.CWND_CHANGE_FRACTION:
            return list(self.noise_features)
        features: List[str] = []
        if self.delay_range is not None:
            features.append("delay")
        if self.loss_range is not None:
            features.append("loss")
        if self.dcwnd_sign is not None:
            features.append("dcwnd")
        return features

    def partition_features(self) -> List[str]:
        """The variables of interest along which QC components are partitioned."""
        if self.kind is ActionKind.CWND_CHANGE_FRACTION:
            return list(self.noise_features)
        return ["delay"] if self.delay_range is not None else self.abstracted_features()[:1]

    def partition_dims(self, observer: ObservationBuilder) -> List[int]:
        """State-vector dimensions along which QC components are partitioned."""
        dims: List[int] = []
        for feature in self.partition_features():
            dims.extend(observer.feature_indices(feature))
        return dims

    def region_plan(self, observer: ObservationBuilder) -> RegionPlan:
        """The state-independent part of the input region X under ``observer``'s
        state layout: which dimensions are abstracted, and how."""
        if self.kind is ActionKind.CWND_CHANGE_FRACTION:
            indices = [i for feature in self.noise_features for i in observer.feature_indices(feature)]
            return RegionPlan(np.array(indices, dtype=np.intp), noise_mu=self.noise_mu)
        indices: List[int] = []
        lo: List[float] = []
        hi: List[float] = []
        for feature, bounds in (("delay", self.delay_range), ("loss", self.loss_range),
                                ("dcwnd", None if self.dcwnd_sign is None
                                 else (-1.0, 0.0) if self.dcwnd_sign < 0 else (0.0, 1.0))):
            if bounds is not None:
                feature_indices = observer.feature_indices(feature)
                indices.extend(feature_indices)
                lo.extend([bounds[0]] * len(feature_indices))
                hi.extend([bounds[1]] * len(feature_indices))
        return RegionPlan(np.array(indices, dtype=np.intp), lo=np.array(lo, dtype=np.float64),
                          hi=np.array(hi, dtype=np.float64))

    # ------------------------------------------------------------------ #
    # Postcondition handling
    # ------------------------------------------------------------------ #
    def allowed_bounds(self) -> Tuple[float, float]:
        """The allowed action region ``A \\ Y`` as bounds ``(lo, hi)``."""
        if self.kind is ActionKind.DELTA_CWND:
            if self.allowed_direction > 0:
                return 0.0, ACTION_BOUND
            return -ACTION_BOUND, 0.0
        return -float(self.epsilon), float(self.epsilon)

    def checked_action_concrete(self, cwnd: float, cwnd_prev: float, cwnd_reference: float) -> float:
        """The concrete checked action (Δcwnd or fractional change)."""
        if self.kind is ActionKind.DELTA_CWND:
            return cwnd - cwnd_prev
        if cwnd_reference <= 0:
            raise ValueError("cwnd_reference must be positive for robustness properties")
        return (cwnd - cwnd_reference) / cwnd_reference

    def satisfied_concretely(self, cwnd: float, cwnd_prev: float, cwnd_reference: float, tol: float = 1e-9) -> bool:
        """Empirical (non-certified) check of the postcondition on concrete values."""
        action = self.checked_action_concrete(cwnd, cwnd_prev, cwnd_reference)
        lo, hi = self.allowed_bounds()
        return bool(lo - tol <= action <= hi + tol)

    def with_weight(self, weight: float) -> "PropertySpec":
        return replace(self, weight=weight)


# ---------------------------------------------------------------------- #
# The five concrete properties of Table 2
# ---------------------------------------------------------------------- #
def property_p1(q_min_delay: float = 0.01) -> PropertySpec:
    """P1 [shallow buffer, good conditions]: no loss, tiny delays, past Δcwnd ≤ 0 ⇒ do not decrease cwnd."""
    return PropertySpec(
        name="P1",
        description="Shallow buffer, good network condition: eventually do not decrease cwnd",
        kind=ActionKind.DELTA_CWND,
        delay_range=(0.0, q_min_delay),
        loss_range=(0.0, 0.0),
        dcwnd_sign=-1,
        allowed_direction=+1,
    )


def property_p2(q_min_delay: float = 0.01, p_loss: float = 0.75) -> PropertySpec:
    """P2 [shallow buffer, bad conditions]: high loss, past Δcwnd ≥ 0 ⇒ do not increase cwnd."""
    return PropertySpec(
        name="P2",
        description="Shallow buffer, bad network condition: eventually do not increase cwnd",
        kind=ActionKind.DELTA_CWND,
        delay_range=(0.0, q_min_delay),
        loss_range=(p_loss, 1.0),
        dcwnd_sign=+1,
        allowed_direction=-1,
    )


def property_p3(q_delay: float = 0.25) -> PropertySpec:
    """P3 [deep buffer, good conditions]: low delays, no loss, past Δcwnd ≤ 0 ⇒ do not decrease cwnd."""
    return PropertySpec(
        name="P3",
        description="Deep buffer, good network condition: eventually do not decrease cwnd",
        kind=ActionKind.DELTA_CWND,
        delay_range=(0.0, q_delay),
        loss_range=(0.0, 0.0),
        dcwnd_sign=-1,
        allowed_direction=+1,
    )


def property_p4_case_i(p_delay: float = 0.75) -> PropertySpec:
    """P4(i) [deep buffer, bad conditions]: high delays, past Δcwnd ≥ 0 ⇒ do not increase cwnd."""
    return PropertySpec(
        name="P4i",
        description="Deep buffer, bad condition caused by this flow: do not keep increasing cwnd",
        kind=ActionKind.DELTA_CWND,
        delay_range=(p_delay, 1.0),
        loss_range=None,
        dcwnd_sign=+1,
        allowed_direction=-1,
    )


def property_p4_case_ii(p_delay: float = 0.75) -> PropertySpec:
    """P4(ii) [deep buffer, bad conditions]: high delays, past Δcwnd ≤ 0 ⇒ do not keep decreasing cwnd."""
    return PropertySpec(
        name="P4ii",
        description="Deep buffer, bad condition caused by other flows: do not keep decreasing cwnd",
        kind=ActionKind.DELTA_CWND,
        delay_range=(p_delay, 1.0),
        loss_range=None,
        dcwnd_sign=-1,
        allowed_direction=+1,
    )


def property_p5(mu: float = 0.05, epsilon: float = 0.01, noise_features: Sequence[str] = ("delay",)) -> PropertySpec:
    """P5 [robustness]: bounded input noise ⇒ bounded fractional cwnd change."""
    return PropertySpec(
        name="P5",
        description="Noise robustness: small observation noise must not drastically change the action",
        kind=ActionKind.CWND_CHANGE_FRACTION,
        epsilon=epsilon,
        noise_mu=mu,
        noise_features=tuple(noise_features),
    )


# ---------------------------------------------------------------------- #
# Property sets (the three Canopy model families in the evaluation)
# ---------------------------------------------------------------------- #
@dataclass
class PropertySet:
    """A weighted collection of properties trained/evaluated together."""

    name: str
    properties: List[PropertySpec] = field(default_factory=list)

    def __post_init__(self) -> None:
        if not self.properties:
            raise ValueError("a PropertySet needs at least one property")
        names = [p.name for p in self.properties]
        if len(set(names)) != len(names):
            raise ValueError("property names within a set must be unique")

    def __iter__(self) -> Iterator[PropertySpec]:
        return iter(self.properties)

    def __len__(self) -> int:
        return len(self.properties)

    def by_name(self, name: str) -> PropertySpec:
        for prop in self.properties:
            if prop.name == name:
                return prop
        raise KeyError(f"no property named {name!r} in set {self.name!r}")

    def weights(self) -> Dict[str, float]:
        return {p.name: p.weight for p in self.properties}

    def reweighted(self, weights: Dict[str, float]) -> "PropertySet":
        """A copy with per-property weights replaced (the paper's remedy for P4)."""
        updated = [p.with_weight(weights.get(p.name, p.weight)) for p in self.properties]
        return PropertySet(self.name, updated)


def shallow_buffer_properties(q_min_delay: float = 0.01, p_loss: float = 0.75) -> PropertySet:
    """P1 + P2, used to train the shallow-buffer Canopy model."""
    return PropertySet("shallow", [property_p1(q_min_delay), property_p2(q_min_delay, p_loss)])


def deep_buffer_properties(q_delay: float = 0.25, p_delay: float = 0.75) -> PropertySet:
    """P3 + P4(i) + P4(ii), used to train the deep-buffer Canopy model."""
    return PropertySet("deep", [property_p3(q_delay), property_p4_case_i(p_delay), property_p4_case_ii(p_delay)])


def robustness_properties(mu: float = 0.05, epsilon: float = 0.01) -> PropertySet:
    """P5, used to train the robustness Canopy model."""
    return PropertySet("robustness", [property_p5(mu, epsilon)])


def all_properties() -> PropertySet:
    """All five properties together (used for cross-cutting analyses)."""
    return PropertySet(
        "all",
        [property_p1(), property_p2(), property_p3(), property_p4_case_i(), property_p4_case_ii(), property_p5()],
    )
