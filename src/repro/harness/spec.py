"""Declarative scenario specifications — the single currency of the harness.

Every layer of the experiment stack — training configs, evaluation sweeps,
the CLI, :class:`~repro.harness.parallel.ParallelRunner` shard keys, and the
bench JSON — talks about "a scenario": which scheme runs on which trace over
which topology family under which seed, backed by which trained model, and
whether the run is certified against which property family.
:class:`ScenarioSpec` captures that tuple once, as a frozen, hashable value
with canonical string and JSON round-trips:

* ``spec.key()`` / ``str(spec)`` — the canonical one-line form
  (``scheme=cubic trace=step-12-48 topology=chain(3) seed=7 ...``), parsed
  back by :meth:`ScenarioSpec.parse`.  This is the
  :class:`~repro.harness.store.RunStore` key prefix and the identity that
  flows through grids, CLI flags, and bench rows.
* ``spec.to_json()`` / :meth:`ScenarioSpec.from_json` — the structured form
  stamped into every :class:`~repro.harness.store.RunRecord`.

The module also owns the *string-spec parsing* shared by the CLI, the
benchmarks, and the experiment registry, so family/trace lists are parsed in
exactly one place:

* :func:`parse_topologies` — a comma-separated topology family list,
  validated through :func:`repro.topology.families.parse_topology`;
* :func:`resolve_trace` / :func:`trace_subset` — trace names and trace-kind
  suites (``synthetic`` / ``cellular``) resolved to
  :class:`~repro.traces.trace.BandwidthTrace` objects;
* :data:`PROPERTY_FAMILIES` — the property families reconstructable by name
  inside worker processes (re-exported by :mod:`repro.harness.parallel`).
"""

from __future__ import annotations

import json
from dataclasses import dataclass, fields
from dataclasses import replace as _dataclass_replace
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.core.properties import (
    PropertySet,
    deep_buffer_properties,
    robustness_properties,
    shallow_buffer_properties,
)
from repro.topology.families import DEFAULT_TOPOLOGY, canonical_topology, parse_topology
from repro.workload.spec import DEFAULT_WORKLOAD, canonical_workload
from repro.traces.cellular import CELLULAR_TRACE_NAMES, cellular_trace_suite, make_cellular_trace
from repro.traces.synthetic import (
    SYNTHETIC_TRACE_NAMES,
    make_synthetic_trace,
    synthetic_trace_suite,
)
from repro.traces.trace import BandwidthTrace

__all__ = [
    "PROPERTY_FAMILIES",
    "TRACE_KINDS",
    "ScenarioSpec",
    "coerce_scalar",
    "parse_bool",
    "parse_topologies",
    "resolve_trace",
    "trace_names",
    "trace_subset",
]

#: Property families reconstructable by name inside worker processes.
PROPERTY_FAMILIES: Dict[str, Callable[[], PropertySet]] = {
    "shallow": shallow_buffer_properties,
    "deep": deep_buffer_properties,
    "robustness": robustness_properties,
}

#: Trace kinds understood by :func:`trace_subset` (grid axes sweep these).
TRACE_KINDS = ("synthetic", "cellular")


# ---------------------------------------------------------------------- #
# Shared string-spec parsing (the one copy the CLI and benchmarks use)
# ---------------------------------------------------------------------- #
_TRUE_WORDS = ("1", "true", "yes", "on")
_FALSE_WORDS = ("0", "false", "no", "off")


def parse_bool(raw: str) -> bool:
    """The one truthy/falsy-word vocabulary shared by spec and axis parsing."""
    lowered = raw.lower()
    if lowered in _TRUE_WORDS:
        return True
    if lowered in _FALSE_WORDS:
        return False
    raise ValueError(f"expected a boolean "
                     f"({'/'.join(_TRUE_WORDS + _FALSE_WORDS)}), got {raw!r}")


def coerce_scalar(value: str, template: object):
    """Parse one scalar string by the *template's* type — the single coercion
    rule shared by registry axis overrides (``--set``) and spec surfaces.

    Booleans use :func:`parse_bool`'s vocabulary.  Integer templates accept
    integral float spellings (``"2.0"`` → ``2`` — what a float-formatted axis
    sweep hands back) but reject fractional values with a pointed error
    instead of ``int('0.5')``'s bare ``ValueError``.  Float templates accept
    plain integers (``"2"`` → ``2.0``).  A ``None`` template maps the word
    ``"none"`` to ``None`` and leaves anything else a string.
    """
    if isinstance(template, bool):
        return parse_bool(value)
    if isinstance(template, int):
        try:
            return int(value)
        except ValueError:
            pass
        try:
            as_float = float(value)
        except ValueError:
            raise ValueError(f"expected an integer, got {value!r}") from None
        if not as_float.is_integer():
            raise ValueError(f"expected an integer, got the fractional value {value!r} "
                             "(this axis is integer-typed)")
        return int(as_float)
    if isinstance(template, float):
        try:
            return float(value)
        except ValueError:
            raise ValueError(f"expected a number, got {value!r}") from None
    if template is None and value.lower() == "none":
        return None
    return value


def parse_topologies(raw: str | Sequence[str]) -> Tuple[str, ...]:
    """Parse a comma-separated topology family list into validated specs.

    Accepts either one ``"a,b,c"`` string (CLI flags, ``REPRO_BENCH_*``
    environment variables) or an already-split sequence; every entry is
    validated through :func:`repro.topology.families.parse_topology` so
    malformed specs fail here rather than deep inside a worker.
    """
    if isinstance(raw, str):
        parts = [part.strip() for part in raw.split(",")]
    else:
        parts = [str(part).strip() for part in raw]
    specs = tuple(part for part in parts if part)
    if not specs:
        raise ValueError(f"no topology family specs in {raw!r}")
    for spec in specs:
        parse_topology(spec)
    return specs


def trace_names() -> List[str]:
    """Every trace name :func:`resolve_trace` can rebuild."""
    return list(SYNTHETIC_TRACE_NAMES) + list(CELLULAR_TRACE_NAMES)


def resolve_trace(name: str) -> BandwidthTrace:
    """Rebuild a named trace (the inverse of carrying ``trace.name`` in a spec)."""
    if name in SYNTHETIC_TRACE_NAMES:
        return make_synthetic_trace(name)
    if name in CELLULAR_TRACE_NAMES:
        return make_cellular_trace(name)
    raise ValueError(f"unknown trace {name!r}; known traces: {', '.join(trace_names())}")


def trace_subset(kind: str, count: int) -> List[BandwidthTrace]:
    """The first ``count`` traces of one kind (``synthetic`` or ``cellular``)."""
    if kind == "synthetic":
        return synthetic_trace_suite(subset=count)
    if kind == "cellular":
        return cellular_trace_suite()[:count]
    raise ValueError(f"unknown trace kind {kind!r}; known: {TRACE_KINDS}")


# ---------------------------------------------------------------------- #
# ScenarioSpec
# ---------------------------------------------------------------------- #
#: key() token names, in canonical order, mapped to their dataclass fields.
_KEY_TOKENS = (
    ("scheme", "scheme"),
    ("trace", "trace"),
    ("topology", "topology"),
    ("workload", "workload"),
    ("seed", "seed"),
    ("model", "model_kind"),
    ("train", "model_topologies"),
    ("family", "property_family"),
    ("certify", "certify"),
)
_TOKEN_FIELDS = {token: field for token, field in _KEY_TOKENS}


@dataclass(frozen=True)
class ScenarioSpec:
    """One declarative scenario: the identity of a single experiment cell.

    ``trace`` is a trace *name* (resolvable via :func:`resolve_trace` when the
    name is from the bundled suites) and ``topology`` a family spec, so the
    whole value is plain strings/ints and travels freely through CLI flags,
    process pools, and JSON.  ``workload`` is a workload spec (who shares the
    network, and when; ``static`` = the legacy single-flow run).
    ``model_kind``/``model_topologies`` identify the learned model backing the
    scheme (``None`` for classical schemes), with ``model_topologies`` naming
    the *training-time* scenario catalog — independent of the evaluation-side
    ``topology``.  ``certify`` marks a certified run over ``property_family``.
    """

    scheme: str
    trace: str
    topology: str = DEFAULT_TOPOLOGY
    workload: str = DEFAULT_WORKLOAD
    seed: int = 1
    model_kind: Optional[str] = None
    model_topologies: Optional[Tuple[str, ...]] = None
    property_family: Optional[str] = None
    certify: bool = False

    def __post_init__(self) -> None:
        object.__setattr__(self, "seed", int(self.seed))
        if self.model_topologies is not None:
            object.__setattr__(self, "model_topologies", tuple(
                canonical_topology(spec)
                for spec in parse_topologies(self.model_topologies)))
        # Canonicalize the family and workload specs (fails fast on malformed
        # ones): "chain( 3 )" == "chain(3)" and "chain" == "chain(2)" name the
        # same topology, "responsive(cubic:1)" == "responsive(cubic)" the same
        # workload, so they must share one key (and contain no whitespace).
        object.__setattr__(self, "topology", canonical_topology(self.topology))
        object.__setattr__(self, "workload", canonical_workload(self.workload))
        for label, value in (("scheme", self.scheme), ("trace", self.trace),
                             ("model_kind", self.model_kind)):
            if value is not None and (not value or any(c in value for c in " \t\n=")):
                raise ValueError(f"{label} {value!r} must be non-empty and contain "
                                 "no whitespace or '=' (it travels in canonical keys)")
        if self.property_family is not None and self.property_family not in PROPERTY_FAMILIES:
            raise ValueError(f"unknown property family {self.property_family!r}; "
                             f"known: {sorted(PROPERTY_FAMILIES)}")
        if self.certify and self.model_kind is None:
            raise ValueError("certify=True requires a learned model_kind")
        if self.model_topologies is not None and self.model_kind is None:
            raise ValueError("model_topologies requires a learned model_kind")

    # ------------------------------------------------------------------ #
    # Canonical string form
    # ------------------------------------------------------------------ #
    def key(self) -> str:
        """The canonical one-line form; ``parse(spec.key()) == spec``.

        Optional fields are emitted only when set, so keys stay short for the
        common classical-scheme cells.
        """
        tokens = [f"scheme={self.scheme}", f"trace={self.trace}",
                  f"topology={self.topology}"]
        # The static workload is elided so every pre-workload key — and hence
        # every existing run-store cell — keeps its exact identity.
        if self.workload != DEFAULT_WORKLOAD:
            tokens.append(f"workload={self.workload}")
        tokens.append(f"seed={self.seed}")
        if self.model_kind is not None:
            tokens.append(f"model={self.model_kind}")
        if self.model_topologies is not None:
            tokens.append(f"train={','.join(self.model_topologies)}")
        if self.property_family is not None:
            tokens.append(f"family={self.property_family}")
        if self.certify:
            tokens.append("certify=1")
        return " ".join(tokens)

    def __str__(self) -> str:
        return self.key()

    @classmethod
    def parse(cls, text: str) -> "ScenarioSpec":
        """Parse the canonical ``key=value`` form back into a spec."""
        values: Dict[str, object] = {}
        for token in text.split():
            name, _, raw = token.partition("=")
            if not _ or name not in _TOKEN_FIELDS:
                raise ValueError(f"malformed scenario token {token!r}; "
                                 f"expected <key>=<value> with key in "
                                 f"{[t for t, _f in _KEY_TOKENS]}")
            field_name = _TOKEN_FIELDS[name]
            if field_name in values:
                raise ValueError(f"duplicate scenario token {name!r} in {text!r}")
            if field_name == "seed":
                values[field_name] = int(raw)
            elif field_name == "model_topologies":
                values[field_name] = parse_topologies(raw)
            elif field_name == "certify":
                try:
                    values[field_name] = parse_bool(raw)
                except ValueError:
                    raise ValueError(f"certify must be boolean-like, got {raw!r}") from None
            else:
                values[field_name] = raw
        for required in ("scheme", "trace"):
            if required not in values:
                raise ValueError(f"scenario spec {text!r} is missing {required}=...")
        return cls(**values)

    def replace(self, **axes) -> "ScenarioSpec":
        """A copy with the given fields changed, re-validated and re-canonical.

        Accepts dataclass field names *and* the ``key()`` token aliases
        (``model`` → ``model_kind``, ``train`` → ``model_topologies``,
        ``family`` → ``property_family``), so callers can speak either the
        canonical-key vocabulary or the field vocabulary.  Unknown names raise
        with the valid list.  The copy runs ``__post_init__`` again, so the
        result is canonicalized (topology/workload spellings collapse) and
        cross-field constraints (``certify`` needs a model, ...) still hold —
        ``spec.replace(**changes).key()`` is always a parseable canonical key.
        """
        field_names = {spec_field.name for spec_field in fields(self)}
        changes: Dict[str, object] = {}
        for name, value in axes.items():
            field_name = _TOKEN_FIELDS.get(name, name)
            if field_name not in field_names:
                valid = sorted(field_names | set(_TOKEN_FIELDS))
                raise ValueError(f"unknown scenario field {name!r}; valid: {valid}")
            if field_name in changes:
                raise ValueError(f"scenario field {field_name!r} set twice "
                                 f"(field name and token alias)")
            changes[field_name] = value
        return _dataclass_replace(self, **changes)

    # ------------------------------------------------------------------ #
    # JSON form
    # ------------------------------------------------------------------ #
    def to_json(self) -> Dict[str, object]:
        """A JSON-safe dict; :meth:`from_json` round-trips it exactly."""
        payload: Dict[str, object] = {
            "scheme": self.scheme,
            "trace": self.trace,
            "topology": self.topology,
            "workload": self.workload,
            "seed": self.seed,
            "model_kind": self.model_kind,
            "model_topologies": (list(self.model_topologies)
                                 if self.model_topologies is not None else None),
            "property_family": self.property_family,
            "certify": self.certify,
        }
        return payload

    @classmethod
    def from_json(cls, payload: Dict[str, object]) -> "ScenarioSpec":
        known = {field.name for field in fields(cls)}
        unknown = sorted(set(payload) - known)
        if unknown:
            raise ValueError(f"unknown ScenarioSpec fields {unknown}; known: {sorted(known)}")
        values = dict(payload)
        if values.get("model_topologies") is not None:
            values["model_topologies"] = tuple(values["model_topologies"])
        return cls(**values)

    def dumps(self) -> str:
        return json.dumps(self.to_json(), sort_keys=True)

    # ------------------------------------------------------------------ #
    # Derived quantities
    # ------------------------------------------------------------------ #
    def resolve(self) -> BandwidthTrace:
        """The concrete trace this spec names (bundled suites only)."""
        return resolve_trace(self.trace)
