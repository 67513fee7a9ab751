"""Workload specifications: *who shares the network, and when*, as a string.

A workload spec is a compact string — ``static``, ``responsive(cubic:2)``,
``poisson(0.1)``, ``step(2-6:4-8)`` — that :func:`build_workload` (in
:mod:`repro.workload.build`) expands into concrete closed-loop background
flows around an evaluation run.  Like topology family specs, workload specs
are plain strings so they travel freely through
:class:`~repro.harness.spec.ScenarioSpec` keys, ``--set workload=...`` axis
overrides, CLI flags, and bench JSON.  The grammar is deliberately
*comma-free* so a comma-separated axis list (``--set
workload=static,poisson(0.1)``) splits cleanly into individual specs.

Kinds
-----

``static``
    No background workload (the legacy single-flow evaluation; default).

``responsive(scheme)`` / ``responsive(scheme:n)``
    ``n`` (default 1) closed-loop background flows running a classical
    congestion controller (``cubic``, ``newreno``, ``vegas``, ``bbr``) for
    the whole run.  Unlike the open-loop CBR/on-off cross traffic, these
    flows *react* to loss and delay in the shared FIFO queues — the Fig. 14
    friendliness setup, generalized to any scenario cell.

``poisson(rate)`` / ``poisson(rate:scheme)``
    Flow churn: background flows of ``scheme`` (default ``cubic``) arrive as
    a seeded Poisson process of ``rate`` flows/second and each departs after
    a seeded exponential lifetime — flows start and stop mid-run.

``step(a-b)`` / ``step(a-b:c-d:...)`` / ``step(a-b:...:scheme)``
    Scripted churn: one background flow per ``start-stop`` window (an empty
    stop, ``step(2-)``, runs to the end of the experiment).  An optional
    trailing token names the background scheme (default ``cubic``).

Besides the classical controllers, every kind accepts the scheme ``self``: a
background flow running a fresh controller of the scheme under test, built
from the cell's own factory.  ``step(12-:24-:self)`` is the Fig. 15 setup —
homogeneous flows joining every 12 s.  ``self`` is not in
:data:`WORKLOAD_SCHEMES`, so :func:`mutate_workload` never proposes it.

Every spec has one canonical form (:func:`canonical_workload`) — defaults
elided, numbers ``%g``-formatted — so two spellings of the same workload
never split a scenario key.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import List, Optional, Tuple

__all__ = [
    "WORKLOAD_KINDS",
    "WORKLOAD_SCHEMES",
    "DEFAULT_WORKLOAD",
    "DEFAULT_WORKLOAD_SCHEME",
    "SELF_SCHEME",
    "WorkloadSpec",
    "parse_workload",
    "canonical_workload",
    "mutate_workload",
    "workload_specs",
]

#: Workload kinds accepted by :func:`parse_workload`.
WORKLOAD_KINDS = ("static", "responsive", "poisson", "step")

#: Classical controllers a background flow may run (kept in sync with
#: :data:`repro.workload.flows.CONTROLLER_FACTORIES`).
WORKLOAD_SCHEMES = ("cubic", "newreno", "vegas", "bbr")

#: The workload every evaluation uses unless told otherwise (legacy behaviour).
DEFAULT_WORKLOAD = "static"

#: The controller backing background flows when the spec names none.
DEFAULT_WORKLOAD_SCHEME = "cubic"

#: The background scheme that runs the cell's own controller (see above).
SELF_SCHEME = "self"

_SPEC_RE = re.compile(r"^\s*([a-z_]+)\s*(?:\(\s*([^()]*?)\s*\))?\s*$")
_WINDOW_RE = re.compile(r"^(\d+(?:\.\d+)?)-(\d+(?:\.\d+)?)?$")


def _format_number(value: float) -> str:
    return f"{value:g}"


@dataclass(frozen=True)
class WorkloadSpec:
    """One parsed workload: kind plus the knobs that kind uses.

    ``windows`` carries the scripted ``step`` lifetimes as ``(start, stop)``
    pairs (``stop=None`` = until the end of the run); ``rate`` is the Poisson
    arrival rate in flows/second; ``count`` the number of always-on
    responsive flows.
    """

    kind: str
    scheme: str = DEFAULT_WORKLOAD_SCHEME
    count: int = 1
    rate: float = 0.0
    windows: Tuple[Tuple[float, Optional[float]], ...] = ()

    def __post_init__(self) -> None:
        if self.kind not in WORKLOAD_KINDS:
            raise ValueError(f"unknown workload kind {self.kind!r}; known: {WORKLOAD_KINDS}")
        if self.scheme not in WORKLOAD_SCHEMES + (SELF_SCHEME,):
            raise ValueError(f"unknown workload scheme {self.scheme!r}; "
                             f"known: {WORKLOAD_SCHEMES + (SELF_SCHEME,)}")
        if self.kind == "responsive" and self.count < 1:
            raise ValueError("responsive workload needs count >= 1")
        if self.kind == "poisson" and self.rate <= 0:
            raise ValueError("poisson workload needs rate > 0")
        if self.kind == "step":
            if not self.windows:
                raise ValueError("step workload needs at least one start-stop window")
            for start, stop in self.windows:
                if start < 0:
                    raise ValueError("step window start must be non-negative")
                if stop is not None and stop <= start:
                    raise ValueError(f"step window {start:g}-{stop:g} must end after it starts")

    # ------------------------------------------------------------------ #
    def canonical(self) -> str:
        """The one canonical spelling (defaults elided, numbers ``%g``)."""
        if self.kind == "static":
            return "static"
        if self.kind == "responsive":
            if self.count == 1:
                return f"responsive({self.scheme})"
            return f"responsive({self.scheme}:{self.count})"
        if self.kind == "poisson":
            if self.scheme == DEFAULT_WORKLOAD_SCHEME:
                return f"poisson({_format_number(self.rate)})"
            return f"poisson({_format_number(self.rate)}:{self.scheme})"
        windows = ":".join(
            f"{_format_number(start)}-" if stop is None
            else f"{_format_number(start)}-{_format_number(stop)}"
            for start, stop in self.windows)
        if self.scheme != DEFAULT_WORKLOAD_SCHEME:
            windows += f":{self.scheme}"
        return f"step({windows})"

    def __str__(self) -> str:
        return self.canonical()


# ---------------------------------------------------------------------- #
# Parsing
# ---------------------------------------------------------------------- #
def _parse_step_windows(body: str) -> Tuple[Tuple[float, Optional[float]], ...]:
    windows: List[Tuple[float, Optional[float]]] = []
    for part in body.split(":"):
        part = part.strip()
        match = _WINDOW_RE.match(part)
        if match is None:
            raise ValueError(f"malformed step window {part!r}; expected start-stop "
                             "(e.g. 2-6) or start- for an open end")
        start = float(match.group(1))
        stop = float(match.group(2)) if match.group(2) is not None else None
        windows.append((start, stop))
    return tuple(windows)


def parse_workload(spec: str) -> WorkloadSpec:
    """Parse a workload spec string; raises ``ValueError`` on malformed specs."""
    match = _SPEC_RE.match(spec or "")
    if match is None:
        raise ValueError(f"malformed workload spec {spec!r}; expected 'kind' or 'kind(args)'")
    kind, body = match.group(1), match.group(2)
    if kind not in WORKLOAD_KINDS:
        raise ValueError(f"unknown workload kind {kind!r}; known: {WORKLOAD_KINDS}")
    if kind == "static":
        if body is not None:
            raise ValueError("static takes no arguments")
        return WorkloadSpec(kind="static")
    if body is None or not body.strip():
        raise ValueError(f"workload kind {kind!r} needs arguments, e.g. "
                         "responsive(cubic:2), poisson(0.1), step(2-6)")
    body = body.strip()
    if kind == "responsive":
        scheme, _, raw_count = body.partition(":")
        count = 1
        if raw_count:
            try:
                count = int(raw_count)
            except ValueError:
                raise ValueError(f"responsive count must be an integer, got {raw_count!r}") from None
        return WorkloadSpec(kind="responsive", scheme=scheme.strip(), count=count)
    if kind == "poisson":
        raw_rate, _, scheme = body.partition(":")
        try:
            rate = float(raw_rate)
        except ValueError:
            raise ValueError(f"poisson rate must be a number, got {raw_rate!r}") from None
        return WorkloadSpec(kind="poisson", rate=rate,
                            scheme=scheme.strip() or DEFAULT_WORKLOAD_SCHEME)
    head, _, last = body.rpartition(":")
    if head and last.strip()[:1].isalpha():
        return WorkloadSpec(kind="step", windows=_parse_step_windows(head),
                            scheme=last.strip())
    return WorkloadSpec(kind="step", windows=_parse_step_windows(body))


def canonical_workload(spec: str) -> str:
    """The canonical form of a workload spec: ``" responsive( cubic:1 ) "`` →
    ``"responsive(cubic)"``.  Two specs that build the same workload
    canonicalize to the same string, so scenario keys never split cells."""
    return parse_workload(spec).canonical()


def workload_specs() -> List[str]:
    """Representative specs for listings and sweeps (one per kind)."""
    return ["static", "responsive(cubic:2)", "poisson(0.25)", "step(2-6)"]


# ---------------------------------------------------------------------- #
# Mutation (the falsification search's workload move)
# ---------------------------------------------------------------------- #
#: Poisson arrival rates (flows/s) :func:`mutate_workload` introduces; rate
#: mutations stay within [min, 2*max] so canonical forms keep short %g forms.
_MUTATION_RATES = (0.05, 0.1, 0.25, 0.5, 1.0)

#: Ceiling on always-on responsive background flows a mutation may reach.
_MUTATION_MAX_FLOWS = 4

#: Most step windows a mutation may script (each is one background flow).
_MUTATION_MAX_WINDOWS = 3


def _pick(rng, options):
    return options[int(rng.integers(len(options)))]


def mutate_workload(spec: str, rng) -> str:
    """One seeded mutation step over the workload grammar; returns a canonical spec.

    ``rng`` is a ``numpy.random.Generator`` (only ``integers``/``random`` are
    called, so any duck-typed equivalent works).  Every move keeps the result
    inside the validated grammar — kind switches (``static`` ↔ churn), scheme
    swaps, flow-count/rate scaling on a fixed grid, and step-window
    shift/add/drop — so the falsification search can walk the workload axis
    without ever proposing a spec :func:`parse_workload` would reject.  The
    result may occasionally equal the input (a shift clipped at a bound);
    callers dedupe by scenario key.
    """
    current = parse_workload(spec)
    if current.kind == "static":
        kind = _pick(rng, ("responsive", "poisson", "step"))
        if kind == "responsive":
            mutated = WorkloadSpec(kind="responsive", scheme=_pick(rng, WORKLOAD_SCHEMES),
                                   count=int(rng.integers(1, _MUTATION_MAX_FLOWS + 1)))
        elif kind == "poisson":
            mutated = WorkloadSpec(kind="poisson", rate=_pick(rng, _MUTATION_RATES),
                                   scheme=_pick(rng, WORKLOAD_SCHEMES))
        else:
            start = float(int(rng.integers(0, 4)))
            length = float(int(rng.integers(2, 7)))
            mutated = WorkloadSpec(kind="step", windows=((start, start + length),))
    elif current.kind == "responsive":
        move = _pick(rng, ("count", "scheme", "kind"))
        if move == "count":
            delta = 1 if current.count == 1 else int(_pick(rng, (-1, 1)))
            count = min(max(current.count + delta, 1), _MUTATION_MAX_FLOWS)
            mutated = WorkloadSpec(kind="responsive", scheme=current.scheme, count=count)
        elif move == "scheme":
            others = [s for s in WORKLOAD_SCHEMES if s != current.scheme]
            mutated = WorkloadSpec(kind="responsive", scheme=_pick(rng, others),
                                   count=current.count)
        else:
            mutated = WorkloadSpec(kind="poisson", rate=_pick(rng, _MUTATION_RATES),
                                   scheme=current.scheme)
    elif current.kind == "poisson":
        move = _pick(rng, ("rate", "scheme", "kind"))
        if move == "rate":
            scale = _pick(rng, (0.5, 2.0))
            rate = min(max(current.rate * scale, _MUTATION_RATES[0]),
                       2.0 * _MUTATION_RATES[-1])
            mutated = WorkloadSpec(kind="poisson", rate=rate, scheme=current.scheme)
        elif move == "scheme":
            others = [s for s in WORKLOAD_SCHEMES if s != current.scheme]
            mutated = WorkloadSpec(kind="poisson", rate=current.rate,
                                   scheme=_pick(rng, others))
        else:
            mutated = WorkloadSpec(kind="responsive", scheme=current.scheme,
                                   count=int(rng.integers(1, _MUTATION_MAX_FLOWS + 1)))
    else:  # step
        move = _pick(rng, ("shift", "add", "drop"))
        windows = list(current.windows)
        if move == "drop" and len(windows) > 1:
            windows.pop(int(rng.integers(len(windows))))
        elif move == "add" and len(windows) < _MUTATION_MAX_WINDOWS:
            anchor = windows[-1][0]
            start = anchor + float(int(rng.integers(1, 4)))
            windows.append((start, start + float(int(rng.integers(2, 5)))))
        else:  # shift — also the fallback when add/drop sits at its bound
            index = int(rng.integers(len(windows)))
            start, stop = windows[index]
            shift = float(_pick(rng, (-1.0, 1.0)))
            start = max(0.0, start + shift)
            if stop is not None:
                stop = max(start + 1.0, stop + shift)
            windows[index] = (start, stop)
        windows.sort(key=lambda w: (w[0], w[1] if w[1] is not None else float("inf")))
        mutated = WorkloadSpec(kind="step", windows=tuple(windows), scheme=current.scheme)
    return mutated.canonical()
