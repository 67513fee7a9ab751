"""The topology graph: :class:`Link` hops, flow :class:`Route`\\ s, and :class:`Topology`.

A topology is a DAG of link hops (each hop owns its own trace-driven
capacity, finite FIFO buffer, propagation-delay contribution, and random-loss
RNG), a route per flow mapping it onto a sequence of hops, and a set of
declarative cross-traffic sources.  The hop queue engine is the same
:class:`repro.cc.link.BottleneckLink` fluid model that powered the legacy
single-link simulator, so a one-hop topology reproduces the legacy dynamics
exactly (pinned by ``tests/test_topology_differential.py``).

Routes may fork and join: two flows can enter over different access links and
merge at a shared segment (incast), or share an uplink and diverge behind it
(trees).  The only structural requirement is that the union of all route
adjacencies is acyclic — :meth:`Topology.drain_order` computes a topological
order of the hops (preferring declaration order among ready hops, so linear
chains drain exactly as they always have) and the network simulator drains
hops in that order every tick.

Propagation follows the **delay-split convention**: a hop's ``delay`` is its
round-trip contribution to the path RTT.  When a chunk is forwarded out of a
non-terminal hop it spends that hop's *forward* share — ``delay / 2`` — in
the in-flight transit stage (:mod:`repro.topology.transit`) before entering
the next hop's FIFO, so a chunk can never traverse a multi-hop path inside
one tick.  The terminal hop's delivery schedules the ack after the
*remaining* return-path delay (the path RTT minus the forward shares already
incurred), so the ack always arrives one full path RTT plus accumulated
queuing after the send.  A one-hop route has no non-terminal hops, never
enters transit, and therefore charges its entire delay at ack time — exactly
the legacy single-link accounting, which is what keeps ``single_bottleneck``
and ``chain(1)`` bit-identical to the pre-topology simulator (pinned by
``tests/test_topology_differential.py``).

Flows without an explicit route fall back to ``route_cycle`` — a round-robin
catalog of entry routes (how the branching families hand each arriving flow
its own branch) — or, when no cycle is declared, to the full declaration-order
path (the right default for chains).
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from repro.cc.link import BottleneckLink
from repro.topology.cross_traffic import CrossTrafficSource
from repro.traces.trace import BandwidthTrace

__all__ = ["Link", "Route", "Topology"]


@dataclass
class Link:
    """One hop of a topology: a named FIFO queue plus its RTT contribution.

    ``delay`` is this hop's contribution to the end-to-end path RTT in
    seconds; the RTT of a route is the sum of its hops' delays, so a
    single-hop topology with ``delay == min_rtt`` matches the legacy
    single-link propagation model.  Under the delay-split convention (module
    docstring) the hop's forward one-way share is ``delay / 2`` — charged in
    transit when a chunk is forwarded out of it towards the next hop — and
    the remaining shares are charged when the ack returns.
    """

    name: str
    queue: BottleneckLink
    delay: float

    def __post_init__(self) -> None:
        if not self.name:
            raise ValueError("link name must be non-empty")
        if self.delay <= 0:
            raise ValueError("link delay must be positive")

    @classmethod
    def build(
        cls,
        name: str,
        trace: BandwidthTrace,
        delay: float,
        buffer_rtt: float,
        buffer_bdp: float = 1.0,
        buffer_packets: Optional[float] = None,
        random_loss_rate: float = 0.0,
        stochastic_loss: bool = False,
        seed: Optional[int] = None,
    ) -> "Link":
        """Construct a hop whose buffer is sized in BDP multiples of ``buffer_rtt``.

        ``buffer_rtt`` is usually the *path* RTT (not the hop delay) so that a
        one-hop topology sizes its buffer exactly like the legacy single link
        and multi-hop buffers stay comparable across families.
        """
        queue = BottleneckLink(
            trace,
            min_rtt=buffer_rtt,
            buffer_bdp=buffer_bdp,
            buffer_packets=buffer_packets,
            random_loss_rate=random_loss_rate,
            stochastic_loss=stochastic_loss,
            seed=seed,
        )
        return cls(name=name, queue=queue, delay=delay)


@dataclass(frozen=True)
class Route:
    """A flow's path: an ordered tuple of link names plus the summed RTT."""

    flow_id: int
    link_names: Tuple[str, ...]
    rtt: float

    def __post_init__(self) -> None:
        if not self.link_names:
            raise ValueError("route must traverse at least one link")


class Topology:
    """A DAG of link hops with per-flow routes and cross-traffic sources.

    Args:
        name: Family label used in reports (e.g. ``chain(3)``).
        links: Hops, conventionally declared upstream→downstream; names must
            be unique.  Declaration order breaks ties in the drain order, so
            for linear topologies it *is* the drain order.
        routes: Optional mapping of flow id to the link names it traverses, in
            order.  Flows without an explicit route draw from ``route_cycle``
            or, absent that, use the full path (all links in declaration
            order), which is the right default for chains.
        route_cycle: Optional catalog of entry routes assigned round-robin to
            flow ids without an explicit route (``route_cycle[flow_id % len]``)
            — how branching families (``fan_in``, ``tree``, ``shared_segment``)
            give every arriving flow its own branch.
        cross_traffic: Declarative background sources; their (negative) flow
            ids and paths are validated against the link set.
        bottleneck: Name of the hop whose trace defines the reference capacity
            (utilization denominators, capacity logs).  Defaults to the hop
            with the lowest mean capacity.

    The union of all route adjacencies (explicit routes, the route cycle,
    cross-traffic paths, and — when no route cycle is declared — the implicit
    full-path default) must be acyclic; a cycle raises ``ValueError``.
    """

    def __init__(
        self,
        name: str,
        links: Sequence[Link],
        routes: Optional[Dict[int, Sequence[str]]] = None,
        route_cycle: Optional[Sequence[Sequence[str]]] = None,
        cross_traffic: Sequence[CrossTrafficSource] = (),
        bottleneck: Optional[str] = None,
    ) -> None:
        if not links:
            raise ValueError("topology needs at least one link")
        names = [link.name for link in links]
        if len(set(names)) != len(names):
            raise ValueError("link names must be unique")
        self.name = name
        self.links: Dict[str, Link] = {link.name: link for link in links}
        self._order: List[str] = names

        self._routes: Dict[int, Tuple[str, ...]] = {}
        for flow_id, link_names in (routes or {}).items():
            self._routes[flow_id] = self._validated_path(tuple(link_names))

        self._route_cycle: Optional[List[Tuple[str, ...]]] = None
        if route_cycle is not None:
            if not route_cycle:
                raise ValueError("route_cycle must name at least one route")
            self._route_cycle = [self._validated_path(tuple(path)) for path in route_cycle]

        self.cross_traffic: List[CrossTrafficSource] = list(cross_traffic)
        seen_ids = set()
        for source in self.cross_traffic:
            if source.flow_id in seen_ids:
                raise ValueError(f"duplicate cross-traffic flow id {source.flow_id}")
            seen_ids.add(source.flow_id)
            self._validated_path(source.path)

        self._drain_order: List[str] = self._topological_order()

        if bottleneck is None:
            bottleneck = min(names, key=lambda n: self.links[n].queue.trace.mean_mbps)
        if bottleneck not in self.links:
            raise ValueError(f"unknown bottleneck link {bottleneck!r}")
        self.bottleneck_name = bottleneck

    # ------------------------------------------------------------------ #
    def _validated_path(self, path: Tuple[str, ...]) -> Tuple[str, ...]:
        if not path:
            raise ValueError("path must name at least one link")
        unknown = [n for n in path if n not in self.links]
        if unknown:
            raise ValueError(f"path references unknown links {unknown}")
        if len(set(path)) != len(path):
            raise ValueError(f"path {path} visits a link twice")
        return path

    def _route_adjacencies(self) -> List[Tuple[str, ...]]:
        """Every path whose hop-to-hop successor edges constrain the drain order."""
        paths: List[Tuple[str, ...]] = list(self._routes.values())
        if self._route_cycle is not None:
            paths.extend(self._route_cycle)
        else:
            # No route cycle: flows without an explicit route ride the full
            # declaration-order path, so its chain edges are constraints too
            # (this is what keeps legacy linear topologies drain-stable and
            # rejects routes that run against the chain).
            paths.append(tuple(self._order))
        paths.extend(source.path for source in self.cross_traffic)
        return paths

    def _topological_order(self) -> List[str]:
        """Kahn's algorithm over the route adjacencies, preferring declaration
        order among ready hops — identical to the declaration order whenever it
        is itself consistent (every pre-DAG family).

        The ready set is a min-heap of precomputed declaration indices, so
        each pop is O(log h) instead of the old ``min(ready,
        key=self._order.index)``, which re-scanned the declaration list for
        every candidate on every pop (quadratic in hop count, cubic with the
        inner ``list.index``).  The produced order is byte-identical: both
        extract the smallest declaration index first (pinned by
        ``tests/test_topology.py::TestTopologicalOrder``).
        """
        index_of = {name: index for index, name in enumerate(self._order)}
        successors: Dict[str, set] = {name: set() for name in self._order}
        indegree: Dict[str, int] = {name: 0 for name in self._order}
        for path in self._route_adjacencies():
            for upstream, downstream in zip(path, path[1:]):
                if downstream not in successors[upstream]:
                    successors[upstream].add(downstream)
                    indegree[downstream] += 1
        order: List[str] = []
        ready = [index_of[name] for name in self._order if indegree[name] == 0]
        heapq.heapify(ready)
        while ready:
            # Smallest declaration index first: deterministic, legacy-stable.
            name = self._order[heapq.heappop(ready)]
            order.append(name)
            for downstream in successors[name]:
                indegree[downstream] -= 1
                if indegree[downstream] == 0:
                    heapq.heappush(ready, index_of[downstream])
        if len(order) != len(self._order):
            cyclic = sorted(name for name, degree in indegree.items() if degree > 0)
            raise ValueError(f"routes form a cycle through links {cyclic}; "
                             "the union of route adjacencies must be a DAG")
        return order

    # ------------------------------------------------------------------ #
    # Queries
    # ------------------------------------------------------------------ #
    @property
    def ordered_links(self) -> List[Link]:
        """Hops in topological (drain) order — declaration order for chains."""
        return [self.links[name] for name in self._drain_order]

    @property
    def drain_order(self) -> List[str]:
        """Hop names in the order the simulator drains them each tick."""
        return list(self._drain_order)

    @property
    def link_names(self) -> List[str]:
        return list(self._order)

    def describe(self) -> Dict[str, object]:
        """The topology's identity as plain JSON-able fields.

        This is the payload of the one-time ``topology`` telemetry event a
        simulator emits at attach time: the name, the hops in drain order,
        and the designated bottleneck — what a trace renderer needs to label
        per-hop lanes without reaching back into live objects.
        """
        return {"name": self.name, "hops": list(self._drain_order),
                "bottleneck": self.bottleneck_name}

    @property
    def bottleneck(self) -> Link:
        """The hop whose trace defines the reference capacity."""
        return self.links[self.bottleneck_name]

    @property
    def n_hops(self) -> int:
        return len(self._order)

    def route_names(self, flow_id: int) -> Tuple[str, ...]:
        """The link names flow ``flow_id`` traverses.

        Explicit routes win; otherwise the route cycle hands the flow a branch
        round-robin (``flow_id % len(route_cycle)`` — Python's modulo keeps
        negative cross-traffic ids in range); with neither, the full
        declaration-order path (the chain default).
        """
        explicit = self._routes.get(flow_id)
        if explicit is not None:
            return explicit
        if self._route_cycle is not None:
            return self._route_cycle[flow_id % len(self._route_cycle)]
        return tuple(self._order)

    def route_links(self, flow_id: int) -> List[Link]:
        return [self.links[n] for n in self.route_names(flow_id)]

    def path_rtt(self, flow_id: int) -> float:
        """Summed propagation delay over the flow's route (seconds)."""
        return sum(link.delay for link in self.route_links(flow_id))

    def reset(self) -> None:
        for link in self.links.values():
            link.queue.reset()

    # ------------------------------------------------------------------ #
    # Constructors
    # ------------------------------------------------------------------ #
    @classmethod
    def single(cls, link: BottleneckLink, name: str = "single_bottleneck") -> "Topology":
        """Wrap one legacy :class:`BottleneckLink` as a one-hop topology.

        The hop's delay is the link's ``min_rtt``, so route RTTs — and hence
        ack timing — are identical to the legacy single-link simulator.
        """
        hop = Link(name="bottleneck", queue=link, delay=link.min_rtt)
        return cls(name=name, links=[hop], bottleneck="bottleneck")
