"""Multi-bottleneck network topologies: link graphs, routes, and cross traffic.

This package generalizes the single shared :class:`~repro.cc.link.BottleneckLink`
into a first-class, sweepable topology abstraction:

* :class:`~repro.topology.graph.Link` — one hop: a trace-driven FIFO queue
  plus its propagation-delay contribution to the path RTT.
* :class:`~repro.topology.graph.Topology` — an ordered hop graph with
  per-flow :class:`~repro.topology.graph.Route`\\ s and declarative
  cross-traffic sources.
* :mod:`~repro.topology.families` — the sweepable catalog
  (``single_bottleneck``, ``chain(n)``, ``parking_lot(n)``, ``dumbbell``)
  parsed from plain-string specs.
* :mod:`~repro.topology.cross_traffic` — constant-bit-rate and on/off
  background sources.
* :mod:`~repro.topology.transit` — the in-flight propagation stage between
  hops (each non-terminal hop's forward ``delay / 2`` share is spent on the
  wire before the chunk reaches the next FIFO).

:class:`repro.cc.netsim.NetworkSimulator` drives any topology; a one-hop
``single_bottleneck`` reproduces the legacy single-link trajectory exactly.
"""

# Load the congestion-control substrate first: repro.traces and repro.cc
# import each other, and entering the cycle from the traces side (which the
# submodule imports below would otherwise do) fails on a cold interpreter.
# Importing repro.cc first resolves the cycle (trace.py only needs the
# already-complete repro.cc.base).
import repro.cc  # noqa: F401  (import-order guard, see above)

from repro.topology.cross_traffic import ConstantBitRate, CrossTrafficSource, OnOff, TrafficGenerator
from repro.topology.families import (
    DEFAULT_TOPOLOGY,
    TOPOLOGY_FAMILIES,
    build_topology,
    parse_topology,
    topology_family_specs,
)
from repro.topology.graph import Link, Route, Topology
from repro.topology.transit import TransitQueue

__all__ = [
    "Link",
    "Route",
    "Topology",
    "TransitQueue",
    "ConstantBitRate",
    "OnOff",
    "TrafficGenerator",
    "CrossTrafficSource",
    "TOPOLOGY_FAMILIES",
    "DEFAULT_TOPOLOGY",
    "build_topology",
    "parse_topology",
    "topology_family_specs",
]
