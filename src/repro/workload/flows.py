"""Responsive cross flows: closed-loop background traffic.

The open-loop cross-traffic generators in :mod:`repro.topology.cross_traffic`
offer a fixed rate no matter what the network does.  A
:class:`ResponsiveCrossFlow` instead wraps one of the classical ``cc/``
controllers (CUBIC, NewReno, Vegas, BBR) as a *real* :class:`~repro.cc.flow.Flow`
competing in the same FIFO queues as the flow under test: it backs off on
loss, probes for bandwidth, and — with a partial lifetime — joins and leaves
the network mid-run.  This is the Fig. 14 friendliness competitor generalized
into a declarative, sweepable scenario ingredient.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, Optional

from repro.cc.base import CongestionController
from repro.cc.bbr import BBRController
from repro.cc.cubic import CubicController
from repro.cc.flow import Flow
from repro.cc.newreno import NewRenoController
from repro.cc.vegas import VegasController
from repro.workload.spec import SELF_SCHEME

__all__ = ["CONTROLLER_FACTORIES", "ResponsiveCrossFlow"]

#: Classical controller constructors by scheme name (the responsive analogue
#: of the generator catalog in :mod:`repro.topology.cross_traffic`).
CONTROLLER_FACTORIES: Dict[str, Callable[[], CongestionController]] = {
    "cubic": CubicController,
    "newreno": NewRenoController,
    "vegas": VegasController,
    "bbr": BBRController,
}


@dataclass(frozen=True)
class ResponsiveCrossFlow:
    """One closed-loop background flow, declaratively.

    ``flow_id`` must be >= 1: id 0 is the flow under test, and negative ids
    stay reserved for the open-loop cross-traffic sources (reports key rows
    by flow id).  ``start_time`` / ``stop_time`` bound the flow's lifetime
    (``stop_time=None`` = run end), so churned workloads express arrivals and
    departures directly.  The scheme ``self`` runs the controller of the flow
    under test, so :meth:`build` needs that flow's factory.
    """

    scheme: str
    flow_id: int
    start_time: float = 0.0
    stop_time: Optional[float] = None

    def __post_init__(self) -> None:
        if self.flow_id < 1:
            raise ValueError("responsive cross flows need flow_id >= 1 "
                             "(0 is the flow under test, negative ids are "
                             "open-loop cross traffic)")
        if self.scheme != SELF_SCHEME and self.scheme not in CONTROLLER_FACTORIES:
            raise ValueError(f"unknown responsive scheme {self.scheme!r}; "
                             f"known: {sorted(CONTROLLER_FACTORIES)} or {SELF_SCHEME!r}")
        if self.start_time < 0:
            raise ValueError("start_time must be non-negative")
        if self.stop_time is not None and self.stop_time <= self.start_time:
            raise ValueError("stop_time must exceed start_time")

    def build(self, own_factory: Optional[Callable[[], CongestionController]] = None) -> Flow:
        """A fresh :class:`Flow` (new controller instance) for one run.

        ``own_factory`` builds the controller of the flow under test; only a
        ``self`` flow uses it, and it must be given for one.
        """
        if self.scheme == SELF_SCHEME:
            if own_factory is None:
                raise ValueError("a 'self' background flow needs the factory of the "
                                 "flow under test")
            controller = own_factory()
        else:
            controller = CONTROLLER_FACTORIES[self.scheme]()
        return Flow(self.flow_id, controller,
                    start_time=self.start_time, stop_time=self.stop_time)
