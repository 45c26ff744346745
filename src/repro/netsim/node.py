"""Simulated routers: per-destination weighted packet splitting.

A :class:`SimNode` forwards each packet to a neighbor drawn according to
the current routing parameters :math:`\\phi^i_{jk}` — the packet-level
realization of Eq. (15)'s fractional allocation.  The routing parameters
come from a *provider* (anything with ``fractions(node, dest)``, e.g.
any :class:`repro.policy.RoutingPolicy`), so the data plane follows
allocation changes immediately without rebuilding anything.
"""

from __future__ import annotations

import random
from collections.abc import Mapping
from typing import Protocol

from repro.exceptions import SimulationError
from repro.graph.topology import NodeId
from repro.netsim.monitor import FlowMonitor, check_hop_limit, hop_limit
from repro.netsim.packet import Packet


class RoutingProvider(Protocol):
    """Anything that can answer "how do I split traffic at this router?"."""

    def fractions(self, node: NodeId, destination: NodeId) -> Mapping[NodeId, float]:
        """Routing parameters of ``node`` toward ``destination``."""
        ...


class StaticRouting:
    """A fixed phi mapping as a routing provider (tests, examples)."""

    def __init__(
        self, phi: Mapping[NodeId, Mapping[NodeId, Mapping[NodeId, float]]]
    ) -> None:
        self._phi = phi

    def fractions(self, node: NodeId, destination: NodeId) -> Mapping[NodeId, float]:
        return self._phi.get(node, {}).get(destination, {})


class SimNode:
    """One router in the packet simulator."""

    def __init__(
        self,
        node_id: NodeId,
        routing: RoutingProvider,
        flow_monitor: FlowMonitor,
        rng: random.Random,
        num_nodes: int,
    ) -> None:
        self.node_id = node_id
        self.routing = routing
        self.flow_monitor = flow_monitor
        self.rng = rng
        self.num_nodes = num_nodes
        self.max_hops = hop_limit(num_nodes)
        #: out_links[nbr] is installed by the network builder.
        self.out_links: dict[NodeId, "object"] = {}

    def bind_links(self, out_links: Mapping[NodeId, "object"]) -> None:
        self.out_links = dict(out_links)

    # ------------------------------------------------------------------
    def receive(self, packet: Packet, now: float) -> None:
        """A packet arrived at this router (from a link or injection)."""
        if packet.destination == self.node_id:
            self.flow_monitor.note_delivered(packet, now)
            return
        self.forward(packet)

    def forward(self, packet: Packet) -> None:
        """Pick a successor per the routing parameters and transmit."""
        packet.hops += 1
        if packet.hops > self.max_hops:  # raises, naming the loop
            check_hop_limit(packet, self.num_nodes, self.node_id)
        fractions = self.routing.fractions(self.node_id, packet.destination)
        choice = self._choose(fractions)
        if choice is None:
            self.flow_monitor.note_no_route()
            return
        link = self.out_links.get(choice)
        if link is None:
            raise SimulationError(
                f"router {self.node_id!r} routed to {choice!r} but has no "
                "such link"
            )
        link.send(packet)

    def _choose(self, fractions: Mapping[NodeId, float]) -> NodeId | None:
        """Weighted random successor; None when there is no route."""
        total = 0.0
        usable: list[tuple[NodeId, float]] = []
        for nbr, fraction in fractions.items():
            if fraction > 0.0 and nbr in self.out_links:
                usable.append((nbr, fraction))
                total += fraction
        if not usable:
            return None
        if len(usable) == 1:
            return usable[0][0]
        pick = self.rng.random() * total
        acc = 0.0
        for nbr, fraction in usable:
            acc += fraction
            if pick <= acc:
                return nbr
        return usable[-1][0]  # floating-point slack
