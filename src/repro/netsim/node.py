"""Simulated routers: per-destination weighted packet splitting.

A :class:`SimNode` forwards each packet to a neighbor drawn according to
the routing parameters :math:`\\phi^i_{jk}` — the packet-level
realization of Eq. (15)'s fractional allocation.  Each node holds its
own row of a policy's ``phi()`` in :attr:`SimNode.routes`, installed by
:meth:`~repro.netsim.network.PacketNetwork.route`: the parameters change
only between epochs, so every hop of an epoch reads the same read-only
entries.
"""

from __future__ import annotations

import random
from collections.abc import Mapping

from repro.exceptions import SimulationError
from repro.graph.topology import NodeId
from repro.netsim.monitor import FlowMonitor, check_hop_limit, hop_limit
from repro.netsim.packet import Packet

#: The split of a destination the node has no route to.
_NO_ROUTE: Mapping[NodeId, float] = {}


class SimNode:
    """One router in the packet simulator."""

    def __init__(
        self,
        node_id: NodeId,
        flow_monitor: FlowMonitor,
        rng: random.Random,
        num_nodes: int,
    ) -> None:
        self.node_id = node_id
        #: routes[dest][nbr]: this router's split fractions (read-only).
        self.routes: Mapping[NodeId, Mapping[NodeId, float]] = {}
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
        choice = self._choose(self.routes.get(packet.destination, _NO_ROUTE))
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
