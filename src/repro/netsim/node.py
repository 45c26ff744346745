"""Simulated routers: per-destination weighted packet splitting.

A :class:`SimNode` forwards each packet to a neighbor drawn according to
the routing parameters :math:`\\phi^i_{jk}` — the packet-level
realization of Eq. (15)'s fractional allocation.  The parameters change
only between epochs, so :meth:`SimNode.install`, called by
:meth:`~repro.netsim.network.PacketNetwork.route` once per epoch,
compiles the router's row of a policy's ``phi()`` into a forwarding
table.  For each destination it holds nothing (no route), the one
out-link (no draw), or the out-links with the running sums of their
fractions, over which a hop makes one draw and one bisection.  A hop is
one call, :meth:`SimNode.receive`: deliver the packet, or count the hop
and hand it to the link the table names.
"""

from __future__ import annotations

import math
import random
from bisect import bisect_left
from collections.abc import Mapping

from repro.exceptions import AllocationError
from repro.fluid.evaluator import NORMALIZATION_TOLERANCE
from repro.graph.topology import NodeId
from repro.netsim.engine import Engine
from repro.netsim.monitor import FlowMonitor, check_hop_limit, hop_limit
from repro.netsim.packet import Packet


class SimNode:
    """One router in the packet simulator."""

    def __init__(
        self,
        node_id: NodeId,
        engine: Engine,
        flow_monitor: FlowMonitor,
        rng: random.Random,
        num_nodes: int,
    ) -> None:
        self.node_id = node_id
        self.engine = engine
        #: routes[dest][nbr]: the installed row of split fractions (read-only).
        self.routes: Mapping[NodeId, Mapping[NodeId, float]] = {}
        #: next_hop[dest]: routes[dest] compiled — the one out-link, or a
        #: tuple of out-links and the running sums of their fractions;
        #: absent when there is no route.
        self.next_hop: dict[NodeId, object] = {}
        self.flow_monitor = flow_monitor
        self.rng = rng
        self.num_nodes = num_nodes
        self.max_hops = hop_limit(num_nodes)
        #: out_links[nbr] is installed by the network builder.
        self.out_links: dict[NodeId, "object"] = {}

    def bind_links(self, out_links: Mapping[NodeId, "object"]) -> None:
        """Set the out-links; call before the first :meth:`install`."""
        self.out_links = dict(out_links)

    def install(self, row: Mapping[NodeId, Mapping[NodeId, float]]) -> None:
        """Forward by ``row`` (``phi[node]``) until the next call.

        An entry that is the installed row's object for its destination
        keeps its compiled hop: entries are replaced, never edited.  The
        others are compiled, and destinations ``row`` lacks are dropped.
        """
        previous, compiled = self.routes, self.next_hop
        next_hop = {}
        for destination, entry in row.items():
            if previous.get(destination) is entry:
                hop = compiled.get(destination)
            else:
                hop = self._compile(destination, entry)
            if hop is not None:
                next_hop[destination] = hop
        self.routes, self.next_hop = row, next_hop

    def _compile(
        self, destination: NodeId, entry: Mapping[NodeId, float]
    ) -> object | None:
        """The forwarding entry of ``entry``, over the successors with a
        positive fraction and a link; None when there are none.

        Raises:
            AllocationError: a fraction is NaN, infinite or negative
                beyond the normalisation tolerance (zero and smaller
                residue are never used).
        """
        links = []
        sums = []
        total = 0.0
        for nbr, fraction in entry.items():
            # False for NaN too.
            if not -NORMALIZATION_TOLERANCE <= fraction < math.inf:
                raise AllocationError(
                    f"phi[{self.node_id!r}][{destination!r}][{nbr!r}] = "
                    f"{fraction!r} is not a finite, non-negative fraction"
                )
            link = self.out_links.get(nbr)
            if fraction > 0.0 and link is not None:
                total += fraction
                links.append(link)
                sums.append(total)
        if not links:
            return None
        if len(links) == 1:
            return links[0]
        return tuple(links), tuple(sums)

    # ------------------------------------------------------------------
    def receive(self, packet: Packet) -> None:
        """A packet arrived here, from a link or its source: deliver it,
        or count the hop and send it on the link the table names."""
        destination = packet.destination
        if destination == self.node_id:
            self.flow_monitor.note_delivered(packet, self.engine.now)
            return
        packet.hops += 1
        if packet.hops > self.max_hops:  # raises, naming the loop
            check_hop_limit(packet, self.num_nodes, self.node_id)
        hop = self.next_hop.get(destination)
        if hop is None:
            self.flow_monitor.note_no_route()
            return
        if hop.__class__ is tuple:
            links, sums = hop
            # The first running sum at or above the pick: the neighbor a
            # linear scan of the fractions would stop at.
            i = bisect_left(sums, self.rng.random() * sums[-1])
            hop = links[i] if i < len(links) else links[-1]  # fp slack
        hop.send(packet)
