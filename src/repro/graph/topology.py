"""Network topology model.

A :class:`Topology` is a set of nodes joined by *directed* links.  Every
link carries the two physical attributes the paper's delay model needs:

- ``capacity`` — transmission capacity :math:`C_{ik}` in packets per
  second (see :mod:`repro.units`: the library works in packet units so
  the M/M/1 term :math:`1/(C-f)` is a per-packet delay);
- ``prop_delay`` — propagation delay :math:`\\tau_{ik}` in seconds.

Links in the paper are bidirectional "with possibly different costs in
each direction" (Section 2.1), so the usual way to build a network is
:meth:`Topology.add_duplex_link`, which creates the two directed links at
once.  Dynamic link *costs* (marginal delays) are deliberately not stored
here: they belong to the routing layer and are passed around as explicit
cost maps, so one immutable topology can back many concurrent experiments.
"""

from __future__ import annotations

import math
from collections.abc import Hashable, Iterator
from dataclasses import dataclass

from repro.exceptions import TopologyError

NodeId = Hashable
LinkId = tuple[NodeId, NodeId]

#: Default link capacity: 10 Mb/s in packets/s (1250 pkt/s at 1000-byte
#: packets) — the cap the paper applies to CAIRN "so that it becomes
#: easy to sufficiently load the networks".
DEFAULT_CAPACITY = 1250.0

#: Default propagation delay: 1 ms, typical of the paper's regional links.
DEFAULT_PROP_DELAY = 1e-3


@dataclass(frozen=True)
class Link:
    """A directed link ``head -> tail``.

    The names follow the paper's LSU triplet ``[h, t, d]``: ``head`` is the
    router the link leaves, ``tail`` the router it enters.
    """

    head: NodeId
    tail: NodeId
    capacity: float = DEFAULT_CAPACITY
    prop_delay: float = DEFAULT_PROP_DELAY

    def __post_init__(self) -> None:
        if self.head == self.tail:
            raise TopologyError(f"self-loop link at node {self.head!r}")
        # Chained comparisons are False for NaN, so NaN fails both.
        if not 0 < self.capacity < math.inf:
            raise TopologyError(
                f"link {self.head!r}->{self.tail!r}: capacity must be "
                f"positive and finite, got {self.capacity!r}"
            )
        if not 0 <= self.prop_delay < math.inf:
            raise TopologyError(
                f"link {self.head!r}->{self.tail!r}: propagation delay must "
                f"be non-negative and finite, got {self.prop_delay!r}"
            )

    @property
    def link_id(self) -> LinkId:
        """The ``(head, tail)`` pair identifying this link."""
        return (self.head, self.tail)

    def reversed(self) -> "Link":
        """The same physical link in the opposite direction."""
        return Link(self.tail, self.head, self.capacity, self.prop_delay)


class Topology:
    """A directed network graph with link capacities and propagation delays.

    Nodes may be any hashable values; the paper's topologies use strings
    (CAIRN site names) and small integers (NET1).  Iteration orders are
    deterministic (insertion order) so that simulations are reproducible.
    """

    def __init__(self, name: str = "net") -> None:
        self.name = name
        self._nodes: dict[NodeId, None] = {}
        self._succ: dict[NodeId, dict[NodeId, Link]] = {}

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------
    def add_node(self, node: NodeId) -> None:
        """Add ``node`` if not already present."""
        if node not in self._nodes:
            self._nodes[node] = None
            self._succ[node] = {}

    def add_link(
        self,
        head: NodeId,
        tail: NodeId,
        capacity: float = DEFAULT_CAPACITY,
        prop_delay: float = DEFAULT_PROP_DELAY,
    ) -> Link:
        """Add the directed link ``head -> tail``, creating nodes as needed.

        Re-adding an existing link replaces its attributes.
        """
        link = Link(head, tail, capacity, prop_delay)
        self.add_node(head)
        self.add_node(tail)
        self._succ[head][tail] = link
        return link

    def add_duplex_link(
        self,
        a: NodeId,
        b: NodeId,
        capacity: float = DEFAULT_CAPACITY,
        prop_delay: float = DEFAULT_PROP_DELAY,
    ) -> tuple[Link, Link]:
        """Add the bidirectional link ``a <-> b`` (two directed links)."""
        forward = self.add_link(a, b, capacity, prop_delay)
        backward = self.add_link(b, a, capacity, prop_delay)
        return forward, backward

    def remove_link(self, head: NodeId, tail: NodeId) -> None:
        """Remove the directed link ``head -> tail``."""
        try:
            del self._succ[head][tail]
        except KeyError:
            raise TopologyError(f"no link {head!r}->{tail!r}") from None

    def remove_duplex_link(self, a: NodeId, b: NodeId) -> None:
        """Remove both directions of the link ``a <-> b``."""
        self.remove_link(a, b)
        self.remove_link(b, a)

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------
    @property
    def nodes(self) -> list[NodeId]:
        """All nodes, in insertion order."""
        return list(self._nodes)

    @property
    def num_nodes(self) -> int:
        return len(self._nodes)

    @property
    def num_links(self) -> int:
        return sum(len(out) for out in self._succ.values())

    def has_node(self, node: NodeId) -> bool:
        return node in self._nodes

    def has_link(self, head: NodeId, tail: NodeId) -> bool:
        return head in self._succ and tail in self._succ[head]

    def link(self, head: NodeId, tail: NodeId) -> Link:
        """The :class:`Link` ``head -> tail``; raises if absent."""
        try:
            return self._succ[head][tail]
        except KeyError:
            raise TopologyError(f"no link {head!r}->{tail!r}") from None

    def links(self) -> Iterator[Link]:
        """All directed links, deterministically ordered."""
        for out in self._succ.values():
            yield from out.values()

    def neighbors(self, node: NodeId) -> list[NodeId]:
        """Out-neighbors of ``node`` (the set :math:`N^i` of the paper)."""
        self._require_node(node)
        return list(self._succ[node])

    def out_links(self, node: NodeId) -> list[Link]:
        """Links leaving ``node``."""
        self._require_node(node)
        return list(self._succ[node].values())

    def degree(self, node: NodeId) -> int:
        """Out-degree of ``node`` (equals the undirected degree for duplex
        topologies)."""
        self._require_node(node)
        return len(self._succ[node])

    def _require_node(self, node: NodeId) -> None:
        if node not in self._nodes:
            raise TopologyError(f"unknown node {node!r}")

    # ------------------------------------------------------------------
    # whole-graph properties
    # ------------------------------------------------------------------
    def is_symmetric(self) -> bool:
        """True if every link has a reverse link (bidirectional network)."""
        return all(self.has_link(ln.tail, ln.head) for ln in self.links())

    def is_connected(self) -> bool:
        """True if every node reaches every other node over directed links."""
        nodes = self.nodes
        if len(nodes) <= 1:
            return True
        reach = self._bfs_hops(nodes[0])
        if len(reach) != len(nodes):
            return False
        if self.is_symmetric():
            return True
        return all(len(self._bfs_hops(n)) == len(nodes) for n in nodes[1:])

    def diameter(self) -> int:
        """Hop-count diameter; raises :class:`TopologyError` if disconnected."""
        best = 0
        for node in self.nodes:
            hops = self._bfs_hops(node)
            if len(hops) != self.num_nodes:
                raise TopologyError(f"{self.name}: graph is not connected")
            best = max(best, max(hops.values()))
        return best

    def _bfs_hops(self, source: NodeId) -> dict[NodeId, int]:
        hops = {source: 0}
        frontier = [source]
        while frontier:
            nxt: list[NodeId] = []
            for node in frontier:
                for nbr in self._succ[node]:
                    if nbr not in hops:
                        hops[nbr] = hops[node] + 1
                        nxt.append(nbr)
            frontier = nxt
        return hops

    # ------------------------------------------------------------------
    # misc
    # ------------------------------------------------------------------
    def copy(self, name: str | None = None) -> "Topology":
        """An independent copy of this topology."""
        dup = Topology(name if name is not None else self.name)
        for node in self.nodes:
            dup.add_node(node)
        for ln in self.links():
            dup.add_link(ln.head, ln.tail, ln.capacity, ln.prop_delay)
        return dup

    def uniform_costs(self, cost: float = 1.0) -> dict[LinkId, float]:
        """A cost map assigning ``cost`` to every link (hop-count routing)."""
        return {ln.link_id: cost for ln in self.links()}

    def idle_marginal_costs(self) -> dict[LinkId, float]:
        """Marginal-delay costs of an empty network: ``1/C + tau`` per link.

        This is :math:`D'_{ik}(0)` for the paper's M/M/1 delay law and is
        the natural initial cost before any traffic measurements exist.
        """
        return {
            ln.link_id: 1.0 / ln.capacity + ln.prop_delay for ln in self.links()
        }

    def __contains__(self, node: NodeId) -> bool:
        return node in self._nodes

    def __iter__(self) -> Iterator[NodeId]:
        return iter(self._nodes)

    def __len__(self) -> int:
        return len(self._nodes)

    def __repr__(self) -> str:
        return (
            f"Topology({self.name!r}, nodes={self.num_nodes}, "
            f"links={self.num_links})"
        )
