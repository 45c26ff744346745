"""``backpressure-lr``: loop-free backpressure over a link-reversal DAG.

The competitor from Rai, Paschos & Li, *Loop-Free Backpressure Routing
Using Link-Reversal Algorithms* (PAPERS.md): classic backpressure
explores every direction (and so loops); constraining it to a
destination-oriented DAG keeps it loop-free, and **link reversal**
(Gafni–Bertsekas full reversal) repairs the DAG after failures without
any global recomputation.

Per destination the policy keeps a *height* per node — initialized from
the boot shortest-path distances, with the node rank as tie-break, so
heights are totally ordered and every link points downhill: a strictly
acyclic routing graph.  When a node loses its last downhill link (a
failure, or a neighbor's reversal), it reverses: raises its height above
all its neighbors, turning every incident link outward.  Reversals
cascade deterministically (rank-ordered worklist) and terminate within
the destination's connected component; nodes cut off from the
destination keep an empty successor set until links return.

The backpressure half lives in the split: at every ``Ts`` the fractions
over the current downhill neighbors are re-weighted by the inverse of
the freshly measured marginal link delays, pushing traffic away from
congested links — the queue-differential pressure signal, with marginal
delay as the congestion proxy this simulator measures.  The DAG itself
never chases costs; that topology-only maintenance is the algorithm's
defining trade-off against MPDA's cost-driven successor sets, and the
comparison harness quantifies it.
"""

from __future__ import annotations

from collections import deque

from repro import obs
from repro.exceptions import RoutingError
from repro.graph.shortest_paths import CostMap, SharedSPF, rank_nodes
from repro.graph.topology import NodeId
from repro.policy.base import RoutingPolicy, RoutingTables
from repro.policy.registry import register

#: A node's height: (level, rank).  Ranks are unique, so heights are a
#: total order and every oriented link graph is automatically acyclic.
Height = tuple[float, int]


@register
class BackpressureLRPolicy(RoutingPolicy):
    name = "backpressure-lr"
    summary = (
        "loop-free backpressure on a link-reversal DAG (Gafni-Bertsekas "
        "full reversal; Rai/Paschos/Li), inverse-delay split at Ts"
    )
    loop_free = True
    handles_link_events = True

    def __init__(self) -> None:
        self._heights: dict[NodeId, dict[NodeId, Height]] | None = None
        self._rank: dict[NodeId, int] = {}
        self._down: set[tuple[NodeId, NodeId]] = set()
        self._costs: dict = {}
        self._short: dict = {}
        self._fractions: dict[NodeId, dict[NodeId, dict[NodeId, float]]] = {}
        self.reversals = 0

    def initialize(self, scenario, config) -> None:
        self.topo = scenario.topo
        self.destinations = scenario.mean_traffic().destinations()
        self._rank = rank_nodes(self.topo.nodes)

    # -- lifecycle ------------------------------------------------------
    def on_costs(self, long_costs: CostMap) -> None:
        self.route_updates += 1
        ob = obs.current()
        with obs.phase(ob, "routing.update_routes"):
            self._costs = dict(long_costs)
            if self._heights is None:
                self._boot_heights(long_costs)
            self._recompute_fractions()
        self.audit_loop_free()

    def on_short_costs(self, short_costs: CostMap) -> None:
        self.allocation_updates += 1
        self._short = dict(short_costs)
        self._recompute_fractions()

    def on_link_event(
        self,
        event: str,
        a: NodeId,
        b: NodeId,
        cost_ab: float | None = None,
        cost_ba: float | None = None,
    ) -> None:
        self.route_updates += 1
        pair = self._pair(a, b)
        if event == "down":
            self._down.add(pair)
            self._costs.pop((a, b), None)
            self._costs.pop((b, a), None)
            self._short.pop((a, b), None)
            self._short.pop((b, a), None)
            for dest in self.destinations:
                # The failure may have taken some node's last downhill
                # link; cascade reversals until the DAG is
                # destination-oriented again.
                self._maintain(dest, seeds=(a, b))
        elif event == "up":
            self._down.discard(pair)
            self._costs[(a, b)] = cost_ab
            self._costs[(b, a)] = cost_ba
            # New links only *add* downhill edges (heights are a total
            # order), so no reversal can be needed — but nodes that were
            # stranded may now reach the DAG again.
            for dest in self.destinations:
                self._maintain(dest, seeds=(a, b))
        else:
            raise ValueError(f"unknown link event {event!r}")
        self._recompute_fractions()
        self.audit_loop_free()

    # -- the link-reversal DAG ------------------------------------------
    def _pair(self, a: NodeId, b: NodeId) -> tuple[NodeId, NodeId]:
        return (a, b) if repr(a) <= repr(b) else (b, a)

    def _usable(self, a: NodeId, b: NodeId) -> bool:
        return self._pair(a, b) not in self._down

    def _boot_heights(self, costs: CostMap) -> None:
        """Initial heights: boot shortest-path levels, rank tie-break."""
        self._heights = {}
        nodes = list(self.topo.nodes)
        spf = SharedSPF(costs, nodes=nodes)
        for dest in self.destinations:
            dist = spf.distances_to(dest)
            self._heights[dest] = {
                node: (dist.get(node, float("inf")), self._rank[node])
                for node in nodes
            }
            self._heights[dest][dest] = (0.0, self._rank[dest])
            self._maintain(dest)

    def _downhill(self, dest: NodeId, node: NodeId) -> list[NodeId]:
        """Usable neighbors strictly below ``node`` in the height order."""
        height = self._heights[dest]
        own = height[node]
        return sorted(
            (
                nbr
                for nbr in self.topo.neighbors(node)
                if self._usable(node, nbr) and height[nbr] < own
            ),
            key=self._rank.__getitem__,
        )

    def _component(self, dest: NodeId) -> set[NodeId]:
        """Nodes connected to ``dest`` over the usable (duplex) links."""
        seen = {dest}
        frontier = deque([dest])
        while frontier:
            node = frontier.popleft()
            for nbr in self.topo.neighbors(node):
                if nbr not in seen and self._usable(node, nbr):
                    seen.add(nbr)
                    frontier.append(nbr)
        return seen

    def _maintain(self, dest: NodeId, seeds=()) -> None:
        """Gafni-Bertsekas full reversal until ``dest``-oriented.

        Every node in the destination's component except the destination
        must keep at least one downhill link.  A node that lost its last
        one raises its height above all neighbors (full reversal), which
        may strand a neighbor in turn; the worklist drains in
        deterministic rank order.  Within a connected component this
        terminates (Gafni-Bertsekas); the budget is a defense against
        bugs, not partitions — stranded nodes are excluded up front.
        """
        height = self._heights[dest]
        component = self._component(dest)
        pending = sorted(
            (n for n in component if n != dest),
            key=self._rank.__getitem__,
        )
        queue = deque(pending)
        queued = set(pending)
        budget = 8 * len(component) ** 2 + 64
        while queue:
            node = queue.popleft()
            queued.discard(node)
            if node == dest or self._downhill(dest, node):
                continue
            budget -= 1
            if budget < 0:
                raise RoutingError(
                    f"link reversal failed to converge toward {dest!r}"
                )
            neighbors = [
                nbr
                for nbr in self.topo.neighbors(node)
                if self._usable(node, nbr)
            ]
            if not neighbors:
                continue  # fully stranded; nothing to reverse over
            top = max(height[nbr][0] for nbr in neighbors)
            height[node] = (top + 1.0, self._rank[node])
            self.reversals += 1
            for nbr in neighbors:
                # The reversal may have taken *their* last downhill link.
                if nbr != dest and nbr not in queued:
                    queue.append(nbr)
                    queued.add(nbr)

    # -- the backpressure split -----------------------------------------
    def _link_cost(self, node: NodeId, nbr: NodeId) -> float:
        cost = self._short.get((node, nbr))
        if cost is None:
            cost = self._costs.get((node, nbr), 1.0)
        return max(cost, 1e-12)

    def _recompute_fractions(self) -> None:
        fractions: dict[NodeId, dict[NodeId, dict[NodeId, float]]] = {
            node: {} for node in self.topo.nodes
        }
        for dest in self.destinations:
            for node in self.topo.nodes:
                if node == dest:
                    continue
                outs = self._downhill(dest, node)
                if not outs:
                    fractions[node][dest] = {}
                    continue
                weights = {
                    nbr: 1.0 / self._link_cost(node, nbr) for nbr in outs
                }
                total = sum(weights.values())
                fractions[node][dest] = {
                    nbr: weight / total for nbr, weight in weights.items()
                }
        self._fractions = fractions

    # -- read side ------------------------------------------------------
    def routing(self) -> RoutingTables:
        tables: RoutingTables = {}
        for dest in self.destinations:
            tables[dest] = {
                node: ([] if node == dest else self._downhill(dest, node))
                for node in self.topo.nodes
            }
        return tables

    def phi(self) -> dict[NodeId, dict[NodeId, dict[NodeId, float]]]:
        return self._fractions

    def protocol_stats(self) -> dict[str, int]:
        return {"reversals": self.reversals}
