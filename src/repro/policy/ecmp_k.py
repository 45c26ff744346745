"""``ecmp-k``: equal split over the k shortest paths.

The modern-router rival the ROADMAP calls for: at every route update,
each router computes the ``k`` shortest loopless paths to each
destination (Yen's algorithm over the measured long-term costs) and
splits traffic equally over the paths — a first hop shared by two of
the three paths carries two thirds of the flow.  The split is frozen
between route updates (``on_short_costs`` is a no-op), exactly like a
real ECMP FIB.

One correction is required to forward this hop-by-hop: the *union* of
per-source k-shortest first hops is not consistent — router A's
2nd-shortest path may enter router B while B's own k-set sends traffic
back through A (CAIRN's ``tis``/``udel`` pair does exactly this at
k=3).  Deployed multipath routers solve it the same way we do: a next
hop is only installed if it is *downhill*, i.e. strictly closer to the
destination in shortest-path distance (EIGRP's feasibility condition,
OSPF/IS-IS loop-free alternates).  Paths whose first hop fails the
filter lose their share; the shortest path's own first hop is always
downhill, so every reachable destination keeps at least one hop.  The
filtered graph follows a strictly decreasing potential, hence
``loop_free = True`` and the Theorem-3 audit applies.
"""

from __future__ import annotations

from repro import obs
from repro.exceptions import ConfigError
from repro.graph.shortest_paths import (
    CostMap,
    SharedSPF,
    k_shortest_paths,
    out_adjacency,
)
from repro.graph.topology import NodeId
from repro.policy.base import RoutingPolicy, RoutingTables
from repro.policy.registry import register


@register
class ECMPKPolicy(RoutingPolicy):
    name = "ecmp-k"
    summary = (
        "equal split over the k shortest paths (Yen), downhill-filtered "
        "for hop-by-hop consistency, recomputed at Tl"
    )
    loop_free = True

    def __init__(self, *, k: int = 3) -> None:
        if not isinstance(k, int) or k < 1:
            raise ConfigError(
                f"ecmp-k needs an integer k >= 1, got {k!r}"
            )
        self.k = k
        self._successors: RoutingTables = {}
        self._fractions: dict[NodeId, dict[NodeId, dict[NodeId, float]]] = {}

    def initialize(self, scenario, config) -> None:
        self.topo = scenario.topo
        self.destinations = scenario.mean_traffic().destinations()

    def on_costs(self, long_costs: CostMap) -> None:
        self.route_updates += 1
        ob = obs.current()
        with obs.phase(ob, "routing.update_routes"):
            self._recompute(long_costs)
        self.audit_loop_free()

    def _recompute(self, costs: CostMap) -> None:
        nodes = list(self.topo.nodes)
        successors: RoutingTables = {}
        fractions: dict[NodeId, dict[NodeId, dict[NodeId, float]]] = {
            node: {} for node in nodes
        }
        spf = SharedSPF(costs, nodes=nodes)
        adjacency = out_adjacency(costs)
        for dest in self.destinations:
            dist = spf.distances_to(dest)
            by_node: dict[NodeId, list[NodeId]] = {}
            for node in nodes:
                if node == dest:
                    by_node[node] = []
                    continue
                paths = k_shortest_paths(
                    costs, node, dest, self.k, adjacency=adjacency
                )
                counts: dict[NodeId, int] = {}
                for path in paths:
                    hop = path[1]
                    # Downhill filter: only strictly
                    # distance-decreasing first hops forward
                    # consistently hop-by-hop.
                    if dist.get(hop, float("inf")) < dist.get(
                        node, float("inf")
                    ):
                        counts[hop] = counts.get(hop, 0) + 1
                hops = sorted(counts, key=repr)
                by_node[node] = hops
                if counts:
                    total = sum(counts.values())
                    fractions[node][dest] = {
                        hop: counts[hop] / total for hop in hops
                    }
                else:
                    fractions[node][dest] = {}
            successors[dest] = by_node
        self._successors = successors
        self._fractions = fractions

    def routing(self) -> RoutingTables:
        return {
            dest: {node: list(succ) for node, succ in by_node.items()}
            for dest, by_node in self._successors.items()
        }

    def phi(self) -> dict[NodeId, dict[NodeId, dict[NodeId, float]]]:
        return self._fractions
