"""Gallager's blocking technique for instantaneous loop freedom.

Gallager's algorithm only stays loop-free across iterations because a
router may not *shift traffic toward* certain neighbors.  For destination
*j*, a node *k* is **blocked** when

1. *k* has an *improper* outgoing link: it forwards traffic
   (:math:`\\phi_{kjm} > 0`) to a neighbor *m* whose marginal distance is
   not smaller (:math:`\\delta_{mj} \\ge \\delta_{kj}`); or
2. *k* forwards traffic to a node that is itself blocked.

Shifting traffic only toward unblocked neighbors guarantees the routing
graph remains a DAG after the update (the "interesting blocking
technique" the paper credits for OPT's instantaneous loop freedom).
"""

from __future__ import annotations

from collections.abc import Mapping

from repro.fluid.evaluator import Phi, RoutingDAG, destination_successors
from repro.graph.topology import NodeId

INFINITY = float("inf")


def blocked_nodes(
    phi: Phi,
    destination: NodeId,
    delta: Mapping[NodeId, float],
    *,
    dag: RoutingDAG | None = None,
) -> set[NodeId]:
    """The blocked set :math:`B_j` for one destination.

    Args:
        phi: current routing parameters.
        destination: the destination *j*.
        delta: marginal distances :math:`\\delta_{ij}` (missing entries
            are treated as infinite — unreachable nodes are improper to
            route through by definition).
        dag: ``phi``'s routing DAG toward ``destination``, when the
            caller already holds it.

    Returns:
        The set of nodes traffic may not be shifted toward.
    """
    # Only the successor sets matter here, not their order, so without a
    # DAG a cyclic phi still gets an answer.
    successors = (
        dag.fractions
        if dag is not None
        else destination_successors(phi, destination)
    )

    # Successors are exactly the phi > 0 edges.
    improper: set[NodeId] = set()
    for node, succ in successors.items():
        own = delta.get(node, INFINITY)
        for k in succ:
            if delta.get(k, INFINITY) >= own:
                improper.add(node)
                break
    if not improper:
        return improper

    # Propagate blockedness upstream through phi > 0 edges: a node that
    # forwards into the blocked region is blocked too.
    upstream: dict[NodeId, set[NodeId]] = {}
    for node, succ in successors.items():
        for k in succ:
            upstream.setdefault(k, set()).add(node)

    blocked = set(improper)
    frontier = list(improper)
    while frontier:
        node = frontier.pop()
        for parent in upstream.get(node, ()):
            if parent not in blocked:
                blocked.add(parent)
                frontier.append(parent)
    return blocked
