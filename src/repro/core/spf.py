"""The paper's single-path (SP) baseline.

Section 5: "To obtain representative delays for single-path routing
algorithms, we opted to restrict our multipath routing algorithm to use
only the best successor for packet forwarding" — the resulting delays
upper-bound what EIGRP / RIP / OSPF would achieve, since MPDA is
instantaneously loop-free while those either need more synchronization
or allow transient loops.

This module provides that restriction, :func:`restrict_successors`:
it cuts any successor set — converged (``mp-oracle``) or harvested from
live MPDA routers (``mp``) — to its best members by marginal distance;
``sp`` is ``mp-oracle`` with a limit of one.  It also provides the OSPF
equal-cost rule :func:`ecmp_successors` the ``ecmp`` baselines use.
"""

from __future__ import annotations

from collections.abc import Mapping

from repro.graph.shortest_paths import CostMap
from repro.graph.topology import NodeId, Topology


def ecmp_successors(
    topo: Topology,
    costs: CostMap,
    destination: NodeId,
    *,
    dist: Mapping[NodeId, float],
) -> dict[NodeId, list[NodeId]]:
    """Equal-cost multipath successor sets (the OSPF rule).

    The paper contrasts its unequal-cost sets with OSPF, which "permits
    multiple paths to a destination only when they have the same length"
    — i.e. neighbor *k* qualifies only when :math:`D^k_j + l_{ik}`
    *equals* the shortest distance :math:`D^i_j`.  Always a subset of
    the LFI multipath set, so it is loop-free too.  ``dist`` holds the
    all-sources distances to ``destination`` under ``costs``, as for
    :func:`~repro.core.lfi.lfi_successors`.
    """
    successors: dict[NodeId, list[NodeId]] = {}
    for node in topo.nodes:
        if node == destination:
            successors[node] = []
            continue
        own = dist.get(node, float("inf"))
        chosen = []
        for nbr in topo.neighbors(node):
            cost = costs.get((node, nbr))
            if cost is None:
                continue
            via = dist.get(nbr, float("inf")) + cost
            if own < float("inf") and abs(via - own) <= 1e-12 * max(own, 1.0):
                chosen.append(nbr)
        successors[node] = chosen
    return successors


def restrict_successors(
    distance_via: Mapping[NodeId, float], limit: int | None
) -> dict[NodeId, float]:
    """Keep only the ``limit`` best successors by marginal distance.

    ``limit=None`` keeps everything (MP), ``limit=1`` is the SP baseline,
    intermediate values support the successor-count ablation.  Ties break
    on the deterministic node order.
    """
    if limit is None or len(distance_via) <= limit:
        return dict(distance_via)
    if limit < 1:
        raise ValueError(f"successor limit must be >= 1, got {limit!r}")
    keep = sorted(distance_via, key=lambda k: (distance_via[k], repr(k)))
    return {k: distance_via[k] for k in keep[:limit]}
