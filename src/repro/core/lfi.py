"""The Loop-Free Invariant (LFI) conditions — Eqs. (16)-(17), Theorem 1.

The paper's central verification device: if at every instant every router
*i* keeps a *feasible distance* :math:`FD^i_j` satisfying

.. math::

    FD^i_j \\le D^i_{jk} \\quad \\forall k \\in N^i   \\qquad (16)

(where :math:`D^i_{jk}` is *k*'s distance to *j* as known to *i*) and
chooses successors

.. math::

    S^i_j = \\{\\,k \\mid D^i_{jk} < FD^i_j\\,\\}           \\qquad (17)

then the union of all successor sets is loop-free at every instant.

This module holds :class:`LFIViolation`, which the Theorem-3 check
:func:`repro.core.mpda.check_safety` raises when live MPDA router states
break the conditions, and the *converged* successor-set computation
:func:`lfi_successors` (by Theorem 4, what MPDA produces once quiet:
:math:`S^i_j = \\{k : D^k_j < D^i_j\\}`) over distances the caller
computes, one :class:`~repro.graph.shortest_paths.SharedSPF` per cost map.
"""

from __future__ import annotations

from collections.abc import Mapping

from repro.graph.shortest_paths import CostMap
from repro.graph.topology import NodeId, Topology


class LFIViolation(AssertionError):
    """A router state violates the LFI conditions.

    Derives from AssertionError because in a correct implementation this
    is unreachable; the safety monitors promote it to a test failure.
    """


def lfi_successors(
    topo: Topology,
    costs: CostMap,
    destination: NodeId,
    *,
    dist: Mapping[NodeId, float],
) -> dict[NodeId, list[NodeId]]:
    """Converged multipath successor sets for one destination.

    With globally consistent distances :math:`D^i_j` under ``costs``, the
    set is :math:`S^i_j = \\{k \\in N^i : D^k_j < D^i_j\\}` — neighbors
    strictly closer to the destination, regardless of the cost of the
    link to them ("multiple paths of unequal cost").  This is the steady
    state MPDA converges to (Theorem 4).  ``dist`` holds the all-sources
    distances to ``destination`` under ``costs``
    (:meth:`SharedSPF.distances_to
    <repro.graph.shortest_paths.SharedSPF.distances_to>`).
    """
    successors: dict[NodeId, list[NodeId]] = {}
    for node in topo.nodes:
        if node == destination:
            successors[node] = []
            continue
        own = dist.get(node, float("inf"))
        successors[node] = [
            nbr
            for nbr in topo.neighbors(node)
            if costs.get((node, nbr)) is not None
            and dist.get(nbr, float("inf")) < own
        ]
    return successors
