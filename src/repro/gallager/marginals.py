"""Marginal distances and Gallager's optimality conditions.

For destination *j*, the marginal distance of router *i* is
:math:`\\delta_{ij} = \\partial D_T / \\partial r_{ij}` and satisfies the
recursion (Eq. 4 rearranged):

.. math::

    \\delta_{ij} = \\sum_k \\phi_{ijk}\\,(D'_{ik}(f_{ik}) + \\delta_{kj}),
    \\qquad \\delta_{jj} = 0 .

On a loop-free routing graph this evaluates exactly in one pass,
downstream-first.  Gallager's Theorem then characterizes a minimum of
:math:`D_T`: traffic flows only through neighbors whose
:math:`D'_{ik} + \\delta_{kj}` is minimal, and that minimum equals
:math:`\\delta_{ij}` (Eqs. 6-7).  :func:`optimality_gap` measures how
far a routing is from satisfying those conditions — the test suite uses
it to verify OPT actually converges to an optimum.
"""

from __future__ import annotations

from collections.abc import Mapping

from repro.exceptions import RoutingError
from repro.fluid.delay import DelayModel
from repro.fluid.evaluator import (
    FLOW_EPSILON,
    Phi,
    RoutingDAG,
    link_flows,
    node_flows,
)
from repro.fluid.flows import TrafficMatrix
from repro.graph.topology import LinkId, NodeId, Topology

INFINITY = float("inf")


def marginal_distances(
    phi: Phi,
    destination: NodeId,
    link_costs: Mapping[LinkId, float],
    *,
    dag: RoutingDAG | None = None,
) -> dict[NodeId, float]:
    """:math:`\\delta_{ij}` for every router toward one destination.

    Routers with no successors toward ``destination`` have no entry.

    Args:
        phi: routing parameters (must be loop-free for ``destination``).
        destination: the destination *j*.
        link_costs: marginal link delays :math:`D'_{ik}`.
        dag: ``phi``'s routing DAG toward ``destination``, when the
            caller already holds it.
    """
    if dag is None:
        dag = RoutingDAG(phi, destination)
    successors = dag.fractions
    weights = dag.weights
    delta: dict[NodeId, float] = {destination: 0.0}
    for node in reversed(dag.order):
        succ = successors.get(node)
        if not succ:
            continue
        # Weighted by the raw parameters over their sum, not by the
        # normalised fractions: the two differ in the last bits.
        per_dest = weights[node]
        total = 0.0
        norm = 0.0
        for k in succ:
            fraction = per_dest[k]
            try:
                cost = link_costs[(node, k)]
            except KeyError:
                raise RoutingError(
                    f"no marginal cost for link {node!r}->{k!r}"
                ) from None
            downstream = delta.get(k)
            if downstream is None:
                raise RoutingError(
                    f"router {node!r} forwards toward {k!r} which has no "
                    f"route to {destination!r}"
                )
            total += fraction * (cost + downstream)
            norm += fraction
        if norm > 0.0:
            delta[node] = total / norm
    return delta


def optimality_gap(
    topo: Topology,
    phi: Phi,
    traffic: TrafficMatrix,
    delay_model: DelayModel | None = None,
) -> float:
    """Worst violation of Gallager's conditions, as a relative gap.

    For each router *i* and destination *j* carrying traffic, compares
    the largest marginal distance through a neighbor actually used
    (:math:`\\phi > 0`) with the smallest available through any neighbor:

    .. math::

       gap = \\max_{i,j}\\; \\frac{\\max_{k: \\phi_{ijk} > 0} a_{ik} -
       \\min_{k \\in N^i} a_{ik}}{\\min_{k \\in N^i} a_{ik}}

    with :math:`a_{ik} = D'_{ik} + \\delta_{kj}`.  Zero at a minimum of
    :math:`D_T` (Eqs. 6-7); small positive values mean near-optimal.
    """
    model = delay_model or DelayModel.for_topology(topo)
    dags = {dest: RoutingDAG(phi, dest) for dest in traffic.destinations()}
    flows = link_flows(phi, traffic, dags=dags)
    costs = model.marginals(flows)
    worst = 0.0
    for destination, dag in dags.items():
        rates = traffic.rates_to(destination)
        t = node_flows(phi, rates, destination, dag=dag)
        delta = marginal_distances(phi, destination, costs, dag=dag)
        for node in topo.nodes:
            if node == destination:
                continue
            if t.get(node, 0.0) <= FLOW_EPSILON:
                continue  # the conditions only bind where traffic flows
            a = {
                k: costs[(node, k)] + delta.get(k, INFINITY)
                for k in topo.neighbors(node)
            }
            finite = [v for v in a.values() if v < INFINITY]
            if not finite:
                continue
            best = min(finite)
            used = [
                a[k]
                for k, fraction in phi[node][destination].items()
                if fraction > 1e-12 and k in a
            ]
            if not used:
                continue
            gap = (max(used) - best) / best if best > 0 else 0.0
            worst = max(worst, gap)
    return worst
