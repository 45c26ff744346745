"""Evaluate routing parameters against a traffic matrix.

Given routing parameters :math:`\\phi^i_{jk}` (fraction of the traffic at
router *i* destined to *j* that leaves over link *(i, k)*), this module
computes the chain of quantities in Section 2.1 of the paper:

- node flows :math:`t^i_j = r^i_j + \\sum_k t^k_j \\phi^k_{ji}` (Eq. 1),
- link flows :math:`f_{ik} = \\sum_j t^i_j \\phi^i_{jk}` (Eq. 2),
- total delay :math:`D_T = \\sum_{(i,k)} D_{ik}(f_{ik})` (Eq. 3),
- per-flow expected delays (what the paper's figures plot).

The routing graph for a destination must be loop-free (which every
algorithm in this library guarantees), so node flows are computed exactly
in one pass over a topological order.

Every exact computation walks a :class:`RoutingDAG`: one destination's
routing graph for one phi snapshot, holding each router's validated,
normalised fractions and the upstream-first order.  Building it is where
Property 1 is checked and where a cycle raises
:class:`~repro.exceptions.LoopError`.  The public functions take
``phi`` and build the DAGs they need; a caller that walks one snapshot
several times (:func:`evaluate`, the fluid data plane, Gallager's OPT)
builds them once and hands them in.  OPT, whose updates replace only
some routers' entries, and the fluid plane, whose policies hand out the
same entry objects until they replace them, rebuild each DAG from the
previous one, which re-checks only the replaced entries.
"""

from __future__ import annotations

from collections.abc import Mapping
from dataclasses import dataclass, field

from repro.exceptions import AllocationError, RoutingError
from repro.fluid.delay import DelayModel
from repro.fluid.flows import TrafficMatrix
from repro.graph.topology import LinkId, NodeId, Topology
from repro.graph.validation import successor_graph_order

#: phi[i][j][k]: at router i, fraction of traffic for destination j
#: forwarded to neighbor k.
Phi = Mapping[NodeId, Mapping[NodeId, Mapping[NodeId, float]]]

#: Traffic below this rate (packets/s) is treated as zero.
FLOW_EPSILON = 1e-9

#: Tolerated normalization error on a router's routing parameters.
NORMALIZATION_TOLERANCE = 1e-6

#: Lookup default that no phi entry can be, not even None (no entry).
_UNSET = object()


def _fractions(
    phi: Phi, node: NodeId, destination: NodeId
) -> Mapping[NodeId, float]:
    """Validated, normalized routing fractions of ``node`` toward ``destination``.

    Empty when the router has no entry (it then must carry no traffic for
    the destination).  Enforces Property 1: non-negative, summing to one.
    """
    per_dest = phi.get(node)
    if per_dest is None:
        return {}
    return _normalised(per_dest.get(destination), node, destination)


def _normalised(
    raw: Mapping[NodeId, float] | None, node: NodeId, destination: NodeId
) -> Mapping[NodeId, float]:
    """:func:`_fractions` of ``node``'s phi entry ``raw`` toward ``destination``.

    An entry that is already normalised (every fraction positive, the
    sum exactly 1.0) is returned itself: dividing by 1.0 changes no
    float, so a copy would hold what ``raw`` holds.
    """
    if not raw:
        return {}
    total = 0.0
    positive = True
    for nbr, fraction in raw.items():
        if fraction > 0.0:
            total += fraction
            continue
        if fraction != fraction:
            raise AllocationError(
                f"phi[{node!r}][{destination!r}][{nbr!r}] = {fraction!r} "
                "is not a number"
            )
        positive = False
        if fraction < -NORMALIZATION_TOLERANCE:
            raise AllocationError(
                f"phi[{node!r}][{destination!r}][{nbr!r}] = {fraction!r} < 0"
            )
    if total == 0.0:
        return {}
    if abs(total - 1.0) > NORMALIZATION_TOLERANCE:
        raise AllocationError(
            f"phi[{node!r}][{destination!r}] sums to {total!r}, expected 1"
        )
    if positive and total == 1.0:
        return raw
    return {nbr: fraction / total for nbr, fraction in raw.items() if fraction > 0.0}


class RoutingDAG:
    """The routing graph of one destination for one phi snapshot.

    Built once from every router's validated, normalised fractions
    (Property 1 is checked here, for every router in ``phi``), and
    ordered upstream-first; a cyclic graph raises
    :class:`~repro.exceptions.LoopError` from the constructor.  Every
    exact walk over phi in this module and in :mod:`repro.gallager`
    reads a DAG instead of re-deriving successor sets and orders, so a
    caller that walks one snapshot several times builds it once.

    The DAG keeps references to the routers' phi entries, so it
    describes ``phi`` as it was when built: rebuild it after changing
    the parameters toward ``destination``.  A rebuild may be handed
    ``previous``, the DAG of the same destination before the change.
    It then trusts that a phi entry which is the same object as before
    still holds what it held: such a router keeps its normalised
    fractions, and only replaced entries are validated again.  The
    previous order is kept unless a replaced entry changed its
    successors or their order, or the set of routers changed; otherwise
    the graph is sorted again, and a cycle raises as in a fresh build.
    The result equals a fresh ``RoutingDAG(phi, destination)`` as long
    as no entry was edited in place: replace an entry to change it.
    Gallager's OPT rebuilds after every destination update, and the
    fluid plane after every epoch, from the DAG of the step before.

    Attributes:
        order: routers upstream-first; every router precedes its
            successors and the destination comes last.
        fractions: every router of ``phi`` except the destination ->
            its normalised fractions :math:`\\phi^i_{jk} > 0` (empty
            when the router routes nothing toward *j*); an entry that
            is already normalised is held as itself, so these are as
            read-only as the entries.
        weights: every router with successors -> its raw phi entry
            toward *j* (the marginal-distance recursion weights by raw
            values over their sum).
    """

    __slots__ = ("order", "fractions", "weights")

    def __init__(
        self,
        phi: Phi,
        destination: NodeId,
        previous: RoutingDAG | None = None,
    ) -> None:
        fractions: dict[NodeId, Mapping[NodeId, float]] = {}
        weights: dict[NodeId, Mapping[NodeId, float]] = {}
        kept_fractions = previous.fractions if previous is not None else {}
        kept_weights = previous.weights if previous is not None else {}
        resort = previous is None
        for node, per_dest in phi.items():
            if node == destination:
                continue
            raw = per_dest.get(destination)
            if raw is kept_weights.get(node, _UNSET):
                fractions[node] = kept_fractions[node]
                weights[node] = raw
                continue
            fractions[node] = out = _normalised(raw, node, destination)
            if out:
                weights[node] = raw
            if not resort:
                kept = kept_fractions.get(node)
                resort = kept is None or list(out) != list(kept)
        if resort or len(fractions) != len(kept_fractions):
            self.order = successor_graph_order(fractions, destination)
        else:
            self.order = previous.order
        self.fractions = fractions
        self.weights = weights


def destination_successors(
    phi: Phi, destination: NodeId
) -> dict[NodeId, list[NodeId]]:
    """Successor sets implied by the routing parameters (Eq. 9)."""
    return {
        node: list(_fractions(phi, node, destination))
        for node in phi
        if node != destination
    }


def node_flows(
    phi: Phi,
    rates: Mapping[NodeId, float],
    destination: NodeId,
    *,
    dag: RoutingDAG | None = None,
) -> dict[NodeId, float]:
    """Node flows :math:`t^i_j` for one destination (Eq. 1), exact on DAGs.

    Args:
        phi: routing parameters.
        rates: input rates :math:`r^i_j` toward ``destination``.
        destination: the destination *j*.
        dag: ``phi``'s routing DAG toward ``destination``, when the
            caller already holds it.

    Raises:
        LoopError: if the successor graph for ``destination`` is cyclic.
        RoutingError: if traffic reaches a router with no successors.
    """
    if dag is None:
        dag = RoutingDAG(phi, destination)
    order = dag.order
    fractions_of = dag.fractions

    flows: dict[NodeId, float] = {node: 0.0 for node in order}
    for node, rate in rates.items():
        if node == destination or rate <= 0:
            continue
        if node not in flows:
            raise RoutingError(
                f"traffic enters at {node!r} but no routing parameters exist"
            )
        flows[node] += rate

    for node in order:
        if node == destination:
            continue
        t = flows[node]
        if t <= FLOW_EPSILON:
            continue
        fractions = fractions_of.get(node)
        if not fractions:
            raise RoutingError(
                f"router {node!r} carries {t:.3g} pkt/s for {destination!r} "
                "but has no successors (black hole)"
            )
        for nbr, fraction in fractions.items():
            flows[nbr] += t * fraction
    return flows


def _dag_for(
    phi: Phi,
    destination: NodeId,
    dags: Mapping[NodeId, RoutingDAG] | None,
) -> RoutingDAG:
    """``dags[destination]``, or a DAG built from ``phi`` when not handed one."""
    dag = dags.get(destination) if dags is not None else None
    return dag if dag is not None else RoutingDAG(phi, destination)


def link_flows(
    phi: Phi,
    traffic: TrafficMatrix,
    *,
    dags: Mapping[NodeId, RoutingDAG] | None = None,
) -> dict[LinkId, float]:
    """Link flows :math:`f_{ik}` (Eq. 2) summed over all destinations.

    ``dags`` holds ``phi``'s routing DAGs by destination; a destination
    without one gets it built here.
    """
    walked: dict[NodeId, RoutingDAG] = {}
    node_t: dict[NodeId, dict[NodeId, float]] = {}
    for destination in traffic.destinations():
        walked[destination] = dag = _dag_for(phi, destination, dags)
        rates = traffic.rates_to(destination)
        node_t[destination] = node_flows(phi, rates, destination, dag=dag)
    return sum_link_flows(node_t, walked)


def sum_link_flows(
    node_t: Mapping[NodeId, Mapping[NodeId, float]],
    dags: Mapping[NodeId, RoutingDAG],
) -> dict[LinkId, float]:
    """Link flows :math:`f_{ik}` (Eq. 2) from per-destination node flows.

    ``node_t`` maps each destination to its :func:`node_flows` on
    ``dags[destination]``; destinations are summed in its order.
    """
    flows: dict[LinkId, float] = {}
    for destination, t_of in node_t.items():
        fractions_of = dags[destination].fractions
        for node, t in t_of.items():
            if node == destination or t <= FLOW_EPSILON:
                continue
            for nbr, fraction in fractions_of[node].items():
                link_id = (node, nbr)
                flows[link_id] = flows.get(link_id, 0.0) + t * fraction
    return flows


def flow_delays(
    phi: Phi,
    traffic: TrafficMatrix,
    per_unit_delay: Mapping[LinkId, float],
    *,
    dags: Mapping[NodeId, RoutingDAG] | None = None,
) -> dict[str, float]:
    """Expected end-to-end delay of each flow, in seconds.

    For destination *j*, the expected remaining delay from router *i*
    satisfies :math:`W_j(i) = \\sum_k \\phi^i_{jk}\\,(w_{ik} + W_j(k))`
    with :math:`W_j(j) = 0`, where :math:`w_{ik}` is the per-unit link
    delay.  Evaluated downstream-first on the routing DAG; ``dags`` is
    as for :func:`link_flows`.
    """
    delays: dict[str, float] = {}
    remaining_to: dict[NodeId, dict[NodeId, float]] = {}
    for flow in traffic.flows:
        destination = flow.destination
        remaining = remaining_to.get(destination)
        if remaining is None:
            remaining = remaining_to[destination] = {destination: 0.0}
            dag = _dag_for(phi, destination, dags)
            fractions_of = dag.fractions
            for node in reversed(dag.order):
                fractions = fractions_of.get(node)
                if not fractions:
                    continue  # carries no traffic; skip rather than invent a value
                total = 0.0
                for nbr, fraction in fractions.items():
                    try:
                        w_link = per_unit_delay[(node, nbr)]
                    except KeyError:
                        raise RoutingError(
                            f"no delay for link {node!r}->{nbr!r}"
                        ) from None
                    down = remaining.get(nbr)
                    if down is None:
                        raise RoutingError(
                            f"successor {nbr!r} of {node!r} has no route to "
                            f"{destination!r}"
                        )
                    total += fraction * (w_link + down)
                remaining[node] = total
        if flow.source not in remaining:
            raise RoutingError(
                f"flow {flow.label()}: no route from {flow.source!r} "
                f"to {destination!r}"
            )
        delays[flow.label()] = remaining[flow.source]
    return delays


@dataclass
class FluidEvaluation:
    """Everything the fluid model says about one routing configuration."""

    link_flows: dict[LinkId, float]
    total_delay: float
    average_delay: float
    flow_delays: dict[str, float] = field(default_factory=dict)
    utilizations: dict[LinkId, float] = field(default_factory=dict)

    @property
    def max_utilization(self) -> float:
        """Utilization of the most loaded link (0 when idle)."""
        return max(self.utilizations.values(), default=0.0)

    def flow_delays_ms(self) -> dict[str, float]:
        """Per-flow delays in milliseconds, as the paper's figures plot."""
        return {name: 1e3 * d for name, d in self.flow_delays.items()}


def evaluate(
    topo: Topology,
    phi: Phi,
    traffic: TrafficMatrix,
    delay_model: DelayModel | None = None,
    *,
    strict: bool = False,
) -> FluidEvaluation:
    """Full fluid evaluation of ``phi`` under ``traffic``.

    Args:
        topo: the network (capacities and propagation delays).
        phi: routing parameters.
        traffic: input rates.
        delay_model: optional pre-built delay laws (defaults to M/M/1
            from the topology).
        strict: if True, flows at or above capacity produce infinite
            delays instead of the stabilized extension.

    Returns:
        A :class:`FluidEvaluation` with link flows, :math:`D_T`, the
        average per-unit delay :math:`D_T / \\sum r`, per-flow delays and
        link utilizations.
    """
    traffic.validate_against(topo)
    model = delay_model or DelayModel.for_topology(topo)
    dags = {dest: RoutingDAG(phi, dest) for dest in traffic.destinations()}
    f = link_flows(phi, traffic, dags=dags)
    total = model.total_delay(f, strict=strict)
    rate = traffic.total_rate()
    average = total / rate if rate > 0 else 0.0
    per_unit = model.per_unit_delays(f, strict=strict)
    per_flow = flow_delays(phi, traffic, per_unit, dags=dags)
    utilizations = {
        link_id: model[link_id].utilization(value)
        for link_id, value in f.items()
    }
    return FluidEvaluation(
        link_flows=f,
        total_delay=total,
        average_delay=average,
        flow_delays=per_flow,
        utilizations=utilizations,
    )
