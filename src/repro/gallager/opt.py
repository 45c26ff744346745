"""OPT — Gallager's iterative minimum-delay routing algorithm.

The update is Gallager's gradient projection with the global step size
:math:`\\eta`: for each router *i* and destination *j*, with
:math:`a_{ik} = D'_{ik} + \\delta_{kj}` and the best unblocked neighbor
:math:`k_0 = \\arg\\min a_{ik}`,

.. math::

    \\Delta\\phi_{ijk} = \\min\\Big(\\phi_{ijk},\\;
        \\frac{\\eta\\,(a_{ik} - a_{ik_0})}{t_{ij}}\\Big), \\quad
    \\phi_{ijk} \\mathrel{-}= \\Delta\\phi_{ijk}\\;(k \\ne k_0), \\quad
    \\phi_{ijk_0} \\mathrel{+}= \\textstyle\\sum_k \\Delta\\phi_{ijk} .

Routers carrying no traffic for *j* route everything to :math:`k_0`.
Blocked neighbors (see :mod:`repro.gallager.blocking`) are excluded from
the :math:`k_0` choice, which keeps the routing graph loop-free at every
iteration — the library checks this invariant each step.

Each destination's routing graph is held as a
:class:`~repro.fluid.evaluator.RoutingDAG`, built once per phi
snapshot.  An iteration computes each destination's node flows from it
once, sums the link flows from those, and reads it again for the
marginal distances and the blocked set.  An update replaces a router's
entry only when the entry's content changes and never edits one in
place, so the DAG rebuilt right after each update, from the previous
one, re-validates (Property 1) only the replaced entries and sorts the
graph again only when one of them changed its successors.  That
rebuild is the per-step check — it raises
:class:`~repro.exceptions.LoopError`, naming the destination and the
cycle, if the update closed a loop — and it is the next iteration's
input.

Exactly as the paper warns, convergence hinges on the global constant
:math:`\\eta`: too small is slow, too large diverges.  The benchmarks
include a sensitivity sweep over :math:`\\eta` reproducing that
discussion.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from repro import obs
from repro.exceptions import ConvergenceError, RoutingError
from repro.fluid.delay import DelayModel
from repro.fluid.evaluator import (
    FLOW_EPSILON,
    RoutingDAG,
    link_flows,
    node_flows,
    sum_link_flows,
)
from repro.fluid.flows import TrafficMatrix
from repro.gallager.blocking import blocked_nodes
from repro.gallager.marginals import marginal_distances
from repro.graph.shortest_paths import CostMap, SharedSPF, rank_nodes
from repro.graph.topology import LinkId, NodeId, Topology

INFINITY = float("inf")

MutablePhi = dict[NodeId, dict[NodeId, dict[NodeId, float]]]


def shortest_path_phi(
    topo: Topology,
    destinations: list[NodeId],
    costs: CostMap | None = None,
) -> MutablePhi:
    """Single-shortest-path routing parameters — OPT's starting point.

    Uses idle marginal delays unless ``costs`` is given.  The result is
    loop-free, which the blocking technique then preserves forever.
    """
    cost_map = dict(costs) if costs is not None else topo.idle_marginal_costs()
    phi: MutablePhi = {node: {} for node in topo.nodes}
    spf = SharedSPF(cost_map, nodes=topo.nodes)
    for dest in destinations:
        dist = spf.distances_to(dest)
        for node in topo.nodes:
            if node == dest or dist.get(node, INFINITY) == INFINITY:
                continue
            best: NodeId | None = None
            best_val = INFINITY
            for nbr in topo.neighbors(node):
                link_cost = cost_map.get((node, nbr))
                if link_cost is None:
                    continue
                via = dist.get(nbr, INFINITY) + link_cost
                if via < best_val or (via == best_val and repr(nbr) < repr(best)):
                    best, best_val = nbr, via
            if best is None:
                raise RoutingError(
                    f"no route from {node!r} to {dest!r}"
                )
            phi[node][dest] = {best: 1.0}
    return phi


@dataclass
class GallagerResult:
    """Outcome of an OPT run."""

    phi: MutablePhi
    total_delay: float
    iterations: int
    converged: bool
    history: list[float] = field(default_factory=list)

    @property
    def initial_delay(self) -> float:
        return self.history[0] if self.history else self.total_delay


def optimize(
    topo: Topology,
    traffic: TrafficMatrix,
    *,
    eta: float = 0.1,
    max_iterations: int = 2000,
    tolerance: float = 1e-7,
    patience: int = 20,
    delay_model: DelayModel | None = None,
    initial_phi: MutablePhi | None = None,
    require_convergence: bool = False,
    scaling: str = "none",
) -> GallagerResult:
    """Run Gallager's algorithm to (near) convergence.

    Args:
        topo: the network.
        traffic: stationary input rates (OPT's standing assumption).
        eta: the global step-size constant.  Interpreted in normalized
            form: the raw Gallager step is ``eta_raw = eta * t_total``
            so that a given ``eta`` behaves comparably across load
            levels (the un-normalized rule divides by :math:`t_{ij}`).
            Must be finite and positive: no other value descends.
        max_iterations: iteration budget, at least 0.
        tolerance: relative :math:`D_T` improvement under which an
            iteration counts as stalled.
        patience: consecutive stalled iterations that declare convergence.
        delay_model: optional delay laws (defaults to M/M/1 from ``topo``).
        initial_phi: starting parameters (defaults to shortest paths).
        require_convergence: raise instead of returning a non-converged
            result.
        scaling: "none" for Gallager's first-order step, or "curvature"
            for the second-derivative scaling of Bertsekas & Gallager
            (which the paper cites as a convergence speed-up): the shift
            toward the best neighbor approximates the Newton step
            ``gap / (D''_worse + D''_best)`` per unit of traffic.
            Because *all* routers move simultaneously, the per-pair
            Newton step must still be damped — ``eta ~ 0.2`` is robust
            and typically converges in tens of iterations instead of
            thousands (see the MICRO benchmarks).

    Returns:
        A :class:`GallagerResult`; ``history`` holds :math:`D_T` per
        iteration (non-increasing when ``eta`` is small enough).

    Raises:
        RoutingError: on an unknown ``scaling``, an ``eta`` that is not
            finite and positive, or a negative ``max_iterations``.
        LoopError: if an update closes a routing loop.
    """
    if scaling not in ("none", "curvature"):
        raise RoutingError(f"unknown scaling {scaling!r}")
    if not (math.isfinite(eta) and eta > 0.0):
        raise RoutingError(f"eta must be finite and > 0, got {eta!r}")
    if max_iterations < 0:
        raise RoutingError(
            f"max_iterations must be >= 0, got {max_iterations!r}"
        )
    traffic.validate_against(topo)
    model = delay_model or DelayModel.for_topology(topo)
    destinations = traffic.destinations()
    phi = initial_phi if initial_phi is not None else shortest_path_phi(
        topo, destinations
    )
    total_input = traffic.total_rate()
    dags = {dest: RoutingDAG(phi, dest) for dest in destinations}

    ob = obs.current()
    history: list[float] = []
    with obs.phase(ob, "gallager.optimize"):
        converged, iterations = _iterate(
            topo, traffic, model, phi, dags, total_input,
            eta, max_iterations, tolerance, patience, scaling, history,
        )

    flows = link_flows(phi, traffic, dags=dags)
    final = model.total_delay(flows)
    if ob is not None:
        ob.metrics.counter("gallager.iterations").inc(iterations)
        if ob.tracer.enabled:
            ob.tracer.event(
                "opt_done",
                iterations=iterations,
                converged=converged,
                total_delay=final,
            )
    if require_convergence and not converged:
        raise ConvergenceError(
            f"Gallager's algorithm did not converge in {max_iterations} "
            f"iterations (last D_T = {final:.6g})"
        )
    return GallagerResult(
        phi=phi,
        total_delay=final,
        iterations=iterations,
        converged=converged,
        history=history,
    )


def _iterate(
    topo: Topology,
    traffic: TrafficMatrix,
    model: DelayModel,
    phi: MutablePhi,
    dags: dict[NodeId, RoutingDAG],
    total_input: float,
    eta: float,
    max_iterations: int,
    tolerance: float,
    patience: int,
    scaling: str,
    history: list[float],
) -> tuple[bool, int]:
    """The optimization loop proper; returns (converged, iterations).

    ``dags`` holds phi's routing DAG per destination and is kept current:
    a destination's DAG is rebuilt from its previous one right after its
    update, which is the per-step loop check and the next iteration's
    input.
    """
    rank = rank_nodes(topo.nodes)
    links = {
        node: tuple(
            (nbr, (node, nbr), rank[nbr]) for nbr in topo.neighbors(node)
        )
        for node in topo.nodes
    }
    adjacent = frozenset(link for out in links.values() for _, link, _ in out)
    rates = {dest: traffic.rates_to(dest) for dest in dags}
    stalled = 0
    converged = False
    iterations = 0
    for iterations in range(1, max_iterations + 1):
        # No destination's update touches another's entries, so each
        # destination's node flows hold until its own update.
        node_t = {
            dest: node_flows(phi, rates[dest], dest, dag=dag)
            for dest, dag in dags.items()
        }
        flows = sum_link_flows(node_t, dags)
        d_total = model.total_delay(flows)
        history.append(d_total)
        if len(history) >= 2:
            prev = history[-2]
            if prev - d_total <= tolerance * max(prev, 1e-30):
                stalled += 1
                if stalled >= patience:
                    converged = True
                    break
            else:
                stalled = 0

        costs = model.marginals(flows)
        curvatures = None
        if scaling == "curvature":
            curvatures = {
                link_id: law.second(flows.get(link_id, 0.0))
                for link_id, law in model.functions.items()
            }
        for dest, dag in dags.items():
            delta = marginal_distances(phi, dest, costs, dag=dag)
            blocked = blocked_nodes(phi, dest, delta, dag=dag)
            _update_destination(
                links, phi, dest, node_t[dest], delta, costs, blocked,
                eta * total_input,
                adjacent,
                curvatures=curvatures,
                eta=eta,
            )
            # Raises LoopError if the update closed a cycle.
            dags[dest] = RoutingDAG(phi, dest, dag)
    return converged, iterations


def _update_destination(
    links: dict[NodeId, tuple[tuple[NodeId, LinkId, int], ...]],
    phi: MutablePhi,
    dest: NodeId,
    t: dict[NodeId, float],
    delta: dict[NodeId, float],
    costs: CostMap,
    blocked: set[NodeId],
    eta_raw: float,
    adjacent: frozenset[LinkId],
    *,
    curvatures: dict | None = None,
    eta: float = 1.0,
) -> None:
    """One Gallager update of every router's parameters toward ``dest``.

    ``links`` maps every router to a ``(neighbor, link, rank)`` tuple
    per neighbor, where the :func:`~repro.graph.shortest_paths.rank_nodes`
    rank breaks ties between equally good neighbors toward the lower
    address; ``adjacent`` holds every link.  A router's entry is
    replaced, never edited in place, and only when its content changes:
    the rewrite keeps the entry's key order, drops the fractions that
    reach zero and appends a new best neighbor last, so an entry equal
    in content is equal in order too and stays the same object.
    """
    for node, out in links.items():
        if node == dest:
            continue
        per_node = phi[node]
        current = per_node.get(dest, {})

        # best is the unblocked neighbor with the least
        # a = D'_{ik} + delta_k, the lower address winning ties.
        best = None
        best_a = INFINITY
        best_rank = -1
        for nbr, link, nbr_rank in out:
            downstream = delta.get(nbr, INFINITY)
            if downstream == INFINITY:
                continue
            value = costs[link] + downstream
            if nbr in blocked:
                continue
            if best_rank < 0 or value < best_a or (
                value == best_a and nbr_rank < best_rank
            ):
                best, best_a, best_rank = nbr, value, nbr_rank
        if best_rank < 0:
            continue  # everything blocked: keep parameters unchanged

        traffic_here = t.get(node, 0.0)
        if traffic_here <= FLOW_EPSILON:
            # No traffic: route everything along the best marginal path.
            # Only re-point when the target's marginal distance is below
            # this node's — the edge then always descends the delta
            # ordering, so re-pointing idle routers can never close a
            # cycle (Gallager's blocking argument only covers routers
            # that carry traffic).
            own = delta.get(node, INFINITY)
            if (delta.get(best, INFINITY) < own or own == INFINITY) and (
                len(current) != 1 or current.get(best) != 1.0
            ):
                per_node[dest] = {best: 1.0}
            continue

        moved = 0.0
        updated: dict[NodeId, float] | None = None
        for k, fraction in current.items():
            if k == best or fraction <= 0.0:
                continue
            downstream = delta.get(k, INFINITY)
            link = (node, k)
            if downstream == INFINITY or link not in adjacent:
                gap = INFINITY - best_a
            else:
                gap = costs[link] + downstream - best_a
            if gap <= 0.0:
                continue
            if curvatures is not None:
                # Newton-like step: the delay along the move direction
                # has curvature ~ D''(worse link) + D''(best link); the
                # minimizing flow shift is gap / curvature.
                h = curvatures.get(link, 0.0) + curvatures.get(
                    (node, best), 0.0
                )
                if h <= 0.0:
                    step = fraction
                else:
                    step = min(
                        fraction, eta * gap / (h * traffic_here)
                    )
            else:
                step = min(fraction, eta_raw * gap / traffic_here)
            if updated is None:
                updated = dict(current)
            updated[k] = fraction - step
            moved += step
        if updated is None:
            if all(f > 0.0 for f in current.values()):
                continue  # nothing moved and nothing to drop: the entry stays
            updated = dict(current)
        updated[best] = updated.get(best, 0.0) + moved
        entry = {k: v for k, v in updated.items() if v > 0.0}
        if entry != current:
            per_node[dest] = entry
