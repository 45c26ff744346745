"""A naive reference for Gallager's OPT loop.

:func:`naive_optimize` is :func:`repro.gallager.opt.optimize` without
its shortcuts.  Every call to the evaluator goes through the public
phi-taking form, so every iteration re-derives each destination's
successor sets, topological order and fractions from raw phi for the
link flows, the node flows, the marginal distances and the blocked set.
The best neighbor is picked by ``(a, repr)``, with no precomputed rank
map or neighbor lists.  :func:`~repro.graph.validation.assert_loop_free`
runs on phi's successor sets after every destination update.

Production keeps one routing DAG per destination instead: it computes
each destination's node flows once per iteration, replaces only the
entries whose content changes, and rebuilds each DAG from its previous
one after every update, re-checking only the replaced entries.  This
loop writes a new entry for every router it updates, changed or not.
The differential tests compare the two with ``==`` on the D_T history
and on phi, key order included.  This module is test-only: no
production module imports it.

Compare the two from the repository root, for example::

    PYTHONPATH=src python -c "from repro import net1_scenario; \\
    from repro.gallager.opt import optimize; \\
    from repro.testing.opt_reference import naive_optimize; \\
    s = net1_scenario(load=1.0); t = s.mean_traffic(); \\
    a = optimize(s.topo, t, max_iterations=50); \\
    b = naive_optimize(s.topo, t, max_iterations=50); \\
    print(a.history == b.history and a.phi == b.phi)"
"""

from __future__ import annotations

from repro.fluid.delay import DelayModel
from repro.fluid.evaluator import FLOW_EPSILON, link_flows, node_flows
from repro.fluid.flows import TrafficMatrix
from repro.gallager.blocking import blocked_nodes
from repro.gallager.marginals import marginal_distances
from repro.gallager.opt import GallagerResult, MutablePhi, shortest_path_phi
from repro.graph.shortest_paths import CostMap
from repro.graph.topology import NodeId, Topology
from repro.graph.validation import assert_loop_free

INFINITY = float("inf")


def naive_optimize(
    topo: Topology,
    traffic: TrafficMatrix,
    *,
    eta: float = 0.1,
    max_iterations: int = 2000,
    tolerance: float = 1e-7,
    patience: int = 20,
    delay_model: DelayModel | None = None,
    initial_phi: MutablePhi | None = None,
    scaling: str = "none",
) -> GallagerResult:
    """Gallager's algorithm, recomputing everything from raw phi.

    Takes :func:`~repro.gallager.opt.optimize`'s arguments (less
    ``require_convergence``) and returns the same result; it neither
    checks them nor records observability metrics.
    """
    model = delay_model or DelayModel.for_topology(topo)
    destinations = traffic.destinations()
    phi = initial_phi if initial_phi is not None else shortest_path_phi(
        topo, destinations
    )
    total_input = traffic.total_rate()
    history: list[float] = []
    stalled = 0
    converged = False
    iterations = 0
    for iterations in range(1, max_iterations + 1):
        flows = link_flows(phi, traffic)
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
        for dest in destinations:
            rates = traffic.rates_to(dest)
            t = node_flows(phi, rates, dest)
            delta = marginal_distances(phi, dest, costs)
            blocked = blocked_nodes(phi, dest, delta)
            _update_destination(
                topo, phi, dest, t, delta, costs, blocked,
                eta * total_input,
                curvatures=curvatures,
                eta=eta,
            )
            assert_loop_free(
                {
                    node: [
                        k for k, v in phi[node].get(dest, {}).items() if v > 0
                    ]
                    for node in phi
                    if node != dest
                },
                dest,
            )
    final = model.total_delay(link_flows(phi, traffic))
    return GallagerResult(
        phi=phi,
        total_delay=final,
        iterations=iterations,
        converged=converged,
        history=history,
    )


def _update_destination(
    topo: Topology,
    phi: MutablePhi,
    dest: NodeId,
    t: dict[NodeId, float],
    delta: dict[NodeId, float],
    costs: CostMap,
    blocked: set[NodeId],
    eta_raw: float,
    *,
    curvatures: dict | None = None,
    eta: float = 1.0,
) -> None:
    """One Gallager update of every router's parameters toward ``dest``."""
    for node in topo.nodes:
        if node == dest:
            continue
        current = phi[node].get(dest, {})

        a: dict[NodeId, float] = {}
        for nbr in topo.neighbors(node):
            downstream = delta.get(nbr, INFINITY)
            if downstream == INFINITY:
                continue
            a[nbr] = costs[(node, nbr)] + downstream

        candidates = {
            k: v for k, v in a.items() if k not in blocked and k != node
        }
        if not candidates:
            continue
        best = min(candidates, key=lambda k: (candidates[k], repr(k)))

        traffic_here = t.get(node, 0.0)
        if traffic_here <= FLOW_EPSILON:
            own = delta.get(node, INFINITY)
            if delta.get(best, INFINITY) < own or own == INFINITY:
                phi[node][dest] = {best: 1.0}
            continue

        updated = dict(current)
        moved = 0.0
        for k, fraction in current.items():
            if k == best or fraction <= 0.0:
                continue
            gap = a.get(k, INFINITY) - candidates[best]
            if gap <= 0.0:
                continue
            if curvatures is not None:
                h = curvatures.get((node, k), 0.0) + curvatures.get(
                    (node, best), 0.0
                )
                if h <= 0.0:
                    step = fraction
                else:
                    step = min(fraction, eta * gap / (h * traffic_here))
            else:
                step = min(fraction, eta_raw * gap / traffic_here)
            updated[k] = fraction - step
            moved += step
        updated[best] = updated.get(best, 0.0) + moved
        phi[node][dest] = {k: v for k, v in updated.items() if v > 0.0}
