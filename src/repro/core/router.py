"""The assembled MP routing plane: MPDA routes + IH/AH allocation.

:class:`MPRouting` is the paper's contribution wired together for the
simulators: it owns the successor sets and per-router allocation tables
and exposes the two update operations of the two-timescale discipline:

- :meth:`update_routes` — the long-term (``Tl``) operation: recompute
  multiple loop-free successor sets from long-term marginal-delay costs,
  and run **IH** wherever a successor set changed;
- :meth:`adjust_allocation` — the short-term (``Ts``) operation: run
  **AH** everywhere, using the routing-protocol distances combined with
  freshly measured *local* link costs (a strictly local computation, as
  the paper requires).

Routes can come from two interchangeable backends:

- ``mode="oracle"`` computes the converged MPDA outcome directly
  (Theorem 4: :math:`S^i_j = \\{k : D^k_j < D^i_j\\}`) — fast and exact
  for quasi-static experiments where the protocol has time to converge
  between measurements;
- ``mode="protocol"`` runs the real MPDA message exchange through
  :class:`~repro.core.driver.ProtocolDriver` and harvests the successor
  sets from the live routers.  Tests verify both backends agree.

``successor_limit=1`` yields the paper's SP baseline; ``None`` is MP.
"""

from __future__ import annotations

from collections.abc import Mapping

from repro import obs
from repro.core.allocation import AllocationTable
from repro.core.driver import ProtocolDriver
from repro.core.lfi import lfi_successors
from repro.core.mpda import MPDARouter
from repro.core.spf import ecmp_successors, restrict_successors
from repro.exceptions import RoutingError
from repro.graph.shortest_paths import CostMap, SharedSPF
from repro.graph.topology import NodeId, Topology
from repro.graph.validation import assert_loop_free

INFINITY = float("inf")


class MPRouting:
    """Routing plane for a whole network.

    Args:
        topo: the network.
        destinations: the active destinations (those with traffic).
        successor_limit: None for MP, 1 for the SP baseline, other values
            for the successor-count ablation.
        mode: "oracle" (converged sets computed directly) or "protocol"
            (real MPDA message exchange).
        path_rule: "lfi" (the paper's unequal-cost sets), "ecmp"
            (equal-cost-only sets over the measured costs — with
            continuous marginal delays ties never occur, so this
            degenerates to SP, which is itself the point), or
            "ecmp-hop" (realistic OSPF: hop-count routing with even
            splitting over equal-hop paths, blind to congestion).
            Non-"lfi" rules are oracle mode only.
        damping: AH step damping (1.0 = the paper's heuristic).
        seed: delivery interleaving seed for protocol mode.
        transport: control-plane channel for protocol mode (None = the
            default :class:`~repro.core.transport.PerfectChannel`); lets
            experiments run the exchange over a lossy wire.
    """

    def __init__(
        self,
        topo: Topology,
        destinations: list[NodeId],
        *,
        successor_limit: int | None = None,
        mode: str = "oracle",
        path_rule: str = "lfi",
        damping: float = 1.0,
        seed: int = 0,
        transport=None,
    ) -> None:
        if mode not in ("oracle", "protocol"):
            raise RoutingError(f"unknown routing mode {mode!r}")
        if path_rule not in ("lfi", "ecmp", "ecmp-hop"):
            raise RoutingError(f"unknown path rule {path_rule!r}")
        if path_rule != "lfi" and mode != "oracle":
            raise RoutingError(
                "the ECMP baselines are computed from converged distances; "
                "use mode='oracle'"
            )
        self.path_rule = path_rule
        self.topo = topo
        self.destinations = list(destinations)
        self.successor_limit = successor_limit
        self.mode = mode
        self.allocations = {
            node: AllocationTable(node, damping=damping) for node in topo.nodes
        }
        #: distance_tables[j][k] = D^k_j under the last long-term costs —
        #: the protocol-supplied distances IH/AH combine with local costs.
        self._distance_tables: dict[NodeId, dict[NodeId, float]] = {}
        self._successors: dict[NodeId, dict[NodeId, list[NodeId]]] = {}
        self._driver: ProtocolDriver | None = None
        if transport is not None and mode != "protocol":
            raise RoutingError(
                "a custom transport needs mode='protocol' (oracle mode "
                "exchanges no messages)"
            )
        if mode == "protocol":
            self._driver = ProtocolDriver(
                topo, MPDARouter, seed=seed, transport=transport
            )
        self.route_updates = 0
        self.allocation_updates = 0

    # ------------------------------------------------------------------
    # long-term (Tl) operation
    # ------------------------------------------------------------------
    def update_routes(self, long_costs: CostMap) -> None:
        """Recompute successor sets; IH re-seeds changed allocations."""
        self.route_updates += 1
        ob = obs.current()
        before = self._successor_snapshot() if ob is not None else None
        with obs.phase(ob, "routing.update_routes"):
            if self.mode == "protocol":
                self._update_routes_protocol(long_costs)
            else:
                self._update_routes_oracle(long_costs)
        if ob is not None:
            self._record_update(ob, before)
        # Fresh distribution wherever the successor set changed; the
        # AllocationTable notices changes and applies IH, otherwise it
        # adjusts incrementally with AH.
        self._apply_allocation(long_costs)

    def _update_routes_oracle(self, costs: CostMap) -> None:
        if self.path_rule == "ecmp-hop":
            # OSPF-like: route on hop counts, ignore measured costs.
            costs = {link_id: 1.0 for link_id in costs}
        # One reversed-adjacency setup shared by every destination (and
        # by the successor rule, which takes the distances instead of
        # re-running its own bellman_ford per destination).
        spf = SharedSPF(costs, nodes=self.topo.nodes)
        for dest in self.destinations:
            dist = spf.distances_to(dest)
            self._distance_tables[dest] = dist
            if self.path_rule in ("ecmp", "ecmp-hop"):
                successors = ecmp_successors(self.topo, costs, dest, dist=dist)
            else:
                successors = lfi_successors(self.topo, costs, dest, dist=dist)
            self._successors[dest] = self._restrict(successors, dist, costs)
            assert_loop_free(self._successors[dest], dest)

    def _update_routes_protocol(self, costs: CostMap) -> None:
        driver = self._driver
        assert driver is not None
        if not driver.started:
            driver.start(costs)
        else:
            driver.set_costs(dict(costs))
        driver.run()
        self._harvest_tables(costs)

    # ------------------------------------------------------------------
    # short-term (Ts) operation
    # ------------------------------------------------------------------
    def adjust_allocation(self, local_costs: CostMap) -> None:
        """Run the allocation heuristics with fresh local link costs."""
        self.allocation_updates += 1
        ob = obs.current()
        if ob is None:
            self._apply_allocation(local_costs)
            return
        with ob.timers.phase("routing.adjust_allocation"):
            self._apply_allocation(local_costs)
        ob.metrics.counter("routing.allocation_updates").inc()

    def _successor_snapshot(self) -> dict[NodeId, dict[NodeId, set[NodeId]]]:
        return {
            dest: {node: set(succ) for node, succ in by_node.items()}
            for dest, by_node in self._successors.items()
        }

    def _record_update(self, ob, before) -> None:
        """Count route-flap churn: (node, dest) pairs whose set changed."""
        churn = 0
        for dest in self.destinations:
            old = before.get(dest, {})
            new = self._successors.get(dest, {})
            for node in set(old) | set(new):
                if old.get(node, set()) != set(new.get(node, ())):
                    churn += 1
        ob.metrics.counter("routing.route_updates").inc()
        ob.metrics.counter("routing.successor_churn").inc(churn)
        if ob.tracer.enabled:
            # sim_time is stamped by the runners (None for clock-less
            # protocol-only runs), so churn series line up with epochs.
            ob.tracer.event(
                "route_update",
                time=ob.sim_time,
                update=self.route_updates,
                churn=churn,
            )

    def _apply_allocation(self, local_costs: CostMap) -> None:
        for node in self.topo.nodes:
            table = self.allocations[node]
            for dest in self.destinations:
                if node == dest:
                    continue
                distance_via = self._distance_via(node, dest, local_costs)
                table.update(dest, distance_via)

    def _restrict(
        self,
        successors: dict[NodeId, list[NodeId]],
        distances: Mapping[NodeId, float],
        costs: CostMap,
    ) -> dict[NodeId, list[NodeId]]:
        """Apply the successor-count limit at route-computation time.

        The restriction is part of *path* selection, so it happens at the
        long-term (``Tl``) update — the SP baseline keeps its single path
        pinned between route updates, exactly like a real single-path
        protocol; only the allocation over the (restricted) set reacts at
        ``Ts``.
        """
        if self.successor_limit is None:
            return successors
        restricted: dict[NodeId, list[NodeId]] = {}
        for node, succ in successors.items():
            via = {}
            for k in succ:
                d = distances.get(k, INFINITY)
                cost = costs.get((node, k))
                if d == INFINITY or cost is None:
                    continue
                via[k] = d + cost
            restricted[node] = list(
                restrict_successors(via, self.successor_limit)
            )
        return restricted

    def _distance_via(
        self, node: NodeId, dest: NodeId, local_costs: CostMap
    ) -> dict[NodeId, float]:
        """Marginal distance through each current successor of ``node``.

        Combines the protocol's neighbor distances (long-term) with the
        locally measured adjacent-link costs (short-term).
        """
        successors = self._successors.get(dest, {}).get(node, [])
        distances = self._distance_tables.get(dest, {})
        if self.path_rule == "ecmp-hop":
            # OSPF splits evenly over equal-cost next hops and never
            # looks at measured delays: constant distances make IH an
            # even split and AH a fixed point.
            return {
                k: 1.0
                for k in successors
                if local_costs.get((node, k)) is not None
            }
        via: dict[NodeId, float] = {}
        for k in successors:
            d = distances.get(k, INFINITY)
            link_cost = local_costs.get((node, k))
            if d == INFINITY or link_cost is None:
                continue
            via[k] = d + link_cost
        return via

    # ------------------------------------------------------------------
    # data-plane views
    # ------------------------------------------------------------------
    def phi(self) -> dict[NodeId, dict[NodeId, dict[NodeId, float]]]:
        """The global routing-parameter mapping for the fluid evaluator."""
        return {
            node: table.as_phi() for node, table in self.allocations.items()
        }

    def fractions(self, node: NodeId, destination: NodeId) -> dict[NodeId, float]:
        """Routing parameters of one router toward one destination.

        This makes :class:`MPRouting` a
        :class:`~repro.netsim.node.RoutingProvider`, so the packet
        simulator forwards straight off the live allocation tables.
        """
        return self.allocations[node].fractions(destination)

    def successors(self, dest: NodeId) -> dict[NodeId, list[NodeId]]:
        """Current successor sets toward ``dest`` (before any limit)."""
        return {
            node: list(succ)
            for node, succ in self._successors.get(dest, {}).items()
        }

    def used_successors(self, dest: NodeId) -> dict[NodeId, list[NodeId]]:
        """Successors actually carrying traffic (phi > 0)."""
        out: dict[NodeId, list[NodeId]] = {}
        for node, table in self.allocations.items():
            fractions = table.fractions(dest)
            out[node] = [k for k, f in fractions.items() if f > 0]
        return out

    def protocol_stats(self) -> dict[str, int]:
        """Message counters when running in protocol mode."""
        if self._driver is None:
            return {}
        return self._driver.message_stats()

    # ------------------------------------------------------------------
    # topology changes (protocol mode)
    # ------------------------------------------------------------------
    def fail_link(self, a: NodeId, b: NodeId) -> None:
        """Fail the duplex link ``a <-> b`` and reconverge the routes.

        Only available in protocol mode, where the real MPDA handles the
        failure with instantaneous loop freedom; the oracle backend has
        no live protocol state to update (copy the topology and build a
        new ``MPRouting`` instead).
        """
        driver = self._require_protocol("fail_link")
        driver.fail_link(a, b)
        driver.run()
        self._harvest_routes()

    def restore_link(
        self, a: NodeId, b: NodeId, cost_ab: float, cost_ba: float
    ) -> None:
        """Bring a failed duplex link back (protocol mode only)."""
        driver = self._require_protocol("restore_link")
        driver.restore_link(a, b, cost_ab, cost_ba)
        driver.run()
        self._harvest_routes()

    def _require_protocol(self, operation: str) -> ProtocolDriver:
        if self._driver is None or not self._driver.started:
            raise RoutingError(
                f"{operation} requires mode='protocol' with routes already "
                "computed at least once"
            )
        return self._driver

    def _harvest_routes(self) -> None:
        """Refresh routes from the live routers and re-seed allocations
        (IH fires where sets changed)."""
        driver = self._driver
        assert driver is not None
        costs = driver.current_costs()
        self._harvest_tables(costs)
        self._apply_allocation(costs)

    def _harvest_tables(self, costs: CostMap) -> None:
        """Copy distances and successor sets out of the live routers."""
        driver = self._driver
        assert driver is not None
        for dest in self.destinations:
            successors: dict[NodeId, list[NodeId]] = {}
            distances: dict[NodeId, float] = {dest: 0.0}
            for node, router in driver.routers.items():
                distances[node] = router.distance_to(dest)
                if node == dest:
                    successors[node] = []
                else:
                    successors[node] = sorted(
                        router.successors(dest), key=repr
                    )
            self._distance_tables[dest] = distances
            self._successors[dest] = self._restrict(
                successors, distances, costs
            )
            assert_loop_free(self._successors[dest], dest)
