"""The paper's own algorithms as first citizens of the policy zoo.

The paper's MP is one mechanism: IH / AH allocation (Figs. 6-7) over
loop-free successor sets, under the two-timescale discipline.
:class:`MPFamilyPolicy` owns it — the per-router allocation tables, the
distance tables the allocation combines with local link costs, and the
successor sets — and each registered subclass supplies only the source
of its sets, through :meth:`MPFamilyPolicy._route`:

- ``mp`` — MPDA through :class:`~repro.core.driver.ProtocolDriver`: the
  real message exchange, with instantaneous loop-free reconvergence on
  link events — the only name that runs the protocol (an open
  observation records, it never selects the algorithm);
- ``mp-oracle`` — the converged MPDA outcome computed directly
  (Theorem 4: :math:`S^i_j = \\{k : D^k_j < D^i_j\\}`); tests check it
  equals what ``mp`` harvests;
- ``sp`` — ``mp-oracle`` keeping only the best successor
  (``successor_limit=1``, the paper's single-path baseline);
- ``ecmp`` / ``ecmp-hop`` — the OSPF-style equal-cost baselines.

The two operations of the discipline are the same for all five:

- :meth:`~MPFamilyPolicy.on_costs` — the long-term (``Tl``) operation:
  recompute the successor sets from long-term marginal-delay costs, and
  run **IH** wherever a set changed (**AH** elsewhere);
- :meth:`~MPFamilyPolicy.on_short_costs` — the short-term (``Ts``)
  operation: run **AH** everywhere, using the routing distances combined
  with freshly measured *local* link costs (a strictly local
  computation, as the paper requires).

AH moves traffic only among two or more successors, and Property 1 pins
a lone successor at 1, so between route updates a single-successor
entry is a fixed point: ``Ts`` skips those entries while their links'
costs keep them valid, and the tables end exactly as the full loop
would leave them (see :class:`MPFamilyPolicy`).
"""

from __future__ import annotations

import abc
from collections.abc import Mapping

from repro import obs
from repro.core.allocation import AllocationTable
from repro.core.driver import ProtocolDriver
from repro.core.lfi import lfi_successors
from repro.core.mpda import MPDARouter
from repro.core.spf import ecmp_successors, restrict_successors
from repro.core.transport import FaultyChannel, ReliableTransport
from repro.exceptions import ConfigError
from repro.graph.shortest_paths import CostMap, SharedSPF
from repro.graph.topology import LinkId, NodeId
from repro.graph.validation import assert_loop_free
from repro.policy.base import RoutingPolicy, RoutingTables
from repro.policy.registry import register

INFINITY = float("inf")

#: The Ts plan: the least and greatest distance of the held entries on
#: each out-link, then every other entry as (table, destination,
#: successor list, distances), in the loop's order.
_Plan = tuple[
    dict[LinkId, tuple[float, float]],
    list[tuple[AllocationTable, NodeId, list[NodeId], Mapping[NodeId, float]]],
]


def _via(
    node: NodeId,
    successors: list[NodeId],
    distances: Mapping[NodeId, float],
    costs: CostMap,
) -> dict[NodeId, float]:
    """:math:`D^k_j + l_{ik}` through each successor ``k`` of ``node``
    that has a finite distance and a usable link."""
    via: dict[NodeId, float] = {}
    for k in successors:
        d = distances.get(k, INFINITY)
        cost = costs.get((node, k))
        if d == INFINITY or cost is None:
            continue
        via[k] = d + cost
    return via


def _unit_via(
    node: NodeId,
    successors: list[NodeId],
    distances: Mapping[NodeId, float],
    costs: CostMap,
) -> dict[NodeId, float]:
    """1.0 through each successor ``k`` of ``node`` with a usable link:
    constant distances make IH an even split and AH a fixed point."""
    return {k: 1.0 for k in successors if costs.get((node, k)) is not None}


class MPFamilyPolicy(RoutingPolicy):
    """IH / AH allocation over loop-free successor sets.

    ``successor_limit`` keeps only that many best successors per set
    (``policy_params={"successor_limit": 2}`` is the successor-count
    ablation); None keeps every loop-free successor.

    ``Ts`` runs from a plan of the state the full loop (:meth:`_allocate`)
    left, built at the first ``Ts`` after it.  An entry is *held* when
    its successor list is one ``k`` with :math:`0 \\le D^k_j < \\infty`
    and its table stores ``{k: 1.0}``: with any cost of ``(i, k)`` that
    keeps :math:`D^k_j + l_{ik}` in :math:`[0, \\infty)`, IH/AH would
    return the stored entry.  Held entries are grouped by out-link with
    the least and greatest of their distances, so one test per link,
    ``lo + cost >= 0.0 and hi + cost < inf``, covers them all (float
    addition is monotone; a NaN cost fails it).  When every held link
    passes, only the other, *listed* entries run IH/AH, in the loop's
    order; otherwise the full loop runs.  Held entries never raise, so
    the tables, every entry object kept or replaced, and any
    :class:`~repro.exceptions.AllocationError` are the loop's.  Every
    route update (:meth:`_install`) and every full loop drop the plan,
    since each may change what it was built from.  ``Tl`` keeps the full
    loop: it follows a route update, which drops the plan anyway.
    """

    loop_free = True

    def __init__(self, *, successor_limit: int | None = None) -> None:
        if successor_limit is not None and (
            not isinstance(successor_limit, int) or successor_limit < 1
        ):
            raise ConfigError(
                f"{self.name} needs successor_limit None or an integer "
                f">= 1, got {successor_limit!r}"
            )
        self._successor_limit = successor_limit
        self.allocations: dict[NodeId, AllocationTable] = {}
        #: _distances[j][k] = D^k_j under the last long-term costs — the
        #: routing distances IH/AH combine with local costs.
        self._distances: dict[NodeId, Mapping[NodeId, float]] = {}
        self._successors: RoutingTables = {}
        #: The Ts plan (see the class docstring); None until the first
        #: Ts after a route update or a full loop.
        self._plan: _Plan | None = None

    # -- lifecycle ------------------------------------------------------
    def initialize(self, scenario, config) -> None:
        self.topo = scenario.topo
        self.destinations = scenario.mean_traffic().destinations()
        self.allocations = {
            node: AllocationTable(node, damping=config.damping)
            for node in self.topo.nodes
        }

    @abc.abstractmethod
    def _route(self, long_costs: CostMap) -> None:
        """Compute every destination's successor sets from ``long_costs``
        and record each through :meth:`_install`."""

    def on_costs(self, long_costs: CostMap) -> None:
        """Recompute successor sets; IH re-seeds changed allocations."""
        self.route_updates += 1
        ob = obs.current()
        before = self.routing() if ob is not None else None
        with obs.phase(ob, "routing.update_routes"):
            self._route(long_costs)
        if ob is not None:
            self._record_churn(ob, before)
        # Fresh distribution wherever the successor set changed; the
        # AllocationTable notices changes and applies IH, otherwise it
        # adjusts incrementally with AH.
        self._allocate(long_costs)

    def on_short_costs(self, short_costs: CostMap) -> None:
        """Run the allocation heuristics with fresh local link costs:
        AH on every entry the plan lists, or the full loop when a held
        link's cost fails its test."""
        self.allocation_updates += 1
        ob = obs.current()
        with obs.phase(ob, "routing.adjust_allocation"):
            self._adjust(short_costs)
        if ob is not None:
            ob.metrics.counter("routing.allocation_updates").inc()

    def _install(
        self,
        dest: NodeId,
        successors: dict[NodeId, list[NodeId]],
        distances: Mapping[NodeId, float],
        costs: CostMap,
    ) -> None:
        """Record ``dest``'s distances and successor sets.

        The successor-count limit is part of *path* selection, so it
        applies here, at the long-term (``Tl``) update: the SP baseline
        keeps its single path pinned between route updates, exactly like
        a real single-path protocol; only the allocation over the
        restricted set reacts at ``Ts``.
        """
        limit = self._successor_limit
        if limit is not None:
            successors = {
                node: list(
                    restrict_successors(
                        _via(node, succ, distances, costs), limit
                    )
                )
                for node, succ in successors.items()
            }
        self._plan = None
        self._distances[dest] = distances
        self._successors[dest] = successors
        assert_loop_free(successors, dest)

    #: Marginal distance through each successor: the routing distances
    #: (long-term) plus the locally measured adjacent-link costs
    #: (short-term).
    _distance_via = staticmethod(_via)

    def _allocate(self, local_costs: CostMap) -> None:
        """The full loop: IH/AH on every (router, destination) entry."""
        self._plan = None
        distance_via = self._distance_via
        for node in self.topo.nodes:
            table = self.allocations[node]
            for dest in self.destinations:
                if node == dest:
                    continue
                table.update(
                    dest,
                    distance_via(
                        node,
                        self._successors.get(dest, {}).get(node, []),
                        self._distances.get(dest, {}),
                        local_costs,
                    ),
                )

    def _adjust(self, local_costs: CostMap) -> None:
        """The Ts allocation: the plan's listed entries while every held
        link passes its test, else the full loop."""
        plan = self._plan
        if plan is None:
            plan = self._plan = self._make_plan()
        held, listed = plan
        for link, (lo, hi) in held.items():
            cost = local_costs.get(link)
            if cost is None or not (lo + cost >= 0.0 and hi + cost < INFINITY):
                self._allocate(local_costs)
                return
        distance_via = self._distance_via
        for table, dest, successors, distances in listed:
            table.update(
                dest,
                distance_via(table.router, successors, distances, local_costs),
            )

    def _make_plan(self) -> _Plan:
        """Hold each single-successor entry AH cannot move, grouped by
        out-link with its distance bounds; list every other entry."""
        held: dict[LinkId, tuple[float, float]] = {}
        listed = []
        for node in self.topo.nodes:
            table = self.allocations[node]
            stored = table.as_phi()
            for dest in self.destinations:
                if node == dest:
                    continue
                successors = self._successors.get(dest, {}).get(node, [])
                distances = self._distances.get(dest, {})
                if len(successors) == 1:
                    (k,) = successors
                    d = distances.get(k, INFINITY)
                    if 0.0 <= d < INFINITY and stored.get(dest) == {k: 1.0}:
                        lo, hi = held.get((node, k), (d, d))
                        held[(node, k)] = (min(lo, d), max(hi, d))
                        continue
                listed.append((table, dest, successors, distances))
        return held, listed

    def _record_churn(self, ob, before: RoutingTables) -> None:
        """Count route-flap churn: (node, dest) pairs whose set changed."""
        churn = 0
        for dest, new in self.routing().items():
            old = before[dest]
            for node in set(old) | set(new):
                if set(old.get(node, ())) != set(new.get(node, ())):
                    churn += 1
        ob.metrics.counter("routing.route_updates").inc()
        ob.metrics.counter("routing.successor_churn").inc(churn)
        if ob.tracer.enabled:
            # sim_time is stamped by the runners, so churn series line
            # up with epochs.
            ob.tracer.event(
                "route_update",
                time=ob.sim_time,
                update=self.route_updates,
                churn=churn,
            )

    # -- read side ------------------------------------------------------
    def routing(self) -> RoutingTables:
        return {
            dest: {
                node: list(succ)
                for node, succ in self._successors.get(dest, {}).items()
            }
            for dest in self.destinations
        }

    def phi(self) -> dict[NodeId, dict[NodeId, dict[NodeId, float]]]:
        # The tables' stored entries, not copies: an entry AH left alone
        # stays the same object from epoch to epoch.
        return {
            node: table.as_phi() for node, table in self.allocations.items()
        }


@register
class MPProtocolPolicy(MPFamilyPolicy):
    """MPDA through :class:`~repro.core.driver.ProtocolDriver`.

    ``loss`` > 0 runs the exchange over
    ``ReliableTransport(FaultyChannel(loss))`` — the paper's delivery
    model enforced over a lossy wire, costing retransmissions, not
    correctness (``policy_params={"loss": ...}``; JSON-serializable, so
    sweep cells pickle cleanly).
    """

    name = "mp"
    summary = (
        "MPDA multipath (protocol mode): the real message exchange, "
        "loop-free at every instant"
    )
    handles_link_events = True

    def __init__(
        self,
        *,
        successor_limit: int | None = None,
        loss: float = 0.0,
        transport_seed: int = 7,
    ) -> None:
        super().__init__(successor_limit=successor_limit)
        if not isinstance(loss, (int, float)) or not 0.0 <= loss < 1.0:
            raise ConfigError(
                f"mp needs a loss probability in [0, 1), got {loss!r}"
            )
        self._loss = loss
        self._transport_seed = transport_seed
        self._driver: ProtocolDriver | None = None

    def initialize(self, scenario, config) -> None:
        super().initialize(scenario, config)
        transport = None
        if self._loss > 0.0:
            transport = ReliableTransport(
                FaultyChannel(seed=self._transport_seed, loss=self._loss)
            )
        self._driver = ProtocolDriver(
            self.topo, MPDARouter, seed=config.seed, transport=transport
        )

    def _route(self, long_costs: CostMap) -> None:
        driver = self._driver
        if driver.started:
            driver.set_costs(dict(long_costs))
        else:
            driver.start(long_costs)
        driver.run()
        self._harvest(long_costs)

    def on_link_event(
        self,
        event: str,
        a: NodeId,
        b: NodeId,
        cost_ab: float | None = None,
        cost_ba: float | None = None,
    ) -> None:
        """Fail or restore the duplex link ``a <-> b`` and reconverge;
        IH re-seeds the allocations whose successor set changed."""
        driver = self._driver
        if event == "down":
            driver.fail_link(a, b)
        elif event == "up":
            driver.restore_link(a, b, cost_ab, cost_ba)
        else:
            raise ValueError(f"unknown link event {event!r}")
        driver.run()
        costs = driver.current_costs()
        self._harvest(costs)
        self._allocate(costs)

    def _harvest(self, costs: CostMap) -> None:
        """Copy distances and successor sets out of the live routers."""
        routers = self._driver.routers
        for dest in self.destinations:
            successors: dict[NodeId, list[NodeId]] = {}
            distances: dict[NodeId, float] = {dest: 0.0}
            for node, router in routers.items():
                distances[node] = router.distance_to(dest)
                if node == dest:
                    successors[node] = []
                else:
                    successors[node] = sorted(
                        router.successors(dest), key=repr
                    )
            self._install(dest, successors, distances, costs)

    def protocol_stats(self) -> dict[str, int]:
        return self._driver.message_stats()


@register
class MPOraclePolicy(MPFamilyPolicy):
    name = "mp-oracle"
    summary = (
        "MPDA multipath (oracle mode): converged Theorem-4 successor "
        "sets computed directly"
    )

    def _route(self, long_costs: CostMap) -> None:
        # One reversed-adjacency setup shared by every destination; the
        # successor rule takes each destination's distances from it.
        spf = SharedSPF(long_costs, nodes=self.topo.nodes)
        for dest in self.destinations:
            dist = spf.distances_to(dest)
            successors = self._successor_sets(long_costs, dest, dist)
            self._install(dest, successors, dist, long_costs)

    def _successor_sets(
        self, costs: CostMap, dest: NodeId, dist: Mapping[NodeId, float]
    ) -> dict[NodeId, list[NodeId]]:
        return lfi_successors(self.topo, costs, dest, dist=dist)


@register
class SPPolicy(MPOraclePolicy):
    name = "sp"
    summary = (
        "single-path baseline: best successor only (the paper's SP, "
        "an EIGRP/OSPF stand-in)"
    )

    def __init__(self) -> None:
        super().__init__(successor_limit=1)


@register
class ECMPPolicy(MPOraclePolicy):
    """Equal-cost sets over the measured costs: with continuous marginal
    delays ties never occur, so this degenerates to SP — which is itself
    the point."""

    name = "ecmp"
    summary = (
        "equal-cost multipath over measured costs (OSPF's rule; "
        "degenerates to SP under continuous marginal delays)"
    )

    def _successor_sets(
        self, costs: CostMap, dest: NodeId, dist: Mapping[NodeId, float]
    ) -> dict[NodeId, list[NodeId]]:
        return ecmp_successors(self.topo, costs, dest, dist=dist)


@register
class ECMPHopPolicy(ECMPPolicy):
    """Realistic OSPF: hop-count routing with an even split over
    equal-hop paths, blind to congestion."""

    name = "ecmp-hop"
    summary = (
        "hop-count ECMP (realistic OSPF): even split over equal-hop "
        "paths, blind to congestion"
    )

    def _route(self, long_costs: CostMap) -> None:
        super()._route(dict.fromkeys(long_costs, 1.0))

    # OSPF never looks at measured delays.  Its held entries take the
    # same cost test as any other policy's: a cost that fails it runs
    # the full loop, which still reads only the link's presence.
    _distance_via = staticmethod(_unit_via)
