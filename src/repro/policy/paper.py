"""The paper's own algorithms as first citizens of the policy zoo.

Each class is a thin adapter over :class:`~repro.core.router.MPRouting`
— the engine the simulators always ran — so the refactor changes *where*
the algorithm is selected (the registry) without changing a single
computed number: the ``MPRouting`` construction arguments and the
update-call sequence are exactly what the controller used to issue, and
the committed converge/packet fixtures stay byte-identical.

- ``mp`` — MPDA in protocol mode: the real message exchange, with
  instantaneous loop-free reconvergence on link events — the only name
  that runs the protocol (an open observation records, it never
  selects the algorithm);
- ``mp-oracle`` — the converged MPDA outcome computed directly
  (Theorem 4);
- ``sp`` — the paper's single-path baseline (``successor_limit=1``);
- ``ecmp`` / ``ecmp-hop`` — the OSPF-style equal-cost baselines.
"""

from __future__ import annotations

from collections.abc import Mapping

from repro.core.router import MPRouting
from repro.core.transport import FaultyChannel, ReliableTransport
from repro.graph.shortest_paths import CostMap
from repro.graph.topology import NodeId
from repro.policy.base import RoutingPolicy, RoutingTables
from repro.policy.registry import register


class MPFamilyPolicy(RoutingPolicy):
    """Shared adapter: lifecycle calls forwarded to :class:`MPRouting`.

    ``successor_limit`` keeps only that many best successors per set
    (``policy_params={"successor_limit": 2}`` is the successor-count
    ablation); None keeps every loop-free successor.
    """

    #: "oracle" or "protocol" — the MPRouting backend this name selects.
    mode = "oracle"
    #: "lfi" (the paper's unequal-cost sets) or an ECMP ablation rule.
    path_rule = "lfi"
    loop_free = True

    def __init__(self, *, successor_limit: int | None = None) -> None:
        self._successor_limit = successor_limit
        self._mpr: MPRouting | None = None

    # -- lifecycle ------------------------------------------------------
    def initialize(self, scenario, config) -> None:
        self.topo = scenario.topo
        self.destinations = scenario.mean_traffic().destinations()
        self._mpr = MPRouting(
            scenario.topo,
            self.destinations,
            successor_limit=self._successor_limit,
            mode=self.mode,
            path_rule=self.path_rule,
            damping=config.damping,
            seed=config.seed,
            transport=self._transport(),
        )

    def _transport(self):
        """The control-plane channel (None: MPRouting's default)."""
        return None

    def on_costs(self, long_costs: CostMap) -> None:
        self._mpr.update_routes(long_costs)

    def on_short_costs(self, short_costs: CostMap) -> None:
        self._mpr.adjust_allocation(short_costs)

    def on_link_event(
        self,
        event: str,
        a: NodeId,
        b: NodeId,
        cost_ab: float | None = None,
        cost_ba: float | None = None,
    ) -> None:
        if event == "down":
            self._mpr.fail_link(a, b)
        elif event == "up":
            self._mpr.restore_link(a, b, cost_ab, cost_ba)
        else:
            raise ValueError(f"unknown link event {event!r}")

    # -- read side ------------------------------------------------------
    def routing(self) -> RoutingTables:
        return {
            dest: self._mpr.successors(dest) for dest in self.destinations
        }

    def fractions(
        self, node: NodeId, destination: NodeId
    ) -> Mapping[NodeId, float]:
        return self._mpr.fractions(node, destination)

    def phi(self) -> dict[NodeId, dict[NodeId, dict[NodeId, float]]]:
        return self._mpr.phi()

    def protocol_stats(self) -> dict[str, int]:
        return self._mpr.protocol_stats()

    # -- counters delegated to the engine -------------------------------
    @property
    def route_updates(self) -> int:
        return self._mpr.route_updates if self._mpr is not None else 0

    @property
    def allocation_updates(self) -> int:
        return self._mpr.allocation_updates if self._mpr is not None else 0


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
    mode = "protocol"
    handles_link_events = True

    def __init__(
        self,
        *,
        successor_limit: int | None = None,
        loss: float = 0.0,
        transport_seed: int = 7,
    ) -> None:
        super().__init__(successor_limit=successor_limit)
        self._loss = loss
        self._transport_seed = transport_seed

    def _transport(self):
        if self._loss > 0.0:
            return ReliableTransport(
                FaultyChannel(seed=self._transport_seed, loss=self._loss)
            )
        return None


@register
class MPOraclePolicy(MPFamilyPolicy):
    name = "mp-oracle"
    summary = (
        "MPDA multipath (oracle mode): converged Theorem-4 successor "
        "sets computed directly"
    )
    mode = "oracle"


@register
class SPPolicy(MPFamilyPolicy):
    name = "sp"
    summary = (
        "single-path baseline: best successor only (the paper's SP, "
        "an EIGRP/OSPF stand-in)"
    )
    mode = "oracle"

    def __init__(self) -> None:
        super().__init__(successor_limit=1)


@register
class ECMPPolicy(MPFamilyPolicy):
    name = "ecmp"
    summary = (
        "equal-cost multipath over measured costs (OSPF's rule; "
        "degenerates to SP under continuous marginal delays)"
    )
    mode = "oracle"
    path_rule = "ecmp"


@register
class ECMPHopPolicy(ECMPPolicy):
    name = "ecmp-hop"
    summary = (
        "hop-count ECMP (realistic OSPF): even split over equal-hop "
        "paths, blind to congestion"
    )
    path_rule = "ecmp-hop"
