"""Gallager's minimum-delay optimum as a registered policy.

OPT is not a two-timescale algorithm: the optimal split fractions are
computed once, offline, from the scenario's stationary mean traffic
(the paper's comparison target).  As a policy it holds those fractions
fixed — ``on_costs`` / ``on_short_costs`` are no-ops beyond the update
counters — so running it through the controller evaluates the optimal
routing under exactly the same data-plane machinery (fluid queues,
finite buffers, warmup accounting) as every rival, instead of the
special-cased evaluation that used to live in :mod:`repro.bench.figures`.

Gallager's iteration maintains loop freedom throughout (the blocking
sets forbid routing-graph cycles), so the policy claims ``loop_free``
and passes the Theorem-3 audit.
"""

from __future__ import annotations

from repro.fluid.delay import DelayModel
from repro.gallager.opt import GallagerResult, optimize
from repro.graph.shortest_paths import CostMap
from repro.graph.topology import NodeId
from repro.policy.base import RoutingPolicy, RoutingTables
from repro.policy.registry import register


@register
class OptPolicy(RoutingPolicy):
    name = "opt"
    summary = (
        "Gallager's minimum-delay optimum on stationary mean traffic "
        "(fixed fractions, the paper's comparison target)"
    )
    loop_free = True

    def __init__(
        self, *, eta: float = 0.1, max_iterations: int = 2500
    ) -> None:
        self.eta = eta
        self.max_iterations = max_iterations
        self.gallager: GallagerResult | None = None
        self._phi: dict = {}

    def initialize(self, scenario, config) -> None:
        self.topo = scenario.topo
        traffic = scenario.mean_traffic()
        self.destinations = traffic.destinations()
        # Optimize against the unbounded convex law (OPT needs true
        # gradients); the controller's data plane then evaluates the
        # fixed fractions under the same finite-buffer model as MP/SP.
        self.gallager = optimize(
            self.topo,
            traffic,
            eta=self.eta,
            max_iterations=self.max_iterations,
            delay_model=DelayModel.for_topology(self.topo),
        )
        self._phi = self.gallager.phi

    def on_costs(self, long_costs: CostMap) -> None:
        # The optimum is stationary; measured costs don't move it.
        self.route_updates += 1

    def routing(self) -> RoutingTables:
        tables: RoutingTables = {}
        for dest in self.destinations:
            tables[dest] = {
                node: sorted(
                    (k for k, f in by_dest.get(dest, {}).items() if f > 0),
                    key=repr,
                )
                for node, by_dest in self._phi.items()
                if node != dest
            }
        return tables

    def phi(self) -> dict[NodeId, dict[NodeId, dict[NodeId, float]]]:
        return self._phi
