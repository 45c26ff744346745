"""Assembles a packet-level network from a topology.

:class:`PacketNetwork` builds one :class:`~repro.netsim.node.SimNode`
per router and one :class:`~repro.netsim.link.SimLink` per directed
link, and wires each link to deliver straight into its receiving
router's :meth:`~repro.netsim.node.SimNode.receive`.  It owns the
measurement plumbing: per-link cost estimators fed from the link
monitors, and the flow monitor recording end-to-end delays.

It is routing-agnostic: :meth:`PacketNetwork.route` installs any phi
mapping — a policy's ``phi()`` once per epoch, or a fixed one — so the
same network runs MP, SP, OPT-derived parameters, or a fixed phi.  Each
router compiles its row into a forwarding table when it is installed,
so no hop re-reads the fractions.
"""

from __future__ import annotations

import random
from collections.abc import Mapping

from repro import obs
from repro.core.costs import MM1CostEstimator, OnlineCostEstimator
from repro.exceptions import SimulationError, TopologyError
from repro.obs.metrics import Histogram
from repro.fluid.flows import Flow, TrafficMatrix
from repro.graph.topology import LinkId, NodeId, Topology
from repro.netsim.engine import Engine
from repro.netsim.link import SimLink
from repro.netsim.monitor import FlowMonitor
from repro.netsim.node import SimNode
from repro.netsim.packet import Packet
from repro.netsim.traffic import PoissonSource, ScheduledSource

ESTIMATOR_KINDS = ("mm1", "online")


class PacketNetwork:
    """The packet-level data plane plus measurement.

    Args:
        topo: the network.
        seed: master seed; per-component RNGs derive from it.
        estimator: link-cost estimator kind ("mm1" uses true capacities,
            "online" is the capacity-free estimator).
        queue_capacity: per-link output buffer in packets (None for the
            paper's lossless model); overflow drops are counted in
            ``flow_monitor.queue_drops``.
    """

    def __init__(
        self,
        topo: Topology,
        *,
        seed: int = 0,
        estimator: str = "mm1",
        queue_capacity: int | None = None,
    ) -> None:
        if estimator not in ESTIMATOR_KINDS:
            raise SimulationError(
                f"unknown estimator {estimator!r}; pick from {ESTIMATOR_KINDS}"
            )
        self.topo = topo
        self.engine = Engine()
        self.flow_monitor = FlowMonitor()
        if obs.current() is not None:
            # Delay quantiles (p50/p90/p99) exist only when someone is
            # watching; the unobserved delivery path stays untouched.
            self.flow_monitor.delay_hist = Histogram()
        master = random.Random(seed)

        self.nodes: dict[NodeId, SimNode] = {}
        for node in topo.nodes:
            self.nodes[node] = SimNode(
                node,
                self.engine,
                self.flow_monitor,
                random.Random(master.getrandbits(64)),
                topo.num_nodes,
            )

        self.links: dict[LinkId, SimLink] = {}
        self.estimators: dict[LinkId, object] = {}
        for ln in topo.links():
            self.links[ln.link_id] = SimLink(
                self.engine,
                ln,
                self.nodes[ln.tail].receive,
                random.Random(master.getrandbits(64)),
                queue_capacity=queue_capacity,
                on_drop=self.flow_monitor.note_queue_drop,
            )
            if estimator == "mm1":
                self.estimators[ln.link_id] = MM1CostEstimator(
                    ln.capacity, ln.prop_delay
                )
            else:
                self.estimators[ln.link_id] = OnlineCostEstimator()

        for node in topo.nodes:
            self.nodes[node].bind_links(
                {
                    nbr: self.links[(node, nbr)]
                    for nbr in topo.neighbors(node)
                }
            )
        self._source_rng = random.Random(master.getrandbits(64))

    # ------------------------------------------------------------------
    # data plane
    # ------------------------------------------------------------------
    def route(
        self, phi: Mapping[NodeId, Mapping[NodeId, Mapping[NodeId, float]]]
    ) -> None:
        """Forward by ``phi`` (``phi[node][dest][nbr]``) until the next call.

        Each router keeps its own row, not a copy, and compiles the
        entries that are not the objects it already holds into its
        forwarding table (:meth:`SimNode.install`), so the entries must
        stay unedited while it forwards by them — the read-only promise
        of :meth:`repro.policy.RoutingPolicy.phi`.  A router ``phi``
        omits has no routes.

        Raises:
            AllocationError: an entry holds a NaN, infinite or negative
                fraction.
        """
        for node_id, node in self.nodes.items():
            node.install(phi.get(node_id, {}))

    def inject(self, packet: Packet) -> None:
        """Inject a packet at its source router."""
        try:
            node = self.nodes[packet.source]
        except KeyError:
            raise TopologyError(f"unknown source {packet.source!r}")
        self.flow_monitor.note_injected(packet.flow)
        node.receive(packet)

    # ------------------------------------------------------------------
    # workload attachment
    # ------------------------------------------------------------------
    def attach_poisson(
        self,
        traffic: TrafficMatrix,
        *,
        start: float = 0.0,
        stop: float | None = None,
    ) -> list[PoissonSource]:
        """One Poisson source per flow of ``traffic``."""
        traffic.validate_against(self.topo)
        return [
            PoissonSource(
                self.engine,
                self.inject,
                flow,
                random.Random(self._source_rng.getrandbits(64)),
                start=start,
                stop=stop,
            )
            for flow in traffic.flows
        ]

    def attach_schedules(
        self,
        flows: list[Flow],
        schedules: dict[str, list[tuple[float, float]]],
        *,
        peak_factor: float,
        stop: float | None = None,
    ) -> list[ScheduledSource]:
        """On-off sources replaying precomputed burst windows.

        ``schedules`` maps a flow label to its (start, end) on-periods
        (e.g. a :class:`~repro.sim.scenario.BurstyScenario`'s), during
        which the flow sends at ``flow.rate * peak_factor``; only the
        packet arrival times within a window are random.
        """
        return [
            ScheduledSource(
                self.engine,
                self.inject,
                flow,
                random.Random(self._source_rng.getrandbits(64)),
                periods=schedules.get(flow.label(), []),
                peak_rate=flow.rate * peak_factor,
                stop=stop,
            )
            for flow in flows
        ]

    # ------------------------------------------------------------------
    # topology dynamics
    # ------------------------------------------------------------------
    def set_link_up(self, link_id: LinkId, up: bool) -> None:
        """Fail or restore one directed link.

        Failing drops the packets queued on it (counted by the flow
        monitor); packets already propagating were transmitted before
        the cut and still arrive.  Idempotent per direction.
        """
        try:
            link = self.links[link_id]
        except KeyError:
            raise TopologyError(f"unknown link {link_id!r}")
        if up and not link.up:
            link.restore()
        elif not up and link.up:
            link.fail()

    # ------------------------------------------------------------------
    # measurement
    # ------------------------------------------------------------------
    def measure_costs(self) -> dict[LinkId, float]:
        """Close every link's measurement window and return fresh costs.

        Feeds each window into the link's estimator; call this at each
        ``Ts`` / ``Tl`` boundary.
        """
        costs: dict[LinkId, float] = {}
        now = self.engine.now
        for link_id, link in self.links.items():
            measurement = link.monitor.take_window(now)
            estimator = self.estimators[link_id]
            costs[link_id] = estimator.observe(measurement)
        return costs

    def link_utilizations(self) -> dict[LinkId, float]:
        elapsed = self.engine.now
        return {
            link_id: link.utilization(elapsed)
            for link_id, link in self.links.items()
        }

    def mean_flow_delays(self) -> dict[str, float]:
        """Per-flow mean end-to-end delay (seconds)."""
        return self.flow_monitor.mean_delays()

    def run(self, until: float) -> None:
        """Advance the simulation to absolute time ``until``."""
        self.engine.run(until=until)

    def harvest_metrics(self, registry) -> None:
        """Copy data-plane totals into an observation's registry.

        Records end-to-end packet accounting (injected / delivered /
        dropped / in flight), per-link queue high-water marks — the
        occupancy figures behind the paper's buffering discussion — the
        end-to-end delay quantile sketch, and the queueing /
        transmission / propagation delay decomposition.  Call once, at
        run end: the histogram merge accumulates.
        """
        monitor = self.flow_monitor
        registry.gauge("netsim.packets_injected").set(
            monitor.total_injected()
        )
        registry.gauge("netsim.packets_delivered").set(
            monitor.total_delivered()
        )
        registry.gauge("netsim.no_route_drops").set(monitor.no_route_drops)
        registry.gauge("netsim.queue_drops").set(monitor.queue_drops)
        registry.gauge("netsim.packets_in_flight").set(monitor.in_flight())
        if monitor.delay_hist is not None:
            registry.histogram("netsim.delay.e2e_seconds").merge(
                monitor.delay_hist
            )
        elapsed = self.engine.now
        wait_s = service_s = prop_s = 0.0
        for link_id, link in self.links.items():
            registry.gauge(
                "netsim.queue_high_water", link=link_id
            ).set(link.queue.max_depth)
            registry.gauge(
                "netsim.link_utilization", link=link_id
            ).set(link.utilization(elapsed))
            wait_s += link.monitor.total_wait_s
            service_s += link.monitor.total_service_s
            prop_s += link.monitor.total_prop_s
        # Aggregate end-to-end delay decomposition: total seconds packets
        # spent queueing vs in transmission vs propagating, network-wide.
        registry.gauge("netsim.delay.queueing_s").set(wait_s)
        registry.gauge("netsim.delay.transmission_s").set(service_s)
        registry.gauge("netsim.delay.propagation_s").set(prop_s)
