"""Convergence-time experiment: single-link failure under live MPDA.

The paper proves MPDA converges after any finite sequence of topology
and cost changes (Theorem 2) and stays loop-free *during* convergence
(Theorem 3), but reports no convergence-time numbers.  This experiment
produces them: for each evaluation topology, the real protocol is cold
started, then one duplex link is failed and — after the network
requiesces — restored, with every delivery step audited online for LFI
safety and successor-graph acyclicity.

Convergence is measured in messages delivered, the protocol's own
clock: with a fixed interleaving seed the counts are exactly
reproducible, unlike wall seconds (which are still recorded in the
trace for orientation).  The failed link is chosen deterministically —
the first duplex link, in sorted order, whose removal keeps the
topology connected — so a failure never partitions the network and
every destination keeps a finite distance.

The paper also *assumes* reliable, in-order delivery and never prices
that assumption.  Given wire loss rates, the same workload runs over
:class:`~repro.core.transport.ReliableTransport` wrapped around a seeded
lossy :class:`~repro.core.transport.FaultyChannel`, and each result
counts what enforcing the delivery model costs in wire frames
(retransmissions, timeouts, ACKs) while the protocol above still
converges to the Dijkstra oracle with a clean online audit.  The loss=0
row is the price of reliability itself (pure ACK overhead).

Run it via ``python -m repro converge [--loss P ...]``; post-process
the trace with ``python -m repro report``.

:func:`packet_failover_experiment` is the packet-granularity companion:
the same fail/restore workload, but through the full two-timescale
system (:mod:`repro.sim.control`) with every packet simulated — the
outage drops the packets queued on the dying link, MPDA reconverges,
and traffic reroutes over the surviving successor sets while the
online auditor keeps checking loop freedom.  Run it via
``python -m repro converge --plane packet``.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field

from repro import obs
from repro.core.driver import ProtocolDriver
from repro.core.mpda import MPDARouter
from repro.fluid.evaluator import link_flows
from repro.graph.topologies import cairn, net1
from repro.graph.topology import NodeId, Topology
from repro.policy import create_policy
from repro.sim.control import PacketRunConfig, RunConfig, run
from repro.sim.scenario import (
    Scenario,
    cairn_scenario,
    net1_scenario,
    with_failures,
)
from repro.testing.fuzz import FaultProfile
from repro.units import ms

#: The evaluation topologies: CLI key -> (factory, table label).
TOPOLOGIES = {"cairn": (cairn, "CAIRN"), "net1": (net1, "NET1")}

#: Channel seed of the lossy runs (the EXPERIMENTS.md LOSS table).
LOSS_CHANNEL_SEED = 7

#: Traffic load factor of the packet-plane failover.
PACKET_LOAD = 0.9


def pick_failure_link(topo: Topology) -> tuple[NodeId, NodeId]:
    """The first duplex link (sorted) whose loss keeps ``topo`` connected."""
    duplex = sorted(
        {tuple(sorted(ln.link_id, key=repr)) for ln in topo.links()},
        key=repr,
    )
    for a, b in duplex:
        if _connected_without(topo, (a, b)):
            return a, b
    raise ValueError(f"every link of {topo.name!r} is a bridge")


def _connected_without(
    topo: Topology, down: tuple[NodeId, NodeId]
) -> bool:
    """Is the topology connected with the duplex link ``down`` removed?"""
    nodes = list(topo.nodes)
    start = nodes[0]
    seen = {start}
    frontier = deque([start])
    blocked = {down, (down[1], down[0])}
    while frontier:
        node = frontier.popleft()
        for nbr in topo.neighbors(node):
            if (node, nbr) in blocked or nbr in seen:
                continue
            seen.add(nbr)
            frontier.append(nbr)
    return len(seen) == len(nodes)


@dataclass
class FailoverResult:
    """Message counts of one audited cold-start / fail / restore run."""

    topology: str
    nodes: int
    links: int  # directed links
    failed_link: tuple[NodeId, NodeId]
    #: The channel faults of the run; None is the paper's PerfectChannel.
    profile: FaultProfile | None = None
    #: LSU/ACK payloads delivered to routers per convergence window.
    cold_messages: int = 0
    fail_messages: int = 0
    restore_messages: int = 0
    #: Transport + wire counters (see ``Transport.stats``).
    transport: dict[str, int] = field(default_factory=dict)
    audit: dict = field(default_factory=dict)

    @property
    def wire_frames(self) -> int:
        """Wire frames offered to the channel (incl. the ones it lost)."""
        return (
            self.transport.get("wire_sent", 0)
            + self.transport.get("wire_drops", 0)
            + self.transport.get("wire_partition_drops", 0)
        )

    @property
    def overhead(self) -> float:
        """Wire frames offered per protocol message the driver sent."""
        data = self.transport.get("data_sent", 0)
        return self.wire_frames / data if data else 0.0

    def as_dict(self) -> dict:
        doc = {
            "topology": self.topology,
            "nodes": self.nodes,
            "links": self.links,
            "failed_link": list(self.failed_link),
            "cold_messages": self.cold_messages,
            "fail_messages": self.fail_messages,
            "restore_messages": self.restore_messages,
            "transport": dict(self.transport),
            "audit": dict(self.audit),
        }
        if self.profile is not None:
            doc["profile"] = self.profile.as_dict()
            doc["wire_frames"] = self.wire_frames
            doc["overhead"] = round(self.overhead, 4)
        return doc


def failover_experiment(
    topo: Topology,
    name: str,
    *,
    seed: int = 0,
    profile: FaultProfile | None = None,
) -> FailoverResult:
    """Cold start, fail one safe link, requiesce, restore, requiesce.

    Runs under whatever observation is current: with tracing + audit
    enabled (``repro converge`` does both) the trace carries three
    disturbance→quiescence windows and the auditor checks LFI safety
    after every delivery — even while retransmissions reorder the
    interleaving of a lossy ``profile``.  Convergence to the true
    shortest paths is verified against the Dijkstra oracle after each
    window.
    """
    costs = topo.idle_marginal_costs()
    transport = None if profile is None else profile.build_transport()
    driver = ProtocolDriver(topo, MPDARouter, seed=seed, transport=transport)
    a, b = pick_failure_link(topo)
    result = FailoverResult(
        topology=name,
        nodes=topo.num_nodes,
        links=topo.num_links,
        failed_link=(a, b),
        profile=profile,
    )

    driver.start(costs)
    result.cold_messages = driver.run()
    driver.verify_converged()

    driver.fail_link(a, b)
    result.fail_messages = driver.run()
    driver.verify_converged()

    driver.restore_link(a, b, costs[(a, b)], costs[(b, a)])
    result.restore_messages = driver.run()
    driver.verify_converged()

    result.transport = driver.transport.stats()
    ob = obs.current()
    if ob is not None and ob.auditor is not None:
        result.audit = ob.auditor.summary()
    return result


def converge_experiment(
    *,
    seed: int = 0,
    topologies: tuple[str, ...] = ("cairn", "net1"),
    losses: tuple[float, ...] | None = None,
) -> list[FailoverResult]:
    """The paper's two evaluation topologies through the failover workload.

    ``losses`` reruns the workload once per wire loss rate over the
    reliable shim (channel seed :data:`LOSS_CHANNEL_SEED`); None keeps
    the paper's PerfectChannel.
    """
    profiles = (
        [None]
        if losses is None
        else [FaultProfile(loss=p, seed=LOSS_CHANNEL_SEED) for p in losses]
    )
    results = []
    for key in topologies:
        factory, label = TOPOLOGIES[key]
        for profile in profiles:
            results.append(
                failover_experiment(
                    factory(), label, seed=seed, profile=profile
                )
            )
    return results


def pick_loaded_failure_link(scenario: Scenario) -> tuple[NodeId, NodeId]:
    """The busiest safe duplex link: carries the most boot-route flow
    among the links whose loss keeps the topology connected.

    Failing an idle link proves nothing about rerouting; this picks one
    the workload actually uses (deterministically — boot routes are
    ``mp-oracle``'s from idle marginal costs, ties break in sorted
    order).
    """
    topo = scenario.topo
    routing = create_policy("mp-oracle")
    routing.initialize(scenario, RunConfig())
    routing.on_costs(topo.idle_marginal_costs())
    flows = link_flows(routing.phi(), scenario.traffic)
    duplex = sorted(
        {tuple(sorted(ln.link_id, key=repr)) for ln in topo.links()},
        key=repr,
    )
    best: tuple[NodeId, NodeId] | None = None
    best_flow = -1.0
    for a, b in duplex:
        if not _connected_without(topo, (a, b)):
            continue
        carried = flows.get((a, b), 0.0) + flows.get((b, a), 0.0)
        if carried > best_flow:
            best, best_flow = (a, b), carried
    if best is None:
        raise ValueError(f"every link of {topo.name!r} is a bridge")
    return best


@dataclass
class PacketFailoverResult:
    """Per-phase delivery statistics of one packet-granularity outage."""

    topology: str
    label: str
    failed_link: tuple[NodeId, NodeId]
    outage: tuple[float, float]
    #: Packets delivered in the before / during / after phase.
    delivered: dict[str, int] = field(default_factory=dict)
    #: Packets dropped (queue overflow, link failure, no route) per phase.
    dropped: dict[str, int] = field(default_factory=dict)
    #: Delivered-weighted mean end-to-end delay per phase, milliseconds.
    mean_delay_ms: dict[str, float] = field(default_factory=dict)
    no_route_drops: int = 0
    audit: dict = field(default_factory=dict)

    def as_dict(self) -> dict:
        return {
            "topology": self.topology,
            "label": self.label,
            "failed_link": list(self.failed_link),
            "outage": list(self.outage),
            "delivered": dict(self.delivered),
            "dropped": dict(self.dropped),
            "mean_delay_ms": {
                k: round(v, 4) for k, v in self.mean_delay_ms.items()
            },
            "no_route_drops": self.no_route_drops,
            "audit": dict(self.audit),
        }


PHASES = ("before", "during", "after")


def packet_failover_experiment(
    topo_key: str,
    *,
    seed: int = 0,
    tl: float = 4.0,
    ts: float = 2.0,
    duration: float = 36.0,
    outage: tuple[float, float] = (12.0, 24.0),
) -> PacketFailoverResult:
    """Fail the busiest safe link mid-run, at packet granularity.

    The run uses ``policy="mp"``, so the live MPDA exchange routes it
    and the outage flows through the driver's link_down/link_up path.
    It runs under whatever observation is current (``repro converge
    --plane packet`` adds tracing + the online auditor, whose verdict
    lands in the result).  The returned per-phase delivery counts
    quantify rerouting: packets keep arriving during the outage because
    the flows that used the dead link moved to the surviving loop-free
    successors.
    """
    factories = {
        "cairn": (cairn_scenario, "CAIRN"),
        "net1": (net1_scenario, "NET1"),
    }
    factory, label = factories[topo_key]
    base = factory(load=PACKET_LOAD)
    failed = pick_loaded_failure_link(base)
    scenario = with_failures(base, {failed: [outage]})
    config = PacketRunConfig(
        tl=tl, ts=ts, duration=duration, damping=0.5, seed=seed, policy="mp"
    )
    run_result = run(scenario, config)

    result = PacketFailoverResult(
        topology=label,
        label=run_result.label,
        failed_link=failed,
        outage=outage,
    )
    start, end = outage
    delay_sums = dict.fromkeys(PHASES, 0.0)
    for phase in PHASES:
        result.delivered[phase] = 0
        result.dropped[phase] = 0
    for record in run_result.records:
        # Each record covers [time, time+ts); classify by window start.
        if record.time < start:
            phase = "before"
        elif record.time < end:
            phase = "during"
        else:
            phase = "after"
        delivered = int((record.metrics or {}).get("delivered", 0))
        result.delivered[phase] += delivered
        result.dropped[phase] += int((record.metrics or {}).get("dropped", 0))
        delay_sums[phase] += record.average_delay * delivered
    for phase in PHASES:
        count = result.delivered[phase]
        result.mean_delay_ms[phase] = (
            ms(delay_sums[phase] / count) if count else 0.0
        )

    ob = obs.current()
    if ob is not None:
        if ob.auditor is not None:
            result.audit = ob.auditor.summary()
        result.no_route_drops = int(
            ob.metrics.value("netsim.no_route_drops") or 0
        )
    return result


def packet_converge_experiment(
    *,
    seed: int = 0,
    topologies: tuple[str, ...] = ("cairn", "net1"),
) -> list[PacketFailoverResult]:
    """The packet-plane failover workload on the evaluation topologies."""
    return [packet_failover_experiment(key, seed=seed) for key in topologies]


def render_packet_failover_table(
    results: list[PacketFailoverResult],
) -> str:
    """Plain-text table of the per-phase packet delivery statistics."""
    header = (
        "topology".ljust(10)
        + "failed link".rjust(14)
        + "phase".rjust(9)
        + "delivered".rjust(11)
        + "dropped".rjust(9)
        + "delay(ms)".rjust(11)
    )
    lines = [
        "packet-granularity failover "
        "(busiest safe link down mid-run, audited)",
        "=" * len(header),
        header,
        "-" * len(header),
    ]
    for result in results:
        a, b = result.failed_link
        for phase in PHASES:
            lines.append(
                (result.topology if phase == "before" else "").ljust(10)
                + (f"{a}-{b}" if phase == "before" else "").rjust(14)
                + phase.rjust(9)
                + f"{result.delivered[phase]}".rjust(11)
                + f"{result.dropped[phase]}".rjust(9)
                + f"{result.mean_delay_ms[phase]:.3f}".rjust(11)
            )
        verdict = result.audit.get("verdict", "n/a")
        lines.append(
            f"           audit: {verdict}, "
            f"no-route drops: {result.no_route_drops}"
        )
    lines.append("-" * len(header))
    lines.append(
        "(packets delivered while the link is down prove rerouting: "
        "everything offered to a dead link is dropped)"
    )
    return "\n".join(lines)


def render_failover_table(results: list[FailoverResult]) -> str:
    """Plain-text table of the convergence message counts."""
    header = (
        "topology".ljust(10)
        + "nodes".rjust(6)
        + "links".rjust(6)
        + "failed link".rjust(16)
        + "cold".rjust(8)
        + "fail".rjust(8)
        + "restore".rjust(9)
        + "audit".rjust(9)
    )
    lines = [
        "convergence (messages to quiescence per event, online LFI audit)",
        "=" * len(header),
        header,
        "-" * len(header),
    ]
    for result in results:
        a, b = result.failed_link
        verdict = result.audit.get("verdict", "n/a")
        lines.append(
            result.topology.ljust(10)
            + f"{result.nodes}".rjust(6)
            + f"{result.links}".rjust(6)
            + f"{a}-{b}".rjust(16)
            + f"{result.cold_messages}".rjust(8)
            + f"{result.fail_messages}".rjust(8)
            + f"{result.restore_messages}".rjust(9)
            + verdict.rjust(9)
        )
    lines.append("-" * len(header))
    lines.append(
        "(counts are LSU+ACK deliveries with a fixed interleaving seed; "
        "audit = online LFI/loop check verdict)"
    )
    return "\n".join(lines)


def render_loss_table(results: list[FailoverResult]) -> str:
    """Plain-text table of failover runs over lossy wires."""
    header = (
        "topology".ljust(10)
        + "loss".rjust(6)
        + "cold".rjust(7)
        + "fail".rjust(7)
        + "restore".rjust(9)
        + "retx".rjust(7)
        + "t/outs".rjust(8)
        + "wire".rjust(8)
        + "overhd".rjust(8)
        + "audit".rjust(7)
    )
    lines = [
        "convergence and overhead vs. wire loss "
        "(reliable transport over a lossy channel, audited)",
        "=" * len(header),
        header,
        "-" * len(header),
    ]
    previous = None
    for result in results:
        verdict = result.audit.get("verdict", "n/a")
        lines.append(
            (result.topology if result.topology != previous else "").ljust(10)
            + f"{result.profile.loss:.0%}".rjust(6)
            + f"{result.cold_messages}".rjust(7)
            + f"{result.fail_messages}".rjust(7)
            + f"{result.restore_messages}".rjust(9)
            + f"{result.transport.get('retransmits', 0)}".rjust(7)
            + f"{result.transport.get('timeouts', 0)}".rjust(8)
            + f"{result.wire_frames}".rjust(8)
            + f"{result.overhead:.2f}x".rjust(8)
            + verdict.rjust(7)
        )
        previous = result.topology
    lines.append("-" * len(header))
    lines.append(
        "(messages are payloads delivered per convergence window; overhead "
        "= wire frames offered / LSUs sent, so the loss=0 row is the pure "
        "ACK cost of reliability)"
    )
    return "\n".join(lines)
