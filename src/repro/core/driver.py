"""Deterministic message-passing driver for protocol routers.

The routers in :mod:`repro.core.pda` / :mod:`repro.core.mpda` are
transport-agnostic: they queue outgoing LSUs on an outbox.  This driver
pumps those messages through a pluggable :class:`~repro.core.transport.
Transport` with a seeded random interleaving across links, so tests can
explore many asynchronous schedules reproducibly.

The default transport, :class:`~repro.core.transport.PerfectChannel`,
supplies the paper's delivery assumptions verbatim — "messages
transmitted over an operational link are received correctly and in the
proper sequence within a finite time and are processed one at a time in
the order received".  Passing a :class:`~repro.core.transport.
FaultyChannel` subjects the protocol to loss / duplication / reordering
/ delay / partitions instead, and wrapping that in a
:class:`~repro.core.transport.ReliableTransport` *enforces* the paper's
assumption over the faulty wire (see :mod:`repro.core.transport`).

The driver can machine-check Theorem 3 (instantaneous loop freedom) after
*every single delivery* (``check_invariants``).  Each check goes through
an :class:`~repro.core.mpda.IncrementalSafetyCheck`, which re-verifies
only the conditions that read a router whose ``route_version`` moved and
runs the full :func:`repro.core.mpda.check_safety` on anything suspect;
each :meth:`ProtocolDriver.run` ends with a full check, which also
catches state edited behind the protocol's back.
"""

from __future__ import annotations

import random
from collections.abc import Callable, Mapping
from time import perf_counter

from repro import obs
from repro.core.linkstate import INFINITY
from repro.core.mpda import IncrementalSafetyCheck, MPDARouter
from repro.core.pda import PDARouter
from repro.core.transport import PerfectChannel, Transport
from repro.exceptions import ConvergenceError, RoutingError, TopologyError
from repro.graph.shortest_paths import CostMap, dijkstra
from repro.graph.topology import LinkId, NodeId, Topology

RouterFactory = Callable[[NodeId], PDARouter]

#: Sentinel distinguishing "no observation" from "not looked up yet".
_UNSET = object()


def _timed_step(method, name: str):
    def timed(self, *args):
        with self._timers.phase(name):
            return method(self, *args)

    return timed


def _profile_routers(routers, timers) -> None:
    """Time each router's ``PROFILED_STEPS`` as phases of ``timers``.

    Each router's class is swapped for a subclass whose listed methods
    run inside a timed phase, the way ``observe(profile=True)`` swaps in
    :class:`~repro.obs.timing.ProfilingTimers`: an unprofiled run never
    reaches this code, and its routers keep their plain methods.
    """
    swapped: dict[type, type] = {}
    for router in routers:
        cls = type(router)
        sub = swapped.get(cls)
        if sub is None:
            steps = {
                method: _timed_step(getattr(cls, method), name)
                for method, name in cls.PROFILED_STEPS.items()
            }
            sub = swapped[cls] = type(cls.__name__, (cls,), steps)
        router.__class__ = sub
        router._timers = timers


class ProtocolDriver:
    """Runs a network of protocol routers to quiescence.

    Args:
        topo: the physical network (control messages travel over its links).
        router_factory: constructor for each router (default MPDA).
        seed: seed for the delivery interleaving.
        check_invariants: when True (and the routers are MPDA), verify the
            LFI safety property after every event, and in full at the
            end of every :meth:`run`.
        transport: the channel model control messages travel through;
            defaults to a fresh :class:`PerfectChannel` (the paper's
            delivery assumption, the historical behavior).
    """

    #: Bound on consecutive clock ticks without a deliverable frame; a
    #: transport that asks for more is wedged (e.g. retransmitting into
    #: a permanent partition) and the run aborts with ConvergenceError.
    MAX_IDLE_TICKS = 10_000

    def __init__(
        self,
        topo: Topology,
        router_factory: RouterFactory = MPDARouter,
        *,
        seed: int = 0,
        check_invariants: bool = False,
        transport: Transport | None = None,
    ) -> None:
        self.topo = topo
        self.routers: dict[NodeId, PDARouter] = {
            node: router_factory(node) for node in topo.nodes
        }
        ob = obs.current()
        if ob is not None and ob.profiler is not None:
            _profile_routers(self.routers.values(), ob.timers)
        self.transport = transport if transport is not None else PerfectChannel()
        self.transport.attach([ln.link_id for ln in topo.links()])
        #: The MPDA subset, computed once — the per-event hot path asks
        #: "is this router MPDA?" for every delivery and the safety
        #: checker wants the whole subset; routers never change after
        #: construction.
        self._mpda_routers: dict[NodeId, MPDARouter] = {
            node: router
            for node, router in self.routers.items()
            if isinstance(router, MPDARouter)
        }
        self._rng = random.Random(seed)
        self.check_invariants = check_invariants
        self._safety = IncrementalSafetyCheck()
        self.delivered = 0
        self._started = False
        #: node -> (perf_counter at ACTIVE entry, deliveries at entry);
        #: feeds the ACTIVE-phase duration histograms when observing.
        self._active_since: dict[NodeId, tuple[float, int]] = {}

    # ------------------------------------------------------------------
    # driving events
    # ------------------------------------------------------------------
    @property
    def started(self) -> bool:
        """Whether :meth:`start` has run; topology events require it."""
        return self._started

    def start(self, costs: CostMap) -> None:
        """Bring every adjacent link up with its initial cost."""
        if self._started:
            raise RoutingError("driver already started")
        self._started = True
        self._note_disturbance("start", None)
        for node, router in self.routers.items():
            for nbr in self.topo.neighbors(node):
                self._event(
                    router, router.link_up, nbr, self._cost_for(costs, node, nbr)
                )

    def set_costs(self, costs: Mapping[LinkId, float]) -> None:
        """Inject adjacent-link cost changes (e.g. new marginal delays)."""
        self._require_started()
        for (head, tail), cost in costs.items():
            if not self.topo.has_link(head, tail):
                raise TopologyError(
                    f"no link {head!r}->{tail!r} in {self.topo.name!r}"
                )
            router = self.routers[head]
            if tail not in router.link_costs:
                raise TopologyError(f"link {head!r}->{tail!r} is not up")
            if router.link_costs[tail] == cost:
                continue
            self._note_disturbance("link_cost_change", (head, tail))
            self._event(router, router.link_cost_change, tail, cost)

    def fail_link(self, a: NodeId, b: NodeId) -> None:
        """Fail the duplex link ``a <-> b``, dropping in-flight messages."""
        self._require_started()
        self._require_duplex(a, b)
        self._note_disturbance("link_down", (a, b))
        self.transport.link_down(a, b)
        for head, tail in ((a, b), (b, a)):
            router = self.routers[head]
            if tail in router.link_costs:
                self._event(router, router.link_down, tail)

    def restore_link(
        self, a: NodeId, b: NodeId, cost_ab: float, cost_ba: float
    ) -> None:
        """Bring the duplex link ``a <-> b`` back up."""
        self._require_started()
        self._require_duplex(a, b)
        self._note_disturbance("link_up", (a, b))
        self.transport.link_up(a, b)
        for head, tail, cost in ((a, b, cost_ab), (b, a, cost_ba)):
            self._event(self.routers[head], self.routers[head].link_up, tail, cost)

    # ------------------------------------------------------------------
    # message pump
    # ------------------------------------------------------------------
    def pending_messages(self) -> int:
        """Undelivered transport obligations (frames + unacked data)."""
        return self.transport.pending()

    def step(self, _ob: object = _UNSET) -> bool:
        """Deliver one in-flight frame; False when the network is quiet.

        When nothing is deliverable but the transport still has
        obligations (frames held by delay jitter, unacked data awaiting
        a retransmit timer), the channel clock is ticked until a frame
        becomes deliverable.  A step may deliver zero router messages
        (e.g. a transport-level ACK) and still return True: progress was
        made on the wire.

        ``_ob`` lets :meth:`run` hoist the observation lookup out of the
        delivery loop; direct callers leave it unset.
        """
        transport = self.transport
        busy = transport.busy_links()
        if not busy:
            if not transport.pending():
                return False
            for _ in range(self.MAX_IDLE_TICKS):
                transport.tick()
                busy = transport.busy_links()
                if busy:
                    break
                if not transport.pending():
                    return False
            else:
                raise ConvergenceError(
                    f"transport made no progress in {self.MAX_IDLE_TICKS} "
                    "idle ticks"
                )
        ob = obs.current() if _ob is _UNSET else _ob
        causal = None if ob is None else ob.causal
        link_id = self._rng.choice(busy)
        receiver = self.routers[link_id[1]]
        for message in transport.pop(link_id):
            self.delivered += 1
            if causal is not None:
                ev = causal.deliver(link_id, message.seq, self.delivered)
                if ob.tracer.enabled:
                    ob.tracer.event(
                        "lsu_deliver",
                        time=ob.sim_time,
                        link=link_id,
                        entries=len(message.entries),
                        ack=message.ack,
                        delivered=self.delivered,
                        eid=ev.eid,
                        parent=ev.parent,
                        lamport=ev.lamport,
                    )
            elif ob is not None and ob.tracer.enabled:
                ob.tracer.event(
                    "lsu_deliver",
                    time=ob.sim_time,
                    link=link_id,
                    entries=len(message.entries),
                    ack=message.ack,
                    delivered=self.delivered,
                )
            self._event_ob(receiver, ob, receiver.receive, message)
        return True

    def run(self, max_messages: int = 1_000_000) -> int:
        """Deliver messages until quiescent; returns deliveries made."""
        ob = obs.current()
        done = 0
        started = perf_counter()
        with obs.phase(ob, "protocol.driver.run"):
            while self.step(ob):
                done += 1
                if done > max_messages:
                    raise ConvergenceError(
                        f"protocol did not quiesce within {max_messages} "
                        "messages"
                    )
        if self.check_invariants and self._mpda_routers:
            self._safety(self._mpda_routers, full=True)
        if ob is not None:
            self.harvest_metrics(ob.metrics)
            self._note_quiescent(ob, done, perf_counter() - started)
        return done

    def _note_quiescent(self, ob, messages: int, wall_s: float) -> None:
        """Close one convergence window: final audit + trace events."""
        if messages and wall_s > 0:
            ob.metrics.gauge("protocol.deliveries_per_second").set(
                messages / wall_s
            )
        if ob.auditor is not None:
            # The quiescent state is always audited (regardless of the
            # sampling cadence) so every window gets a verdict.
            ob.auditor.audit(
                self.routers, ob, context="quiescent", delivered=self.delivered
            )
        waves = critical = None
        if ob.causal is not None:
            waves, critical = ob.causal.quiesce(self.delivered)
        if not ob.tracer.enabled:
            return
        if waves is None:
            ob.tracer.event(
                "quiescent",
                time=ob.sim_time,
                delivered=self.delivered,
                messages=messages,
                wall_s=wall_s,
            )
        else:
            ob.tracer.event(
                "quiescent",
                time=ob.sim_time,
                delivered=self.delivered,
                messages=messages,
                wall_s=wall_s,
                waves=len(waves),
                orphans=ob.causal.orphans,
            )
        if ob.auditor is not None:
            summary = ob.auditor.summary()
            ob.tracer.event(
                "audit_summary",
                time=ob.sim_time,
                checks=summary["checks"],
                violations=summary["violations"],
                verdict=summary["verdict"],
                delivered=self.delivered,
            )
        if waves:
            for wave in waves:
                ob.tracer.event("wave_span", time=ob.sim_time, **wave)
            if critical is not None:
                ob.tracer.event("critical_path", time=ob.sim_time, **critical)

    # ------------------------------------------------------------------
    # verification helpers
    # ------------------------------------------------------------------
    def current_costs(self) -> dict[LinkId, float]:
        """The adjacent-link costs as currently measured by the routers."""
        costs: dict[LinkId, float] = {}
        for node, router in self.routers.items():
            for nbr, cost in router.link_costs.items():
                costs[(node, nbr)] = cost
        return costs

    def verify_converged(self) -> None:
        """Assert the liveness theorems against a global oracle.

        Checks Theorem 2 (every router's distances equal true shortest
        distances under the current costs) and, for MPDA routers,
        Theorem 4 (``S_j = {k : D_j^k < D_j^i}`` and ``FD = D``).
        """
        if self.pending_messages():
            raise ConvergenceError("network is not quiescent")
        costs = self.current_costs()
        truth = {
            node: dijkstra(costs, node, nodes=self.topo.nodes)[0]
            for node in self.topo.nodes
        }
        for node, router in self.routers.items():
            for dest in self.topo.nodes:
                if dest == node:
                    continue
                expect = truth[node].get(dest, INFINITY)
                got = router.distance_to(dest)
                if abs(got - expect) > 1e-9 and got != expect:
                    raise ConvergenceError(
                        f"router {node!r}: distance to {dest!r} is {got!r}, "
                        f"oracle says {expect!r}"
                    )
                if isinstance(router, MPDARouter):
                    self._verify_mpda_entry(router, dest, truth, expect)

    def _verify_mpda_entry(self, router, dest, truth, expect) -> None:
        node = router.node_id
        if expect != INFINITY:
            fd = router.feasible_distance.get(dest, INFINITY)
            if abs(fd - expect) > 1e-9:
                raise ConvergenceError(
                    f"router {node!r}: FD to {dest!r} is {fd!r}, distance "
                    f"is {expect!r} (Theorem 4 violated)"
                )
        want = {
            nbr
            for nbr in router.up_neighbors()
            if truth[nbr].get(dest, INFINITY) < expect
        }
        got = router.successors(dest)
        if got != want:
            raise ConvergenceError(
                f"router {node!r}: successors to {dest!r} are "
                f"{sorted(map(repr, got))}, oracle says "
                f"{sorted(map(repr, want))}"
            )

    def message_stats(self) -> dict[str, int]:
        """Aggregate protocol-overhead counters."""
        return {
            "delivered": self.delivered,
            "lsu_sent": sum(r.lsu_sent for r in self.routers.values()),
            "lsu_received": sum(r.lsu_received for r in self.routers.values()),
            "mtu_runs": sum(r.mtu_runs for r in self.routers.values()),
        }

    def harvest_metrics(self, registry) -> None:
        """Copy cumulative per-router protocol counters into gauges.

        Gauges (not counters) because the router-side totals are already
        cumulative — repeated harvests after successive ``run()`` calls
        overwrite rather than double-count.
        """
        registry.gauge("protocol.deliveries").set(self.delivered)
        for name, value in self.transport.stats().items():
            registry.gauge(f"transport.{name}").set(value)
        for node, router in self.routers.items():
            registry.gauge("protocol.lsu_sent", router=node).set(
                router.lsu_sent
            )
            registry.gauge("protocol.lsu_received", router=node).set(
                router.lsu_received
            )
            registry.gauge("protocol.mtu_runs", router=node).set(
                router.mtu_runs
            )
            if isinstance(router, MPDARouter):
                registry.gauge("protocol.transitions", router=node).set(
                    router.transitions
                )
                registry.gauge("protocol.acks_received", router=node).set(
                    router.acks_received
                )

    # ------------------------------------------------------------------
    # internals
    # ------------------------------------------------------------------
    def _event(self, router: PDARouter, fn, *args) -> None:
        self._event_ob(router, obs.current(), fn, *args)

    def _event_ob(self, router: PDARouter, ob, fn, *args) -> None:
        """Dispatch one router event, then collect and verify.

        With an observation active, MPDA ACTIVE/PASSIVE transitions are
        detected around the event and fed to the phase histograms,
        distance-vector changes become ``dist_change`` trace events (the
        raw material of per-destination convergence timelines), and the
        online auditor — when attached — samples the post-event state;
        the disabled path adds a single ``None`` check per event.
        """
        if ob is None:
            fn(*args)
            self._collect(router)
            self._maybe_check()
            return
        tracing = ob.tracer.enabled
        causal = ob.causal
        # Both diffs are only observable through the trace, so an
        # untraced session copies nothing; only MPDA routers have
        # successor sets, and only causal traces carry their changes.
        before_dists = dict(router.distances) if tracing else None
        track_succ = (
            causal is not None
            and tracing
            and router.node_id in self._mpda_routers
        )
        before_succ = router.successor_snapshot() if track_succ else None
        if router.node_id in self._mpda_routers:
            was_passive = router.is_passive()
            fn(*args)
            if was_passive != router.is_passive():
                self._note_phase_change(ob, router, was_passive)
        else:
            fn(*args)
        if before_dists is not None:
            self._note_dist_changes(ob, router, before_dists, causal)
        if track_succ:
            self._note_succ_changes(ob, router, before_succ, causal)
        self._collect(router, causal)
        self._maybe_check()
        if causal is not None:
            # Close the current event's processing span here: auditor
            # time below is instrument overhead, not protocol work, and
            # lands in the inter-event gaps (propagation_s).
            causal.touch()
        if ob.auditor is not None:
            ob.auditor.on_event(
                self.routers,
                ob,
                context=getattr(fn, "__name__", "event"),
                delivered=self.delivered,
            )

    def _note_dist_changes(
        self, ob, router: PDARouter, before, causal=None
    ) -> None:
        """Emit one ``dist_change`` event if the event moved distances."""
        after = router.distances
        changed = [
            dest
            for dest in before.keys() | after.keys()
            if before.get(dest) != after.get(dest)
        ]
        if not changed:
            return
        cause = {} if causal is None else {"cause": causal.current_eid()}
        ob.tracer.event(
            "dist_change",
            time=ob.sim_time,
            node=router.node_id,
            dests=sorted(changed, key=repr),
            delivered=self.delivered,
            **cause,
        )

    def _note_succ_changes(self, ob, router, before, causal) -> None:
        """Emit one ``succ_change`` event if the event moved successors."""
        after = router.successor_sets
        changed = [
            dest
            for dest in before.keys() | after.keys()
            if before.get(dest) != after.get(dest)
        ]
        if not changed:
            return
        ob.tracer.event(
            "succ_change",
            time=ob.sim_time,
            node=router.node_id,
            dests=sorted(changed, key=repr),
            delivered=self.delivered,
            cause=causal.current_eid(),
        )

    def _note_disturbance(self, op: str, link) -> None:
        """Mark the start of a convergence window in the trace."""
        ob = obs.current()
        if ob is None:
            return
        if ob.causal is not None:
            eid = ob.causal.open_root(op, link, self.delivered)
            if ob.tracer.enabled:
                ob.tracer.event(
                    "disturbance",
                    time=ob.sim_time,
                    op=op,
                    link=link,
                    delivered=self.delivered,
                    eid=eid,
                )
        elif ob.tracer.enabled:
            ob.tracer.event(
                "disturbance",
                time=ob.sim_time,
                op=op,
                link=link,
                delivered=self.delivered,
            )

    def _note_phase_change(
        self, ob, router: MPDARouter, was_passive: bool
    ) -> None:
        node = router.node_id
        if was_passive:
            self._active_since[node] = (perf_counter(), self.delivered)
            ob.metrics.counter("protocol.active_entries", router=node).inc()
            if ob.tracer.enabled:
                ob.tracer.event(
                    "active_enter",
                    time=ob.sim_time,
                    node=node,
                    delivered=self.delivered,
                )
        else:
            started = self._active_since.pop(node, None)
            if started is None:
                return  # entered ACTIVE before observation began
            elapsed = perf_counter() - started[0]
            messages = self.delivered - started[1]
            ob.metrics.histogram(
                "protocol.active_phase_seconds", router=node
            ).observe(elapsed)
            ob.metrics.histogram(
                "protocol.active_phase_messages", router=node
            ).observe(messages)
            if ob.tracer.enabled:
                ob.tracer.event(
                    "active_exit",
                    time=ob.sim_time,
                    node=node,
                    wall_s=elapsed,
                    messages=messages,
                )

    def _collect(self, router: PDARouter, causal=None) -> None:
        """Move a router's outbox into the transport."""
        for nbr, message in router.outbox:
            link_id = (router.node_id, nbr)
            if self.transport.has_link(link_id) and nbr in router.link_costs:
                if causal is not None:
                    causal.sent(message.seq)
                self.transport.send(link_id, message)
        router.outbox.clear()

    def _maybe_check(self) -> None:
        if self.check_invariants and self._mpda_routers:
            self._safety(self._mpda_routers)

    def _require_started(self) -> None:
        if not self._started:
            raise RoutingError("driver not started; call start() first")

    def _require_duplex(self, a: NodeId, b: NodeId) -> None:
        if not (self.topo.has_link(a, b) and self.topo.has_link(b, a)):
            raise TopologyError(
                f"no duplex link {a!r} <-> {b!r} in {self.topo.name!r}"
            )

    @staticmethod
    def _cost_for(costs: CostMap, head: NodeId, tail: NodeId) -> float:
        try:
            return costs[(head, tail)]
        except KeyError:
            raise TopologyError(f"no initial cost for {head!r}->{tail!r}")
