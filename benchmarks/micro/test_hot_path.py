"""MICRO — hot-path kernels: shared-heap SPF, incremental protocol core, OPT,
the fluid epoch loop, Ts allocation, the packet event loop, the packet hop
path, the per-delivery Theorem-3 check.

Not a paper figure; pins the optimized kernels against their scalar /
naive counterparts so a regression in either speed or exactness shows
up in CI.  Every benchmark asserts bit-for-bit equality with the naive
implementation before reporting the speedup — a kernel that got fast by
drifting from the scalar semantics fails here, not in a fixture diff
three PRs later.
"""

from __future__ import annotations

import heapq
import itertools
import time
from dataclasses import dataclass, field
from functools import partial

import pytest

from benchmarks.conftest import run_once
from repro.bench.figures import DURATION, WARMUP, operating_point
from repro.core.driver import ProtocolDriver
from repro.core.mpda import MPDARouter, check_safety
from repro.fleet.plan import fuzz_plan
from repro.fleet.worker import execute_cell
from repro.fluid.delay import DelayModel
from repro.fluid.evaluator import RoutingDAG
from repro.gallager.opt import optimize
from repro.graph.generators import waxman
from repro.graph.shortest_paths import SharedSPF
from repro.netsim.engine import Engine
from repro.netsim.monitor import LinkMonitor, check_hop_limit, hop_limit
from repro.netsim.queueing import FIFOQueue
from repro.policy.paper import MPFamilyPolicy
from repro.sim.control import (
    PacketRunConfig,
    QuasiStaticConfig,
    TwoTimescaleController,
    run,
)
from repro.sim.scenario import cairn_scenario, net1_scenario
from repro.testing.opt_reference import naive_optimize
from repro.testing.oracle import OracleMPDA


def _shared_distances(costs, destinations):
    spf = SharedSPF(costs)
    return {j: spf.distances_to(j) for j in destinations}


def test_multi_destination_spf(benchmark, record_figure):
    """One SharedSPF setup amortized over all destinations, against a
    fresh SharedSPF (a fresh reverse adjacency) per destination."""
    topo = waxman(120, seed=3)
    costs = topo.idle_marginal_costs()
    destinations = sorted(topo.nodes)

    t0 = time.perf_counter()
    per_dest = {j: SharedSPF(costs).distances_to(j) for j in destinations}
    loop_s = time.perf_counter() - t0

    shared = run_once(benchmark, _shared_distances, costs, destinations)

    assert shared == per_dest
    shared_s = benchmark.stats.stats.mean
    record_figure(
        "micro_multi_dest_spf",
        f"SPF to {len(destinations)} destinations (n=120 Waxman): "
        f"per-destination {loop_s * 1e3:.1f} ms, shared-heap "
        f"{shared_s * 1e3:.1f} ms ({loop_s / shared_s:.1f}x)",
    )


def _tree(router) -> dict:
    """A router's main table as a link map (oracle tables are dicts)."""
    table = router.main_table
    return dict(table) if isinstance(table, dict) else table.links()


@pytest.mark.parametrize("n", [50])
def test_incremental_driver_step_loop(benchmark, record_figure, n):
    """Cold start, link failure, restore and a cost change: incremental
    core vs the naive oracle, phase by phase.

    The failure, restore and cost phases reach MTU's subtree repair,
    which a cold start (settled from the root) never does.  After every
    phase both runs must agree on every protocol-visible count and on
    every router's main table and distances (the incremental paths are
    exact, not approximate); the benchmark then reports how much of the
    driver step loop the shortcuts save in each phase.
    """
    topo = waxman(n, seed=1)
    costs = topo.idle_marginal_costs()
    a, b = next(iter(topo.links())).link_id
    bumped = {link_id: cost * 1.7 for link_id, cost in list(costs.items())[:4]}
    phases = {
        "cold start": lambda driver: driver.start(costs),
        "link failure": lambda driver: driver.fail_link(a, b),
        "restore": lambda driver: driver.restore_link(
            a, b, costs[(a, b)], costs[(b, a)]
        ),
        "cost change": lambda driver: driver.set_costs(bumped),
    }

    def converge(router_cls):
        driver = ProtocolDriver(topo, router_cls, seed=0)
        seconds, states = [], []
        for inject in phases.values():
            t0 = time.perf_counter()
            inject(driver)
            driver.run()
            seconds.append(time.perf_counter() - t0)
            states.append(
                (
                    driver.message_stats(),
                    {node: _tree(r) for node, r in driver.routers.items()},
                    {node: dict(r.distances) for node, r in driver.routers.items()},
                )
            )
        return driver, seconds, states

    _, oracle_s, oracle_states = converge(OracleMPDA)
    driver, incremental_s, states = run_once(benchmark, converge, MPDARouter)
    driver.verify_converged()

    for phase, got, want in zip(phases, states, oracle_states):
        assert got == want, phase
    record_figure(
        f"micro_incremental_n{n}",
        f"MPDA n={n}, naive oracle vs incremental core:\n"
        + "\n".join(
            f"  {phase:<12} {slow:.2f} s vs {fast:.2f} s ({slow / fast:.1f}x)"
            for phase, slow, fast in zip(phases, oracle_s, incremental_s)
        ),
    )


def test_opt_iteration_loop(benchmark, record_figure):
    """Figs. 9 and 10's OPT: the incremental iteration vs the naive loop.

    Solves CAIRN at load 1.2 (Fig. 9, 27 nodes) and NET1 at load 1.35
    (Fig. 10).  Each iteration computes every destination's node flows
    once, replaces only the routers' entries whose content changes, and
    rebuilds each destination's routing DAG from its previous one.  The
    naive reference re-derives successor sets, orders and fractions from
    raw phi on every call; both runs must give the same D_T history and
    the same phi, float for float and in key order.
    """
    cases = [
        ("CAIRN", cairn_scenario(load=1.2)),
        ("NET1", net1_scenario(load=1.35)),
    ]

    def solve_all(fn, elapsed):
        results = []
        for name, scenario in cases:
            topo = scenario.topo
            t0 = time.perf_counter()
            results.append(
                fn(
                    topo,
                    scenario.mean_traffic(),
                    eta=0.1,
                    max_iterations=2500,
                    delay_model=DelayModel.for_topology(topo),
                )
            )
            elapsed[name] = time.perf_counter() - t0
        return results

    naive_s: dict[str, float] = {}
    naive = solve_all(naive_optimize, naive_s)
    fast_s: dict[str, float] = {}
    results = run_once(benchmark, solve_all, optimize, fast_s)

    for result, reference in zip(results, naive):
        assert result.history == reference.history
        assert _phi_items(result.phi) == _phi_items(reference.phi)
    record_figure(
        "micro_opt_dag",
        "\n".join(
            f"OPT on {name} (eta 0.1, {result.iterations} iterations): "
            f"naive loop {naive_s[name]:.2f} s, node flows once per "
            f"iteration, moved entries only, DAGs rebuilt from the "
            f"previous ones {fast_s[name]:.2f} s "
            f"({naive_s[name] / fast_s[name]:.1f}x)"
            for (name, _), result in zip(cases, results)
        ),
    )


# ----------------------------------------------------------------------
# Interleaved timing
# ----------------------------------------------------------------------
#: Timed rounds per side.  One timing per side cannot resolve a ~1.1x
#: ratio on a noisy machine; the min of interleaved rounds can.
ROUNDS = 5


def _interleaved(simulate, sides=(False, True)):
    """``ROUNDS`` calls of ``simulate(side)`` per side, alternating which
    side goes first; per side, the list of what the calls returned."""
    runs = {side: [] for side in sides}
    for i in range(ROUNDS):
        for side in sides if i % 2 == 0 else sides[::-1]:
            runs[side].append(simulate(side))
    return runs


def _fastest(runs) -> float:
    """The min elapsed time of (seconds, ...) tuples."""
    return min(run[0] for run in runs)


def _phi_items(phi) -> list:
    """phi as nested item lists: equal only in values *and* key order."""
    return [
        (node, [(dest, list(entry.items())) for dest, entry in per_dest.items()])
        for node, per_dest in phi.items()
    ]


# ----------------------------------------------------------------------
# The fluid epoch loop
# ----------------------------------------------------------------------
def test_fluid_epoch_loop(benchmark, record_figure, monkeypatch):
    """Fig. 13's CAIRN MP run at Tl 10: DAGs rebuilt from the previous
    epoch's vs built afresh.

    The fluid plane builds each destination's routing DAG from the one
    of the epoch before, so only the allocation entries IH/AH replaced
    are validated and normalised again.  The reference patches
    ``repro.sim.control.RoutingDAG`` to ignore the previous DAG; every
    run must give the same epoch records, float for float, before the
    speed ratio of the min of interleaved rounds is reported.
    """
    scenario = cairn_scenario(load=1.25)
    config = QuasiStaticConfig(
        tl=10.0,
        ts=2.0,
        duration=280.0,
        warmup=60.0,
        damping=0.5,
        queue_limit=750.0,
    )

    def simulate(fresh):
        with monkeypatch.context() as patch:
            if fresh:
                patch.setattr(
                    "repro.sim.control.RoutingDAG",
                    lambda phi, destination, previous=None: RoutingDAG(
                        phi, destination
                    ),
                )
            t0 = time.perf_counter()
            result = run(scenario, config)
            return time.perf_counter() - t0, result.records

    runs = run_once(benchmark, _interleaved, simulate)

    records = runs[False][0][1]
    for _, other in runs[False] + runs[True]:
        assert other == records
    reuse_s, fresh_s = _fastest(runs[False]), _fastest(runs[True])
    record_figure(
        "micro_fluid_epoch",
        f"Fig. 13 CAIRN MP run (load 1.25, {config.duration:g} sim-s, "
        f"Tl 10, {len(records)} epochs), min of {ROUNDS} interleaved "
        f"rounds: fresh DAGs every epoch {fresh_s:.3f} s, DAGs rebuilt "
        f"from the previous epoch's {reuse_s:.3f} s "
        f"({fresh_s / reuse_s:.2f}x)",
    )


# ----------------------------------------------------------------------
# Ts allocation
# ----------------------------------------------------------------------
def test_allocation_plan(benchmark, record_figure, monkeypatch):
    """Fig. 13's CAIRN MP run at Tl 10 and Fig. 12's NET1 SP run: every
    Ts from the plan vs every Ts through the full loop.

    The plan runs IH/AH only on the entries it lists and reads each
    out-link of the held single-successor entries once.  The reference
    patches ``MPFamilyPolicy._adjust`` to the full loop.  Every run of a
    case must give the same epoch records and the same final phi, float
    for float and in key order, before the speed ratio of the min of
    interleaved rounds is reported.
    """
    cases = [
        (
            "Fig. 13 CAIRN MP (load 1.25, Tl 10)",
            cairn_scenario(load=1.25),
            QuasiStaticConfig(
                tl=10.0,
                ts=2.0,
                duration=280.0,
                warmup=60.0,
                damping=0.5,
                queue_limit=750.0,
            ),
        ),
        (
            "Fig. 12 NET1 SP (load 1.35)",
            operating_point("net1"),
            QuasiStaticConfig(
                tl=10.0, ts=2.0, duration=DURATION, warmup=WARMUP, policy="sp"
            ),
        ),
    ]

    def simulate(scenario, config, loop):
        with monkeypatch.context() as patch:
            if loop:
                patch.setattr(
                    MPFamilyPolicy, "_adjust", MPFamilyPolicy._allocate
                )
            t0 = time.perf_counter()
            controller = TwoTimescaleController(scenario, config)
            result = controller.run()
            elapsed = time.perf_counter() - t0
        return elapsed, result.records, _phi_items(controller.policy.phi())

    def campaign():
        return [
            _interleaved(partial(simulate, scenario, config))
            for _, scenario, config in cases
        ]

    lines = []
    for (name, _, _), runs in zip(cases, run_once(benchmark, campaign)):
        _, records, phi = runs[True][0]
        for _, other_records, other_phi in runs[False] + runs[True]:
            assert other_records == records, name
            assert other_phi == phi, name
        plan_s, loop_s = _fastest(runs[False]), _fastest(runs[True])
        lines.append(
            f"{name}, {len(records)} epochs: every Ts through the full "
            f"loop {loop_s:.3f} s, from the plan {plan_s:.3f} s "
            f"({loop_s / plan_s:.2f}x)"
        )
    record_figure(
        "micro_allocation_plan",
        f"Min of {ROUNDS} interleaved rounds per side:\n" + "\n".join(lines),
    )


# ----------------------------------------------------------------------
# The packet event loop
# ----------------------------------------------------------------------
@dataclass(order=True)
class _ScheduledEvent:
    time: float
    seq: int
    callback: object = field(compare=False)
    cancelled: bool = field(default=False, compare=False)
    fired: bool = field(default=False, compare=False)


class _EventHandle:
    __slots__ = ("_event", "_engine")

    def __init__(self, event: _ScheduledEvent, engine) -> None:
        self._event = event
        self._engine = engine


class DataclassHeapEngine:
    """Reference event loop on a heap of ``@dataclass(order=True)`` events.

    Every comparison runs the generated ``__lt__`` in Python, every
    event allocates a dataclass and a handle, and every firing checks
    the cancellation flags and costs a ``step()`` call.  The total order
    on (time, scheduling order) is :class:`Engine`'s, so both fire the
    same events in the same order.
    """

    def __init__(self) -> None:
        self.now = 0.0
        self._heap: list[_ScheduledEvent] = []
        self._seq = itertools.count()
        self.processed = 0
        self._live = 0

    def schedule(self, delay, callback):
        if delay < 0:
            raise ValueError(f"cannot schedule in the past: {delay!r}")
        return self.schedule_at(self.now + delay, callback)

    def schedule_at(self, time, callback):
        if time < self.now:
            raise ValueError(f"cannot schedule at {time!r}, now is {self.now!r}")
        heap = self._heap
        if len(heap) > 64 and len(heap) > 2 * self._live:
            heap[:] = [e for e in heap if not e.cancelled]
            heapq.heapify(heap)
        event = _ScheduledEvent(time, next(self._seq), callback)
        heapq.heappush(heap, event)
        self._live += 1
        return _EventHandle(event, self)

    def step(self) -> bool:
        while self._heap:
            event = heapq.heappop(self._heap)
            if event.cancelled:
                continue
            event.fired = True
            self._live -= 1
            self.now = event.time
            event.callback()
            self.processed += 1
            return True
        return False

    def run(self, until=None) -> None:
        while self._heap:
            head = self._heap[0]
            if head.cancelled:
                heapq.heappop(self._heap)
                continue
            if until is not None and head.time > until:
                break
            if not self.step():
                break
        if until is not None and until > self.now:
            self.now = until


def _packet_outputs(network) -> dict:
    """Everything the run measured, compared with ``==`` (floats too)."""
    return {
        "flows": dict(network.flow_monitor.flows),
        "links": {
            link_id: (
                link.monitor.total_packets,
                link.monitor.total_wait_s,
                link.monitor.total_service_s,
                link.monitor.total_prop_s,
                link.queue.max_depth,
            )
            for link_id, link in network.links.items()
        },
        "events": network.engine.processed,
    }


def test_packet_event_loop(benchmark, record_figure, monkeypatch):
    """CAIRN at load 1.2 under ``mp-oracle``: tuple heap vs dataclass heap.

    Both runs draw the same random numbers and fire the same events in
    the same order, so every flow record, link total, queue high-water
    mark and the event count must be equal before the speed ratio is
    reported.
    """
    scenario = cairn_scenario(load=1.2)
    config = PacketRunConfig(
        policy="mp-oracle", tl=10.0, ts=2.0, duration=5.0, warmup=1.0, seed=0
    )

    def simulate():
        controller = TwoTimescaleController(scenario, config)
        result = controller.run()
        return result, controller.plane.network

    result, network = run_once(benchmark, simulate)

    with monkeypatch.context() as patch:
        patch.setattr("repro.netsim.network.Engine", DataclassHeapEngine)
        t0 = time.perf_counter()
        reference, reference_net = simulate()
        reference_s = time.perf_counter() - t0

    assert type(reference_net.engine) is DataclassHeapEngine
    assert type(network.engine) is Engine
    assert _packet_outputs(network) == _packet_outputs(reference_net)
    assert result.records == reference.records
    engine_s = benchmark.stats.stats.mean
    record_figure(
        "micro_packet_engine",
        f"Packet CAIRN at load 1.2 (mp-oracle, {config.duration:g} sim-s, "
        f"{network.engine.processed} events): dataclass heap "
        f"{reference_s:.2f} s, tuple heap {engine_s:.2f} s "
        f"({reference_s / engine_s:.1f}x)",
    )


# ----------------------------------------------------------------------
# The packet hop path
# ----------------------------------------------------------------------
class LinearScanNode:
    """Reference router that re-reads its phi entry on every hop.

    Each forward filters the entry for successors with a positive
    fraction and a link, then scans their running sum for the pick:
    receive, forward and the weighted choice are three calls, and the
    network's delivery callback adds a fourth.  It takes
    :class:`~repro.netsim.node.SimNode`'s constructor and ``install``,
    so the network builds it unchanged.
    """

    def __init__(self, node_id, engine, flow_monitor, rng, num_nodes):
        self.node_id = node_id
        self.engine = engine
        self.routes = {}
        self.flow_monitor = flow_monitor
        self.rng = rng
        self.num_nodes = num_nodes
        self.max_hops = hop_limit(num_nodes)
        self.out_links = {}

    def bind_links(self, out_links):
        self.out_links = dict(out_links)

    def install(self, row):
        self.routes = row

    def receive(self, packet):
        # The delivery closure the network used to bind per link.
        self._receive(packet, self.engine.now)

    def _receive(self, packet, now):
        if packet.destination == self.node_id:
            self.flow_monitor.note_delivered(packet, now)
            return
        self.forward(packet)

    def forward(self, packet):
        packet.hops += 1
        if packet.hops > self.max_hops:
            check_hop_limit(packet, self.num_nodes, self.node_id)
        choice = self._choose(self.routes.get(packet.destination, {}))
        if choice is None:
            self.flow_monitor.note_no_route()
            return
        self.out_links[choice].send(packet)

    def _choose(self, fractions):
        total = 0.0
        usable = []
        for nbr, fraction in fractions.items():
            if fraction > 0.0 and nbr in self.out_links:
                usable.append((nbr, fraction))
                total += fraction
        if not usable:
            return None
        if len(usable) == 1:
            return usable[0][0]
        pick = self.rng.random() * total
        acc = 0.0
        for nbr, fraction in usable:
            acc += fraction
            if pick <= acc:
                return nbr
        return usable[-1][0]


class PartialLink:
    """Reference link that binds a fresh ``partial`` per transmission.

    The packet in service and its arrival time travel in the completion
    callback, and starting a service is a call of its own; otherwise it
    is :class:`~repro.netsim.link.SimLink`, draw for draw.
    """

    def __init__(
        self, engine, link, deliver, rng, *, queue_capacity=None, on_drop=None
    ):
        self.engine = engine
        self.link = link
        self.deliver = deliver
        self.queue = FIFOQueue(queue_capacity)
        self.on_drop = on_drop
        self.monitor = LinkMonitor(link.prop_delay)
        self.busy = False
        self.up = True
        self.busy_time = 0.0
        self._service_started = 0.0
        self._prop_delay = link.prop_delay
        self._service_time = partial(rng.expovariate, link.capacity)

    def send(self, packet):
        if not self.up:
            self.queue.dropped += 1
            self._note_drop()
            return
        now = self.engine.now
        if self.busy:
            if not self.queue.push(packet, now):
                self._note_drop()
        else:
            self._begin_service(packet, now)

    def _note_drop(self):
        if self.on_drop is not None:
            self.on_drop()

    def _begin_service(self, packet, arrived):
        self.busy = True
        self._service_started = self.engine.now
        self.engine.schedule(
            self._service_time(), partial(self._finish_service, packet, arrived)
        )

    def _finish_service(self, packet, arrived):
        now = self.engine.now
        self.busy_time += now - self._service_started
        self.monitor.record(
            self._service_started - arrived,
            now - self._service_started,
            propagated=self.up,
        )
        if self.up:
            self.engine.schedule(self._prop_delay, partial(self.deliver, packet))
        else:
            self._note_drop()
        if self.queue:
            next_packet, enqueue_time = self.queue.pop()
            self._begin_service(next_packet, enqueue_time)
        else:
            self.busy = False

    def fail(self):
        self.up = False
        while self.queue:
            self.queue.pop()
            self.queue.dropped += 1
            self._note_drop()

    def restore(self):
        self.up = True

    def utilization(self, elapsed):
        if elapsed <= 0:
            return 0.0
        busy = self.busy_time
        if self.busy:
            busy += self.engine.now - self._service_started
        return busy / elapsed


def test_packet_hop_path(benchmark, record_figure, monkeypatch):
    """CAIRN at load 1.2 under ``mp-oracle``: a hop by the compiled
    forwarding table and one in-service slot, against a hop that
    re-reads phi and binds a partial per transmission.

    Both runs draw the same random numbers and fire the same events in
    the same order, so every flow record, link total, queue high-water
    mark, the event count and every epoch record must be equal before
    the speed ratio is reported.
    """
    scenario = cairn_scenario(load=1.2)
    config = PacketRunConfig(
        policy="mp-oracle", tl=10.0, ts=2.0, duration=5.0, warmup=1.0, seed=0
    )

    def simulate():
        controller = TwoTimescaleController(scenario, config)
        result = controller.run()
        return result, controller.plane.network

    result, network = run_once(benchmark, simulate)

    with monkeypatch.context() as patch:
        patch.setattr("repro.netsim.network.SimNode", LinearScanNode)
        patch.setattr("repro.netsim.network.SimLink", PartialLink)
        t0 = time.perf_counter()
        reference, reference_net = simulate()
        reference_s = time.perf_counter() - t0

    assert {type(node) for node in reference_net.nodes.values()} == {
        LinearScanNode
    }
    assert {type(link) for link in reference_net.links.values()} == {
        PartialLink
    }
    assert _packet_outputs(network) == _packet_outputs(reference_net)
    assert result.records == reference.records
    hop_s = benchmark.stats.stats.mean
    record_figure(
        "micro_packet_hop",
        f"Packet CAIRN at load 1.2 (mp-oracle, {config.duration:g} sim-s, "
        f"{network.engine.processed} events): per-hop phi scan and a "
        f"partial per transmission {reference_s:.2f} s, compiled "
        f"forwarding table and one in-service slot {hop_s:.2f} s "
        f"({reference_s / hop_s:.2f}x)",
    )


# ----------------------------------------------------------------------
# The per-delivery Theorem-3 check
# ----------------------------------------------------------------------
class _FullCheckAfterEachDelivery:
    """Stands in for ProtocolDriver's incremental check: the full
    :func:`repro.core.mpda.check_safety` after every delivery."""

    def __call__(self, routers, *, full=False):
        check_safety(routers)


def test_safety_check(benchmark, record_figure, monkeypatch):
    """The ``mp`` cells of a fixed fuzz plan: the incremental check vs
    the full check after every delivery.

    Every delivery of every cell runs the Theorem-3 check, once through
    :class:`repro.core.mpda.IncrementalSafetyCheck`, which re-verifies
    only the conditions that read a router whose version moved, and once
    with the full :func:`repro.core.mpda.check_safety` over every router
    and destination.  Both runs must give the same verdict records
    (status and every metric) before the speed ratio is reported.
    """
    cells = fuzz_plan(30, seed=0, policies=("mp",)).cells

    def campaign():
        return [execute_cell(cell) for cell in cells]

    records = run_once(benchmark, campaign)

    with monkeypatch.context() as patch:
        patch.setattr(
            "repro.core.driver.IncrementalSafetyCheck",
            _FullCheckAfterEachDelivery,
        )
        t0 = time.perf_counter()
        full = campaign()
        full_s = time.perf_counter() - t0

    assert records == full
    assert {record["status"] for record in records} == {"pass"}
    check_s = benchmark.stats.stats.mean
    deliveries = sum(
        record["result"]["metrics"]["delivered"] for record in records
    )
    record_figure(
        "micro_safety_check",
        f"{len(cells)} reliable mp fuzz cells ({deliveries} deliveries, "
        f"a Theorem-3 check after each): the campaign takes "
        f"{full_s:.2f} s with the full check_safety after every delivery, "
        f"{check_s:.2f} s with the incremental check "
        f"({full_s / check_s:.2f}x)",
    )
