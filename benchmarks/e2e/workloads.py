"""The benchmark's four workloads: input builders, timed passes, checks.

Each workload has three steps, run in one fresh process per pass:

- ``prepare(seed, quick)`` imports the program and builds the inputs
  (this is the measured set-up time);
- ``execute(inputs)`` is the timed pass;
- ``verify(inputs, raw, pins)`` checks the outputs afterwards, outside
  the timed region, and returns an :class:`Outcome`.

``seed`` reaches only generated inputs: the Waxman graph, its flows and
failed link, the packet seed and the fuzz plan seed.  ``paper-figs``
keeps the paper's fixed operating points, so its pins hold at every
seed; the other pins were recorded at seed 0 and are checked only there,
with invariants checked at every seed.
"""

from __future__ import annotations

import hashlib
import json
import random
import time
from collections import deque
from dataclasses import dataclass, field

#: relative tolerance of the Theorem-4 delay comparison.  On the
#: 300-node graph the successor sets of ``mp`` and ``mp-oracle`` are
#: identical, but their phi and epoch delays differ in the last bits
#: (4.2e-16 relative at seed 0), so delays cannot be compared exactly.
THEOREM4_RTOL = 1e-12


@dataclass
class Outcome:
    """What one pass did and whether its outputs were right."""

    attempted: int
    #: operation -> first problem found (exception, verdict or mismatch)
    failures: dict[str, str] = field(default_factory=dict)
    #: units of work done: figures, LSU deliveries, packets or cases
    work: int = 0
    avg_delay_ms: float | None = None
    #: per-case latencies (fuzz-zoo only)
    case_ms: list[float] = field(default_factory=list)
    #: observed values of the pinned outputs (recorded into expected.json)
    pins: dict = field(default_factory=dict)

    def fail(self, operation: str, problem: str) -> None:
        self.failures.setdefault(operation, problem)


def canonical(value) -> str:
    """Deterministic JSON text; floats keep every digit (repr)."""
    return json.dumps(value, sort_keys=True, separators=(",", ":"))


def digest(value) -> str:
    return hashlib.sha256(canonical(value).encode()).hexdigest()[:16]


def check_pins(outcome: Outcome, operation: str, observed, pinned) -> None:
    """Record a failure when ``observed`` differs from its pin."""
    if pinned is not None and canonical(observed) != canonical(pinned):
        outcome.fail(operation, "output differs from its pin in expected.json")


# ----------------------------------------------------------------------
# paper-figs
# ----------------------------------------------------------------------
class PaperFigs:
    """fig09-fig14 as ``repro run`` computes them (rendering not timed)."""

    name = "paper-figs"
    seeded = False
    FIGURES = {
        "fig09": "fig09_cairn_opt_vs_mp",
        "fig10": "fig10_net1_opt_vs_mp",
        "fig11": "fig11_cairn_mp_vs_sp",
        "fig12": "fig12_net1_mp_vs_sp",
        "fig13": "fig13_cairn_tl_sweep",
        "fig14": "fig14_net1_tl_sweep",
    }
    QUICK = ("fig09",)

    def prepare(self, seed: int, quick: bool):
        from repro.bench import figures

        names = self.QUICK if quick else tuple(self.FIGURES)
        return figures, [(name, getattr(figures, self.FIGURES[name])) for name in names]

    def operations(self, inputs) -> int:
        return len(inputs[1])

    def execute(self, inputs):
        module, factories = inputs
        results, errors, mp_run = {}, {}, None
        for name, factory in factories:
            try:
                if name == "fig09":
                    results[name], mp_run = _with_first_run(module, factory)
                else:
                    results[name] = factory()
            except Exception as exc:  # noqa: BLE001 - a failed operation
                errors[name] = f"{type(exc).__name__}: {exc}"
        return results, errors, mp_run

    def verify(self, inputs, raw, pins) -> Outcome:
        _module, factories = inputs
        results, errors, mp_run = raw
        outcome = Outcome(attempted=len(factories))
        for name, problem in errors.items():
            outcome.fail(name, problem)
        for name, result in results.items():
            observed = {
                "metrics": result.metrics,
                "flow_series": result.flow_series,
                "sweep_series": result.sweep_series,
            }
            outcome.pins[name] = json.loads(canonical(observed))
            check_pins(outcome, name, observed, (pins or {}).get(name))
        outcome.work = len(results)
        if mp_run is not None:
            outcome.avg_delay_ms = 1000.0 * mp_run.mean_average_delay()
        return outcome


def _with_first_run(module, factory):
    """Call a figure function, keeping the first RunResult it computes.

    ``_opt_vs_mp`` runs MP first, so for fig09 that is the MP curve whose
    ``mean_average_delay()`` is the workload's ``avg_delay_ms``.
    """
    original, captured = module.run, []

    def run(*args, **kwargs):
        result = original(*args, **kwargs)
        captured.append(result)
        return result

    module.run = run
    try:
        result = factory()
    finally:
        module.run = original
    return result, captured[0]


# ----------------------------------------------------------------------
# converge-waxman300
# ----------------------------------------------------------------------
class ConvergeWaxman:
    """Cold start, link failure at t=2 and restore at t=6 of live MPDA.

    The inputs mirror ``repro.bench.scale.scale_scenario`` but are built
    here, so edits to ``repro.bench`` cannot change the workload.
    """

    name = "converge-waxman300"
    seeded = True
    FLOWS = 12
    RATE_MBPS = (1.0, 3.0)
    OUTAGE = (2.0, 6.0)

    def prepare(self, seed: int, quick: bool):
        from repro.fluid.flows import uniform_random_rates
        from repro.graph.generators import waxman
        from repro.sim.scenario import Scenario, with_failures
        from repro.units import mbps

        n = 27 if quick else 300
        topo = waxman(n, seed=seed)
        rng = random.Random(seed)
        nodes = list(topo.nodes)
        pairs: set = set()
        while len(pairs) < min(self.FLOWS, n * (n - 1)):
            pairs.add(tuple(rng.sample(nodes, 2)))
        low, high = self.RATE_MBPS
        traffic = uniform_random_rates(
            sorted(pairs, key=repr), mbps(low), mbps(high), seed=seed
        )
        base = Scenario(f"e2e-{topo.name}", topo, traffic)
        failed = first_non_bridge(topo)
        return with_failures(base, {failed: [self.OUTAGE]})

    @staticmethod
    def config(policy: str):
        from repro.sim.control import RunConfig

        return RunConfig(
            tl=8.0, ts=2.0, duration=8.0, warmup=0.0, policy=policy, damping=0.5
        )

    def operations(self, scenario) -> int:
        return 1

    def execute(self, scenario):
        from repro.sim.control import TwoTimescaleController

        controller = TwoTimescaleController(scenario, self.config("mp"))
        return controller, controller.run()

    def verify(self, scenario, raw, pins) -> Outcome:
        from repro.sim.control import TwoTimescaleController

        controller, result = raw
        outcome = Outcome(attempted=1)
        stats = dict(result.protocol_stats)
        outcome.work = stats.get("delivered", 0)
        outcome.avg_delay_ms = 1000.0 * result.mean_average_delay()
        outcome.pins = {
            "protocol_stats": stats,
            "avg_delay_ms": outcome.avg_delay_ms,
        }
        if pins is not None:
            check_pins(outcome, "run", outcome.pins, pins)
        # Theorem 4: the live protocol converges to the oracle's
        # successor sets, so both runs route and delay alike.
        oracle = TwoTimescaleController(scenario, self.config("mp-oracle"))
        reference = oracle.run()
        if _successor_sets(controller) != _successor_sets(oracle):
            outcome.fail("run", "mp successor sets differ from mp-oracle's")
        if len(result.records) != len(reference.records) or not all(
            map(_close_records, result.records, reference.records)
        ):
            outcome.fail("run", "mp and mp-oracle epoch delays differ")
        return outcome


def first_non_bridge(topo):
    """The first duplex link (sorted) whose loss keeps ``topo`` connected."""
    duplex = sorted(
        {tuple(sorted(link.link_id, key=repr)) for link in topo.links()},
        key=repr,
    )
    nodes = list(topo.nodes)
    for down in duplex:
        blocked = {down, down[::-1]}
        seen, frontier = {nodes[0]}, deque([nodes[0]])
        while frontier:
            node = frontier.popleft()
            for nbr in topo.neighbors(node):
                if (node, nbr) not in blocked and nbr not in seen:
                    seen.add(nbr)
                    frontier.append(nbr)
        if len(seen) == len(nodes):
            return down
    raise ValueError(f"every link of {topo.name!r} is a bridge")


def _successor_sets(controller) -> dict:
    return {
        repr(dest): {repr(node): sorted(map(repr, succ)) for node, succ in by_node.items()}
        for dest, by_node in controller.policy.routing().items()
    }


def _close(a: float, b: float) -> bool:
    return a == b or abs(a - b) <= THEOREM4_RTOL * max(abs(a), abs(b))


def _close_records(mine, theirs) -> bool:
    return (
        _close(mine.average_delay, theirs.average_delay)
        and mine.flow_delays.keys() == theirs.flow_delays.keys()
        and all(
            _close(delay, theirs.flow_delays[flow])
            for flow, delay in mine.flow_delays.items()
        )
    )


# ----------------------------------------------------------------------
# packet-cairn
# ----------------------------------------------------------------------
class PacketCairn:
    """Packet-level CAIRN at load 1.2 under converged (oracle) MPDA sets."""

    name = "packet-cairn"
    seeded = True

    def prepare(self, seed: int, quick: bool):
        from repro.sim.control import PacketRunConfig
        from repro.sim.scenario import cairn_scenario

        duration, warmup = (5.0, 1.0) if quick else (30.0, 10.0)
        config = PacketRunConfig(
            policy="mp-oracle",
            tl=10.0,
            ts=2.0,
            duration=duration,
            warmup=warmup,
            seed=seed,
        )
        return cairn_scenario(load=1.2), config

    def operations(self, inputs) -> int:
        return 1

    def execute(self, inputs):
        from repro.sim.control import TwoTimescaleController

        scenario, config = inputs
        controller = TwoTimescaleController(scenario, config)
        return controller, controller.run()

    def verify(self, inputs, raw, pins) -> Outcome:
        controller, result = raw
        monitor = controller.plane.network.flow_monitor
        outcome = Outcome(attempted=1, work=monitor.total_delivered())
        outcome.avg_delay_ms = 1000.0 * result.mean_average_delay()
        outcome.pins = {
            "delivered": outcome.work,
            "avg_delay_ms": outcome.avg_delay_ms,
        }
        if pins is not None:
            check_pins(outcome, "run", outcome.pins, pins)
        if monitor.no_route_drops:
            outcome.fail("run", f"{monitor.no_route_drops} packets had no route")
        if monitor.in_flight() < 0:
            outcome.fail("run", f"negative in-flight count {monitor.in_flight()}")
        return outcome


# ----------------------------------------------------------------------
# fuzz-zoo
# ----------------------------------------------------------------------
class FuzzZoo:
    """A reliable-transport fuzz campaign over the policy zoo, inline.

    The seed draws case seeds, and each case seed runs as
    ``fuzz_plan(7, seed=case_seed)``: the same adversarial case under
    every policy of ``FUZZ_POLICIES``.  The mix of case sizes is fixed:
    :data:`PER_SIZE` cases on each random topology size from 4 to 8
    nodes.  A plain ``fuzz_plan(350, seed)`` also draws CAIRN or NET1 in
    15% of its cases, and one CAIRN case costs as much as 70 small ones
    (3.3 s against 47 ms), so its time varied 2x between seeds.
    """

    name = "fuzz-zoo"
    seeded = True
    SIZES = range(4, 9)
    PER_SIZE = 20

    def prepare(self, seed: int, quick: bool):
        from repro.fleet.plan import FUZZ_POLICIES, fuzz_plan
        from repro.fleet.worker import execute_cell
        from repro.testing.fuzz import generate_case

        wanted = {4: 1, 5: 1} if quick else dict.fromkeys(self.SIZES, self.PER_SIZE)
        rng = random.Random(seed)
        cells = []
        while any(wanted.values()):
            case_seed = rng.randrange(2**31)
            size = generate_case(case_seed).topology.get("n")  # None if named
            if wanted.get(size):
                wanted[size] -= 1
                cells.extend(fuzz_plan(len(FUZZ_POLICIES), seed=case_seed).cells)
        return cells, execute_cell

    def operations(self, inputs) -> int:
        return len(inputs[0])

    def execute(self, inputs):
        cells, execute_cell = inputs
        clock = time.perf_counter
        records, latencies = [], []
        for cell in cells:
            start = clock()
            records.append(execute_cell(cell))
            latencies.append(1000.0 * (clock() - start))
        return records, latencies

    def verify(self, inputs, raw, pins) -> Outcome:
        cells, _execute_cell = inputs
        records, latencies = raw
        outcome = Outcome(attempted=len(cells), case_ms=latencies)
        verdicts = {}
        for cell, record in zip(cells, records, strict=True):
            verdicts[cell.label] = f"{record['status']}/{digest(record)}"
            if record["status"] != "pass":
                outcome.fail(cell.label, f"verdict {record['status']}")
        outcome.work = len(records)
        outcome.pins = {"verdicts": verdicts}
        pinned = (pins or {}).get("verdicts")
        if pinned is not None:
            for label, verdict in verdicts.items():
                if pinned.get(label) != verdict:
                    outcome.fail(label, "verdict or metrics differ from its pin")
        return outcome


WORKLOADS = {
    workload.name: workload
    for workload in (PaperFigs(), ConvergeWaxman(), PacketCairn(), FuzzZoo())
}
