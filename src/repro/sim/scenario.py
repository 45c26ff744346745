"""Workload scenarios: the paper's Section 5 setups and dynamic variants.

A :class:`Scenario` bundles a topology with a (possibly time-varying)
traffic matrix.  The two factory functions :func:`cairn_scenario` and
:func:`net1_scenario` build the paper's setups: the 11 CAIRN and 10 NET1
source-destination pairs with flow bandwidths drawn from a rate range
(the paper's exact range is illegible in our source; see DESIGN.md §4 —
benchmarks sweep the ``load`` factor so claims are checked across
regimes).  :func:`bursty_scenario` wraps any scenario with on/off flow
dynamics for the dynamic-traffic experiments.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

from repro.exceptions import SimulationError
from repro.fluid.flows import Flow, TrafficMatrix, uniform_random_rates
from repro.graph.topologies import (
    CAIRN_FLOW_PAIRS,
    NET1_FLOW_PAIRS,
    cairn,
    net1,
)
from repro.graph.topology import Topology
from repro.units import mbps


@dataclass
class Scenario:
    """A topology plus a workload.

    ``traffic_at`` returns the instantaneous demand; the base class is
    stationary.  ``mean_traffic`` is what stationary-only algorithms
    (OPT) should optimize for.
    """

    name: str
    topo: Topology
    traffic: TrafficMatrix

    def traffic_at(self, time: float) -> TrafficMatrix:
        """Demand at simulated ``time`` (stationary by default)."""
        return self.traffic

    def mean_traffic(self) -> TrafficMatrix:
        """The long-run average demand."""
        return self.traffic

    def links_down_at(self, time: float) -> frozenset:
        """Duplex links failed at ``time`` (empty for a stable topology,
        the paper's setting; see :func:`with_failures`)."""
        return frozenset()


def cairn_scenario(
    load: float = 1.0,
    *,
    rate_low_mbps: float = 1.0,
    rate_high_mbps: float = 3.0,
    seed: int = 7,
) -> Scenario:
    """The paper's CAIRN experiment: 11 flows over the CAIRN topology.

    ``load`` scales every flow, letting benchmarks sweep from light to
    heavy regimes (the paper's claims concern the loaded regime).
    """
    traffic = uniform_random_rates(
        CAIRN_FLOW_PAIRS, mbps(rate_low_mbps), mbps(rate_high_mbps), seed=seed
    ).scaled(load)
    return Scenario(f"cairn-load{load:g}", cairn(), traffic)


def net1_scenario(
    load: float = 1.0,
    *,
    rate_low_mbps: float = 1.0,
    rate_high_mbps: float = 3.0,
    seed: int = 11,
) -> Scenario:
    """The paper's NET1 experiment: 10 flows over the NET1 topology."""
    traffic = uniform_random_rates(
        NET1_FLOW_PAIRS, mbps(rate_low_mbps), mbps(rate_high_mbps), seed=seed
    ).scaled(load)
    return Scenario(f"net1-load{load:g}", net1(), traffic)


@dataclass
class BurstyScenario(Scenario):
    """A scenario whose flows switch on and off over time.

    Each flow follows a precomputed alternating schedule of exponential
    on/off periods; while *on* it offers ``burstiness`` times its base
    rate, so its long-run mean equals the base rate.  The schedule is
    deterministic given the seed, which keeps runs reproducible and lets
    MP and SP face *exactly* the same burst pattern.
    """

    burstiness: float = 3.0
    mean_on: float = 4.0
    seed: int = 0
    horizon: float = 600.0
    _schedules: dict[str, list[tuple[float, float]]] = field(
        default_factory=dict, repr=False
    )

    def __post_init__(self) -> None:
        if self.burstiness <= 1.0:
            raise SimulationError(
                f"burstiness must exceed 1, got {self.burstiness!r}"
            )
        rng = random.Random(self.seed)
        mean_off = self.mean_on * (self.burstiness - 1.0)
        for flow in self.traffic.flows:
            periods: list[tuple[float, float]] = []
            t = rng.uniform(0.0, self.mean_on + mean_off)  # desynchronize
            while t < self.horizon:
                on = rng.expovariate(1.0 / self.mean_on)
                periods.append((t, t + on))
                t += on + rng.expovariate(1.0 / mean_off)
            self._schedules[flow.label()] = periods

    def schedule_for(self, flow_label: str) -> list[tuple[float, float]]:
        """The flow's precomputed (start, end) on-periods.

        This is the schedule both data planes replay: the fluid plane
        samples it via :meth:`traffic_at`, the packet plane drives
        scheduled sources from it directly.
        """
        return list(self._schedules.get(flow_label, ()))

    def is_on(self, flow_label: str, time: float) -> bool:
        for start, end in self._schedules.get(flow_label, ()):
            if start <= time < end:
                return True
            if start > time:
                break
        return False

    def traffic_at(self, time: float) -> TrafficMatrix:
        active = [
            Flow(
                f.source,
                f.destination,
                f.rate * self.burstiness,
                name=f.name,
            )
            for f in self.traffic.flows
            if self.is_on(f.label(), time)
        ]
        return TrafficMatrix(active)

    def mean_traffic(self) -> TrafficMatrix:
        return self.traffic


def bursty_scenario(
    base: Scenario,
    *,
    burstiness: float = 3.0,
    mean_on: float = 4.0,
    seed: int = 0,
    horizon: float = 600.0,
) -> BurstyScenario:
    """Wrap a stationary scenario with on/off flow dynamics."""
    return BurstyScenario(
        name=f"{base.name}-bursty{burstiness:g}",
        topo=base.topo,
        traffic=base.traffic,
        burstiness=burstiness,
        mean_on=mean_on,
        seed=seed,
        horizon=horizon,
    )


@dataclass
class FailureScenario(Scenario):
    """A scenario whose topology loses duplex links during windows.

    ``outages`` maps a duplex link (a, b) to (start, end) windows during
    which both directions are down.  The paper kept its topologies
    stable ("In the presence of link failures, MP can only perform
    better than SP, because of availability of alternate paths"); this
    extension lets that claim be measured.
    """

    outages: dict[tuple, list[tuple[float, float]]] = field(
        default_factory=dict
    )

    def __post_init__(self) -> None:
        for (a, b), windows in self.outages.items():
            if not self.topo.has_link(a, b) or not self.topo.has_link(b, a):
                raise SimulationError(f"no duplex link {a!r} <-> {b!r}")
            for start, end in windows:
                # ``not end > start`` also rejects NaN bounds, which
                # compare False both ways and would never take the
                # link down.
                if not end > start:
                    raise SimulationError(
                        f"outage window ({start}, {end}) on {a!r} <-> "
                        f"{b!r} is empty or not a number"
                    )

    def links_down_at(self, time: float) -> frozenset:
        down = set()
        for (a, b), windows in self.outages.items():
            for start, end in windows:
                if start <= time < end:
                    down.add((a, b))
                    down.add((b, a))
                    break
        return frozenset(down)


def with_failures(
    base: Scenario,
    outages: dict[tuple, list[tuple[float, float]]],
) -> FailureScenario:
    """Add link-outage windows to a scenario."""
    return FailureScenario(
        name=f"{base.name}-failures",
        topo=base.topo,
        traffic=base.traffic,
        outages=outages,
    )
