"""The unified two-timescale control kernel.

The paper's whole system is *one* control discipline:

- every short interval ``Ts`` the routers measure marginal link delays
  for the current flows and run the AH allocation heuristic (a purely
  local computation);
- every long interval ``Tl`` the measured costs (averaged over the
  window, as a real router would) are flooded, routes are recomputed
  (MPDA's converged sets, or the live protocol), and IH re-seeds any
  allocation whose successor set changed.

:class:`TwoTimescaleController` owns that cadence — Ts/Tl timers, IH/AH
invocation, warmup accounting, scenario dynamics (link outages, bursty
on/off traffic) and epoch-record emission.  *Which* routing algorithm
fills the successor sets is no longer the controller's business: it
resolves the :class:`~repro.policy.RoutingPolicy` named by
``config.policy`` from the registry and drives its uniform lifecycle.
The policy in turn feeds a :class:`DataPlane`:

- :class:`FluidPlane` evaluates the network analytically each epoch
  with the same M/M/1 law the paper's cost function assumes, plus fluid
  queue backlog that persists across epochs — fast enough for full
  parameter sweeps;
- :class:`PacketPlane` simulates every packet (:mod:`repro.netsim`):
  Poisson or scheduled on/off sources, exponential-service links, and
  marginal delays *estimated from measurements* instead of computed
  from the model.

Because the controller is shared, scenario dynamics behave identically
on both planes: a :func:`~repro.sim.scenario.with_failures` outage
fails the physical links mid-run (packets queued on them are dropped,
traffic reroutes over the surviving successor sets) and emits
``link_down`` / ``link_up`` trace events; a
:func:`~repro.sim.scenario.bursty_scenario` replays the *same*
precomputed on/off schedule through either plane.

:func:`run` is the single entry point.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Protocol

from repro import obs
from repro.exceptions import SimulationError
from repro.fluid.delay import DelayModel
from repro.fluid.evaluator import RoutingDAG, flow_delays, link_flows
from repro.fluid.queues import FluidQueues
from repro.graph.topology import LinkId, NodeId
from repro.netsim.network import PacketNetwork
from repro.policy import RoutingPolicy, create_policy, policy_class
from repro.sim.results import EpochRecord, RunResult
from repro.sim.scenario import BurstyScenario, Scenario

#: Estimators can momentarily report ~0 on idle links before any
#: traffic; routing requires positive costs.
MIN_COST = 1e-9

#: Weight of the newest Tl window in the long-term cost EWMA.  Smoothing
#: the costs across windows damps route flapping the way a real
#: router's long-interval averaging does.
LONG_COST_WEIGHT = 0.5


# ----------------------------------------------------------------------
# configuration
# ----------------------------------------------------------------------
@dataclass
class RunConfig:
    """Parameters shared by every two-timescale run, any data plane.

    Attributes:
        tl: long-term (route) update interval, seconds.
        ts: short-term (allocation) update interval, seconds.
        duration: simulated time.
        warmup: epochs before this time are excluded from averages.
        damping: AH step damping, in (0, 1].
        seed: protocol-mode delivery interleaving (and packet-plane
            service/arrival) seed.
        policy: registry name of the routing policy to run (see
            ``repro policies``); a name that matches nothing raises
            :class:`~repro.exceptions.ConfigError` listing the
            registered ones.
        policy_params: extra constructor knobs for the policy
            (``{"successor_limit": 2}`` for the MP successor-count
            ablation, ``{"k": 4}`` for ``ecmp-k``, ``{"eta": 0.05}``
            for ``opt``, ...).
    """

    tl: float = 10.0
    ts: float = 2.0
    duration: float = 200.0
    warmup: float = 40.0
    damping: float = 1.0
    seed: int = 0
    policy: str = "mp-oracle"
    policy_params: dict = field(default_factory=dict)

    #: Appended to the plot key (the packet plane tags ``(pkt)``).
    label_suffix = ""

    def __post_init__(self) -> None:
        # Every check fails loudly here, naming the field, rather than
        # as a loop that never ends (an infinite duration), a run of
        # zero epochs (a NaN one) or an error at the first AH step.
        for name in ("tl", "ts", "duration", "warmup"):
            value = getattr(self, name)
            if not math.isfinite(value):
                raise SimulationError(f"{name} must be finite, got {value!r}")
        if self.ts <= 0 or self.tl <= 0:
            raise SimulationError("Tl and Ts must be positive")
        if self.tl < self.ts:
            raise SimulationError(
                f"Tl ({self.tl}) must be at least Ts ({self.ts}); the paper "
                "requires Tl to be several times longer"
            )
        ratio = self.tl / self.ts
        if abs(ratio - round(ratio)) > 1e-9:
            raise SimulationError(
                "Tl must be an integer multiple of Ts "
                f"(got Tl={self.tl}, Ts={self.ts})"
            )
        if self.warmup < 0:
            raise SimulationError(
                f"warmup must be non-negative, got {self.warmup!r}"
            )
        if self.duration <= self.warmup:
            raise SimulationError("duration must exceed warmup")
        if not 0.0 < self.damping <= 1.0:
            raise SimulationError(
                f"damping must be in (0, 1], got {self.damping!r}"
            )
        policy_class(self.policy)

    @property
    def epochs_per_tl(self) -> int:
        return round(self.tl / self.ts)

    #: Plot keys of the paper's policies (``{limit}`` is the MP
    #: successor-count ablation); any other policy is keyed ``NAME-TL-x``.
    _PAPER_LABELS = {
        "mp": "MP{limit}-TL-{tl}-TS-{ts}",
        "mp-oracle": "MP{limit}-TL-{tl}-TS-{ts}",
        "sp": "SP-TL-{tl}",
        "ecmp": "ECMP-TL-{tl}-TS-{ts}",
        "ecmp-hop": "ECMP-HOP",
    }

    @property
    def label(self) -> str:
        """The paper's plot-key convention (MP-TL-x-TS-y / SP-TL-x)."""
        template = self._PAPER_LABELS.get(
            self.policy, self.policy.upper() + "-TL-{tl}"
        )
        limit = self.policy_params.get("successor_limit")
        key = template.format(
            limit="" if limit is None else limit,
            tl=f"{self.tl:g}",
            ts=f"{self.ts:g}",
        )
        return key + self.label_suffix


@dataclass
class QuasiStaticConfig(RunConfig):
    """A :class:`RunConfig` plus the fluid plane's extras."""

    #: Per-link output buffer, packets; caps what a packet can
    #: experience during overload epochs (None = infinite).
    queue_limit: float | None = 100.0


@dataclass
class PacketRunConfig(RunConfig):
    """A :class:`RunConfig` plus the packet plane's extras.

    Packet delays come from delivered packets, so the default warmup is
    0: either run long enough that the transient is negligible, or set
    ``warmup`` to drop the cold-start windows from the averages.
    """

    duration: float = 60.0
    warmup: float = 0.0
    estimator: str = "mm1"
    #: Per-link output buffer in packets (None = the paper's lossless
    #: model); overflow drops are counted by the flow monitor.
    queue_capacity: int | None = None

    label_suffix = "(pkt)"


# ----------------------------------------------------------------------
# data planes
# ----------------------------------------------------------------------
class DataPlane(Protocol):
    """What the controller needs from a data plane.

    A plane turns routing parameters into flows and delays for one
    epoch, reports the short-timescale marginal costs the routers
    would measure, and reacts to physical topology events.
    """

    #: Short tag stamped on results and trace events.
    name: str

    def bind(self, routing: RoutingPolicy) -> None:
        """Attach the routing policy before the first epoch."""

    def advance(
        self, time: float, dt: float, traffic
    ) -> tuple[EpochRecord, dict[LinkId, float]]:
        """Advance one epoch [time, time+dt) under ``traffic``.

        Returns the epoch's record and the marginal link costs measured
        at the epoch's end (over *all* physical links, up or down).
        """

    def apply_outage(self, went_down, came_up) -> None:
        """React to directed links physically failing / being repaired."""

    def finish(self, ob) -> None:
        """End the run: drop per-run state and flush plane-level totals
        into the observation ``ob`` (None when nothing observes)."""


class FluidPlane:
    """Analytic M/M/1 evaluation with persistent fluid queue backlog.

    Each epoch takes one phi snapshot from the policy and builds one
    :class:`~repro.fluid.evaluator.RoutingDAG` per active destination
    from that destination's DAG of the epoch before.  A policy hands out
    the same entry objects until it replaces them, so only the entries
    IH/AH replaced are validated and normalised again; the result equals
    a fresh build.  :meth:`finish` drops the DAGs.
    """

    name = "fluid"

    def __init__(
        self, scenario: Scenario, config: RunConfig
    ) -> None:
        queue_limit = getattr(config, "queue_limit", 100.0)
        self.model = DelayModel.for_topology(
            scenario.topo, queue_limit=queue_limit
        )
        self.queues = FluidQueues(self.model, queue_limit)
        self.routing: RoutingPolicy | None = None
        #: The last epoch's routing DAG per destination.
        self._dags: dict[NodeId, RoutingDAG] = {}

    def bind(self, routing: RoutingPolicy) -> None:
        self.routing = routing

    def advance(self, time, dt, traffic):
        ob = obs.current()
        with obs.phase(ob, "fluid.epoch"):
            # One phi snapshot, and one routing DAG per destination, for
            # the whole epoch: nothing touches the allocations between the
            # flow and delay computations, and building the nested phi
            # dict is itself O(n * dests).
            phi = self.routing.phi()
            previous = self._dags
            self._dags = dags = {
                dest: RoutingDAG(phi, dest, previous.get(dest))
                for dest in traffic.destinations()
            }
            flows = link_flows(phi, traffic, dags=dags)
            per_unit = self.queues.step(flows, dt)
            total_delay = sum(
                flow * per_unit[link_id] for link_id, flow in flows.items()
            )
            total_rate = traffic.total_rate()
            record = EpochRecord(
                time=time,
                total_delay=total_delay,
                average_delay=(
                    total_delay / total_rate if total_rate > 0 else 0.0
                ),
                flow_delays=flow_delays(phi, traffic, per_unit, dags=dags),
                max_utilization=max(
                    (
                        self.model[link_id].utilization(flow)
                        for link_id, flow in flows.items()
                    ),
                    default=0.0,
                ),
            )
            short_costs = self.queues.costs(flows, per_unit)
        return record, short_costs

    def apply_outage(self, went_down, came_up) -> None:
        # The fluid model has no queued packets to destroy on restore;
        # on failure the backlog is lost with the link.
        for link_id in went_down:
            self.queues.drop_link(link_id)

    def finish(self, ob) -> None:
        self._dags = {}


class PacketPlane:
    """The discrete-event packet simulator as a data plane.

    The network is built in :meth:`bind`, one per run.  Each
    :meth:`advance` installs one phi snapshot from the policy, runs the
    engine one epoch by it, and reports *that window's*
    delivered-packet delays, so warmup exclusion and bursty per-epoch
    flow activity work exactly as on the fluid plane.
    """

    name = "packet"

    def __init__(
        self, scenario: Scenario, config: PacketRunConfig
    ) -> None:
        self.scenario = scenario
        self.config = config
        self.network: PacketNetwork | None = None
        self.routing: RoutingPolicy | None = None
        self._tick = 0
        # Per-flow (delivered, delay_sum) totals at the window start.
        self._flow_marks: dict[str, tuple[int, float]] = {}
        self._dropped_mark = 0

    def bind(self, routing: RoutingPolicy) -> None:
        config = self.config
        self.routing = routing
        self.network = PacketNetwork(
            self.scenario.topo,
            seed=config.seed,
            estimator=config.estimator,
            queue_capacity=config.queue_capacity,
        )
        self._attach_workload()

    def _attach_workload(self) -> None:
        scenario, config = self.scenario, self.config
        traffic = scenario.mean_traffic()
        if isinstance(scenario, BurstyScenario):
            # Replay the scenario's *precomputed* on/off schedule so the
            # packet plane faces the exact burst pattern the fluid plane
            # evaluates (and MP and SP face the same one).
            self.network.attach_schedules(
                traffic.flows,
                {f.label(): scenario.schedule_for(f.label()) for f in traffic.flows},
                peak_factor=scenario.burstiness,
                stop=config.duration,
            )
        else:
            self.network.attach_poisson(traffic, stop=config.duration)

    def advance(self, time, dt, traffic):
        ob = obs.current()
        network = self.network
        # The controller touches the policy only between epochs, so one
        # snapshot is what every hop of this epoch would read.
        network.route(self.routing.phi())
        network.run(until=time + dt)
        self._tick += 1
        record = self._window_record(time, dt)
        with obs.phase(ob, "packet.measure"):
            costs = network.measure_costs()
        short_costs = {
            link_id: max(cost, MIN_COST) for link_id, cost in costs.items()
        }
        if ob is not None and ob.tracer.enabled:
            monitor = network.flow_monitor
            ob.tracer.event(
                "ts_tick",
                time=network.engine.now,
                tick=self._tick,
                delivered=monitor.total_delivered(),
                dropped=monitor.total_dropped(),
            )
        return record, short_costs

    def _window_record(self, time: float, dt: float) -> EpochRecord:
        """Delays of the packets delivered during this window."""
        monitor = self.network.flow_monitor
        dropped = monitor.total_dropped()
        window_dropped = dropped - self._dropped_mark
        self._dropped_mark = dropped
        per_flow: dict[str, float] = {}
        window_delay = 0.0
        window_count = 0
        for name, rec in monitor.flows.items():
            prev_count, prev_delay = self._flow_marks.get(name, (0, 0.0))
            delivered = rec.delivered - prev_count
            delay = rec.delay_sum - prev_delay
            self._flow_marks[name] = (rec.delivered, rec.delay_sum)
            if delivered:
                per_flow[name] = delay / delivered
                window_delay += delay
                window_count += delivered
        return EpochRecord(
            time=time,
            # Delay-seconds accumulated per unit time — the packet
            # analogue of the fluid plane's D_T.
            total_delay=window_delay / dt,
            average_delay=(
                window_delay / window_count if window_count else 0.0
            ),
            flow_delays=per_flow,
            max_utilization=max(
                self.network.link_utilizations().values(), default=0.0
            ),
            metrics={
                "delivered": float(window_count),
                "dropped": float(window_dropped),
            },
        )

    def apply_outage(self, went_down, came_up) -> None:
        for link_id in went_down:
            self.network.set_link_up(link_id, False)
        for link_id in came_up:
            self.network.set_link_up(link_id, True)

    def finish(self, ob) -> None:
        if ob is not None:
            self.network.harvest_metrics(ob.metrics)


# ----------------------------------------------------------------------
# the controller
# ----------------------------------------------------------------------
class TwoTimescaleController:
    """Drives the paper's Ts/Tl discipline over a pluggable data plane.

    The controller owns the whole discipline: boot from idle marginal
    costs, the window-averaged + EWMA-smoothed long-term costs, the Tl
    route recomputation (IH reseeding) vs. Ts allocation adjustment
    (AH) split, warmup bookkeeping, epoch trace events, and scenario dynamics — outages are detected at the epoch
    where they start/end (failure detection is immediate in MPDA, an
    adjacent-link event, not a Tl timer) and applied to both the data
    plane and the routing plane, with ``link_down`` / ``link_up`` trace
    events.
    """

    def __init__(
        self,
        scenario: Scenario,
        config: RunConfig,
        plane: DataPlane | None = None,
    ) -> None:
        self.scenario = scenario
        self.config = config
        self.plane = plane if plane is not None else _default_plane(
            scenario, config
        )
        #: The policy instance of the last/current :meth:`run`.
        self.policy: RoutingPolicy | None = None

    def run(self) -> RunResult:
        scenario, config, plane = self.scenario, self.config, self.plane
        topo = scenario.topo
        ob = obs.current()
        routing = create_policy(config.policy, **config.policy_params)
        routing.initialize(scenario, config)
        self.policy = routing
        plane.bind(routing)

        # Boot: no measurements yet, so paths come from idle marginal
        # costs, which also seed the long-term cost average.  The full
        # topology boots first (the protocol driver needs a cost for
        # every adjacent link); outages already active at t=0 are then
        # applied as ordinary topology events.
        if ob is not None:
            ob.sim_time = 0.0
        boot_costs = topo.idle_marginal_costs()
        long_costs: dict[LinkId, float] = dict(boot_costs)
        routing.on_costs(boot_costs)
        links_down: frozenset = frozenset()

        result = RunResult(
            label=config.label,
            scenario=scenario.name,
            warmup=config.warmup,
            plane=plane.name,
        )
        window_costs: dict[LinkId, float] = {}
        window_epochs = 0
        time = 0.0
        epoch_index = 0
        while time < config.duration:
            if ob is not None:
                # Stamp the shared sim clock so protocol-driver trace
                # events fired inside routing calls carry this time.
                ob.sim_time = time
            links_down = self._sync_topology(
                time, links_down, routing, plane, long_costs, ob
            )
            traffic = scenario.traffic_at(time)
            record, short_costs = plane.advance(time, config.ts, traffic)
            if ob is not None:
                record.metrics = {
                    **(record.metrics or {}),
                    "route_updates": float(routing.route_updates),
                    "allocation_updates": float(routing.allocation_updates),
                }
                if ob.tracer.enabled:
                    ob.tracer.event(
                        "epoch",
                        time=time,
                        run=config.label,
                        avg_delay=record.average_delay,
                        max_utilization=record.max_utilization,
                    )
            result.records.append(record)

            # Measurements happen at the end of the epoch.
            for link_id, cost in short_costs.items():
                window_costs[link_id] = window_costs.get(link_id, 0.0) + cost
            window_epochs += 1
            time += config.ts
            epoch_index += 1
            if ob is not None:
                ob.sim_time = time
            if epoch_index % config.epochs_per_tl == 0:
                measured = {
                    link_id: total / window_epochs
                    for link_id, total in window_costs.items()
                }
                long_costs = {
                    link_id: LONG_COST_WEIGHT * measured[link_id]
                    + (1.0 - LONG_COST_WEIGHT)
                    * long_costs.get(link_id, measured[link_id])
                    for link_id in measured
                }
                with obs.phase(ob, "control.tl_update"):
                    routing.on_costs(_without(long_costs, links_down))
                window_costs = {}
                window_epochs = 0
            else:
                with obs.phase(ob, "control.ts_adjust"):
                    routing.on_short_costs(
                        _without(short_costs, links_down)
                    )

        result.protocol_stats = routing.protocol_stats()
        plane.finish(ob)
        if ob is not None:
            ob.sim_time = None
            result.metrics = ob.snapshot()
        return result

    # ------------------------------------------------------------------
    def _sync_topology(
        self, time, links_down, routing, plane, long_costs, ob
    ) -> frozenset:
        """Apply the scenario's outage state for ``time`` if it changed.

        The data plane sees the physical event (queued packets dropped,
        fluid backlog lost); the routing policy sees it either as link
        events — policies with their own failure handling, e.g. MPDA's
        protocol mode or link reversal (restored links come back at
        their long-term cost) — or, for converged-oracle policies, as a
        route recomputation over the surviving links.
        """
        now_down = self.scenario.links_down_at(time)
        if now_down == links_down:
            return links_down
        went_down = now_down - links_down
        came_up = links_down - now_down
        plane.apply_outage(went_down, came_up)
        if ob is not None and ob.tracer.enabled:
            for link_id in sorted(went_down, key=repr):
                ob.tracer.event(
                    "link_down", time=time, link=link_id, plane=plane.name
                )
            for link_id in sorted(came_up, key=repr):
                ob.tracer.event(
                    "link_up", time=time, link=link_id, plane=plane.name
                )
        if routing.handles_link_events:
            for a, b in _duplex_pairs(went_down):
                routing.on_link_event("down", a, b)
            for a, b in _duplex_pairs(came_up):
                routing.on_link_event(
                    "up", a, b, long_costs[(a, b)], long_costs[(b, a)]
                )
        else:
            routing.on_costs(_without(long_costs, now_down))
        return now_down


def run(
    scenario: Scenario,
    config: RunConfig,
    *,
    plane: DataPlane | None = None,
) -> RunResult:
    """Run a scenario through the two-timescale discipline.

    The data plane follows the config type — :class:`PacketRunConfig`
    selects the packet plane, anything else the fluid plane — unless an
    explicit ``plane`` is given.

    Returns:
        A :class:`RunResult` whose per-flow means reproduce one curve
        of the paper's figures.
    """
    return TwoTimescaleController(scenario, config, plane=plane).run()


# ----------------------------------------------------------------------
# helpers
# ----------------------------------------------------------------------
def _default_plane(scenario: Scenario, config: RunConfig) -> DataPlane:
    if isinstance(config, PacketRunConfig):
        return PacketPlane(scenario, config)
    return FluidPlane(scenario, config)


def _without(costs, links_down):
    """A cost map with failed links removed (routers cannot use them)."""
    if not links_down:
        return costs
    return {
        link_id: cost
        for link_id, cost in costs.items()
        if link_id not in links_down
    }


def _duplex_pairs(links) -> list[tuple]:
    """Directed link ids collapsed to sorted duplex (a, b) pairs."""
    seen = set()
    for a, b in links:
        seen.add((a, b) if repr(a) <= repr(b) else (b, a))
    return sorted(seen, key=repr)
