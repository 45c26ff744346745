"""The unified two-timescale controller and its pluggable data planes.

Covers what the refactor promises: validation lives in one place (same
error text from either config class), scenario dynamics behave the same
on both planes — a packet-plane link failure actually reroutes traffic
and emits ``link_down`` / ``link_up`` trace events under a clean
invariant audit — and the two planes cross-validate on the paper's
CAIRN workload through the *same* controller.
"""

from __future__ import annotations

import json
import math

import pytest

from repro import obs
from repro.bench.convergence import pick_failure_link
from repro.core.allocation import AllocationTable
from repro.exceptions import SimulationError
from repro.fluid.evaluator import RoutingDAG
from repro.fluid.flows import Flow, TrafficMatrix
from repro.netsim.engine import Engine
from repro.netsim.traffic import ScheduledSource
from repro.policy.paper import MPFamilyPolicy
from repro.sim.control import (
    FluidPlane,
    PacketPlane,
    PacketRunConfig,
    QuasiStaticConfig,
    RunConfig,
    run,
)
from repro.sim.scenario import (
    Scenario,
    bursty_scenario,
    cairn_scenario,
    net1_scenario,
    with_failures,
)

CONFIG_CLASSES = [RunConfig, QuasiStaticConfig, PacketRunConfig]


@pytest.fixture
def diamond_scenario(diamond):
    return Scenario(
        name="diamond",
        topo=diamond,
        traffic=TrafficMatrix([Flow("s", "t", 600.0, name="hot")]),
    )


class TestSharedValidation:
    """One copy of the Ts/Tl validation, identical for every plane."""

    @pytest.mark.parametrize("config_cls", CONFIG_CLASSES)
    def test_non_positive_intervals(self, config_cls):
        with pytest.raises(SimulationError, match="must be positive"):
            config_cls(tl=10.0, ts=0.0)
        with pytest.raises(SimulationError, match="must be positive"):
            config_cls(tl=-1.0, ts=2.0)

    @pytest.mark.parametrize("config_cls", CONFIG_CLASSES)
    def test_ts_longer_than_tl(self, config_cls):
        with pytest.raises(
            SimulationError,
            match=r"Tl \(2\.0\) must be at least Ts \(10\.0\)",
        ):
            config_cls(tl=2.0, ts=10.0)

    @pytest.mark.parametrize("config_cls", CONFIG_CLASSES)
    def test_non_integer_multiple(self, config_cls):
        with pytest.raises(
            SimulationError,
            match=r"Tl must be an integer multiple of Ts "
            r"\(got Tl=10\.0, Ts=3\.0\)",
        ):
            config_cls(tl=10.0, ts=3.0)

    @pytest.mark.parametrize("config_cls", CONFIG_CLASSES)
    def test_duration_within_warmup(self, config_cls):
        with pytest.raises(SimulationError, match="exceed warmup"):
            config_cls(tl=2.0, ts=2.0, duration=10.0, warmup=10.0)

    @pytest.mark.parametrize("config_cls", CONFIG_CLASSES)
    @pytest.mark.parametrize(
        "field, value",
        [
            ("duration", math.inf),
            ("duration", math.nan),
            ("warmup", math.nan),
            ("tl", math.inf),
            ("ts", math.nan),
        ],
    )
    def test_non_finite_times(self, config_cls, field, value):
        with pytest.raises(SimulationError, match=f"^{field} must be finite"):
            config_cls(**{field: value})

    @pytest.mark.parametrize("config_cls", CONFIG_CLASSES)
    def test_negative_warmup(self, config_cls):
        with pytest.raises(SimulationError, match="warmup must be non-neg"):
            config_cls(warmup=-1.0)

    @pytest.mark.parametrize("config_cls", CONFIG_CLASSES)
    @pytest.mark.parametrize("damping", [0.0, math.nan, -1.0, 1.5])
    def test_damping_outside_unit_interval(self, config_cls, damping):
        with pytest.raises(SimulationError, match=r"damping must be in \(0, 1"):
            config_cls(damping=damping)

    def test_messages_identical_across_planes(self):
        """The exact text comes from the shared base class."""
        errors = []
        for config_cls in CONFIG_CLASSES:
            with pytest.raises(SimulationError) as info:
                config_cls(tl=10.0, ts=3.0)
            errors.append(str(info.value))
        assert len(set(errors)) == 1

    def test_labels(self):
        assert QuasiStaticConfig(tl=10, ts=2).label == "MP-TL-10-TS-2"
        assert PacketRunConfig(tl=10, ts=2).label == "MP-TL-10-TS-2(pkt)"
        assert (
            PacketRunConfig(tl=10, ts=2, policy="sp").label == "SP-TL-10(pkt)"
        )
        assert (
            QuasiStaticConfig(tl=10, ts=2, policy="ecmp").label
            == "ECMP-TL-10-TS-2"
        )


class TestPlaneSelection:
    def test_config_type_picks_plane(self, diamond_scenario):
        fluid = run(
            diamond_scenario,
            QuasiStaticConfig(tl=4, ts=2, duration=12, warmup=4),
        )
        packet = run(
            diamond_scenario, PacketRunConfig(tl=4, ts=2, duration=8.0)
        )
        assert fluid.plane == "fluid"
        assert packet.plane == "packet"
        assert len(packet.records) == 4  # one per Ts window

    def test_explicit_plane_override(self, diamond_scenario):
        config = PacketRunConfig(tl=4, ts=2, duration=8.0)
        plane = PacketPlane(diamond_scenario, config)
        result = run(diamond_scenario, config, plane=plane)
        # The plane handle stays inspectable after the run.
        assert plane.network.flow_monitor.total_delivered() > 0
        assert result.plane == "packet"


class TestPacketFailureReroute:
    """The satellite regression: packet-plane outages are not a no-op."""

    def make_scenario(self, diamond, *, until=24.0):
        base = Scenario(
            name="diamond-outage",
            topo=diamond,
            traffic=TrafficMatrix([Flow("s", "t", 600.0, name="hot")]),
        )
        return with_failures(base, {("s", "a"): [(8.0, until)]})

    def run_with_outage(
        self, diamond, *, until=24.0, observe_kwargs=None, policy="mp-oracle"
    ):
        scenario = self.make_scenario(diamond, until=until)
        config = PacketRunConfig(
            tl=4, ts=2, duration=24.0, damping=0.5, seed=3, policy=policy
        )
        plane = PacketPlane(scenario, config)
        if observe_kwargs is None:
            return run(scenario, config, plane=plane), plane, None
        with obs.observe(**observe_kwargs) as ob:
            result = run(scenario, config, plane=plane)
        return result, plane, ob

    def test_failed_link_stops_carrying_traffic(self, diamond):
        # Outage lasts to the end of the run: whatever the (s, a) link
        # carried, it carried before t=8.  The baseline run bounds what
        # it would have carried without the outage.
        baseline_config = PacketRunConfig(
            tl=4, ts=2, duration=24.0, damping=0.5, seed=3
        )
        baseline_scenario = Scenario(
            name="diamond-outage",
            topo=diamond,
            traffic=TrafficMatrix([Flow("s", "t", 600.0, name="hot")]),
        )
        baseline_plane = PacketPlane(baseline_scenario, baseline_config)
        run(baseline_scenario, baseline_config, plane=baseline_plane)

        result, plane, _ = self.run_with_outage(diamond, until=24.0)
        carried = plane.network.links[("s", "a")].monitor.total_packets
        baseline = baseline_plane.network.links[
            ("s", "a")
        ].monitor.total_packets
        assert baseline > 0
        assert carried < 0.5 * baseline

        # Traffic kept flowing: every window after the failure still
        # delivers at a healthy fraction of the offered rate.
        during = [r for r in result.records if r.time >= 8.0]
        assert during
        for record in during:
            assert record.metrics["delivered"] > 0.5 * 600.0 * 2.0
        # The queued packets lost with the link are the only casualties.
        monitor = plane.network.flow_monitor
        assert monitor.total_dropped() < 0.01 * monitor.total_injected()

    def test_trace_events_and_clean_audit(self, diamond, tmp_path):
        trace = tmp_path / "outage.jsonl"
        result, _, ob = self.run_with_outage(
            diamond,
            until=16.0,
            observe_kwargs={"trace_path": str(trace), "audit": True},
            policy="mp",
        )
        events = [
            json.loads(line) for line in trace.read_text().splitlines()
        ]
        downs = [e for e in events if e["kind"] == "link_down"]
        ups = [e for e in events if e["kind"] == "link_up"]
        # Both directions of the duplex link, down at 8 and up at 16.
        assert {e["t"] for e in downs} == {8.0}
        assert {e["t"] for e in ups} == {16.0}
        assert len(downs) == len(ups) == 2
        assert all(e["plane"] == "packet" for e in downs + ups)

        # The live protocol reconverged through the driver's link
        # events and the online auditor saw it: loop freedom held at
        # every delivery.
        assert result.protocol_stats["delivered"] > 0
        summary = ob.auditor.summary()
        assert summary["verdict"] == "pass"
        assert summary["violations"] == 0
        assert summary["checks"] > 0

    def test_fluid_failure_runs_upgrade_to_protocol(self, diamond):
        # The fluid plane's outages reach the live protocol too: the
        # controller feeds an ``mp`` run's driver link_down/link_up
        # events, and the online auditor checks every delivery.
        scenario = self.make_scenario(diamond, until=16.0)
        config = QuasiStaticConfig(
            tl=4, ts=2, duration=24.0, warmup=0.0, damping=0.5, policy="mp"
        )
        with obs.observe(audit=True) as ob:
            result = run(scenario, config)
            summary = ob.auditor.summary()
        assert result.plane == "fluid"
        assert result.protocol_stats["delivered"] > 0
        assert summary["verdict"] == "pass"
        assert summary["violations"] == 0


def _reuse_case(case: str):
    """A scenario and fluid config for the DAG-reuse and Ts-plan
    equality tests."""
    config = dict(tl=10.0, ts=2.0, duration=60.0, warmup=10.0, damping=0.5)
    if case == "bursty":
        scenario = bursty_scenario(
            net1_scenario(load=0.7), burstiness=3.0, mean_on=4.0, seed=3
        )
        return scenario, QuasiStaticConfig(**config)
    scenario = cairn_scenario(load=1.2)
    if case == "mp-outage":
        link = pick_failure_link(scenario.topo)
        scenario = with_failures(scenario, {link: [(20.0, 40.0)]})
        return scenario, QuasiStaticConfig(policy="mp", **config)
    return scenario, QuasiStaticConfig(policy=case, **config)


def _record_values(result):
    """Every value of every epoch record, flow order included."""
    return [
        (
            r.time,
            r.total_delay,
            r.average_delay,
            list(r.flow_delays.items()),
            r.max_utilization,
        )
        for r in result.records
    ]


class TestFluidDagReuse:
    """The fluid plane rebuilds each destination's routing DAG from the
    previous epoch's; its records must equal, float for float, those of
    a plane that builds every DAG afresh."""

    @pytest.mark.parametrize("case", ["mp-oracle", "sp", "mp-outage", "bursty"])
    def test_records_equal_fresh_builds(self, case, monkeypatch):
        scenario, config = _reuse_case(case)
        rebuilt = []

        def from_previous(phi, destination, previous=None):
            rebuilt.append(previous is not None)
            return RoutingDAG(phi, destination, previous)

        def fresh(phi, destination, previous=None):
            return RoutingDAG(phi, destination)

        monkeypatch.setattr("repro.sim.control.RoutingDAG", from_previous)
        reused = run(scenario, config)
        monkeypatch.setattr("repro.sim.control.RoutingDAG", fresh)
        reference = run(scenario, config)

        assert sum(rebuilt) > len(rebuilt) // 2
        assert _record_values(reused) == _record_values(reference)

    def test_bursty_destinations_come_and_go(self):
        """The bursty case covers destinations that leave the traffic
        and return to it between epochs."""
        scenario, config = _reuse_case("bursty")
        active = [
            set(scenario.traffic_at(2.0 * i).destinations())
            for i in range(int(config.duration / config.ts))
        ]
        assert any(
            dest not in now and dest in later
            for i, now in enumerate(active)
            for later in active[i + 1 :]
            for dest in later
        )

    def test_finish_drops_the_dags(self, diamond_scenario):
        plane = FluidPlane(diamond_scenario, QuasiStaticConfig())
        run(
            diamond_scenario,
            QuasiStaticConfig(tl=4, ts=2, duration=8.0, warmup=2.0),
            plane=plane,
        )
        assert plane._dags == {}


class TestTsPlan:
    """The MP family runs each Ts from a plan that skips the held
    single-successor entries; its records must equal, float for float,
    those of a run that sends every Ts through the full loop."""

    @pytest.mark.parametrize("case", ["mp-oracle", "sp", "mp-outage", "bursty"])
    def test_records_equal_the_full_loop(self, case, monkeypatch):
        scenario, config = _reuse_case(case)
        updates = []
        update = AllocationTable.update

        def counted(table, destination, distance_via):
            updates[-1] += 1
            return update(table, destination, distance_via)

        monkeypatch.setattr(AllocationTable, "update", counted)
        updates.append(0)
        planned = run(scenario, config)
        monkeypatch.setattr(
            MPFamilyPolicy, "_adjust", MPFamilyPolicy._allocate
        )
        updates.append(0)
        reference = run(scenario, config)

        assert updates[0] < updates[1]
        assert _record_values(planned) == _record_values(reference)


class TestCrossValidation:
    def test_cairn_fluid_vs_packet_same_controller(self):
        """The paper's CAIRN workload through both planes.

        The analytic M/M/1 evaluation and the discrete-event simulation
        must tell the same story when driven by the identical control
        loop: network mean delays within a modest tolerance, per-flow
        delays within sampling noise of each other.
        """
        scenario = cairn_scenario(load=1.0)
        fluid = run(
            scenario,
            QuasiStaticConfig(
                tl=10, ts=2, duration=40.0, warmup=10.0, damping=0.5
            ),
        )
        packet = run(
            scenario,
            PacketRunConfig(
                tl=10, ts=2, duration=40.0, warmup=10.0, damping=0.5, seed=0
            ),
        )
        assert fluid.mean_average_delay() == pytest.approx(
            packet.mean_average_delay(), rel=0.25
        )
        fluid_flows = fluid.mean_flow_delays()
        packet_flows = packet.mean_flow_delays()
        assert set(fluid_flows) == set(packet_flows)
        within_2x = sum(
            0.5 < packet_flows[name] / fluid_flows[name] < 2.0
            for name in fluid_flows
        )
        assert within_2x >= len(fluid_flows) - 1


class TestBurstyPacketSchedule:
    def test_scheduled_source_follows_periods(self):
        import random

        engine = Engine()
        emitted = []
        flow = Flow("s", "t", 100.0, name="x")
        ScheduledSource(
            engine,
            lambda packet: emitted.append(engine.now),
            flow,
            random.Random(1),
            periods=[(1.0, 2.0), (5.0, 6.5)],
            peak_rate=400.0,
        )
        engine.run(until=10.0)
        assert emitted
        assert all(
            1.0 <= t < 2.0 or 5.0 <= t < 6.5 for t in emitted
        )
        # ~400 pkt/s over 2.5 on-seconds
        assert 600 < len(emitted) < 1400

    def test_packet_plane_replays_scenario_schedule(self, diamond):
        base = Scenario(
            name="diamond",
            topo=diamond,
            traffic=TrafficMatrix([Flow("s", "t", 300.0, name="x")]),
        )
        scenario = bursty_scenario(base, burstiness=3.0, seed=2)
        result = run(
            scenario, PacketRunConfig(tl=4, ts=2, duration=16.0, seed=1)
        )
        # Windows where the schedule says "off" deliver (almost) nothing
        # beyond the tail of in-flight packets; "on" windows are hot.
        on_windows = [
            r
            for r in result.records
            if scenario.is_on("x", r.time)
            or scenario.is_on("x", r.time + 1.0)
        ]
        assert on_windows
        assert max(r.metrics["delivered"] for r in on_windows) > 100
