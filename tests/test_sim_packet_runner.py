"""Packet-level runs of the full system."""

import pytest

from repro.exceptions import SimulationError
from repro.fluid.flows import Flow, TrafficMatrix
from repro.sim.control import PacketRunConfig, QuasiStaticConfig, run
from repro.sim.scenario import Scenario, bursty_scenario


@pytest.fixture
def diamond_scenario(diamond):
    traffic = TrafficMatrix([Flow("s", "t", 500.0, name="hot")])
    return Scenario("diamond", diamond, traffic)


class TestConfig:
    def test_validation(self):
        with pytest.raises(SimulationError):
            PacketRunConfig(tl=2, ts=10)
        with pytest.raises(SimulationError):
            PacketRunConfig(tl=10, ts=3)

    def test_labels(self):
        assert "pkt" in PacketRunConfig().label
        assert PacketRunConfig(policy="sp").label.startswith("SP")


class TestRuns:
    def test_packets_flow_and_split(self, diamond_scenario):
        result = run(
            diamond_scenario,
            PacketRunConfig(tl=10, ts=2, duration=20.0, damping=0.5),
        )
        delays = result.mean_flow_delays()
        assert delays["hot"] > 0.0
        # multipath keeps the diamond under ~0.35 utilization per arm
        assert result.records[0].max_utilization < 0.5

    def test_agrees_with_fluid_model(self, diamond_scenario):
        """The two simulators must tell the same story (within noise)."""
        pkt = run(
            diamond_scenario,
            PacketRunConfig(tl=10, ts=2, duration=30.0, damping=0.5),
        )
        fluid = run(
            diamond_scenario,
            QuasiStaticConfig(
                tl=10, ts=2, duration=100.0, warmup=20.0, damping=0.5
            ),
        )
        assert pkt.mean_flow_delays()["hot"] == pytest.approx(
            fluid.mean_flow_delays()["hot"], rel=0.25
        )

    def test_sp_restriction_applies(self, diamond_scenario):
        # keep the run inside the first Tl window so SP stays on its
        # initial path (later it legitimately flaps between arms)
        sp = run(
            diamond_scenario,
            PacketRunConfig(tl=10, ts=2, duration=8.0, policy="sp"),
        )
        # single path: all 500 pkt/s ride one 1000 pkt/s arm
        utils = sp.records[0].max_utilization
        assert utils > 0.4

    def test_online_estimator_end_to_end(self, diamond_scenario):
        result = run(
            diamond_scenario,
            PacketRunConfig(
                tl=10, ts=2, duration=20.0, estimator="online", damping=0.5
            ),
        )
        assert result.mean_flow_delays()["hot"] > 0.0

    def test_bursty_scenario_uses_onoff_sources(self, diamond_scenario):
        bursty = bursty_scenario(
            diamond_scenario, burstiness=3.0, mean_on=2.0, seed=1
        )
        result = run(
            bursty, PacketRunConfig(tl=10, ts=2, duration=20.0)
        )
        assert result.mean_flow_delays().get("hot", 0.0) > 0.0
