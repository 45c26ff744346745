"""Observability wired through the runners, end to end.

A tiny NET1 ``mp`` run under an active observation must yield the
control-plane metrics the paper's overhead discussion needs (per-router
LSU counts, ACTIVE-phase durations) plus phase timings.  Observing
never selects the algorithm: an observed run computes exactly what the
unobserved run computes, epoch for epoch, and an ``mp-oracle`` or
``sp`` run stays message-free while watched.
"""

import json

import pytest

from repro import obs
from repro.exceptions import ConfigError
from repro.fluid.flows import Flow, TrafficMatrix
from repro.sim.control import PacketRunConfig, QuasiStaticConfig, run
from repro.sim.scenario import Scenario, cairn_scenario, net1_scenario


def tiny_config(**kwargs) -> QuasiStaticConfig:
    return QuasiStaticConfig(
        tl=10.0, ts=2.0, duration=40.0, warmup=10.0, **kwargs
    )


class TestFluidRunner:
    def test_metrics_snapshot_attached(self):
        scenario = net1_scenario(load=1.0)
        with obs.observe():
            result = run(scenario, tiny_config(policy="mp"))
        assert result.metrics is not None
        gauges = result.metrics["metrics"]["gauges"]
        # per-router LSU counts from the live MPDA exchange
        lsu = gauges["protocol.lsu_sent"]
        assert len(lsu) == scenario.topo.num_nodes
        assert sum(v["value"] for v in lsu.values()) > 0
        # ACTIVE-phase durations
        active = result.metrics["metrics"]["histograms"][
            "protocol.active_phase_seconds"
        ]
        assert sum(v["count"] for v in active.values()) > 0
        # phase wall-clock timings
        assert "fluid.epoch" in result.metrics["timings"]
        assert "routing.update_routes" in result.metrics["timings"]

    def test_epoch_records_carry_counters(self):
        with obs.observe():
            result = run(net1_scenario(load=1.0), tiny_config())
        assert result.records[-1].metrics["route_updates"] >= 1.0

    @pytest.mark.parametrize(
        "make_scenario, config",
        [
            pytest.param(
                lambda: net1_scenario(load=1.35),
                QuasiStaticConfig(
                    tl=10, ts=2, duration=200, warmup=40, policy="mp-oracle"
                ),
                id="fluid-mp-oracle",
            ),
            pytest.param(
                lambda: net1_scenario(load=1.35),
                QuasiStaticConfig(
                    tl=10, ts=2, duration=200, warmup=40, policy="sp"
                ),
                id="fluid-sp",
            ),
            pytest.param(
                lambda: cairn_scenario(load=1.2),
                PacketRunConfig(
                    tl=4, ts=2, duration=12, warmup=0, seed=0,
                    policy="mp-oracle",
                ),
                id="packet-mp-oracle",
            ),
        ],
    )
    def test_observed_run_matches_unobserved(self, make_scenario, config):
        """Observing records; it never swaps the algorithm, so every
        epoch is equal to the last bit and no protocol message is sent."""
        plain = run(make_scenario(), config)
        with obs.observe():
            observed = run(make_scenario(), config)
        assert observed.protocol_stats == {}
        assert len(observed.records) == len(plain.records)
        for got, want in zip(observed.records, plain.records):
            assert got.total_delay == want.total_delay
            assert got.average_delay == want.average_delay
            assert got.flow_delays == want.flow_delays
            assert got.max_utilization == want.max_utilization

    def test_protocol_upgrade_can_be_declined(self):
        """An observed ``mp-oracle`` run exchanges no protocol messages:
        the policy alone picks the algorithm."""
        with obs.observe() as ob:
            run(net1_scenario(load=1.0), tiny_config())
            assert ob.metrics.value("protocol.deliveries") is None

    def test_oracle_rejects_loss_observed_or_not(self):
        """Control-plane loss is an ``mp`` knob: an oracle run has no
        message exchange to lose, whether or not anyone watches."""
        config = tiny_config(policy_params={"loss": 0.1})
        with pytest.raises(ConfigError, match="bad parameters"):
            run(net1_scenario(load=1.0), config)
        with obs.observe(), pytest.raises(ConfigError, match="bad parameters"):
            run(net1_scenario(load=1.0), config)

    def test_trace_is_parseable_and_has_epochs(self, tmp_path):
        path = tmp_path / "run.jsonl"
        with obs.observe(trace_path=str(path)):
            run(net1_scenario(load=1.0), tiny_config(policy="mp"))
        rows = [json.loads(line) for line in path.read_text().splitlines()]
        kinds = {row["kind"] for row in rows}
        assert "epoch" in kinds
        assert "lsu_deliver" in kinds
        assert "route_update" in kinds

    def test_disabled_path_attaches_nothing(self):
        result = run(net1_scenario(load=1.0), tiny_config())
        assert result.metrics is None
        assert result.records[0].metrics is None


class TestPacketRunner:
    def test_queue_drops_counted_and_balanced(self, diamond):
        scenario = Scenario(
            name="hot-diamond",
            topo=diamond,
            traffic=TrafficMatrix([Flow("s", "t", 1800.0, name="hot")]),
        )
        config = PacketRunConfig(
            tl=4.0, ts=2.0, duration=12.0, warmup=0.0,
            queue_capacity=2, seed=1,
        )
        with obs.observe() as ob:
            run(scenario, config)
            fm_gauges = ob.metrics
            injected = fm_gauges.value("netsim.packets_injected")
            delivered = fm_gauges.value("netsim.packets_delivered")
            drops = fm_gauges.value("netsim.queue_drops")
            no_route = fm_gauges.value("netsim.no_route_drops")
            in_flight = fm_gauges.value("netsim.packets_in_flight")
        # a 2-packet buffer at 1.8x capacity must overflow
        assert drops > 0
        assert in_flight >= 0
        assert delivered + drops + no_route + in_flight == injected

    def test_packet_metrics_snapshot(self, diamond):
        scenario = Scenario(
            name="mild-diamond",
            topo=diamond,
            traffic=TrafficMatrix([Flow("s", "t", 300.0, name="x")]),
        )
        config = PacketRunConfig(tl=4.0, ts=2.0, duration=12.0, warmup=0.0)
        with obs.observe():
            result = run(scenario, config)
        gauges = result.metrics["metrics"]["gauges"]
        assert gauges["netsim.packets_delivered"][""]["value"] > 0
        assert "netsim.queue_high_water" in gauges
        assert "packet.measure" in result.metrics["timings"]
        assert "netsim.engine.run" in result.metrics["timings"]
