"""The assembled packet network."""

import pytest

from repro.exceptions import SimulationError, TopologyError
from repro.fluid.flows import Flow, TrafficMatrix
from repro.netsim.network import PacketNetwork
from repro.netsim.packet import Packet


def diamond_network(diamond, split=0.5, **kwargs):
    phi = {
        "s": {"t": {"a": split, "b": 1.0 - split}},
        "a": {"t": {"t": 1.0}},
        "b": {"t": {"t": 1.0}},
    }
    net = PacketNetwork(diamond, **kwargs)
    net.route(phi)
    return net


class TestConstruction:
    def test_builds_all_links_and_nodes(self, diamond):
        net = diamond_network(diamond)
        assert len(net.nodes) == diamond.num_nodes
        assert len(net.links) == diamond.num_links

    def test_unknown_estimator_rejected(self, diamond):
        with pytest.raises(SimulationError):
            diamond_network(diamond, estimator="psychic")

    def test_route_gives_each_router_its_own_row(self, diamond):
        phi = {"s": {"t": {"a": 1.0}}, "a": {"t": {"t": 1.0}}}
        net = PacketNetwork(diamond)
        net.route(phi)
        assert net.nodes["s"].routes is phi["s"]
        assert net.nodes["a"].routes is phi["a"]
        assert net.nodes["b"].routes == {}


class TestEndToEnd:
    def test_packets_delivered_with_conservation(self, diamond):
        net = diamond_network(diamond)
        traffic = TrafficMatrix([Flow("s", "t", 200.0, name="x")])
        net.attach_poisson(traffic, stop=20.0)
        net.run(until=30.0)
        fm = net.flow_monitor
        assert fm.total_injected() > 0
        # lossless network: everything injected is eventually delivered
        assert fm.total_delivered() == fm.total_injected()
        assert fm.no_route_drops == 0

    def test_delay_matches_mm1_prediction(self, diamond):
        """Two-hop path, both links M/M/1 at rho = 0.3."""
        net = diamond_network(diamond, split=1.0, seed=3)
        rate = 300.0
        traffic = TrafficMatrix([Flow("s", "t", rate, name="x")])
        net.attach_poisson(traffic, stop=60.0)
        net.run(until=80.0)
        expect = 2 * (1.0 / (1000.0 - rate) + 1e-3)
        measured = net.mean_flow_delays()["x"]
        assert measured == pytest.approx(expect, rel=0.1)

    def test_split_shares_load(self, diamond):
        net = diamond_network(diamond, split=0.5, seed=5)
        traffic = TrafficMatrix([Flow("s", "t", 400.0, name="x")])
        net.attach_poisson(traffic, stop=30.0)
        net.run(until=40.0)
        utils = net.link_utilizations()
        assert utils[("s", "a")] == pytest.approx(utils[("s", "b")], rel=0.2)

    def test_inject_unknown_source_rejected(self, diamond):
        net = diamond_network(diamond)
        with pytest.raises(TopologyError):
            net.inject(Packet("x", "ghost", "t", 0.0))


class TestMeasurement:
    def test_measured_costs_track_load(self, diamond):
        net = diamond_network(diamond, split=1.0, seed=1)
        traffic = TrafficMatrix([Flow("s", "t", 600.0, name="x")])
        net.attach_poisson(traffic, stop=20.0)
        net.run(until=20.0)
        costs = net.measure_costs()
        # loaded path must cost more than the idle alternative
        assert costs[("s", "a")] > costs[("s", "b")]

    def test_online_estimator_variant(self, diamond):
        net = diamond_network(diamond, split=1.0, seed=1, estimator="online")
        traffic = TrafficMatrix([Flow("s", "t", 500.0, name="x")])
        net.attach_poisson(traffic, stop=10.0)
        for k in range(1, 11):
            net.run(until=float(k))
            costs = net.measure_costs()
        assert costs[("s", "a")] > 0.0
