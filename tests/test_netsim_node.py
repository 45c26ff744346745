"""Packet forwarding: weighted splitting and loop guards."""

import random

import pytest

from repro.exceptions import SimulationError
from repro.netsim.monitor import FlowMonitor
from repro.netsim.node import SimNode
from repro.netsim.packet import Packet


class FakeLink:
    def __init__(self):
        self.sent = []

    def send(self, packet):
        self.sent.append(packet)


def make_node(routes, links, seed=0):
    node = SimNode("s", FlowMonitor(), random.Random(seed), 10)
    node.routes = routes
    node.bind_links(links)
    return node


class TestForwarding:
    def test_delivery_at_destination(self):
        monitor = FlowMonitor()
        node = SimNode("t", monitor, random.Random(0), 10)
        packet = Packet("f", "s", "t", created_at=1.0)
        node.receive(packet, now=3.5)
        assert monitor.flows["f"].delivered == 1
        assert monitor.flows["f"].mean_delay == pytest.approx(2.5)

    def test_single_successor(self):
        link = FakeLink()
        node = make_node({"t": {"a": 1.0}}, {"a": link})
        node.receive(Packet("f", "s", "t", 0.0), now=0.0)
        assert len(link.sent) == 1

    def test_split_frequencies_follow_phi(self):
        la, lb = FakeLink(), FakeLink()
        node = make_node(
            {"t": {"a": 0.25, "b": 0.75}}, {"a": la, "b": lb}, seed=7
        )
        n = 4000
        for _ in range(n):
            node.receive(Packet("f", "s", "t", 0.0), now=0.0)
        assert len(la.sent) / n == pytest.approx(0.25, abs=0.03)
        assert len(lb.sent) / n == pytest.approx(0.75, abs=0.03)

    def test_no_route_counted(self):
        node = make_node({}, {})
        node.receive(Packet("f", "s", "t", 0.0), now=0.0)
        assert node.flow_monitor.no_route_drops == 1

    def test_zero_fraction_successor_never_used(self):
        la, lb = FakeLink(), FakeLink()
        node = make_node({"t": {"a": 0.0, "b": 1.0}}, {"a": la, "b": lb})
        for _ in range(100):
            node.receive(Packet("f", "s", "t", 0.0), now=0.0)
        assert la.sent == []

    def test_successor_without_link_treated_as_no_route(self):
        """A route naming a non-link neighbor must not crash the data
        plane; the packet counts as unroutable."""
        node = make_node({"t": {"ghost": 1.0}}, {})
        node.receive(Packet("f", "s", "t", 0.0), now=0.0)
        assert node.flow_monitor.no_route_drops == 1

    def test_hop_limit_detects_loops(self):
        link = FakeLink()
        node = make_node({"t": {"a": 1.0}}, {"a": link})
        packet = Packet("f", "s", "t", 0.0)
        packet.hops = 10_000
        with pytest.raises(SimulationError):
            node.forward(packet)

    def test_hops_incremented(self):
        link = FakeLink()
        node = make_node({"t": {"a": 1.0}}, {"a": link})
        packet = Packet("f", "s", "t", 0.0)
        node.forward(packet)
        assert packet.hops == 1
