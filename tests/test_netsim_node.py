"""Packet forwarding: weighted splitting, the compiled table, loop guards."""

import math
import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.exceptions import AllocationError, SimulationError
from repro.netsim.engine import Engine
from repro.netsim.monitor import FlowMonitor
from repro.netsim.node import SimNode
from repro.netsim.packet import Packet


class FakeLink:
    def __init__(self, log=None, name=None):
        self.sent = []
        self.log = log
        self.name = name

    def send(self, packet):
        self.sent.append(packet)
        if self.log is not None:
            self.log.append(self.name)


def make_node(routes, links, seed=0):
    node = SimNode("s", Engine(), FlowMonitor(), random.Random(seed), 10)
    node.bind_links(links)
    node.install(routes)
    return node


class TestForwarding:
    def test_delivery_at_destination(self):
        monitor = FlowMonitor()
        engine = Engine()
        engine.now = 3.5
        node = SimNode("t", engine, monitor, random.Random(0), 10)
        packet = Packet("f", "s", "t", created_at=1.0)
        node.receive(packet)
        assert monitor.flows["f"].delivered == 1
        assert monitor.flows["f"].mean_delay == pytest.approx(2.5)

    def test_single_successor(self):
        link = FakeLink()
        node = make_node({"t": {"a": 1.0}}, {"a": link})
        node.receive(Packet("f", "s", "t", 0.0))
        assert len(link.sent) == 1

    def test_split_frequencies_follow_phi(self):
        la, lb = FakeLink(), FakeLink()
        node = make_node(
            {"t": {"a": 0.25, "b": 0.75}}, {"a": la, "b": lb}, seed=7
        )
        n = 4000
        for _ in range(n):
            node.receive(Packet("f", "s", "t", 0.0))
        assert len(la.sent) / n == pytest.approx(0.25, abs=0.03)
        assert len(lb.sent) / n == pytest.approx(0.75, abs=0.03)

    def test_no_route_counted(self):
        node = make_node({}, {})
        node.receive(Packet("f", "s", "t", 0.0))
        assert node.flow_monitor.no_route_drops == 1

    def test_zero_fraction_successor_never_used(self):
        la, lb = FakeLink(), FakeLink()
        node = make_node({"t": {"a": 0.0, "b": 1.0}}, {"a": la, "b": lb})
        for _ in range(100):
            node.receive(Packet("f", "s", "t", 0.0))
        assert la.sent == []

    def test_successor_without_link_treated_as_no_route(self):
        """A route naming a non-link neighbor must not crash the data
        plane; the packet counts as unroutable."""
        node = make_node({"t": {"ghost": 1.0}}, {})
        node.receive(Packet("f", "s", "t", 0.0))
        assert node.flow_monitor.no_route_drops == 1

    def test_hop_limit_detects_loops(self):
        link = FakeLink()
        node = make_node({"t": {"a": 1.0}}, {"a": link})
        packet = Packet("f", "s", "t", 0.0)
        packet.hops = 10_000
        with pytest.raises(SimulationError):
            node.receive(packet)

    def test_hops_incremented(self):
        link = FakeLink()
        node = make_node({"t": {"a": 1.0}}, {"a": link})
        packet = Packet("f", "s", "t", 0.0)
        node.receive(packet)
        assert packet.hops == 1


class TestInvalidFractions:
    """Bad fractions raise when the row is installed, naming the entry,
    instead of silently steering every packet one way."""

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, -0.5])
    def test_rejected_at_install(self, bad):
        la, lb = FakeLink(), FakeLink()
        node = make_node({"t": {"b": 1.0}}, {"a": la, "b": lb})
        with pytest.raises(
            AllocationError, match=r"phi\['s'\]\['t'\]\['a'\] = "
        ):
            node.install({"t": {"a": bad, "b": 1.0}})
        # The table installed before stays in force.
        node.receive(Packet("f", "s", "t", 0.0))
        assert len(lb.sent) == 1

    @pytest.mark.parametrize("residue", [0.0, -0.0, -1e-9])
    def test_zero_and_residue_never_used(self, residue):
        la, lb = FakeLink(), FakeLink()
        node = make_node({"t": {"a": residue, "b": 1.0}}, {"a": la, "b": lb})
        for _ in range(100):
            node.receive(Packet("f", "s", "t", 0.0))
        assert la.sent == []
        assert len(lb.sent) == 100


class TestCompiledTable:
    def test_identical_entry_keeps_its_compiled_hop(self):
        links = {"a": FakeLink(), "b": FakeLink()}
        entry = {"a": 0.5, "b": 0.5}
        node = make_node({"t": entry}, links)
        hop = node.next_hop["t"]
        node.install({"t": entry})
        assert node.next_hop["t"] is hop

    def test_replaced_entry_is_compiled_again(self):
        links = {"a": FakeLink(), "b": FakeLink()}
        node = make_node({"t": {"a": 0.5, "b": 0.5}}, links)
        hop = node.next_hop["t"]
        # Equal content in a new object is compiled again all the same.
        node.install({"t": {"a": 0.5, "b": 0.5}})
        assert node.next_hop["t"] is not hop
        assert node.next_hop["t"] == hop
        node.install({"t": {"b": 1.0}})
        assert node.next_hop["t"] is links["b"]

    def test_vanished_destination_is_dropped(self):
        link = FakeLink()
        entry = {"a": 1.0}
        node = make_node({"t": entry, "u": {"a": 1.0}}, {"a": link})
        node.install({"t": entry})
        assert list(node.next_hop) == ["t"]
        node.receive(Packet("f", "s", "u", 0.0))
        assert node.flow_monitor.no_route_drops == 1
        assert link.sent == []


# ----------------------------------------------------------------------
# the compiled hop against the linear scan it replaced
# ----------------------------------------------------------------------
def linear_choose(fractions, out_links, rng):
    """The per-hop weighted draw the forwarding table replaced: filter
    the usable successors, then scan their running sum."""
    total = 0.0
    usable = []
    for nbr, fraction in fractions.items():
        if fraction > 0.0 and nbr in out_links:
            usable.append((nbr, fraction))
            total += fraction
    if not usable:
        return None
    if len(usable) == 1:
        return usable[0][0]
    pick = rng.random() * total
    acc = 0.0
    for nbr, fraction in usable:
        acc += fraction
        if pick <= acc:
            return nbr
    return usable[-1][0]  # floating-point slack


# Zero and sub-tolerance residue are never used; a random weight is.
WEIGHTS = st.sampled_from([0.0, -1e-9]) | st.floats(1e-12, 1e6)
# Three successors in four have a link.
LINKED = st.integers(0, 3).map(bool)
ROWS = st.lists(st.tuples(WEIGHTS, LINKED), max_size=6)


@given(row=ROWS, seed=st.integers(0, 2**32 - 1))
def test_compiled_hop_matches_the_linear_scan(row, seed):
    """Over random rows, the compiled hop picks the neighbor the linear
    scan picks and draws from the RNG exactly as often."""
    log = []
    entry = {f"n{i}": fraction for i, (fraction, _) in enumerate(row)}
    links = {
        f"n{i}": FakeLink(log, f"n{i}")
        for i, (_, linked) in enumerate(row)
        if linked
    }
    node = make_node({"t": entry}, links, seed=seed)
    reference_rng = random.Random(seed)
    for _ in range(20):
        node.receive(Packet("f", "s", "t", 0.0))
        expected = linear_choose(entry, links, reference_rng)
        got = log.pop() if log else None
        assert got == expected
        assert log == []
    assert node.flow_monitor.no_route_drops == (20 if expected is None else 0)
    assert node.rng.getstate() == reference_rng.getstate()
