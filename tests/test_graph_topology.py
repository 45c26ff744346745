"""Unit tests for the Topology model."""

import math

import pytest

from repro.exceptions import TopologyError
from repro.graph.topology import Link, Topology


class TestLink:
    def test_rejects_self_loop(self):
        with pytest.raises(TopologyError):
            Link("a", "a")

    def test_rejects_non_positive_capacity(self):
        with pytest.raises(TopologyError):
            Link("a", "b", capacity=0.0)
        with pytest.raises(TopologyError):
            Link("a", "b", capacity=-1.0)

    def test_rejects_negative_prop_delay(self):
        with pytest.raises(TopologyError):
            Link("a", "b", prop_delay=-1e-3)

    @pytest.mark.parametrize("field", ["capacity", "prop_delay"])
    @pytest.mark.parametrize("value", [math.nan, math.inf])
    def test_rejects_non_finite_attributes(self, field, value):
        """A NaN delay would reach the packet engine as a NaN event time."""
        with pytest.raises(TopologyError, match=rf"'a'->'b'.*got {value}"):
            Link("a", "b", **{field: value})

    def test_reversed_swaps_endpoints_keeps_attributes(self):
        link = Link("a", "b", capacity=10.0, prop_delay=2e-3)
        back = link.reversed()
        assert back.head == "b" and back.tail == "a"
        assert back.capacity == 10.0
        assert back.prop_delay == 2e-3

    def test_link_id(self):
        assert Link("x", "y").link_id == ("x", "y")


class TestTopologyConstruction:
    def test_add_link_creates_nodes(self):
        topo = Topology()
        topo.add_link("a", "b")
        assert topo.has_node("a") and topo.has_node("b")
        assert topo.has_link("a", "b")
        assert not topo.has_link("b", "a")

    def test_duplex_creates_both_directions(self):
        topo = Topology()
        topo.add_duplex_link("a", "b")
        assert topo.has_link("a", "b") and topo.has_link("b", "a")
        assert topo.num_links == 2

    def test_re_adding_link_replaces_attributes(self):
        topo = Topology()
        topo.add_link("a", "b", capacity=1.0)
        topo.add_link("a", "b", capacity=5.0)
        assert topo.num_links == 1
        assert topo.link("a", "b").capacity == 5.0

    def test_remove_link(self):
        topo = Topology()
        topo.add_duplex_link("a", "b")
        topo.remove_link("a", "b")
        assert not topo.has_link("a", "b")
        assert topo.has_link("b", "a")

    def test_remove_missing_link_raises(self):
        topo = Topology()
        topo.add_node("a")
        with pytest.raises(TopologyError):
            topo.remove_link("a", "b")


class TestTopologyQueries:
    def test_neighbors_insertion_order(self):
        topo = Topology()
        topo.add_link("a", "c")
        topo.add_link("a", "b")
        assert topo.neighbors("a") == ["c", "b"]

    def test_unknown_node_raises(self):
        topo = Topology()
        with pytest.raises(TopologyError):
            topo.neighbors("ghost")
        with pytest.raises(TopologyError):
            topo.link("ghost", "other")

    def test_degree(self, triangle):
        assert all(triangle.degree(n) == 2 for n in triangle.nodes)

    def test_dunder_protocols(self, triangle):
        assert len(triangle) == 3
        assert "a" in triangle
        assert set(iter(triangle)) == {"a", "b", "c"}


class TestGraphProperties:
    def test_symmetric(self, triangle):
        assert triangle.is_symmetric()
        triangle.remove_link("a", "b")
        assert not triangle.is_symmetric()

    def test_connected(self, triangle):
        assert triangle.is_connected()

    def test_disconnected(self):
        topo = Topology()
        topo.add_duplex_link("a", "b")
        topo.add_duplex_link("c", "d")
        assert not topo.is_connected()

    def test_directed_connectivity_requires_all_sources(self):
        topo = Topology()
        topo.add_link("a", "b")
        topo.add_link("b", "a")
        topo.add_link("a", "c")  # c has no way back
        assert not topo.is_connected()

    def test_diameter_ring(self, square_ring):
        assert square_ring.diameter() == 2

    def test_diameter_disconnected_raises(self):
        topo = Topology()
        topo.add_duplex_link("a", "b")
        topo.add_node("z")
        with pytest.raises(TopologyError):
            topo.diameter()

    def test_single_node_is_connected(self):
        topo = Topology()
        topo.add_node("only")
        assert topo.is_connected()
        assert topo.diameter() == 0


class TestDerivedMaps:
    def test_copy_is_independent(self, triangle):
        dup = triangle.copy()
        dup.remove_link("a", "b")
        assert triangle.has_link("a", "b")

    def test_uniform_costs_covers_all_links(self, triangle):
        costs = triangle.uniform_costs(2.0)
        assert len(costs) == triangle.num_links
        assert all(v == 2.0 for v in costs.values())

    def test_idle_marginal_costs(self):
        topo = Topology()
        topo.add_link("a", "b", capacity=100.0, prop_delay=0.5)
        costs = topo.idle_marginal_costs()
        assert costs[("a", "b")] == pytest.approx(1.0 / 100.0 + 0.5)
