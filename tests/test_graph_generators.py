"""Synthetic topology generators."""

import pytest

from repro.exceptions import TopologyError
from repro.graph.generators import (
    complete,
    grid,
    line,
    random_connected,
    ring,
    waxman,
)


class TestLine:
    def test_shape(self):
        topo = line(5)
        assert topo.num_nodes == 5
        assert topo.num_links == 8  # 4 duplex links
        assert topo.diameter() == 4

    def test_single_node(self):
        assert line(1).num_nodes == 1

    def test_rejects_zero(self):
        with pytest.raises(TopologyError):
            line(0)


class TestRing:
    def test_shape(self):
        topo = ring(6)
        assert topo.num_nodes == 6
        assert all(topo.degree(n) == 2 for n in topo.nodes)
        assert topo.diameter() == 3

    def test_minimum_size(self):
        with pytest.raises(TopologyError):
            ring(2)


class TestGrid:
    def test_shape(self):
        topo = grid(3, 4)
        assert topo.num_nodes == 12
        # 3*3 horizontal + 2*4 vertical duplex links
        assert topo.num_links == 2 * (3 * 3 + 2 * 4)
        assert topo.diameter() == 5

    def test_degenerate_1x1(self):
        assert grid(1, 1).num_nodes == 1


class TestComplete:
    def test_shape(self):
        topo = complete(5)
        assert topo.num_links == 5 * 4
        assert topo.diameter() == 1


class TestRandomConnected:
    @pytest.mark.parametrize("seed", range(5))
    def test_always_connected(self, seed):
        topo = random_connected(15, extra_links=5, seed=seed)
        assert topo.is_connected()
        assert topo.is_symmetric()

    def test_link_count(self):
        topo = random_connected(10, extra_links=4, seed=1)
        assert topo.num_links == 2 * (9 + 4)

    def test_reproducible(self):
        a = random_connected(10, extra_links=3, seed=42, jitter=0.3)
        b = random_connected(10, extra_links=3, seed=42, jitter=0.3)
        assert {l.link_id for l in a.links()} == {l.link_id for l in b.links()}
        assert [l.capacity for l in a.links()] == [l.capacity for l in b.links()]

    def test_jitter_varies_attributes(self):
        topo = random_connected(10, extra_links=3, seed=0, jitter=0.4)
        caps = {ln.capacity for ln in topo.links()}
        assert len(caps) > 1

    def test_too_many_chords_rejected(self):
        with pytest.raises(TopologyError):
            random_connected(4, extra_links=100, seed=0)


class TestWaxman:
    @pytest.mark.parametrize("seed", range(8))
    def test_always_connected_and_symmetric(self, seed):
        topo = waxman(40, seed=seed)
        assert topo.is_connected()
        assert topo.is_symmetric()

    def test_deterministic_per_seed(self):
        a = waxman(50, seed=7)
        b = waxman(50, seed=7)
        assert [
            (l.head, l.tail, l.capacity, l.prop_delay) for l in a.links()
        ] == [(l.head, l.tail, l.capacity, l.prop_delay) for l in b.links()]

    def test_different_seeds_differ(self):
        a = {l.link_id for l in waxman(50, seed=1).links()}
        b = {l.link_id for l in waxman(50, seed=2).links()}
        assert a != b

    def test_degree_tracks_target_across_sizes(self):
        # The derived-alpha construction keeps mean degree roughly flat
        # as n grows (a fixed alpha would make it grow linearly).
        for n in (30, 100, 200):
            topo = waxman(n, seed=3, target_degree=3.5)
            mean_degree = topo.num_links / topo.num_nodes
            assert 2.0 <= mean_degree <= 6.0, (n, mean_degree)

    def test_delays_scale_with_distance(self):
        topo = waxman(60, seed=5)
        delays = [ln.prop_delay for ln in topo.links()]
        assert max(delays) > 1.5 * min(delays)
        mean = sum(delays) / len(delays)
        # Normalized so the mean link delay matches the requested one.
        assert mean == pytest.approx(0.001, rel=0.35)

    def test_rejects_bad_parameters(self):
        with pytest.raises(TopologyError):
            waxman(1)
        with pytest.raises(TopologyError):
            waxman(10, beta=0.0)
        with pytest.raises(TopologyError):
            waxman(10, target_degree=0.0)
