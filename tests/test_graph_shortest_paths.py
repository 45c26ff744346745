"""Shortest-path algorithms, checked against networkx as an oracle."""

import networkx as nx
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.exceptions import RoutingError
from repro.graph.generators import random_connected
from repro.graph.shortest_paths import (
    INFINITY,
    all_pairs_distances,
    bellman_ford,
    dijkstra,
    extract_path,
    path_cost,
    topology_costs,
)
from repro.graph.topology import Topology


def _to_nx(costs):
    g = nx.DiGraph()
    for (h, t), c in costs.items():
        g.add_edge(h, t, weight=c)
    return g


def _random_costs(seed: int, n: int = 12, extra: int = 10):
    topo = random_connected(n, extra_links=extra, seed=seed, jitter=0.5)
    import random

    rng = random.Random(seed + 1)
    return {ln.link_id: rng.uniform(0.1, 5.0) for ln in topo.links()}


class TestDijkstra:
    def test_single_link(self):
        dist, pred = dijkstra({("a", "b"): 3.0}, "a")
        assert dist["b"] == 3.0
        assert pred["b"] == "a"

    def test_unreachable_gets_infinity(self):
        dist, _ = dijkstra({("a", "b"): 1.0}, "a", nodes=["z"])
        assert dist["z"] == INFINITY

    def test_negative_cost_rejected(self):
        with pytest.raises(RoutingError):
            dijkstra({("a", "b"): -1.0}, "a")

    @pytest.mark.parametrize("seed", range(8))
    def test_matches_networkx(self, seed):
        costs = _random_costs(seed)
        g = _to_nx(costs)
        ours, _ = dijkstra(costs, 0)
        theirs = nx.single_source_dijkstra_path_length(g, 0)
        for node, want in theirs.items():
            assert ours[node] == pytest.approx(want)

    def test_predecessors_reconstruct_shortest_paths(self):
        costs = _random_costs(3)
        dist, pred = dijkstra(costs, 0)
        for node, d in dist.items():
            if d == INFINITY or node == 0:
                continue
            path = extract_path(pred, 0, node)
            assert path[0] == 0 and path[-1] == node
            assert path_cost(costs, path) == pytest.approx(d)

    def test_deterministic_across_runs(self):
        costs = _random_costs(5)
        assert dijkstra(costs, 0) == dijkstra(costs, 0)


class TestBellmanFord:
    @pytest.mark.parametrize("seed", range(6))
    def test_matches_reverse_dijkstra_oracle(self, seed):
        costs = _random_costs(seed)
        g = _to_nx(costs).reverse()
        dest = 1
        ours = bellman_ford(costs, dest)
        theirs = nx.single_source_dijkstra_path_length(g, dest)
        for node, want in theirs.items():
            assert ours[node] == pytest.approx(want)

    def test_destination_distance_is_zero(self):
        costs = _random_costs(0)
        assert bellman_ford(costs, 3)[3] == 0.0

    def test_satisfies_bf_equation(self):
        """D_j^i = min_k (D_j^k + l_ik) — Eq. 13 of the paper."""
        costs = _random_costs(7)
        dest = 2
        dist = bellman_ford(costs, dest)
        out = {}
        for (h, t), c in costs.items():
            out.setdefault(h, []).append((t, c))
        for node, nbrs in out.items():
            if node == dest:
                continue
            expect = min(dist.get(t, INFINITY) + c for t, c in nbrs)
            assert dist[node] == pytest.approx(expect)


class TestAllPairs:
    def test_matches_networkx(self):
        costs = _random_costs(9, n=8, extra=6)
        ours = all_pairs_distances(costs)
        theirs = dict(nx.all_pairs_dijkstra_path_length(_to_nx(costs)))
        for src, row in theirs.items():
            for dst, want in row.items():
                assert ours[src][dst] == pytest.approx(want)


class TestPathHelpers:
    def test_path_cost_empty_and_single(self):
        assert path_cost({}, []) == 0.0
        assert path_cost({}, ["a"]) == 0.0

    def test_path_cost_missing_link_raises(self):
        with pytest.raises(RoutingError):
            path_cost({("a", "b"): 1.0}, ["a", "b", "c"])

    def test_extract_path_unreachable_raises(self):
        with pytest.raises(RoutingError):
            extract_path({"b": None}, "a", "b")


class TestTopologyCosts:
    def test_defaults_to_idle_marginals(self, triangle):
        costs = topology_costs(triangle)
        assert costs == triangle.idle_marginal_costs()

    def test_override_and_reject_unknown(self, triangle):
        costs = topology_costs(triangle, {("a", "b"): 9.0})
        assert costs[("a", "b")] == 9.0
        from repro.exceptions import TopologyError

        with pytest.raises(TopologyError):
            topology_costs(triangle, {("a", "zzz"): 1.0})


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 10_000))
def test_dijkstra_triangle_inequality(seed):
    """dist(s, v) <= dist(s, u) + cost(u, v) for every link."""
    costs = _random_costs(seed, n=8, extra=5)
    dist, _ = dijkstra(costs, 0)
    for (u, v), c in costs.items():
        assert dist[v] <= dist[u] + c + 1e-9


class TestKShortestPaths:
    """Yen's k shortest loopless paths (the ecmp-k policy's engine)."""

    def _costs(self, triangle):
        return topology_costs(
            triangle,
            {
                ("a", "b"): 1.0, ("b", "a"): 1.0,
                ("b", "c"): 1.0, ("c", "b"): 1.0,
                ("a", "c"): 2.5, ("c", "a"): 2.5,
            },
        )

    def test_orders_paths_by_cost(self, triangle):
        from repro.graph.shortest_paths import k_shortest_paths

        paths = k_shortest_paths(self._costs(triangle), "a", "c", 3)
        assert paths == [["a", "b", "c"], ["a", "c"]]

    def test_k_one_is_the_shortest_path(self, triangle):
        from repro.graph.shortest_paths import k_shortest_paths

        paths = k_shortest_paths(self._costs(triangle), "a", "c", 1)
        assert paths == [["a", "b", "c"]]

    def test_source_equals_target(self, triangle):
        from repro.graph.shortest_paths import k_shortest_paths

        assert k_shortest_paths(self._costs(triangle), "a", "a", 4) == [["a"]]

    def test_unreachable_returns_empty(self):
        from repro.graph.shortest_paths import k_shortest_paths

        costs = {("a", "b"): 1.0}
        assert k_shortest_paths(costs, "b", "a", 3) == []

    def test_rejects_nonpositive_k(self, triangle):
        from repro.graph.shortest_paths import k_shortest_paths

        with pytest.raises(RoutingError):
            k_shortest_paths(self._costs(triangle), "a", "c", 0)

    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(0, 10_000))
    def test_matches_networkx_simple_paths(self, seed):
        """Same path costs, in the same nondecreasing order, as nx's
        shortest_simple_paths (also Yen), for k=4."""
        from repro.graph.shortest_paths import k_shortest_paths

        costs = _random_costs(seed, n=8, extra=6)
        ours = k_shortest_paths(costs, 0, 5, 4)
        g = _to_nx(costs)
        if not nx.has_path(g, 0, 5):
            assert ours == []
            return
        expect = []
        for path in nx.shortest_simple_paths(g, 0, 5, weight="weight"):
            expect.append(path_cost(costs, path))
            if len(expect) == 4:
                break
        assert [path_cost(costs, p) for p in ours] == pytest.approx(expect)
        # Loopless: no repeated node within any path.
        for path in ours:
            assert len(set(path)) == len(path)

    @settings(max_examples=15, deadline=None)
    @given(seed=st.integers(0, 10_000))
    def test_deterministic(self, seed):
        from repro.graph.shortest_paths import k_shortest_paths

        costs = _random_costs(seed, n=8, extra=6)
        assert k_shortest_paths(costs, 0, 5, 3) == k_shortest_paths(
            costs, 0, 5, 3
        )
