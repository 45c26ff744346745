"""Shortest-path algorithms, checked against networkx as an oracle."""

import heapq
import math

import networkx as nx
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.exceptions import RoutingError
from repro.graph.generators import random_connected
from repro.graph.shortest_paths import (
    INFINITY,
    SharedSPF,
    dijkstra,
    extract_path,
    k_shortest_paths,
    out_adjacency,
    path_cost,
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
    """``SharedSPF.distances_to`` solves the Bellman-Ford equation of the
    destination-oriented framework (Eq. 13)."""

    @pytest.mark.parametrize("seed", range(6))
    def test_matches_reverse_dijkstra_oracle(self, seed):
        costs = _random_costs(seed)
        g = _to_nx(costs).reverse()
        dest = 1
        ours = SharedSPF(costs).distances_to(dest)
        theirs = nx.single_source_dijkstra_path_length(g, dest)
        for node, want in theirs.items():
            assert ours[node] == pytest.approx(want)

    def test_destination_distance_is_zero(self):
        costs = _random_costs(0)
        assert SharedSPF(costs).distances_to(3)[3] == 0.0

    def test_satisfies_bf_equation(self):
        """D_j^i = min_k (D_j^k + l_ik) — Eq. 13 of the paper."""
        costs = _random_costs(7)
        dest = 2
        dist = SharedSPF(costs).distances_to(dest)
        out = {}
        for (h, t), c in costs.items():
            out.setdefault(h, []).append((t, c))
        for node, nbrs in out.items():
            if node == dest:
                continue
            expect = min(dist.get(t, INFINITY) + c for t, c in nbrs)
            assert dist[node] == pytest.approx(expect)


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
        costs = triangle.idle_marginal_costs()
        costs.update(
            {
                ("a", "b"): 1.0, ("b", "a"): 1.0,
                ("b", "c"): 1.0, ("c", "b"): 1.0,
                ("a", "c"): 2.5, ("c", "a"): 2.5,
            }
        )
        return costs

    def test_orders_paths_by_cost(self, triangle):
        paths = k_shortest_paths(self._costs(triangle), "a", "c", 3)
        assert paths == [["a", "b", "c"], ["a", "c"]]

    def test_k_one_is_the_shortest_path(self, triangle):
        paths = k_shortest_paths(self._costs(triangle), "a", "c", 1)
        assert paths == [["a", "b", "c"]]

    def test_source_equals_target(self, triangle):
        assert k_shortest_paths(self._costs(triangle), "a", "a", 4) == [["a"]]

    def test_unreachable_returns_empty(self):
        costs = {("a", "b"): 1.0}
        assert k_shortest_paths(costs, "b", "a", 3) == []

    def test_rejects_nonpositive_k(self, triangle):
        with pytest.raises(RoutingError):
            k_shortest_paths(self._costs(triangle), "a", "c", 0)

    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(0, 10_000))
    def test_matches_networkx_simple_paths(self, seed):
        """Same path costs, in the same nondecreasing order, as nx's
        shortest_simple_paths (also Yen), for k=4."""
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
        costs = _random_costs(seed, n=8, extra=6)
        assert k_shortest_paths(costs, 0, 5, 3) == k_shortest_paths(
            costs, 0, 5, 3
        )


class TestNaNCosts:
    """A NaN cost is rejected by every search, naming the link; before,
    it failed every comparison and silently removed the link."""

    COSTS = {("a", "b"): math.nan, ("b", "c"): 1.0, ("a", "c"): 5.0}

    def test_dijkstra_rejects_nan(self):
        with pytest.raises(RoutingError, match=r"'a'->'b' has cost nan"):
            dijkstra(self.COSTS, "a")

    def test_shared_spf_rejects_nan(self):
        with pytest.raises(RoutingError, match=r"'a'->'b' has cost nan"):
            SharedSPF(self.COSTS)

    def test_k_shortest_paths_rejects_nan(self):
        with pytest.raises(RoutingError, match=r"'a'->'b' has cost nan"):
            k_shortest_paths(self.COSTS, "a", "c", 3)

    def test_shared_spf_rejects_negative(self):
        with pytest.raises(RoutingError, match=r"'b'->'c' has cost -1"):
            SharedSPF({("a", "b"): 1.0, ("b", "c"): -1.0})

    def test_infinite_cost_still_means_unusable(self):
        costs = {("a", "b"): math.inf, ("b", "c"): 1.0, ("a", "c"): 5.0}
        assert dijkstra(costs, "a")[0]["b"] == INFINITY
        assert SharedSPF(costs).distances_to("c")["a"] == 5.0
        assert k_shortest_paths(costs, "a", "c", 3) == [["a", "c"]]


def _copying_k_shortest_paths(costs, source, target, k, nodes=None):
    """Yen's loop as it ran when every spur search filtered a copy of
    the cost map and handed it to a fresh ``dijkstra``: the reference
    the shared-adjacency spur searches must match path for path."""
    if source == target:
        return [[source]]
    dist, pred = dijkstra(costs, source, nodes=nodes)
    if dist.get(target, INFINITY) == INFINITY:
        return []
    paths = [extract_path(pred, source, target)]
    seen = {tuple(paths[0])}
    candidates = []
    while len(paths) < k:
        prev = paths[-1]
        for i in range(len(prev) - 1):
            spur, root = prev[i], prev[: i + 1]
            banned_edges = {
                (path[i], path[i + 1])
                for path in paths
                if len(path) > i and path[: i + 1] == root
            }
            banned_nodes = set(root[:-1])
            spur_costs = {
                link_id: cost
                for link_id, cost in costs.items()
                if link_id not in banned_edges
                and link_id[0] not in banned_nodes
                and link_id[1] not in banned_nodes
            }
            spur_dist, spur_pred = dijkstra(spur_costs, spur, nodes=nodes)
            if spur_dist.get(target, INFINITY) == INFINITY:
                continue
            total = root[:-1] + extract_path(spur_pred, spur, target)
            if tuple(total) in seen:
                continue
            seen.add(tuple(total))
            heapq.heappush(
                candidates,
                (
                    path_cost(costs, total),
                    tuple(repr(node) for node in total),
                    total,
                ),
            )
        if not candidates:
            break
        paths.append(heapq.heappop(candidates)[2])
    return paths


@st.composite
def _small_digraphs(draw):
    """A random digraph on 3-7 nodes: integer costs in {1, 2, 3}, so
    equal-cost ties are everywhere, or idle marginal delays."""
    n = draw(st.integers(3, 7))
    pairs = [(u, v) for u in range(n) for v in range(n) if u != v]
    links = draw(
        st.lists(st.sampled_from(pairs), min_size=n, max_size=len(pairs),
                 unique=True)
    )
    if draw(st.booleans()):
        return n, {link: draw(st.sampled_from([1.0, 2.0, 3.0]))
                   for link in links}
    topo = Topology("drawn")
    for head, tail in links:
        topo.add_link(
            head,
            tail,
            capacity=draw(st.sampled_from([10.0, 100.0, 1000.0])),
            prop_delay=draw(st.sampled_from([0.0, 1e-3, 5e-3])),
        )
    return n, topo.idle_marginal_costs()


@settings(deadline=None)
@given(graph=_small_digraphs(), k=st.integers(1, 5))
def test_k_shortest_paths_matches_the_copying_search(graph, k):
    """Every (source, target) pair gets exactly the path lists of the
    per-spur-copy reference, run with and without a node universe (which
    changes no path), both from a fresh adjacency and from one adjacency
    shared by every pair, as ``ecmp-k`` shares it."""
    n, costs = graph
    universe = list(range(n))
    shared = out_adjacency(costs)
    for source in universe:
        for target in universe:
            want = _copying_k_shortest_paths(costs, source, target, k)
            assert want == _copying_k_shortest_paths(
                costs, source, target, k, nodes=universe
            )
            assert k_shortest_paths(costs, source, target, k) == want
            assert (
                k_shortest_paths(costs, source, target, k, adjacency=shared)
                == want
            )
    assert shared == out_adjacency(costs)
