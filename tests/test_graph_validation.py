"""Loop detection on successor graphs."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.exceptions import LoopError
from repro.graph.validation import (
    assert_loop_free,
    find_successor_cycle,
    is_loop_free,
    successor_graph_order,
)


class TestCycleDetection:
    def test_empty_graph(self):
        assert is_loop_free({})

    def test_simple_dag(self):
        assert is_loop_free({"a": ["b"], "b": ["c"], "c": []})

    def test_two_cycle(self):
        cycle = find_successor_cycle({"a": ["b"], "b": ["a"]})
        assert cycle is not None
        assert cycle[0] == cycle[-1]

    def test_self_loop(self):
        assert not is_loop_free({"a": ["a"]})

    def test_diamond_is_dag(self):
        succ = {"s": ["a", "b"], "a": ["t"], "b": ["t"], "t": []}
        assert is_loop_free(succ)

    def test_long_cycle_found(self):
        n = 500  # deep enough to break naive recursion
        succ = {i: [i + 1] for i in range(n)}
        succ[n] = [0]
        cycle = find_successor_cycle(succ)
        assert cycle is not None

    def test_deep_dag_no_overflow(self):
        n = 5000
        succ = {i: [i + 1] for i in range(n)}
        succ[n] = []
        assert is_loop_free(succ)

    def test_cycle_nodes_form_real_cycle(self):
        succ = {"x": ["y"], "y": ["z"], "z": ["x"], "w": ["x"]}
        cycle = find_successor_cycle(succ)
        body = cycle[:-1]
        for a, b in zip(cycle, cycle[1:]):
            assert b in succ[a]
        assert len(set(body)) == len(body)

    def test_assert_loop_free_raises(self):
        with pytest.raises(LoopError):
            assert_loop_free({"a": ["b"], "b": ["a"]}, destination="j")


class TestTopologicalOrder:
    def test_upstream_before_downstream(self):
        succ = {"s": ["a", "b"], "a": ["t"], "b": ["t"], "t": []}
        order = successor_graph_order(succ, "t")
        pos = {node: i for i, node in enumerate(order)}
        for node, nbrs in succ.items():
            for nbr in nbrs:
                assert pos[node] < pos[nbr]

    def test_destination_included_even_if_absent(self):
        order = successor_graph_order({"a": ["j"]}, "j")
        assert "j" in order

    def test_cycle_raises(self):
        with pytest.raises(LoopError):
            successor_graph_order({"a": ["b"], "b": ["a"]}, "j")

    def test_all_nodes_present_once(self):
        succ = {"s": ["a", "b"], "a": ["t"], "b": ["a", "t"], "t": []}
        order = successor_graph_order(succ, "t")
        assert sorted(map(str, order)) == sorted(map(str, set(order)))
        assert set(order) >= set(succ)


@settings(max_examples=60, deadline=None)
@given(
    edges=st.lists(
        st.tuples(st.integers(0, 9), st.integers(0, 9)),
        max_size=30,
    )
)
def test_detector_agrees_with_networkx(edges):
    import networkx as nx

    succ: dict[int, list[int]] = {i: [] for i in range(10)}
    g = nx.DiGraph()
    g.add_nodes_from(range(10))
    for a, b in edges:
        if a != b and b not in succ[a]:
            succ[a].append(b)
            g.add_edge(a, b)
    # Self-loops are excluded above; detector must agree with networkx.
    assert is_loop_free(succ) == nx.is_directed_acyclic_graph(g)


@settings(max_examples=200, deadline=None)
@given(
    keys=st.sets(st.integers(0, 9), max_size=10),
    edges=st.lists(
        st.tuples(st.integers(0, 9), st.integers(0, 12)),
        max_size=40,
    ),
)
def test_peeling_agrees_with_networkx_and_the_reference_search(keys, edges):
    """Self-loops, repeated successors and successors that are not keys
    (nodes 10-12 never are) included: the peel finds no cycle exactly
    when networkx calls the graph acyclic, and a cyclic graph yields the
    cycle the reference depth-first search names."""
    import networkx as nx

    from repro.testing.safety_reference import dfs_cycle

    succ: dict[int, list[int]] = {node: [] for node in sorted(keys)}
    g = nx.DiGraph()
    g.add_nodes_from(succ)
    for a, b in edges:
        if a in succ:
            succ[a].append(b)
            g.add_edge(a, b)
    cycle = find_successor_cycle(succ)
    assert (cycle is None) == nx.is_directed_acyclic_graph(g)
    assert cycle == dfs_cycle(succ)
    if cycle is not None:
        assert cycle[0] == cycle[-1]
        for a, b in zip(cycle, cycle[1:]):
            assert b in succ[a]
