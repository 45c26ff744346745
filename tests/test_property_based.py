"""Cross-cutting property-based tests (hypothesis).

These stress the paper's invariants over generated inputs that the
per-module suites do not reach: random topologies, random demand
matrices, random allocation trajectories.
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.allocation import AllocationTable, validate_property1
from repro.core.lfi import lfi_successors
from repro.core.linkstate import INFINITY, EntryOp, TopologyTable
from repro.core.mpda import MPDARouter
from repro.core.pda import repair_tree
from repro.fluid.delay import DelayModel
from repro.fluid.evaluator import evaluate, link_flows, node_flows
from repro.fluid.flows import Flow, TrafficMatrix
from repro.gallager.marginals import marginal_distances
from repro.gallager.opt import optimize, shortest_path_phi
from repro.graph.generators import random_connected
from repro.graph.shortest_paths import SharedSPF, dijkstra, rank_nodes
from repro.graph.validation import is_loop_free
from repro.testing.fuzz import check_case, generate_case
from repro.testing.oracle import lockstep_case


def _random_traffic(topo, rng, n_flows=4, max_rate=300.0):
    nodes = topo.nodes
    flows = []
    for i in range(n_flows):
        src, dst = rng.sample(nodes, 2)
        flows.append(Flow(src, dst, rng.uniform(10.0, max_rate), name=f"f{i}"))
    return TrafficMatrix(flows)


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 10_000))
def test_lfi_sets_loop_free_under_random_costs(seed, bind_policy):
    rng = random.Random(seed)
    topo = random_connected(9, extra_links=7, seed=seed % 31)
    costs = {ln.link_id: rng.uniform(0.05, 4.0) for ln in topo.links()}
    dests = topo.nodes[:3]
    # SP within MP, on the tables the ``sp`` and ``mp-oracle`` runs use.
    sp = bind_policy("sp", topo, dests)
    mp = bind_policy("mp-oracle", topo, dests)
    sp.on_costs(costs)
    mp.on_costs(costs)
    single, multi = sp.routing(), mp.routing()
    spf = SharedSPF(costs, nodes=topo.nodes)
    for dest in dests:
        dist = spf.distances_to(dest)
        assert is_loop_free(lfi_successors(topo, costs, dest, dist=dist))
        for node in topo.nodes:
            if node != dest:
                chosen = single[dest][node]
                assert set(chosen) <= set(multi[dest][node])
                assert len(chosen) == min(1, len(multi[dest][node]))


@settings(max_examples=20, deadline=None)
@given(seed=st.integers(0, 10_000))
def test_fluid_conservation_on_random_networks(seed):
    """Every injected packet/s shows up at its destination (Eq. 1)."""
    rng = random.Random(seed)
    topo = random_connected(8, extra_links=5, seed=seed % 13)
    traffic = _random_traffic(topo, rng)
    phi = shortest_path_phi(topo, traffic.destinations())
    for dest in traffic.destinations():
        rates = traffic.rates_to(dest)
        t = node_flows(phi, rates, dest)
        assert t[dest] == pytest.approx(sum(rates.values()), rel=1e-9)


@settings(max_examples=15, deadline=None)
@given(seed=st.integers(0, 10_000))
def test_gallager_never_increases_delay(seed):
    rng = random.Random(seed)
    topo = random_connected(7, extra_links=5, seed=seed % 11)
    traffic = _random_traffic(topo, rng, n_flows=3, max_rate=250.0)
    result = optimize(topo, traffic, eta=0.1, max_iterations=200)
    for earlier, later in zip(result.history, result.history[1:]):
        assert later <= earlier + 1e-9
    # and the final routing parameters stay valid everywhere
    for node, per_dest in result.phi.items():
        for dest, fractions in per_dest.items():
            validate_property1(fractions, fractions.keys())


@settings(max_examples=15, deadline=None)
@given(seed=st.integers(0, 10_000))
def test_gallager_marginal_distance_bounds_shortest_path(seed):
    """delta_ij >= shortest marginal-cost distance (it is phi-weighted)."""
    rng = random.Random(seed)
    topo = random_connected(7, extra_links=4, seed=seed % 7)
    traffic = _random_traffic(topo, rng, n_flows=2)
    phi = shortest_path_phi(topo, traffic.destinations())
    model = DelayModel.for_topology(topo)
    costs = model.marginals(link_flows(phi, traffic))
    spf = SharedSPF(costs, nodes=topo.nodes)
    for dest in traffic.destinations():
        delta = marginal_distances(phi, dest, costs)
        best = spf.distances_to(dest)
        for node, value in delta.items():
            if value != float("inf"):
                assert value >= best[node] - 1e-9


@settings(max_examples=30, deadline=None)
@given(
    seed=st.integers(0, 10_000),
    steps=st.integers(1, 25),
)
def test_allocation_table_property1_through_random_trajectory(seed, steps):
    """Any sequence of successor sets and distances keeps Property 1."""
    rng = random.Random(seed)
    table = AllocationTable("r", damping=rng.choice([0.5, 1.0]))
    neighbors = ["a", "b", "c", "d"]
    for _ in range(steps):
        size = rng.randint(0, 4)
        chosen = rng.sample(neighbors, size)
        via = {k: rng.uniform(0.001, 5.0) for k in chosen}
        phi = table.update("j", via)
        validate_property1(phi, via.keys())
        if via:
            assert sum(phi.values()) == pytest.approx(1.0)


@settings(deadline=None)
@given(seed=st.integers(0, 100_000))
def test_mpda_quiesces_under_fuzzed_fault_schedules(seed):
    """Driver-level schedule property (the harness as a hypothesis
    strategy): any generated topology + fault profile + event schedule,
    run over the reliable transport, quiesces with Theorem 3 checked
    after every delivery and the Dijkstra oracle satisfied at the end —
    ``check_case`` returns the failure record, so clean is ``None``.

    ``max_examples`` comes from the active hypothesis profile (see
    ``conftest.py``): small for the dev default, larger under the CI
    fuzz job's ``HYPOTHESIS_PROFILE=ci``."""
    assert check_case(generate_case(seed)) is None


@settings(deadline=None)
@given(seed=st.integers(0, 100_000), reliable=st.booleans())
def test_mpda_matches_the_oracle_under_fuzzed_schedules(seed, reliable):
    """Production MPDA equals the naive Figs. 1-4 oracle after every
    delivery of a generated case, over the reliable transport or the
    raw faulty wire (``lockstep_case`` raises on any divergence).
    ``max_examples`` comes from the active hypothesis profile."""
    lockstep_case(generate_case(seed, reliable=reliable), MPDARouter)


#: Eight nodes, so ties are common; repr order puts 10 and 11 between
#: 1 and 2, so the lower-address tie rule differs from natural order.
_NODES = st.sampled_from([0, 1, 2, 3, 4, 5, 10, 11])
_COSTS = st.sampled_from([1.0, 2.0, 3.0])
_LINK = st.tuples(_NODES, _NODES, _COSTS).filter(lambda link: link[0] != link[1])
#: ``drop`` and ``recost`` pick an existing link by index.
_EDIT = st.one_of(
    st.tuples(st.just("set"), _LINK),
    st.tuples(st.just("drop"), st.integers(0, 99)),
    st.tuples(st.just("recost"), st.tuples(st.integers(0, 99), _COSTS)),
    st.tuples(st.just("enter"), _NODES),
    st.tuples(st.just("leave"), _NODES),
)


@settings(max_examples=300, deadline=None)
@given(
    initial=st.lists(_LINK, min_size=8, max_size=32),
    batches=st.lists(st.lists(_EDIT, max_size=6), min_size=1, max_size=8),
)
def test_tree_repair_matches_dijkstra(initial, batches):
    """MTU's tree repair equals a fresh Dijkstra after every edit batch.

    Costs come from {1, 2, 3}, so equal-cost paths are common and the
    lower-address tie rule decides most predecessors.  Each batch adds,
    removes and re-costs links and moves nodes in and out of the
    universe; the repair then starts from the links that moved."""
    root = 0
    links = {(h, t): c for h, t, c in initial}
    extra = set()

    def universe():
        return {root, *extra, *(n for link in links for n in link)}

    def adjacency():
        adj, adj_in = {}, {}
        for (h, t), c in links.items():
            adj.setdefault(h, {})[t] = c
            adj_in.setdefault(t, {})[h] = c
        return adj, adj_in

    tree = TopologyTable()
    nodes = universe()
    dist = dict.fromkeys(nodes, INFINITY)
    dist[root] = 0.0
    # Step 0 repairs the empty tree with every link moved, as MTU's
    # first run does; each batch then repairs the tree it left.
    for step, batch in enumerate([[]] + batches):
        before = dict(links) if step else {}
        for op, arg in batch:
            existing = sorted(links)
            if op == "set":
                links[arg[:2]] = arg[2]
            elif op == "drop" and existing:
                del links[existing[arg % len(existing)]]
            elif op == "recost" and existing:
                links[existing[arg[0] % len(existing)]] = arg[1]
            elif op == "enter":
                extra.add(arg)
            elif op == "leave" and arg != root:
                extra.discard(arg)
                links = {link: c for link, c in links.items() if arg not in link}
        moved = [
            link
            for link in before.keys() | links.keys()
            if before.get(link) != links.get(link)
        ]
        prev_nodes, nodes = nodes, universe()
        for node in nodes - prev_nodes:
            dist[node] = INFINITY
        rank = rank_nodes(nodes)
        adj, adj_in = adjacency()
        prev_tree = tree.links()
        prev_dist = dict(dist)
        # The repair reads the tree as a predecessor map plus its links
        # grouped by head.
        pred = {t: h for h, t in prev_tree}
        children = {}
        for (h, t), c in prev_tree.items():
            children.setdefault(h, {})[t] = c
        entries, repaired = repair_tree(pred, children, dist, adj, adj_in, rank, moved)
        for node in prev_nodes - nodes:
            del dist[node]

        want_dist, want_pred = dijkstra(links, root, nodes=sorted(nodes))
        assert dist == want_dist
        want_tree = {
            (h, t): links[(h, t)] for t, h in want_pred.items() if h is not None
        }
        for node in nodes - repaired.keys():
            assert dist[node] == prev_dist[node]
            assert want_pred[node] == next(
                (h for (h, t) in prev_tree if t == node), None
            )
        touched = [(entry.head, entry.tail) for entry in entries]
        assert len(set(touched)) == len(touched)
        for entry in entries:
            link = (entry.head, entry.tail)
            assert (link in prev_tree) == (entry.op is not EntryOp.ADD)
        tree.apply(entries)
        assert tree.links() == want_tree


@settings(max_examples=10, deadline=None)
@given(seed=st.integers(0, 10_000))
def test_evaluate_consistent_total_vs_per_flow(seed):
    """Sum over flows of rate*delay equals D_T when every link has a
    single destination's traffic... more generally the total equals the
    flow-weighted sum of per-flow delays (both count every packet-second
    exactly once)."""
    rng = random.Random(seed)
    topo = random_connected(7, extra_links=4, seed=seed % 5)
    traffic = _random_traffic(topo, rng, n_flows=3, max_rate=200.0)
    phi = shortest_path_phi(topo, traffic.destinations())
    ev = evaluate(topo, phi, traffic)
    weighted = sum(
        flow.rate * ev.flow_delays[flow.label()] for flow in traffic.flows
    )
    assert weighted == pytest.approx(ev.total_delay, rel=1e-6)
