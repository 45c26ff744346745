"""Differential tests: optimized hot paths vs reference semantics.

The protocol core is incremental (dirty-destination MTU state, snapshot
flooding, patched neighbor distances).  Every shortcut claims
*bit-for-bit* equality with the straightforward implementation; these
tests run both sides — ``INCREMENTAL = False`` routers are kept
precisely to serve as oracles — over converged states, failover
windows, and adversarial fuzz schedules, and assert the claim.
"""

import pytest

from repro.core.allocation import ah
from repro.core.driver import ProtocolDriver
from repro.core.linkstate import (
    EntryOp,
    FrozenTree,
    LinkEntry,
    LSUMessage,
    TopologyTable,
)
from repro.core.mpda import MPDARouter
from repro.core.pda import PDARouter
from repro.graph.generators import waxman
from repro.graph.topologies import cairn, net1
from repro.testing.fuzz import build_topology, generate_case


class ReferenceRouter(MPDARouter):
    """MPDA with every incremental shortcut disabled."""

    INCREMENTAL = False


def _assert_same_state(optimized: ProtocolDriver, reference: ProtocolDriver):
    """The two drivers must agree on every protocol-visible quantity."""
    assert optimized.message_stats() == reference.message_stats()
    for node, router in optimized.routers.items():
        ref = reference.routers[node]
        assert router.distances == ref.distances, node
        assert router.feasible_distance == ref.feasible_distance, node
        assert router.successor_sets == ref.successor_sets, node
        assert router.nbr_distances == ref.nbr_distances, node


def _pair(topo, seed=0):
    optimized = ProtocolDriver(topo, MPDARouter, seed=seed)
    reference = ProtocolDriver(topo, ReferenceRouter, seed=seed)
    costs = topo.idle_marginal_costs()
    for driver in (optimized, reference):
        driver.start(costs)
        driver.run()
    return optimized, reference, costs


@pytest.mark.parametrize("make_topo", [net1, cairn, lambda: waxman(40, seed=2)])
def test_failover_window_differential(make_topo):
    """Cold start, link failure, and restoration: identical throughout."""
    topo = make_topo()
    optimized, reference, costs = _pair(topo)
    _assert_same_state(optimized, reference)

    link = next(iter(topo.links())).link_id
    a, b = link
    for driver in (optimized, reference):
        driver.fail_link(a, b)
        driver.run()
    _assert_same_state(optimized, reference)

    for driver in (optimized, reference):
        driver.restore_link(a, b, costs[(a, b)], costs[(b, a)])
        driver.run()
    _assert_same_state(optimized, reference)

    bumped = {link_id: cost * 1.7 for link_id, cost in list(costs.items())[:4]}
    for driver in (optimized, reference):
        driver.set_costs(bumped)
        driver.run()
    _assert_same_state(optimized, reference)


@pytest.mark.parametrize("seed", range(8))
def test_fuzz_schedule_differential(seed):
    """Adversarial schedules (in-flight events, partial pumping):
    the optimized core must stay message-for-message identical."""
    case = generate_case(seed)
    topo_spec = case.topology
    base_costs = build_topology(topo_spec).idle_marginal_costs()

    def execute(router_cls):
        driver = ProtocolDriver(
            build_topology(topo_spec), router_cls, seed=case.driver_seed
        )
        driver.start(base_costs)
        driver.run()
        for event in case.schedule:
            op, *args = event
            if op == "fail_link":
                driver.fail_link(args[0], args[1])
            elif op == "restore_link":
                a, b = args
                driver.restore_link(
                    a, b, base_costs[(a, b)], base_costs[(b, a)]
                )
            elif op == "set_cost":
                head, tail, cost = args
                if tail in driver.routers[head].link_costs:
                    driver.set_costs({(head, tail): cost})
            elif op == "pump":
                for _ in range(args[0]):
                    if not driver.step():
                        break
            # "partition" needs the faulty transport; irrelevant here —
            # the schedules still interleave events with in-flight LSUs.
        driver.run()
        driver.verify_converged()
        return driver

    _assert_same_state(execute(MPDARouter), execute(ReferenceRouter))


# ----------------------------------------------------------------------
# allocation
# ----------------------------------------------------------------------
def test_ah_tie_break_is_natural_order():
    """Regression: equal-distance ties pick the *naturally* smallest
    successor.  A repr-based tie-break would sort node 10 ahead of
    node 2 and move the traffic the other way."""
    phi = {10: 0.3, 2: 0.3, 3: 0.4}
    distance_via = {10: 1.0, 2: 1.0, 3: 2.0}
    adjusted = ah(phi, distance_via)
    assert adjusted[2] == pytest.approx(0.7)
    assert adjusted[10] == pytest.approx(0.3)
    assert adjusted[3] == 0.0


# ----------------------------------------------------------------------
# snapshot flooding (FrozenTree)
# ----------------------------------------------------------------------
def _snap(tree, root, dist, *, version, prev_version, prev_flood):
    return FrozenTree.from_tree(
        tree,
        root,
        dist,
        version=version,
        prev_version=prev_version,
        applies_to_empty=prev_version is None,
        prev_flood=prev_flood,
    )


def test_frozen_tree_from_tree_shape():
    tree = {("s", "x"): 1.0, ("x", "y"): 2.0}
    dist = {"s": 0.0, "x": 1.0, "y": 3.0}
    snap = _snap(
        tree, "s", dist, version=1, prev_version=None, prev_flood={"s": 0.0}
    )
    assert snap.dist == dist
    assert snap.changed_rows == {"x", "y"}
    assert snap.links() == tree
    assert dict(snap.links_with_head_view("x")) == {("x", "y"): 2.0}
    assert set(snap.nodes_view()) == {"s", "x", "y"}
    assert len(snap) == 2
    assert snap.thaw().links() == tree


def test_snapshot_accept_swaps_reference():
    """An in-sync receiver adopts the frozen tree without replaying."""
    router = PDARouter("i")
    router.link_up("s", 1.0)
    tree = {("s", "x"): 1.0}
    snap1 = _snap(
        tree,
        "s",
        {"s": 0.0, "x": 1.0},
        version=1,
        prev_version=None,
        prev_flood={"s": 0.0},
    )
    router.receive(
        LSUMessage(
            sender="s",
            entries=(LinkEntry(EntryOp.ADD, "s", "x", 1.0),),
            snapshot=snap1,
        )
    )
    assert router.neighbor_tables["s"] is snap1
    assert router.nbr_distances["s"] is snap1.dist
    assert router.distances["x"] == 2.0

    snap2 = _snap(
        {("s", "x"): 3.0},
        "s",
        {"s": 0.0, "x": 3.0},
        version=2,
        prev_version=1,
        prev_flood=snap1.dist,
    )
    router.receive(
        LSUMessage(
            sender="s",
            entries=(LinkEntry(EntryOp.CHANGE, "s", "x", 3.0),),
            snapshot=snap2,
        )
    )
    assert router.neighbor_tables["s"] is snap2
    assert router.distances["x"] == 4.0


def test_snapshot_desync_falls_back_to_entries():
    """Duplicated or reordered delivery: the snapshot's baseline no
    longer matches, so the receiver must thaw and replay the entries —
    same state, different representation."""
    router = PDARouter("i")
    router.link_up("s", 1.0)
    snap1 = _snap(
        {("s", "x"): 1.0},
        "s",
        {"s": 0.0, "x": 1.0},
        version=1,
        prev_version=None,
        prev_flood={"s": 0.0},
    )
    message = LSUMessage(
        sender="s",
        entries=(LinkEntry(EntryOp.ADD, "s", "x", 1.0),),
        snapshot=snap1,
    )
    router.receive(message)
    assert router.neighbor_tables["s"] is snap1

    # Duplicate delivery: version 1 does not follow version 1.
    router.receive(message)
    table = router.neighbor_tables["s"]
    assert isinstance(table, TopologyTable)
    assert table.links() == {("s", "x"): 1.0}
    assert router.nbr_distances["s"] == {"s": 0.0, "x": 1.0}
    assert router.distances["x"] == 2.0

    # A snapshot from the future (version 3 diffed against a version 2
    # this router never saw): entries still carry the protocol content.
    snap3 = _snap(
        {("s", "x"): 5.0},
        "s",
        {"s": 0.0, "x": 5.0},
        version=3,
        prev_version=2,
        prev_flood={"s": 0.0, "x": 4.0},
    )
    router.receive(
        LSUMessage(
            sender="s",
            entries=(LinkEntry(EntryOp.CHANGE, "s", "x", 5.0),),
            snapshot=snap3,
        )
    )
    assert isinstance(router.neighbor_tables["s"], TopologyTable)
    assert router.nbr_distances["s"] == {"s": 0.0, "x": 5.0}
    assert router.distances["x"] == 6.0


def test_fused_mtu_snapshot_matches_from_tree():
    """The fused MTU tail builds its FrozenTree inline; it must agree
    with the documented :meth:`FrozenTree.from_tree` construction and
    with the router's own main table."""
    topo = net1()
    driver = ProtocolDriver(topo, MPDARouter, seed=0)
    driver.start(topo.idle_marginal_costs())
    driver.run()
    for node, router in driver.routers.items():
        snap = router._snap
        assert snap is not None
        tree = router.main_table.links()
        assert snap.links() == tree
        assert snap.dist == router._flood_dist
        rebuilt = FrozenTree.from_tree(
            tree,
            node,
            router.distances,
            version=snap.version,
            prev_version=snap.prev_version,
            applies_to_empty=snap.applies_to_empty,
            prev_flood={node: 0.0},
        )
        assert rebuilt.dist == snap.dist
        assert rebuilt.links() == snap.links()
        assert set(rebuilt.nodes_view()) == set(snap.nodes_view())


# ----------------------------------------------------------------------
# incremental neighbor-table patching
# ----------------------------------------------------------------------
def _tree_table():
    table = TopologyTable()
    table.set_link("r", "a", 1.0)
    table.set_link("r", "b", 2.0)
    table.set_link("a", "c", 1.0)
    table.set_link("c", "d", 1.0)
    return table


def _check_incremental(table, entries):
    dist = table.distances_from("r")
    dist.setdefault("r", 0.0)
    changed, changed_nodes = table.apply_incremental(entries, "r", dist)
    fresh = table.distances_from("r")
    fresh.setdefault("r", 0.0)
    assert changed_nodes is not None
    assert dist == fresh
    return changed, changed_nodes


def test_apply_incremental_cost_change_updates_subtree():
    table = _tree_table()
    changed, rows = _check_incremental(
        table, [LinkEntry(EntryOp.CHANGE, "a", "c", 3.0)]
    )
    assert changed
    assert rows == {"c", "d"}  # the subtree below the edited link


def test_apply_incremental_prunes_unchanged_branches():
    table = _tree_table()
    # Re-adding an identical link is a no-op: nothing recomputed.
    changed, rows = _check_incremental(
        table, [LinkEntry(EntryOp.ADD, "r", "a", 1.0)]
    )
    assert not changed
    assert rows == set()


def test_apply_incremental_grows_and_shrinks():
    table = _tree_table()
    changed, rows = _check_incremental(
        table,
        [
            LinkEntry(EntryOp.ADD, "d", "e", 2.0),
            LinkEntry(EntryOp.DELETE, "r", "b", 0.0),
        ],
    )
    assert changed
    assert rows == {"e", "b"}  # one node entered, one left


def test_apply_incremental_non_tree_transient_returns_none():
    table = _tree_table()
    dist = table.distances_from("r")
    dist.setdefault("r", 0.0)
    before = dict(dist)
    # A second parent for "c" makes the table not a tree: the fast
    # path must decline and leave ``dist`` untouched.
    changed, changed_nodes = table.apply_incremental(
        [LinkEntry(EntryOp.ADD, "b", "c", 1.0)], "r", dist
    )
    assert changed
    assert changed_nodes is None
    assert dist == before
