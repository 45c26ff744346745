"""Differential tests: the incremental protocol core vs a naive oracle.

The production core is incremental (dirty-destination MTU state, tree
repair, snapshot flooding).  Every shortcut claims
*bit-for-bit* equality with the procedures of the paper's Figs. 1-4;
:mod:`repro.testing.oracle` implements those procedures naively and
these tests run it in lockstep with production PDA and MPDA, comparing
the receiving router after every delivery, over failover windows,
seeded fuzz schedules on reliable and raw channels, and the corpus.
"""

import ast
import json
import pathlib
from dataclasses import replace

import pytest

from repro.core.allocation import ah
from repro.core.linkstate import EntryOp, FrozenTree, TopologyTable
from repro.core.mpda import MPDARouter
from repro.core.pda import PDARouter
from repro.graph.generators import waxman
from repro.graph.topologies import cairn, net1
from repro.testing import oracle
from repro.testing.fuzz import FuzzCase, generate_case
from repro.testing.oracle import Divergence, Lockstep, lockstep_case

ROUTERS = (PDARouter, MPDARouter)
CORPUS_DIR = pathlib.Path(__file__).parent / "corpus"


def _raw_mp_case(path: pathlib.Path) -> bool:
    """Protocol corpus cases over the raw wire.  Over a reliable
    transport every receiver stays in sync and adopts snapshots, which
    the failover windows and reliable fuzz seeds already cover; raw
    cases reach the thaw-and-replay path."""
    case = json.loads(path.read_text())["case"]
    return case["policy"] == "mp" and not case["profile"]["reliable"]


RAW_MP_CORPUS = sorted(p.name for p in CORPUS_DIR.glob("*.json") if _raw_mp_case(p))


def _assert_all_adopted(lockstep):
    """Every production neighbor table is its sender's frozen snapshot.

    Under the paper's delivery model each receiver holds the table the
    sender diffed against, so it adopts; an NTU that replayed entries
    instead (a Dijkstra run per delivery) leaves a thawed table behind.
    """
    for node, router in lockstep.production.routers.items():
        for nbr, table in router.neighbor_tables.items():
            assert isinstance(table, FrozenTree), (node, nbr, table)


def _assert_core_state(lockstep):
    """What the incremental core carries equals what it stands for.

    Per production router: the reference-counted universe is the merge
    of its own id, its up neighbors and every neighbor table's nodes,
    and ``distances`` covers exactly that universe; the main table is
    the tree of the predecessor map and is what every up neighbor holds
    for this router (the snapshot it flooded last, or the greeting that
    shares its links and distances); each head's group in MTU's
    candidate graph is the winning neighbor table's own group object,
    the router's own group is its adjacent links, and the in-adjacency
    holds exactly the candidate graph's links.
    """
    routers = lockstep.production.routers
    for node, router in routers.items():
        merged = {node, *router.link_costs}
        for table in router.neighbor_tables.values():
            merged.update(table.nodes_map_view())
        assert router._known.keys() == merged, node
        assert router.distances.keys() == merged, node
        tree = router.main_table
        assert tree.links() == {
            (head, tail): tree.groups[head][tail]
            for tail, head in router._pred.items()
        }, node
        for k in router.link_costs:
            held = routers[k].neighbor_tables[node]
            assert held.groups is tree.groups, (node, k)
            assert held.dist is tree.dist, (node, k)
        for head, group in router._adj.items():
            if head != node:
                winner = router.neighbor_tables[router._best_nbr[head]]
                held = winner.groups.get(head)
                assert group is held if held else not group, (node, head)
        assert router._adj.get(node, {}) == router.link_costs, node
        candidate = {
            (head, tail): cost
            for head, group in router._adj.items()
            for tail, cost in group.items()
        }
        assert candidate == {
            (head, tail): cost
            for tail, incoming in router._adj_in.items()
            for head, cost in incoming.items()
        }, node


@pytest.mark.parametrize(
    ("make_topo", "failed"),
    [
        pytest.param(net1, None, id="net1"),
        pytest.param(cairn, None, id="cairn"),
        pytest.param(lambda: waxman(40, seed=2), None, id="waxman40"),
        # Capacity 1 and no propagation delay make every idle cost 1.0:
        # equal-hop paths tie exactly and the lower-address rule picks
        # every predecessor.
        pytest.param(
            lambda: waxman(40, seed=2, capacity=1.0, prop_delay=0.0),
            None,
            id="waxman40-unit",
        ),
        # A bridge: node 10's only link.  Failing it drops node 10 from
        # every other router's universe and feasible distances, and
        # restoring it brings the node back.
        pytest.param(lambda: waxman(40, seed=2), (10, 4), id="waxman40-bridge"),
    ],
)
def test_failover_window_differential(make_topo, failed):
    """Cold start, link failure (the first link unless ``failed`` names
    one), restoration, a cost bump, then a cut that halves links below
    their start cost (with unit costs, two cut links in a row tie one
    uncut link).  At every quiescence the core's carried state is
    checked against what it stands for."""
    topo = make_topo()
    costs = topo.idle_marginal_costs()
    a, b = failed or next(iter(topo.links())).link_id
    links = list(costs.items())
    bumped = {link_id: cost * 1.7 for link_id, cost in links[:4]}
    cut = {link_id: cost * 0.5 for link_id, cost in links[2:8]}
    for router_cls in ROUTERS:
        lockstep = Lockstep(topo, router_cls)
        lockstep.start(costs)
        lockstep.run()
        _assert_core_state(lockstep)
        lockstep.fail_link(a, b)
        lockstep.run()
        _assert_core_state(lockstep)
        lockstep.restore_link(a, b, costs[(a, b)], costs[(b, a)])
        lockstep.run()
        _assert_core_state(lockstep)
        lockstep.set_costs(bumped)
        lockstep.run()
        _assert_core_state(lockstep)
        lockstep.set_costs(cut)
        lockstep.run()
        _assert_core_state(lockstep)
        _assert_all_adopted(lockstep)


@pytest.mark.parametrize("seed", range(8))
def test_fuzz_schedule_differential(seed):
    """Adversarial schedules (in-flight events, partial pumping,
    partitions) over the reliable transport and the raw faulty wire."""
    for reliable in (True, False):
        case = generate_case(seed, reliable=reliable)
        for router_cls in ROUTERS:
            lockstep = lockstep_case(case, router_cls)
            if reliable:
                _assert_all_adopted(lockstep)


def test_raw_seed_1497_differential():
    """A raw seed on which replayed neighbor tables stop being trees;
    plain PDA's even closes a cycle the sender cannot reach."""
    case = generate_case(1497, reliable=False)
    for router_cls in ROUTERS:
        lockstep_case(case, router_cls)


@pytest.mark.parametrize("name", RAW_MP_CORPUS)
def test_corpus_case_differential(name):
    doc = json.loads((CORPUS_DIR / name).read_text())
    case = FuzzCase.from_dict(doc["case"])
    for router_cls in ROUTERS:
        lockstep_case(case, router_cls)


def test_lockstep_names_the_first_divergence():
    """A router that ignores DELETE entries keeps links its neighbor
    dropped; the lockstep must stop at that delivery."""

    class DropsDeletes(PDARouter):
        def receive(self, message):
            kept = tuple(e for e in message.entries if e.op is not EntryOp.DELETE)
            super().receive(replace(message, entries=kept, snapshot=None))

    topo = net1()
    costs = topo.idle_marginal_costs()
    lockstep = Lockstep(topo, DropsDeletes)
    lockstep.start(costs)
    a, b = next(iter(topo.links())).link_id
    with pytest.raises(Divergence, match=r"^delivery \d+: router \S+ differs on "):
        lockstep.run()
        lockstep.fail_link(a, b)
        lockstep.run()


def _imports(source: str) -> set[str]:
    """Dotted names ``source`` imports directly: ``import a.b`` gives
    ``a.b``; ``from a import b`` gives ``a`` and ``a.b``."""
    names = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            names.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            names.add(node.module)
            names.update(f"{node.module}.{alias.name}" for alias in node.names)
    return names


def test_oracle_shares_only_wire_types_and_the_pump():
    """No import of repro.core.pda, .mpda, .lfi or graph.shortest_paths."""
    imported = {
        ".".join(name.split(".")[:3])
        for name in _imports(pathlib.Path(oracle.__file__).read_text())
        if name.startswith("repro.")
    }
    assert imported == {
        "repro.core.linkstate",
        "repro.core.driver",
        "repro.testing.fuzz",
    }


def test_no_production_module_imports_the_oracle():
    package = pathlib.Path(oracle.__file__).parents[1]
    for path in package.rglob("*.py"):
        source = path.read_text()
        if path.name == "oracle.py" or "oracle" not in source:
            continue
        assert not any(
            name.startswith("repro.testing.oracle") for name in _imports(source)
        ), path


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
def _floods_to_i():
    """The three LSUs a real sender "s" floods to its neighbor "i":
    +(s->i) as version 1, +(s->x) as version 2, ~(s->x:3) as version 3."""
    sender = PDARouter("s")
    sender.link_up("i", 1.0)
    sender.link_up("x", 1.0)
    sender.link_cost_change("x", 3.0)
    return [message for nbr, message in sender.outbox if nbr == "i"]


def _receiver():
    router = PDARouter("i")
    router.link_up("s", 1.0)
    return router


def test_snapshot_accept_swaps_reference():
    """An in-sync receiver adopts the frozen tree without replaying."""
    router = _receiver()
    for message, via_x in zip(_floods_to_i(), (None, 2.0, 4.0)):
        router.receive(message)
        assert router.neighbor_tables["s"] is message.snapshot
        assert router.nbr_distances["s"] is message.snapshot.dist
        if via_x is not None:
            assert router.distances["x"] == via_x


def test_snapshot_desync_falls_back_to_entries():
    """Duplicated or reordered delivery: the snapshot's baseline no
    longer matches, so the receiver must thaw and replay the entries —
    same state, different representation."""
    first, _, third = _floods_to_i()
    router = _receiver()
    router.receive(first)
    assert router.neighbor_tables["s"] is first.snapshot

    # Duplicate delivery: version 1 does not follow version 1.
    router.receive(first)
    table = router.neighbor_tables["s"]
    assert isinstance(table, TopologyTable)
    assert table.links() == {("s", "i"): 1.0}
    assert router.nbr_distances["s"] == {"s": 0.0, "i": 1.0}

    # Version 3 was diffed against a version 2 this router never saw;
    # its entries alone still carry the protocol content.
    router.receive(third)
    assert isinstance(router.neighbor_tables["s"], TopologyTable)
    assert router.nbr_distances["s"] == {"s": 0.0, "i": 1.0, "x": 3.0}
    assert router.distances["x"] == 4.0
