"""Loop checks on successor graphs.

For a destination ``j``, the successor sets :math:`S_j^i` of all routers
define the routing graph :math:`SG_j`.  Theorem 1 of the paper proves the
LFI conditions keep :math:`SG_j` loop-free at every instant; the functions
here are the *checkers* the test-suite and the simulation safety monitors
use to verify that claim on every event.

:func:`find_successor_cycle` is the one acyclicity routine behind all of
them: the per-delivery Theorem-3 check
(:func:`repro.core.mpda.check_safety`), :func:`assert_loop_free` and the
routing-policy audits.  It peels the graph in linear time and searches
for a cycle only when something is left unpeeled, which in a passing run
never happens.
"""

from __future__ import annotations

from collections.abc import Iterable, Mapping

from repro.exceptions import LoopError
from repro.graph.topology import NodeId

SuccessorSets = Mapping[NodeId, Iterable[NodeId]]


def find_successor_cycle(successors: SuccessorSets) -> list[NodeId] | None:
    """Find a cycle in a successor graph, or None if it is acyclic.

    A linear peeling pass decides acyclicity: a node peels once every
    successor it has among the keys has peeled, so nodes without such
    successors peel first, and the graph is a DAG exactly when every
    node peels.  Only a graph left with unpeeled nodes goes on to the
    depth-first search that names a cycle, so a cyclic graph yields the
    same cycle the search alone would.

    Args:
        successors: for each router, the successor set toward one
            destination (``successors[i]`` = :math:`S_j^i`).  A set may
            be walked twice, so it must be a collection, not a one-shot
            iterator.  Successors that are not keys have no out-edges.

    Returns:
        A list of nodes forming a directed cycle (first node repeated at
        the end), or None when the graph is a DAG.
    """
    # waiting[i]: successors of i (among the keys) not peeled yet.
    waiting: dict[NodeId, int] = {}
    predecessors: dict[NodeId, list[NodeId]] = {}
    peeled: list[NodeId] = []
    for node, succ in successors.items():
        count = 0
        for nxt in succ:
            if nxt in successors:
                count += 1
                preds = predecessors.get(nxt)
                if preds is None:
                    predecessors[nxt] = [node]
                else:
                    preds.append(node)
        if count:
            waiting[node] = count
        else:
            peeled.append(node)
    for node in peeled:  # grows while it is walked
        for prev in predecessors.get(node, ()):
            left = waiting[prev] - 1
            waiting[prev] = left
            if not left:
                peeled.append(prev)
    if len(peeled) == len(successors):
        return None
    return _dfs_cycle(successors)


def _dfs_cycle(successors: SuccessorSets) -> list[NodeId] | None:
    """Name a cycle by depth-first search.

    Roots go in key order, and each node's successors are stacked in
    ``repr`` order and taken from the top, so the cycle named does not
    depend on set iteration order (which, for string ids, follows the
    hash seed).
    """
    WHITE, GRAY, BLACK = 0, 1, 2
    color: dict[NodeId, int] = {node: WHITE for node in successors}

    for root in successors:
        if color[root] != WHITE:
            continue
        # Iterative DFS with an explicit stack so deep topologies cannot
        # overflow Python's recursion limit.
        stack: list[tuple[NodeId, list[NodeId]]] = [
            (root, sorted(successors.get(root, ()), key=repr))
        ]
        color[root] = GRAY
        path = [root]
        while stack:
            node, pending = stack[-1]
            advanced = False
            while pending:
                nxt = pending.pop()
                state = color.get(nxt, BLACK)  # absent => no out-edges known
                if state == GRAY:
                    cycle = path[path.index(nxt):] + [nxt]
                    return cycle
                if state == WHITE:
                    color[nxt] = GRAY
                    stack.append(
                        (nxt, sorted(successors.get(nxt, ()), key=repr))
                    )
                    path.append(nxt)
                    advanced = True
                    break
            if not advanced:
                color[node] = BLACK
                stack.pop()
                path.pop()
    return None


def is_loop_free(successors: SuccessorSets) -> bool:
    """True when the successor graph contains no directed cycle."""
    return find_successor_cycle(successors) is None


def assert_loop_free(
    successors: SuccessorSets, destination: NodeId | None = None
) -> None:
    """Raise :class:`~repro.exceptions.LoopError` if a cycle exists."""
    cycle = find_successor_cycle(successors)
    if cycle is not None:
        where = f" for destination {destination!r}" if destination is not None else ""
        raise LoopError(f"successor graph{where} has cycle {cycle!r}")


def successor_graph_order(
    successors: SuccessorSets, destination: NodeId
) -> list[NodeId]:
    """Topological order of the routing DAG, *upstream first*.

    Orders nodes so that every router appears before all of its successors
    toward ``destination``; the destination itself (if present) comes last.
    Processing node flows :math:`t_j^i` in this order lets the fluid
    evaluator apply Eq. (1) in a single pass.

    Raises:
        LoopError: if the graph has a cycle.
    """
    indegree: dict[NodeId, int] = {node: 0 for node in successors}
    indegree.setdefault(destination, 0)
    for node, succs in successors.items():
        for nxt in succs:
            indegree[nxt] = indegree.get(nxt, 0) + 1

    # "in-degree" here counts routing predecessors: a node is ready once
    # all routers that forward *through* it have been emitted.
    ready = sorted(
        (node for node, deg in indegree.items() if deg == 0), key=repr
    )
    order: list[NodeId] = []
    while ready:
        node = ready.pop()
        order.append(node)
        for nxt in successors.get(node, ()):
            indegree[nxt] -= 1
            if indegree[nxt] == 0:
                ready.append(nxt)
    if len(order) != len(indegree):
        assert_loop_free(successors, destination)
        raise LoopError("inconsistent successor graph")  # pragma: no cover
    return order
