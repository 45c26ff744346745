"""Shortest-path searches built from scratch.

The routing protocols in :mod:`repro.core` run Dijkstra's algorithm on
partial topologies represented as plain ``{(head, tail): cost}`` mappings,
so the functions here operate on such mappings rather than on
:class:`~repro.graph.topology.Topology` objects.  There is one forward
search, :func:`dijkstra`, whose label-setting loop Yen's
:func:`k_shortest_paths` reuses for every spur search, and one
destination-rooted search, :class:`SharedSPF`, which answers the
framework's :math:`D^i_j` (Eq. 13) for every destination of one cost map.

Tie-breaking matters: the paper's PDA requires that "ties should be broken
consistently during the run of Dijkstra's algorithm" so that all routers
agree on preferred neighbors.  We break ties deterministically on the
ordering of node representations, which is stable across routers.
"""

from __future__ import annotations

import heapq
import itertools
from collections.abc import Mapping, Sequence

from repro.exceptions import RoutingError
from repro.graph.topology import LinkId, NodeId

INFINITY = float("inf")

CostMap = Mapping[LinkId, float]


def _bad_cost(head: NodeId, tail: NodeId, cost: float) -> RoutingError:
    """The error for a link cost no search can use: negative or NaN."""
    return RoutingError(
        f"link {head!r}->{tail!r} has cost {cost!r}; link costs must be "
        "non-negative numbers (infinity marks an unusable link)"
    )


Adjacency = dict[NodeId, list[tuple[NodeId, float]]]


def out_adjacency(costs: CostMap) -> Adjacency:
    """Out-adjacency lists from a link-cost map (what the searches walk).

    :func:`k_shortest_paths` accepts one through ``adjacency=``, so a
    caller asking many pairs of one cost map builds it once.
    """
    adj: Adjacency = {}
    for (head, tail), cost in costs.items():
        # ``not >=`` rather than ``<``: a NaN fails every comparison.
        if not cost >= 0:
            raise _bad_cost(head, tail, cost)
        adj.setdefault(head, []).append((tail, cost))
        adj.setdefault(tail, [])
    return adj


def _tie_key(node: NodeId) -> str:
    """A total order over node ids used for deterministic tie-breaking.

    The paper breaks ties "in favor of the lower address"; sorting on the
    repr gives every hashable node id a consistent address-like order.
    """
    return repr(node)


def rank_nodes(nodes) -> dict[NodeId, int]:
    """Integer ranks equivalent to the repr tie order.

    Comparing ``rank[a] < rank[b]`` is exactly ``repr(a) < repr(b)`` for
    nodes in the map, but each comparison is an int compare instead of a
    repr call plus a string compare — each protocol router builds one
    rank map and reuses it across the tree repairs of its MTU runs
    (:func:`repro.core.pda.repair_tree`).
    """
    return {node: i for i, node in enumerate(sorted(nodes, key=repr))}


def dijkstra(
    costs: CostMap,
    source: NodeId,
    *,
    nodes: list[NodeId] | None = None,
) -> tuple[dict[NodeId, float], dict[NodeId, NodeId | None]]:
    """Single-source shortest paths.

    Args:
        costs: link-cost map; only links present here are usable.
        source: the root node.
        nodes: optional extra node universe; nodes unreachable from
            ``source`` get distance :data:`INFINITY` and predecessor None.

    The protocol's MTU does not call this: it repairs its previous tree
    with :func:`repro.core.pda.repair_tree`, which yields the same
    distances and the same lower-address predecessors.

    Returns:
        ``(dist, pred)`` where ``dist[j]`` is the cost of the shortest path
        ``source -> j`` and ``pred[j]`` the predecessor of ``j`` on it.
    """
    return _settle(out_adjacency(costs), source, nodes)


def _settle(
    adj: Adjacency,
    source: NodeId,
    nodes: list[NodeId] | None,
    banned: Sequence[NodeId] = (),
) -> tuple[dict[NodeId, float], dict[NodeId, NodeId | None]]:
    """Dijkstra's label-setting loop over a prebuilt out-adjacency.

    ``banned`` nodes start labelled ``-inf``, which no relaxation can
    lower or tie, so the search neither enters nor leaves them: the
    result is the one their links' removal would give.  Yen's spur
    searches ban the root path's interior this way.
    """
    # dict.fromkeys + update run at C speed, so the O(V) setup stays
    # small next to the heap loop.
    dist: dict[NodeId, float] = {source: INFINITY}
    dist.update(dict.fromkeys(adj, INFINITY))
    if nodes is not None:
        dist.update(dict.fromkeys(nodes, INFINITY))
    pred: dict[NodeId, NodeId | None] = dict.fromkeys(dist)
    dist.update(dict.fromkeys(banned, -INFINITY))
    dist[source] = 0.0

    # Lazy deletion: every push strictly lowers a node's label, so the
    # first pop of a node carries its final distance and any later pop
    # satisfies d > dist[node].  (The push counter breaks comparison
    # ties between distinct nodes with equal reprs.)
    counter = itertools.count()
    heap = [(0.0, _tie_key(source), next(counter), source)]
    push = heapq.heappush
    pop = heapq.heappop
    adj_get = adj.get
    while heap:
        d, node_key, _, node = pop(heap)
        if d > dist[node]:
            continue
        for nbr, cost in adj_get(node, ()):
            alt = d + cost
            cur = dist[nbr]
            if alt < cur:
                # Strict improvement.
                push(heap, (alt, _tie_key(nbr), next(counter), nbr))
                dist[nbr] = alt
                pred[nbr] = node
            elif (
                alt == cur
                and pred[nbr] is not None
                and node_key < _tie_key(pred[nbr])
            ):
                # An equal-cost path through a lower-address
                # predecessor: prefer it so every router resolves
                # ties identically.
                pred[nbr] = node
    return dist, pred


class SharedSPF:
    """Shortest distances *to* each destination over one cost map.

    The routing framework is destination-oriented (Eq. 13): it needs
    :math:`D^i_j = \\min_k (D^k_j + l^i_k)` for every source *i* and each
    active destination *j*.  With non-negative costs the label-setting
    pass below solves that equation exactly.  The reversed adjacency and
    the node universe are built once, here, so a caller holds one
    instance per cost map and asks it for every destination: each
    :meth:`distances_to` is one heap pass, not another O(E) setup.
    """

    def __init__(
        self, costs: CostMap, *, nodes: list[NodeId] | None = None
    ) -> None:
        adj_in: dict[NodeId, list[tuple[NodeId, float]]] = {}
        universe: dict[NodeId, None] = {}
        for (head, tail), cost in costs.items():
            if not cost >= 0:
                raise _bad_cost(head, tail, cost)
            adj_in.setdefault(tail, []).append((head, cost))
            universe[head] = None
            universe[tail] = None
        if nodes is not None:
            for node in nodes:
                universe[node] = None
        self._adj_in = adj_in
        self._universe = universe

    def distances_to(self, destination: NodeId) -> dict[NodeId, float]:
        """All-sources distance to ``destination`` (one heap pass).

        Nodes of the universe that cannot reach ``destination`` map to
        :data:`INFINITY`.
        """
        dist = dict.fromkeys(self._universe, INFINITY)
        dist[destination] = 0.0
        adj_in = self._adj_in
        counter = itertools.count()
        heap: list[tuple[float, int, NodeId]] = [(0.0, next(counter), destination)]
        done: set[NodeId] = set()
        while heap:
            d, _, node = heapq.heappop(heap)
            if node in done:
                continue
            done.add(node)
            for nbr, cost in adj_in.get(node, ()):
                alt = d + cost
                if alt < dist[nbr]:
                    dist[nbr] = alt
                    heapq.heappush(heap, (alt, next(counter), nbr))
        return dist


def k_shortest_paths(
    costs: CostMap,
    source: NodeId,
    target: NodeId,
    k: int,
    *,
    adjacency: Adjacency | None = None,
) -> list[list[NodeId]]:
    """The ``k`` shortest loopless paths ``source -> target`` (Yen).

    Deterministic: candidate paths of equal cost are ordered by their
    node-repr sequence, the same total order every other tie-break in
    this package uses.  Returns fewer than ``k`` paths when the graph
    has fewer distinct loopless paths (possibly none).

    ``adjacency``, when given, must be :func:`out_adjacency` of
    ``costs``; the search edits one of its lists while it runs and puts
    it back, so one adjacency serves every call on the same cost map.

    This powers the ``ecmp-k`` baseline policy: equal traffic split over
    the first hops of the k shortest paths.
    """
    if k < 1:
        raise RoutingError(f"k must be >= 1, got {k!r}")
    if source == target:
        return [[source]]
    adj = out_adjacency(costs) if adjacency is None else adjacency
    dist, pred = _settle(adj, source, None)
    if dist.get(target, INFINITY) == INFINITY:
        return []
    paths: list[list[NodeId]] = [extract_path(pred, source, target)]
    seen: set[tuple] = {tuple(paths[0])}
    # Candidate heap ordered by (cost, repr-sequence): deterministic
    # across runs and machines.
    candidates: list[tuple[float, tuple[str, ...], list[NodeId]]] = []

    while len(paths) < k:
        prev = paths[-1]
        for i in range(len(prev) - 1):
            spur, root = prev[i], prev[: i + 1]
            # The best deviation at the spur node avoids the root's
            # interior nodes and every first hop an already-found path
            # with this root prefix takes.  The spur's links minus those
            # hops stand in for its own during the search and the loop
            # bans the interior, so the remaining links are relaxed in
            # their cost-map order and no cost map is copied.
            taken = {path[i + 1] for path in paths if path[: i + 1] == root}
            spur_links = adj[spur]
            adj[spur] = [link for link in spur_links if link[0] not in taken]
            spur_dist, spur_pred = _settle(adj, spur, None, root[:-1])
            adj[spur] = spur_links
            if spur_dist.get(target, INFINITY) == INFINITY:
                continue
            total = root[:-1] + extract_path(spur_pred, spur, target)
            key = tuple(total)
            if key in seen:
                continue
            seen.add(key)
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


def path_cost(costs: CostMap, path: list[NodeId]) -> float:
    """Total cost of ``path`` (a node sequence) under ``costs``."""
    if len(path) < 2:
        return 0.0
    total = 0.0
    for head, tail in zip(path, path[1:]):
        try:
            total += costs[(head, tail)]
        except KeyError:
            raise RoutingError(f"path uses missing link {head!r}->{tail!r}")
    return total


def extract_path(
    pred: Mapping[NodeId, NodeId | None], source: NodeId, target: NodeId
) -> list[NodeId]:
    """Reconstruct the path ``source -> target`` from a predecessor map."""
    path = [target]
    node = target
    seen = {target}
    while node != source:
        parent = pred.get(node)
        if parent is None:
            raise RoutingError(f"{target!r} is unreachable from {source!r}")
        if parent in seen:
            raise RoutingError("predecessor map contains a cycle")
        path.append(parent)
        seen.add(parent)
        node = parent
    path.reverse()
    return path
