"""Synthetic topology generators.

Used by property-based tests (random connected networks) and by the
protocol microbenchmarks (scaling MPDA with network size).  All
generators take an explicit ``seed`` so results are reproducible.
"""

from __future__ import annotations

import random

from repro.exceptions import TopologyError
from repro.graph.topology import (
    DEFAULT_CAPACITY,
    DEFAULT_PROP_DELAY,
    Topology,
)


def line(n: int, **link_kwargs: float) -> Topology:
    """A chain ``0 - 1 - ... - n-1``."""
    if n < 1:
        raise TopologyError("line topology needs at least one node")
    topo = Topology(f"line{n}")
    topo.add_node(0)
    for i in range(n - 1):
        topo.add_duplex_link(i, i + 1, **link_kwargs)
    return topo


def ring(n: int, **link_kwargs: float) -> Topology:
    """A cycle of ``n >= 3`` nodes — the smallest multipath network."""
    if n < 3:
        raise TopologyError("ring topology needs at least three nodes")
    topo = Topology(f"ring{n}")
    for i in range(n):
        topo.add_duplex_link(i, (i + 1) % n, **link_kwargs)
    return topo


def grid(rows: int, cols: int, **link_kwargs: float) -> Topology:
    """A ``rows x cols`` mesh; node ids are ``(r, c)`` tuples."""
    if rows < 1 or cols < 1:
        raise TopologyError("grid needs positive dimensions")
    topo = Topology(f"grid{rows}x{cols}")
    topo.add_node((0, 0))
    for r in range(rows):
        for c in range(cols):
            if c + 1 < cols:
                topo.add_duplex_link((r, c), (r, c + 1), **link_kwargs)
            if r + 1 < rows:
                topo.add_duplex_link((r, c), (r + 1, c), **link_kwargs)
    return topo


def complete(n: int, **link_kwargs: float) -> Topology:
    """The complete graph on ``n`` nodes."""
    if n < 2:
        raise TopologyError("complete graph needs at least two nodes")
    topo = Topology(f"k{n}")
    for i in range(n):
        for j in range(i + 1, n):
            topo.add_duplex_link(i, j, **link_kwargs)
    return topo


def random_connected(
    n: int,
    extra_links: int = 0,
    seed: int = 0,
    capacity: float = DEFAULT_CAPACITY,
    prop_delay: float = DEFAULT_PROP_DELAY,
    jitter: float = 0.0,
) -> Topology:
    """A random connected network on ``n`` nodes.

    Builds a uniform random spanning tree (guaranteeing connectivity) and
    then adds ``extra_links`` random chords.  ``jitter`` in ``[0, 1)``
    randomizes capacities and delays by up to that relative amount, which
    exercises the unequal-cost machinery.
    """
    if n < 1:
        raise TopologyError("need at least one node")
    if extra_links > n * (n - 1) // 2 - (n - 1):
        raise TopologyError("more chords requested than the graph can hold")
    rng = random.Random(seed)

    def attrs() -> tuple[float, float]:
        if jitter <= 0:
            return capacity, prop_delay
        scale_c = 1.0 + jitter * (2 * rng.random() - 1)
        scale_d = 1.0 + jitter * (2 * rng.random() - 1)
        return capacity * scale_c, prop_delay * scale_d

    topo = Topology(f"rand{n}-{seed}")
    topo.add_node(0)
    order = list(range(n))
    rng.shuffle(order)
    attached = [order[0]]
    topo.add_node(order[0])
    for node in order[1:]:
        anchor = rng.choice(attached)
        cap, delay = attrs()
        topo.add_duplex_link(node, anchor, capacity=cap, prop_delay=delay)
        attached.append(node)

    added = 0
    while added < extra_links:
        a, b = rng.sample(range(n), 2)
        if not topo.has_link(a, b):
            cap, delay = attrs()
            topo.add_duplex_link(a, b, capacity=cap, prop_delay=delay)
            added += 1
    return topo


# ----------------------------------------------------------------------
# ISP-style generators (scale benchmarks)
# ----------------------------------------------------------------------
def _euclidean(p: tuple[float, float], q: tuple[float, float]) -> float:
    return ((p[0] - q[0]) ** 2 + (p[1] - q[1]) ** 2) ** 0.5


def _join_components(
    topo: Topology,
    points: dict[int, tuple[float, float]],
    capacity: float,
    prop_delay_per_unit: float,
) -> None:
    """Connect a possibly-disconnected graph by adding, for each extra
    component, the shortest link joining it to the first one —
    deterministic given the point set, and geographically plausible
    (components merge where they are closest)."""
    nodes = sorted(points)
    component = {node: node for node in nodes}

    def find(node: int) -> int:
        root = node
        while component[root] != root:
            root = component[root]
        while component[node] != root:
            component[node], node = root, component[node]
        return root

    for link in topo.links():
        ra, rb = find(link.head), find(link.tail)
        if ra != rb:
            component[max(ra, rb)] = min(ra, rb)
    while True:
        # No unions happen during the scan, so the root labels are
        # constant through it — resolve them once per pass instead of
        # per pair (the pair order, and thus tie-breaking, is unchanged).
        labels = {node: find(node) for node in nodes}
        roots = sorted(set(labels.values()))
        if len(roots) == 1:
            return
        main = roots[0]
        main_nodes = [node for node in nodes if labels[node] == main]
        other_nodes = [node for node in nodes if labels[node] != main]
        best = None
        for node in main_nodes:
            p = points[node]
            for other in other_nodes:
                d = _euclidean(p, points[other])
                if best is None or d < best[0]:
                    best = (d, node, other)
        assert best is not None
        d, node, other = best
        topo.add_duplex_link(
            node,
            other,
            capacity=capacity,
            prop_delay=max(d * prop_delay_per_unit, 1e-6),
        )
        component[find(other)] = main


def waxman(
    n: int,
    *,
    seed: int = 0,
    beta: float = 0.6,
    target_degree: float = 3.5,
    capacity: float = DEFAULT_CAPACITY,
    prop_delay: float = DEFAULT_PROP_DELAY,
) -> Topology:
    """A Waxman random graph — the classic ISP-topology model.

    ``n`` points are placed uniformly in the unit square and each pair
    is linked with probability ``alpha * exp(-d / (beta * L))`` where
    ``d`` is their distance and ``L`` the largest pairwise distance.
    Rather than exposing the opaque ``alpha`` knob, the generator takes
    a ``target_degree`` and derives ``alpha`` from the drawn point set
    so the expected mean degree matches it at every size — without
    this, a fixed ``alpha`` makes degree (and message complexity) grow
    linearly with ``n``, which would confound scale benchmarks.

    Propagation delays scale with Euclidean distance (normalized so the
    *mean* link delay is ``prop_delay``), giving short regional links
    and long cross-country ones like a real ISP map.  Disconnected
    components — rare at sensible target degrees — are joined by their
    geographically shortest bridging links, so the result is always
    connected.
    """
    if n < 2:
        raise TopologyError("waxman graph needs at least two nodes")
    if not 0 < beta <= 1:
        raise TopologyError(f"beta must be in (0, 1], got {beta!r}")
    if target_degree <= 0:
        raise TopologyError("target_degree must be positive")
    rng = random.Random(seed)
    points = {i: (rng.random(), rng.random()) for i in range(n)}
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    dists = {pair: _euclidean(points[pair[0]], points[pair[1]]) for pair in pairs}
    scale = max(dists.values())
    weights = {
        pair: pow(2.718281828459045, -d / (beta * scale))
        for pair, d in dists.items()
    }
    mean_weight = sum(weights.values()) / len(pairs)
    # E[degree] = (n-1) * alpha * mean_weight, solved for alpha.
    alpha = min(target_degree / ((n - 1) * mean_weight), 1.0)

    chosen = [pair for pair in pairs if rng.random() < alpha * weights[pair]]
    mean_dist = (
        sum(dists[pair] for pair in chosen) / len(chosen)
        if chosen
        else sum(dists.values()) / len(pairs)
    )
    delay_per_unit = prop_delay / mean_dist

    topo = Topology(f"waxman{n}-{seed}")
    for i in range(n):
        topo.add_node(i)
    for pair in chosen:
        topo.add_duplex_link(
            pair[0],
            pair[1],
            capacity=capacity,
            prop_delay=max(dists[pair] * delay_per_unit, 1e-6),
        )
    _join_components(topo, points, capacity, delay_per_unit)
    return topo
