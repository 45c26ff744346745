"""Graph substrate: topologies, shortest paths, and successor-graph checks.

This subpackage is self-contained (no dependency on the routing protocols)
and provides:

- :class:`repro.graph.topology.Topology` — the network model (nodes plus
  directed links with capacity and propagation delay);
- :mod:`repro.graph.topologies` — the paper's CAIRN and NET1 networks;
- :mod:`repro.graph.generators` — synthetic topology generators;
- :mod:`repro.graph.shortest_paths` — forward Dijkstra (with Yen's k
  shortest paths on its loop) and the destination-rooted
  :class:`~repro.graph.shortest_paths.SharedSPF`, built from scratch
  (networkx is used only as a test oracle);
- :mod:`repro.graph.validation` — loop checks on successor graphs.
"""

from repro.graph.topology import Link, Topology
from repro.graph.topologies import cairn, net1
from repro.graph.shortest_paths import (
    SharedSPF,
    dijkstra,
    path_cost,
)
from repro.graph.validation import (
    find_successor_cycle,
    is_loop_free,
    successor_graph_order,
)

__all__ = [
    "Link",
    "Topology",
    "cairn",
    "net1",
    "dijkstra",
    "SharedSPF",
    "path_cost",
    "is_loop_free",
    "find_successor_cycle",
    "successor_graph_order",
]
