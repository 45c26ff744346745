"""Traffic demands: flows and traffic matrices.

The paper's workload model is the input set :math:`r = \\{r^i_j\\}` —
the expected traffic in packets/s entering the network at router *i* and
destined for router *j*.  :class:`TrafficMatrix` stores that set; a
:class:`Flow` is one named (source, destination, rate) entry, matching how
Section 5 describes the CAIRN and NET1 workloads.
"""

from __future__ import annotations

import math
import random
from collections.abc import Iterable, Iterator, Sequence
from dataclasses import dataclass

from repro.exceptions import TopologyError
from repro.graph.topology import NodeId, Topology


@dataclass(frozen=True)
class Flow:
    """A single traffic demand.

    Attributes:
        source: ingress router.
        destination: egress router.
        rate: offered load in packets/s (see :mod:`repro.units`).
        name: label used on figure axes ("flow id" in the paper's plots).
    """

    source: NodeId
    destination: NodeId
    rate: float
    name: str = ""

    def __post_init__(self) -> None:
        if self.source == self.destination:
            raise TopologyError(
                f"flow source and destination coincide: {self.source!r}"
            )
        # False for NaN as well as for negative or infinite rates.
        if not 0 <= self.rate < math.inf:
            raise TopologyError(
                f"flow {self.label()!r}: rate must be non-negative and "
                f"finite, got {self.rate!r}"
            )

    def scaled(self, factor: float) -> "Flow":
        """The same flow with its rate multiplied by ``factor``."""
        return Flow(self.source, self.destination, self.rate * factor, self.name)

    def label(self) -> str:
        """Human-readable identifier for reports."""
        if self.name:
            return self.name
        return f"{self.source}->{self.destination}"


class TrafficMatrix:
    """The input-rate set :math:`r^i_j`, assembled from flows.

    Multiple flows with the same (source, destination) simply add.
    """

    def __init__(self, flows: Iterable[Flow] = ()) -> None:
        self._flows: list[Flow] = []
        self._rates: dict[NodeId, dict[NodeId, float]] = {}
        for flow in flows:
            self.add(flow)

    def add(self, flow: Flow) -> None:
        """Add one flow's rate into the matrix."""
        self._flows.append(flow)
        per_src = self._rates.setdefault(flow.source, {})
        per_src[flow.destination] = per_src.get(flow.destination, 0.0) + flow.rate

    @property
    def flows(self) -> list[Flow]:
        """The flows as added, in order (figure x-axes use this order)."""
        return list(self._flows)

    def rate(self, source: NodeId, destination: NodeId) -> float:
        """:math:`r^i_j`, zero when absent."""
        return self._rates.get(source, {}).get(destination, 0.0)

    def rates_to(self, destination: NodeId) -> dict[NodeId, float]:
        """All per-source rates toward ``destination``."""
        out: dict[NodeId, float] = {}
        for source, per_dst in self._rates.items():
            r = per_dst.get(destination, 0.0)
            if r > 0:
                out[source] = r
        return out

    def destinations(self) -> list[NodeId]:
        """Destinations with non-zero demand (the "active destinations")."""
        seen: dict[NodeId, None] = {}
        for per_dst in self._rates.values():
            for dst, r in per_dst.items():
                if r > 0:
                    seen[dst] = None
        return list(seen)

    def sources(self) -> list[NodeId]:
        """Sources with non-zero demand."""
        return [
            src
            for src, per_dst in self._rates.items()
            if any(r > 0 for r in per_dst.values())
        ]

    def total_rate(self) -> float:
        """Total input rate :math:`\\sum_{i,j} r^i_j` (packets/s)."""
        return sum(sum(per_dst.values()) for per_dst in self._rates.values())

    def scaled(self, factor: float) -> "TrafficMatrix":
        """A new matrix with every flow rate multiplied by ``factor``."""
        return TrafficMatrix(flow.scaled(factor) for flow in self._flows)

    def validate_against(self, topo: Topology) -> None:
        """Check every endpoint exists in ``topo``."""
        for flow in self._flows:
            for node in (flow.source, flow.destination):
                if not topo.has_node(node):
                    raise TopologyError(
                        f"flow {flow.label()} references unknown node {node!r}"
                    )

    def __iter__(self) -> Iterator[Flow]:
        return iter(self._flows)

    def __len__(self) -> int:
        return len(self._flows)

    def __repr__(self) -> str:
        return (
            f"TrafficMatrix(flows={len(self._flows)}, "
            f"total={self.total_rate():.3g} pkt/s)"
        )


def paper_flows(
    pairs: Sequence[tuple[NodeId, NodeId]],
    rates: Sequence[float] | float,
) -> TrafficMatrix:
    """Build a matrix from (source, destination) pairs and rates.

    ``rates`` may be one rate for all pairs or a per-pair sequence.  Flows
    are named ``f0, f1, ...`` in pair order, matching the paper's flow-id
    axes.
    """
    if isinstance(rates, (int, float)):
        rates = [float(rates)] * len(pairs)
    if len(rates) != len(pairs):
        raise TopologyError(
            f"{len(pairs)} pairs but {len(rates)} rates were given"
        )
    return TrafficMatrix(
        Flow(src, dst, rate, name=f"f{idx}")
        for idx, ((src, dst), rate) in enumerate(zip(pairs, rates))
    )


def uniform_random_rates(
    pairs: Sequence[tuple[NodeId, NodeId]],
    low: float,
    high: float,
    seed: int = 0,
) -> TrafficMatrix:
    """Flows with rates drawn uniformly from ``[low, high]``.

    Matches the paper's description of flow bandwidths "in the range
    x–y Mb/s"; the seed fixes the draw for reproducibility.
    """
    if not 0 <= low <= high:
        raise TopologyError(f"invalid rate range [{low!r}, {high!r}]")
    rng = random.Random(seed)
    rates = [rng.uniform(low, high) for _ in pairs]
    return paper_flows(pairs, rates)
