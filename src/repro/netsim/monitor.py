"""Measurement: per-link windows and per-flow end-to-end statistics.

Links are measured over windows (the paper's ``Ts`` / ``Tl`` intervals):
each window yields the average flow and the average per-packet delay
through the link, which is exactly the :class:`~repro.core.costs.Measurement`
the cost estimators consume.  Flow statistics accumulate end-to-end
delays per flow — the quantity all the paper's figures plot.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.core.costs import Measurement
from repro.exceptions import SimulationError
from repro.graph.topology import NodeId
from repro.netsim.packet import Packet
from repro.obs.metrics import Histogram


class LinkMonitor:
    """Windowed flow/delay measurement of one directed link.

    ``record`` is called by the link at each packet departure with the
    packet's queueing wait and transmission (service) time — kept
    separately so end-to-end delay decomposes into queueing vs
    transmission vs propagation; ``take_window`` closes the current
    window and returns its measurement.
    """

    def __init__(self, prop_delay: float) -> None:
        self.prop_delay = prop_delay
        self._window_start = 0.0
        self._packets = 0
        self._delay_sum = 0.0
        self.total_packets = 0
        #: Cumulative (whole-run) delay components in seconds.
        self.total_wait_s = 0.0
        self.total_service_s = 0.0
        self.total_prop_s = 0.0

    def record(
        self, wait_s: float, service_s: float, propagated: bool = True
    ) -> None:
        self._packets += 1
        self._delay_sum += wait_s + service_s
        self.total_packets += 1
        self.total_wait_s += wait_s
        self.total_service_s += service_s
        if propagated:
            self.total_prop_s += self.prop_delay

    def take_window(self, now: float) -> Measurement:
        """Close the window ending at ``now`` and return its measurement.

        The per-unit delay includes the propagation term so the measured
        cost is comparable to the analytic :math:`D'` (which also does).
        An empty window reports zero flow and the idle delay.
        """
        duration = now - self._window_start
        if duration <= 0:
            raise SimulationError(
                f"empty measurement window at t={now!r}"
            )
        flow = self._packets / duration
        if self._packets:
            per_unit = self._delay_sum / self._packets + self.prop_delay
        else:
            per_unit = self.prop_delay
        self._window_start = now
        self._packets = 0
        self._delay_sum = 0.0
        return Measurement(flow=flow, per_unit_delay=per_unit)


@dataclass
class FlowRecord:
    """Accumulated statistics of one flow."""

    delivered: int = 0
    delay_sum: float = 0.0
    max_delay: float = 0.0

    @property
    def mean_delay(self) -> float:
        return self.delay_sum / self.delivered if self.delivered else 0.0


@dataclass
class FlowMonitor:
    """End-to-end delivery statistics, per flow and aggregate."""

    flows: dict[str, FlowRecord] = field(default_factory=dict)
    injected: dict[str, int] = field(default_factory=dict)
    no_route_drops: int = 0
    #: Packets lost at the link layer: queue-overflow drops under a
    #: finite ``queue_limit`` plus packets destroyed by a link failure.
    queue_drops: int = 0
    #: End-to-end delay quantile sketch; attached by the network when an
    #: observation is active (None keeps the unobserved path free).
    delay_hist: Histogram | None = None

    def note_injected(self, flow: str) -> None:
        self.injected[flow] = self.injected.get(flow, 0) + 1

    def note_no_route(self) -> None:
        self.no_route_drops += 1

    def note_queue_drop(self) -> None:
        self.queue_drops += 1

    def note_delivered(self, packet: Packet, now: float) -> None:
        record = self.flows.get(packet.flow)
        if record is None:
            record = self.flows[packet.flow] = FlowRecord()
        delay = now - packet.created_at
        record.delivered += 1
        record.delay_sum += delay
        if delay > record.max_delay:
            record.max_delay = delay
        if self.delay_hist is not None:
            self.delay_hist.observe(delay)

    def mean_delays(self) -> dict[str, float]:
        """Per-flow mean end-to-end delay in seconds."""
        return {name: rec.mean_delay for name, rec in self.flows.items()}

    def total_delivered(self) -> int:
        return sum(rec.delivered for rec in self.flows.values())

    def total_injected(self) -> int:
        return sum(self.injected.values())

    def total_dropped(self) -> int:
        return self.no_route_drops + self.queue_drops

    def in_flight(self) -> int:
        """Packets injected but not delivered (and not dropped)."""
        return (
            self.total_injected()
            - self.total_delivered()
            - self.no_route_drops
            - self.queue_drops
        )


#: A packet that crosses this many times the network size in hops is
#: almost surely looping; the simulator raises rather than spinning.
HOP_LIMIT_FACTOR = 8


def hop_limit(num_nodes: int) -> int:
    return max(32, HOP_LIMIT_FACTOR * num_nodes)


def check_hop_limit(packet: Packet, num_nodes: int, node: NodeId) -> None:
    if packet.hops > hop_limit(num_nodes):
        raise SimulationError(
            f"{packet!r} exceeded {hop_limit(num_nodes)} hops at {node!r}; "
            "the routing plane is forwarding in a loop"
        )
