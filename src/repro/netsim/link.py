"""Simulated links: FIFO queue, transmission, propagation.

A :class:`SimLink` is one *direction* of a physical link.  Service times
are exponential with mean :math:`1/C`, so a Poisson-fed link is an M/M/1
queue — matching the delay law the paper's cost function assumes
(Eq. 24).
"""

from __future__ import annotations

import random
from collections.abc import Callable
from functools import partial

from repro.graph.topology import Link
from repro.netsim.engine import Engine
from repro.netsim.monitor import LinkMonitor
from repro.netsim.packet import Packet
from repro.netsim.queueing import FIFOQueue

DeliverFn = Callable[[Packet], None]


class SimLink:
    """One directed link in the simulator.

    Args:
        engine: the event engine.
        link: the topology link (capacity in packets/s, prop delay in s).
        deliver: callback invoked at the receiving node when a packet
            finishes propagation.
        rng: random source for the exponential service times.
        queue_capacity: None for the paper's lossless model.
        on_drop: invoked once per packet this link destroys (queue
            overflow or link failure), so end-to-end accounting stays
            balanced under finite buffers.
    """

    def __init__(
        self,
        engine: Engine,
        link: Link,
        deliver: DeliverFn,
        rng: random.Random,
        *,
        queue_capacity: int | None = None,
        on_drop: Callable[[], None] | None = None,
    ) -> None:
        self.engine = engine
        self.link = link
        self.deliver = deliver
        self.queue = FIFOQueue(queue_capacity)
        self.on_drop = on_drop
        self.monitor = LinkMonitor(link.prop_delay)
        self.busy = False
        self.up = True
        self.busy_time = 0.0
        self._service_started = 0.0
        # A link's attributes never change: read them once, not per packet.
        self._prop_delay = link.prop_delay
        self._service_time = partial(rng.expovariate, link.capacity)

    # ------------------------------------------------------------------
    def send(self, packet: Packet) -> None:
        """Hand a packet to this link at the current simulated time."""
        if not self.up:
            self.queue.dropped += 1
            self._note_drop()
            return
        now = self.engine.now
        if self.busy:
            if not self.queue.push(packet, now):
                self._note_drop()
        else:
            self._begin_service(packet, now)

    def _note_drop(self) -> None:
        if self.on_drop is not None:
            self.on_drop()

    def _begin_service(self, packet: Packet, arrived: float) -> None:
        self.busy = True
        self._service_started = self.engine.now
        self.engine.schedule(
            self._service_time(), partial(self._finish_service, packet, arrived)
        )

    def _finish_service(self, packet: Packet, arrived: float) -> None:
        now = self.engine.now
        self.busy_time += now - self._service_started
        # Queueing wait ends when service begins; the split feeds the
        # end-to-end delay decomposition in the run reports.
        self.monitor.record(
            self._service_started - arrived,
            now - self._service_started,
            propagated=self.up,
        )
        if self.up:
            self.engine.schedule(self._prop_delay, partial(self.deliver, packet))
        else:
            self._note_drop()  # lost with the link mid-transmission
        if self.queue:
            next_packet, enqueue_time = self.queue.pop()
            self._begin_service(next_packet, enqueue_time)
        else:
            self.busy = False

    # ------------------------------------------------------------------
    def fail(self) -> None:
        """Take the link down; queued packets are dropped."""
        self.up = False
        while self.queue:
            self.queue.pop()
            self.queue.dropped += 1
            self._note_drop()

    def restore(self) -> None:
        self.up = True

    def utilization(self, elapsed: float) -> float:
        """Fraction of ``elapsed`` spent transmitting."""
        if elapsed <= 0:
            return 0.0
        busy = self.busy_time
        if self.busy:
            busy += self.engine.now - self._service_started
        return busy / elapsed
