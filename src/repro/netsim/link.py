"""Simulated links: FIFO queue, transmission, propagation.

A :class:`SimLink` is one *direction* of a physical link.  Service times
are exponential with mean :math:`1/C`, so a Poisson-fed link is an M/M/1
queue — matching the delay law the paper's cost function assumes
(Eq. 24).

A link transmits one packet at a time: the packet in service and its
arrival time sit in one slot, and one pre-bound completion method is
scheduled per transmission, so a packet costs two events on each hop —
its service completion and its delivery to the next router.
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
        self.up = True
        self.busy_time = 0.0
        #: The packet being transmitted (None when idle), when it
        #: reached this link, and when its transmission began.
        self._in_service: Packet | None = None
        self._arrived = 0.0
        self._service_started = 0.0
        # A link's attributes never change: read them once, not per packet.
        self._prop_delay = link.prop_delay
        self._service_time = partial(rng.expovariate, link.capacity)
        # Bound once, scheduled for every transmission.
        self._finish = self._finish_service

    # ------------------------------------------------------------------
    def send(self, packet: Packet) -> None:
        """Hand a packet to this link at the current simulated time."""
        if not self.up:
            self.queue.dropped += 1
            self._note_drop()
            return
        now = self.engine.now
        if self._in_service is not None:
            if not self.queue.push(packet, now):
                self._note_drop()
            return
        self._in_service = packet
        self._arrived = self._service_started = now
        self.engine.schedule(self._service_time(), self._finish)

    def _note_drop(self) -> None:
        if self.on_drop is not None:
            self.on_drop()

    def _finish_service(self) -> None:
        """The packet in service is transmitted: propagate it, or drop
        it if the link went down meanwhile, and serve the next one."""
        engine = self.engine
        now = engine.now
        started = self._service_started
        self.busy_time += now - started
        # Queueing wait ends when service begins; the split feeds the
        # end-to-end delay decomposition in the run reports.
        self.monitor.record(started - self._arrived, now - started, self.up)
        if self.up:
            engine.schedule(
                self._prop_delay, partial(self.deliver, self._in_service)
            )
        else:
            self._note_drop()  # lost with the link mid-transmission
        if self.queue:
            self._in_service, self._arrived = self.queue.pop()
            self._service_started = now
            engine.schedule(self._service_time(), self._finish)
        else:
            self._in_service = None

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
        if self._in_service is not None:
            busy += self.engine.now - self._service_started
        return busy / elapsed
