"""Pluggable transport layer under the protocol driver.

The paper's correctness results (Theorems 1-4) rest on the assumption
that "messages transmitted over an operational link are received
correctly and in the proper sequence within a finite time".  Historically
the driver hard-coded that ideal with per-link FIFO deques; this module
turns the delivery model into an explicit, swappable layer so the
assumption can be *tested* instead of trusted:

- :class:`PerfectChannel` — the paper's model verbatim (lossless,
  in-order, immediate).  The default; byte-identical to the historical
  driver behavior.
- :class:`FaultyChannel` — a seeded adversarial wire: configurable loss,
  duplication, bounded reordering, delivery-delay jitter, and partitions.
  Running MPDA directly over it violates the paper's assumptions and is
  expected to break convergence.
- :class:`ReliableTransport` — a shim that *enforces* the paper's
  delivery assumption over any channel: per-link sequence numbers,
  cumulative ACKs, timeout-driven retransmission with exponential
  backoff, duplicate suppression and in-order release.  MPDA over
  ``ReliableTransport(FaultyChannel(...))`` must converge with a clean
  LFI audit — that is the machine-checked restatement of the paper's
  delivery model.

Time is message-stepped, like the driver itself: the channel clock
advances by one on every frame delivery (:meth:`Transport.pop`) and on
every explicit :meth:`Transport.tick` (which the driver calls only when
nothing is deliverable).  Retransmit timers therefore fire after the
rest of the network drains — the message-driven analogue of "within a
finite time".

Determinism: every random draw comes from the transport's own seeded
``random.Random`` in a fixed order (loss, then duplication, then per
copy reorder/slack, then delay hold), so a (transport seed, driver
seed) pair fully determines a run.
"""

from __future__ import annotations

import random
from bisect import insort
from collections import deque
from dataclasses import dataclass, field

from repro import obs
from repro.exceptions import ConvergenceError, TopologyError
from repro.graph.topology import LinkId

__all__ = [
    "Transport",
    "PerfectChannel",
    "FaultyChannel",
    "ReliableTransport",
    "Segment",
]


class Transport:
    """Contract between :class:`~repro.core.driver.ProtocolDriver` and
    the wire.

    A transport carries opaque message objects over directed links.  The
    driver calls, in order: :meth:`attach` once with every directed link
    of the topology, then :meth:`send` / :meth:`busy_links` /
    :meth:`pop` while pumping, :meth:`tick` when nothing is deliverable
    but :meth:`pending` says work remains, and :meth:`link_down` /
    :meth:`link_up` on duplex topology events.
    """

    def attach(self, links: list[LinkId]) -> None:
        raise NotImplementedError

    def send(self, link: LinkId, message: object) -> None:
        """Queue ``message`` on the directed ``link``."""
        raise NotImplementedError

    def busy_links(self) -> list[LinkId]:
        """Links with a frame deliverable *now* (stable order)."""
        raise NotImplementedError

    def pop(self, link: LinkId) -> list[object]:
        """Deliver one frame from ``link``; the payload messages (if
        any) that the receiving router must process, in order."""
        raise NotImplementedError

    def pending(self) -> int:
        """Undelivered obligations; 0 means the wire is quiet."""
        raise NotImplementedError

    def tick(self) -> None:
        """Advance the channel clock when nothing is deliverable."""
        raise NotImplementedError

    def link_down(self, a: object, b: object) -> None:
        """The duplex link ``a <-> b`` failed; drop in-flight state."""
        raise NotImplementedError

    def link_up(self, a: object, b: object) -> None:
        """The duplex link ``a <-> b`` came (back) up."""
        raise NotImplementedError

    def has_link(self, link: LinkId) -> bool:
        raise NotImplementedError

    def stats(self) -> dict[str, int]:
        """Cumulative counters (sent, delivered, faults, ...)."""
        raise NotImplementedError


class PerfectChannel(Transport):
    """The paper's delivery assumption verbatim.

    Per-link FIFO queues, no loss, no reordering, no delay: exactly the
    historical driver behavior (trace-for-trace identical under the same
    driver seed).

    The non-empty-queue list is maintained incrementally: a link enters
    the list (at its attach-order position, keeping the order the driver
    seeds its interleaving RNG against) when its queue goes non-empty
    and leaves when it drains, so :meth:`busy_links` is O(1) instead of
    a scan over every queue per delivered frame.
    """

    def __init__(self) -> None:
        self._queues: dict[LinkId, deque] = {}
        self._busy: list[LinkId] = []
        self._order: dict[LinkId, int] = {}
        self.sent = 0
        self.delivered = 0

    def attach(self, links: list[LinkId]) -> None:
        self._queues = {link: deque() for link in links}
        self._order = {link: i for i, link in enumerate(self._queues)}
        self._busy = []

    def send(self, link: LinkId, message: object) -> None:
        queue = self._queues.get(link)
        if queue is not None:
            if not queue:
                insort(self._busy, link, key=self._order.__getitem__)
            queue.append(message)
            self.sent += 1

    def busy_links(self) -> list[LinkId]:
        # The driver's (internal, not mutated) view; identical contents
        # and order to scanning the queues in attach order.
        return self._busy

    def pop(self, link: LinkId) -> list[object]:
        self.delivered += 1
        queue = self._queues[link]
        message = queue.popleft()
        if not queue:
            self._busy.remove(link)
        return [message]

    def pending(self) -> int:
        return sum(len(queue) for queue in self._queues.values())

    def tick(self) -> None:  # pragma: no cover - never reached: busy
        pass  # whenever pending, so the driver has no reason to tick

    def link_down(self, a: object, b: object) -> None:
        for link in ((a, b), (b, a)):
            queue = self._queues[link]
            if queue:
                queue.clear()
                self._busy.remove(link)

    def link_up(self, a: object, b: object) -> None:
        pass

    def has_link(self, link: LinkId) -> bool:
        return link in self._queues

    def stats(self) -> dict[str, int]:
        return {"sent": self.sent, "delivered": self.delivered}


@dataclass(order=True)
class _Frame:
    """One in-flight frame; ordered by (send order + reorder slack)."""

    key: tuple[int, int]  # (seq + slack, seq) — delivery order
    ready_at: int = field(compare=False)  # channel tick it becomes ready
    message: object = field(compare=False)


class FaultyChannel(Transport):
    """A seeded adversarial wire.

    Args:
        seed: for the channel's private RNG (independent of the driver's
            interleaving seed).
        loss: probability a sent frame is silently dropped.
        dup: probability a surviving frame is queued twice.
        reorder: probability a queued copy is given positive *slack* —
            it may be overtaken by later frames.
        jitter: maximum slack; a frame is overtaken by at most
            ``jitter`` later-sent frames (the bounded-reordering TTL).
        delay: maximum delivery-delay, in channel ticks, added per copy;
            a queued frame becomes deliverable at most ``delay`` ticks
            after it was sent.

    :meth:`partition` makes both directions of a link drop every frame,
    queued and newly sent, until :meth:`heal`; the fuzz harness drives
    both from its schedule.  Partitions differ from :meth:`link_down` in
    that the routers are *not* notified — the paper's model has no such
    state, which is exactly why it breaks bare MPDA and why
    :class:`ReliableTransport` exists.
    """

    def __init__(
        self,
        *,
        seed: int = 0,
        loss: float = 0.0,
        dup: float = 0.0,
        reorder: float = 0.0,
        jitter: int = 3,
        delay: int = 0,
    ) -> None:
        for name, p in (("loss", loss), ("dup", dup), ("reorder", reorder)):
            if not 0.0 <= p < 1.0:
                raise ValueError(f"{name} must be in [0, 1), got {p!r}")
        if jitter < 0 or delay < 0:
            raise ValueError("jitter and delay must be non-negative")
        self.loss = loss
        self.dup = dup
        self.reorder = reorder
        self.jitter = jitter
        self.delay = delay
        self._rng = random.Random(seed)
        self._partitioned: set[LinkId] = set()
        self._queues: dict[LinkId, list[_Frame]] = {}
        self._next_seq: dict[LinkId, int] = {}
        self.now = 0
        self.sent = 0
        self.delivered = 0
        self.drops = 0
        self.dups = 0
        self.reorders = 0
        self.partition_drops = 0

    # ------------------------------------------------------------------
    # partitions
    # ------------------------------------------------------------------
    def partition(self, a: object, b: object) -> None:
        """Silently black-hole both directions of ``a <-> b``."""
        for link in ((a, b), (b, a)):
            self._require(link)
            self._partitioned.add(link)
        self._purge_partitioned()

    def heal(self, a: object, b: object) -> None:
        self._partitioned.discard((a, b))
        self._partitioned.discard((b, a))

    def _purge_partitioned(self) -> None:
        """Drop queued frames sitting on a partitioned link.

        Only :meth:`partition` needs this: :meth:`send` drops a frame for
        a partitioned link before queueing it, so a purged queue stays
        empty until :meth:`heal`.
        """
        for link, queue in self._queues.items():
            if queue and link in self._partitioned:
                for frame in queue:
                    self._note_fault(
                        "partition_drop", link, frame.key[1], frame.message
                    )
                self.partition_drops += len(queue)
                queue.clear()

    # ------------------------------------------------------------------
    # the Transport contract
    # ------------------------------------------------------------------
    def attach(self, links: list[LinkId]) -> None:
        self._queues = {link: [] for link in links}
        self._next_seq = dict.fromkeys(links, 0)

    def send(self, link: LinkId, message: object) -> None:
        self._require(link)
        rng = self._rng
        seq = self._next_seq[link]
        self._next_seq[link] = seq + 1
        if link in self._partitioned:
            self.partition_drops += 1
            self._note_fault("partition_drop", link, seq, message)
            return
        if self.loss and rng.random() < self.loss:
            self.drops += 1
            self._note_fault("loss", link, seq, message)
            return
        copies = 1
        if self.dup and rng.random() < self.dup:
            copies = 2
            self.dups += 1
            self._note_fault("dup", link, seq, message)
        queue = self._queues[link]
        for _ in range(copies):
            slack = 0
            if self.reorder and self.jitter and rng.random() < self.reorder:
                slack = rng.randint(1, self.jitter)
                self.reorders += 1
                self._note_fault("reorder", link, seq, message)
            hold = rng.randint(0, self.delay) if self.delay else 0
            frame = _Frame((seq + slack, seq), self.now + hold, message)
            queue.append(frame)
            queue.sort()
            self.sent += 1

    def busy_links(self) -> list[LinkId]:
        # Most attached links hold no frame: skip them before the
        # readiness scan.
        now = self.now
        return [
            link
            for link, queue in self._queues.items()
            if queue and any(frame.ready_at <= now for frame in queue)
        ]

    def pop(self, link: LinkId) -> list[object]:
        queue = self._queues[link]
        self.now += 1
        for idx, frame in enumerate(queue):
            if frame.ready_at < self.now:  # ready at the pre-pop clock
                queue.pop(idx)
                self.delivered += 1
                return [frame.message]
        return []  # pragma: no cover - driver only pops busy links

    def pending(self) -> int:
        return sum(len(queue) for queue in self._queues.values())

    def tick(self) -> None:
        self.now += 1

    def link_down(self, a: object, b: object) -> None:
        self._queues[(a, b)].clear()
        self._queues[(b, a)].clear()

    def link_up(self, a: object, b: object) -> None:
        pass

    def has_link(self, link: LinkId) -> bool:
        return link in self._queues

    def stats(self) -> dict[str, int]:
        return {
            "sent": self.sent,
            "delivered": self.delivered,
            "drops": self.drops,
            "dups": self.dups,
            "reorders": self.reorders,
            "partition_drops": self.partition_drops,
        }

    # ------------------------------------------------------------------
    # internals
    # ------------------------------------------------------------------
    def _require(self, link: LinkId) -> None:
        if link not in self._queues:
            raise TopologyError(f"no link {link!r} in the channel")

    @staticmethod
    def _note_fault(
        op: str, link: LinkId, seq: int, message: object = None
    ) -> None:
        ob = obs.current()
        if ob is None or not ob.tracer.enabled:
            return
        if ob.causal is not None:
            # Tie the fault to the causal event stream: the LSU's
            # process-wide seq is the out-of-band causal tag key (pure
            # ACK segments carry no LSU and are emitted unchanged).
            payload = getattr(message, "payload", message)
            lsu = getattr(payload, "seq", None)
            if lsu is not None:
                ob.tracer.event(
                    "transport_fault", op=op, link=link, seq=seq, lsu=lsu
                )
                return
        ob.tracer.event("transport_fault", op=op, link=link, seq=seq)


@dataclass(frozen=True)
class Segment:
    """One reliable-transport wire frame.

    ``ack`` is cumulative: every data sequence number below it has been
    received (on the reverse direction of the link carrying this frame).
    """

    kind: str  # "data" | "ack"
    seq: int  # data frames: per-link sequence number; ack frames: 0
    ack: int
    payload: object = None


#: Multiplicative backoff applied to a link's retransmit timeout per
#: consecutive timeout, and the ceiling it backs off to, in ticks.
BACKOFF = 2.0
MAX_TIMEOUT = 64


@dataclass
class _SendState:
    next_seq: int = 0
    unacked: dict[int, object] = field(default_factory=dict)
    timer: int = -1  # ticks until retransmit; -1 = disarmed
    timeout: int = 0  # current (backed-off) timeout
    attempts: int = 0  # consecutive timeouts without ACK progress


@dataclass
class _RecvState:
    expected: int = 0
    buffer: dict[int, object] = field(default_factory=dict)


class ReliableTransport(Transport):
    """Enforces the paper's delivery model over an unreliable channel.

    Wraps an inner :class:`Transport` (typically a
    :class:`FaultyChannel`) and presents reliable, in-order,
    duplicate-free delivery to the driver: the routers above never see
    the difference from a :class:`PerfectChannel`, they only pay for it
    in extra wire frames (ACKs and retransmissions).

    Args:
        inner: the raw channel the segments travel over.
        timeout: initial retransmit timeout, in channel ticks; each
            consecutive timeout multiplies it by :data:`BACKOFF`, up to
            :data:`MAX_TIMEOUT`.
        max_retries: consecutive timeouts without ACK progress on one
            link before giving up with a :class:`ConvergenceError` — a
            permanently partitioned link would otherwise retransmit
            forever ("operational link" is the paper's precondition).
    """

    def __init__(
        self,
        inner: Transport | None = None,
        *,
        timeout: int = 8,
        max_retries: int = 30,
    ) -> None:
        if timeout < 1:
            raise ValueError(f"timeout must be >= 1, got {timeout!r}")
        self.inner = inner if inner is not None else FaultyChannel()
        self.timeout = timeout
        self.max_retries = max_retries
        self._send_state: dict[LinkId, _SendState] = {}
        self._recv_state: dict[LinkId, _RecvState] = {}
        self.data_sent = 0
        self.payloads_delivered = 0
        self.retransmits = 0
        self.timeouts = 0
        self.acks_sent = 0
        self.dup_suppressed = 0

    # ------------------------------------------------------------------
    # the Transport contract
    # ------------------------------------------------------------------
    def attach(self, links: list[LinkId]) -> None:
        self.inner.attach(links)
        self._send_state = {link: _SendState() for link in links}
        self._recv_state = {link: _RecvState() for link in links}

    def send(self, link: LinkId, message: object) -> None:
        state = self._send_state[link]
        seq = state.next_seq
        state.next_seq += 1
        state.unacked[seq] = message
        self.data_sent += 1
        if state.timer < 0:
            state.timeout = self.timeout
            state.timer = state.timeout
        self.inner.send(
            link,
            Segment("data", seq, self._recv_state[_reverse(link)].expected,
                    message),
        )

    def busy_links(self) -> list[LinkId]:
        return self.inner.busy_links()

    def pop(self, link: LinkId) -> list[object]:
        delivered: list[object] = []
        for segment in self.inner.pop(link):
            delivered.extend(self._receive(link, segment))
        return delivered

    def pending(self) -> int:
        unacked = sum(
            len(state.unacked) for state in self._send_state.values()
        )
        return self.inner.pending() + unacked

    def tick(self) -> None:
        self.inner.tick()
        for link, state in self._send_state.items():
            if state.timer < 0:
                continue
            state.timer -= 1
            if state.timer <= 0:
                self._on_timeout(link, state)

    def link_down(self, a: object, b: object) -> None:
        self.inner.link_down(a, b)
        for link in ((a, b), (b, a)):
            self._send_state[link] = _SendState()
            self._recv_state[link] = _RecvState()

    def link_up(self, a: object, b: object) -> None:
        self.inner.link_up(a, b)
        for link in ((a, b), (b, a)):
            self._send_state[link] = _SendState()
            self._recv_state[link] = _RecvState()

    def has_link(self, link: LinkId) -> bool:
        return self.inner.has_link(link)

    def stats(self) -> dict[str, int]:
        merged = {
            "data_sent": self.data_sent,
            "payloads_delivered": self.payloads_delivered,
            "retransmits": self.retransmits,
            "timeouts": self.timeouts,
            "acks_sent": self.acks_sent,
            "dup_suppressed": self.dup_suppressed,
        }
        for name, value in self.inner.stats().items():
            merged[f"wire_{name}"] = value
        return merged

    # ------------------------------------------------------------------
    # fault-model passthrough (schedule-driven partitions)
    # ------------------------------------------------------------------
    def partition(self, a: object, b: object) -> None:
        self.inner.partition(a, b)  # type: ignore[attr-defined]

    def heal(self, a: object, b: object) -> None:
        self.inner.heal(a, b)  # type: ignore[attr-defined]

    # ------------------------------------------------------------------
    # protocol internals
    # ------------------------------------------------------------------
    def _receive(self, link: LinkId, segment: Segment) -> list[object]:
        """Process one wire frame arriving on ``link`` at its tail node."""
        reverse = _reverse(link)
        # Every frame carries a cumulative ACK for the reverse direction.
        self._apply_ack(reverse, segment.ack)
        if segment.kind == "ack":
            return []
        state = self._recv_state[link]
        released: list[object] = []
        if segment.seq < state.expected:
            self.dup_suppressed += 1  # old duplicate; re-ACK below
        elif segment.seq == state.expected:
            released.append(segment.payload)
            state.expected += 1
            while state.expected in state.buffer:
                released.append(state.buffer.pop(state.expected))
                state.expected += 1
        elif segment.seq in state.buffer:
            self.dup_suppressed += 1
        else:
            state.buffer[segment.seq] = segment.payload  # out of order
        self.payloads_delivered += len(released)
        self._send_ack(reverse, state.expected)
        return released

    def _apply_ack(self, link: LinkId, ack: int) -> None:
        """Cumulative ACK: everything below ``ack`` reached the peer."""
        state = self._send_state[link]
        acked = [seq for seq in state.unacked if seq < ack]
        if not acked:
            return
        for seq in acked:
            del state.unacked[seq]
        state.attempts = 0
        state.timeout = self.timeout
        state.timer = state.timeout if state.unacked else -1

    def _send_ack(self, link: LinkId, expected: int) -> None:
        self.acks_sent += 1
        self.inner.send(link, Segment("ack", 0, expected))

    def _on_timeout(self, link: LinkId, state: _SendState) -> None:
        """Retransmit everything unacked on ``link``, with backoff."""
        self.timeouts += 1
        state.attempts += 1
        if state.attempts > self.max_retries:
            raise ConvergenceError(
                f"link {link!r}: no ACK progress after "
                f"{self.max_retries} retransmit timeouts (link "
                "partitioned or loss too high?)"
            )
        ack = self._recv_state[_reverse(link)].expected
        for seq in sorted(state.unacked):
            self.inner.send(
                link, Segment("data", seq, ack, state.unacked[seq])
            )
            self.retransmits += 1
        state.timeout = min(int(state.timeout * BACKOFF) or 1, MAX_TIMEOUT)
        state.timer = state.timeout
        ob = obs.current()
        if ob is not None and ob.tracer.enabled:
            ob.tracer.event(
                "retransmit",
                link=link,
                frames=len(state.unacked),
                attempt=state.attempts,
            )


def _reverse(link: LinkId) -> LinkId:
    head, tail = link
    return (tail, head)
