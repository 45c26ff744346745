"""Discrete-event simulation engine.

A classic calendar-queue design: a binary heap of (time, seq) ordered
events, each holding a zero-argument callback.  Ties in time break on
scheduling order, which keeps runs fully deterministic.

The engine is deliberately callback-based rather than coroutine-based:
the simulator's components (links, sources, timers) are state machines,
and callbacks keep the hot path free of generator overhead.
"""

from __future__ import annotations

import heapq
import itertools
from collections.abc import Callable
from dataclasses import dataclass, field
from time import perf_counter

from repro import obs
from repro.exceptions import SimulationError

Callback = Callable[[], None]


@dataclass(order=True)
class _ScheduledEvent:
    time: float
    seq: int
    callback: Callback = field(compare=False)
    cancelled: bool = field(default=False, compare=False)
    fired: bool = field(default=False, compare=False)


class EventHandle:
    """Returned by :meth:`Engine.schedule`; allows cancellation."""

    __slots__ = ("_event", "_engine")

    def __init__(self, event: _ScheduledEvent, engine: "Engine") -> None:
        self._event = event
        self._engine = engine

    def cancel(self) -> None:
        """Prevent the event from firing (no-op if it already fired)."""
        event = self._event
        if not event.cancelled:
            event.cancelled = True
            if not event.fired:
                # The tombstone stays in the heap (lazy deletion) but no
                # longer counts as pending work.
                self._engine._live -= 1

    @property
    def time(self) -> float:
        return self._event.time

    @property
    def active(self) -> bool:
        return not self._event.cancelled


class Engine:
    """The event loop.

    Typical use::

        engine = Engine()
        engine.schedule(1.5, fire)          # relative delay
        engine.schedule_at(10.0, finish)    # absolute time
        engine.run(until=60.0)
    """

    def __init__(self) -> None:
        self.now = 0.0
        self._heap: list[_ScheduledEvent] = []
        self._seq = itertools.count()
        self.processed = 0
        self._live = 0  # scheduled, not yet fired, not cancelled

    def schedule(self, delay: float, callback: Callback) -> EventHandle:
        """Run ``callback`` after ``delay`` simulated seconds."""
        if delay < 0:
            raise SimulationError(f"cannot schedule in the past: {delay!r}")
        return self.schedule_at(self.now + delay, callback)

    def schedule_at(self, time: float, callback: Callback) -> EventHandle:
        """Run ``callback`` at absolute simulated time ``time``."""
        if time < self.now:
            raise SimulationError(
                f"cannot schedule at {time!r}, now is {self.now!r}"
            )
        heap = self._heap
        if len(heap) > 64 and len(heap) > 2 * self._live:
            # Mostly tombstones: compact before growing further.  The
            # total order on (time, seq) is unchanged, so pop order
            # after heapify is identical to lazy-deletion order.
            heap[:] = [e for e in heap if not e.cancelled]
            heapq.heapify(heap)
        event = _ScheduledEvent(time, next(self._seq), callback)
        heapq.heappush(heap, event)
        self._live += 1
        return EventHandle(event, self)

    def every(
        self,
        interval: float,
        callback: Callback,
        *,
        start: float | None = None,
    ) -> EventHandle:
        """Run ``callback`` periodically (first firing at ``start`` or
        one interval from now).  Returns the handle of the *next* firing;
        cancelling it stops the series."""
        if interval <= 0:
            raise SimulationError(f"interval must be positive: {interval!r}")
        state: dict[str, EventHandle] = {}

        def fire() -> None:
            callback()
            state["handle"] = self.schedule(interval, fire)

        first = start if start is not None else self.now + interval
        state["handle"] = self.schedule_at(first, fire)

        class _Periodic(EventHandle):
            def __init__(self) -> None:  # noqa: D401 - thin proxy
                pass

            def cancel(self) -> None:
                state["handle"].cancel()

            @property
            def time(self) -> float:
                return state["handle"].time

            @property
            def active(self) -> bool:
                return state["handle"].active

        return _Periodic()

    # ------------------------------------------------------------------
    # running
    # ------------------------------------------------------------------
    def step(self) -> bool:
        """Process the next event; False when the calendar is empty."""
        while self._heap:
            event = heapq.heappop(self._heap)
            if event.cancelled:
                continue
            event.fired = True
            self._live -= 1
            self.now = event.time
            event.callback()
            self.processed += 1
            return True
        return False

    def run(
        self, until: float | None = None, max_events: int | None = None
    ) -> None:
        """Process events until the calendar empties, ``until`` is
        reached (the clock is then advanced to it), or ``max_events``.

        When an observation is active, the whole dispatch loop is timed
        under the ``netsim.engine.run`` phase and the number of events
        processed is counted — aggregate instrumentation, so the
        per-event hot path stays untouched either way.
        """
        ob = obs.current()
        if ob is None:
            self._run(until, max_events)
            return
        before = self.processed
        depth_gauge = ob.metrics.gauge("netsim.engine.queue_depth")
        # len(_heap) counts cancelled tombstones too — a cheap O(1)
        # reading of how much calendar the heap actually holds, which
        # is what memory and heap-op costs scale with.
        depth_gauge.set(len(self._heap))
        started = perf_counter()
        with ob.timers.phase("netsim.engine.run"):
            self._run(until, max_events)
        elapsed = perf_counter() - started
        depth_gauge.set(len(self._heap))
        done = self.processed - before
        ob.metrics.counter("netsim.engine.events").inc(done)
        if done and elapsed > 0:
            ob.metrics.gauge("netsim.engine.events_per_second").set(
                done / elapsed
            )

    def _run(
        self, until: float | None = None, max_events: int | None = None
    ) -> None:
        budget = max_events if max_events is not None else float("inf")
        done = 0
        while self._heap and done < budget:
            head = self._heap[0]
            if head.cancelled:
                heapq.heappop(self._heap)
                continue
            if until is not None and head.time > until:
                break
            if not self.step():
                break
            done += 1
        if max_events is not None and done >= budget and self._heap:
            raise SimulationError(f"exceeded event budget of {max_events}")
        if until is not None and until > self.now:
            self.now = until

    def pending(self) -> int:
        """Events scheduled and still due to fire (O(1) counter)."""
        return self._live
