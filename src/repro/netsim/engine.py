"""Discrete-event simulation engine.

A binary heap of plain ``(time, seq, callback)`` tuples.  ``heapq``
compares them in C; ``seq`` is unique, so a comparison never reaches
the callback, and ties in time break on scheduling order, which keeps
runs fully deterministic.  Events cannot be cancelled: a component that
no longer wants a callback checks its own state when it fires (the
traffic sources check their window).

The engine is deliberately callback-based rather than coroutine-based:
the simulator's components (links, sources) are state machines, and
callbacks keep the hot path free of generator overhead.
"""

from __future__ import annotations

import itertools
import math
from collections.abc import Callable
from heapq import heappop, heappush
from time import perf_counter

from repro import obs
from repro.exceptions import SimulationError

Callback = Callable[[], None]


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
        self._heap: list[tuple[float, int, Callback]] = []
        self._seq = itertools.count()
        #: Events fired so far, added up at the end of each ``run``.
        self.processed = 0

    def schedule(self, delay: float, callback: Callback) -> None:
        """Run ``callback`` after ``delay`` simulated seconds."""
        # Negated so that NaN, for which every comparison is False,
        # fails too instead of breaking the heap order.
        if not delay >= 0:
            raise SimulationError(f"delay must be >= 0, got {delay!r}")
        heappush(self._heap, (self.now + delay, next(self._seq), callback))

    def schedule_at(self, time: float, callback: Callback) -> None:
        """Run ``callback`` at absolute simulated time ``time``."""
        if not time >= self.now:
            raise SimulationError(
                f"cannot schedule at {time!r}, now is {self.now!r}"
            )
        heappush(self._heap, (time, next(self._seq), callback))

    # ------------------------------------------------------------------
    # running
    # ------------------------------------------------------------------
    def run(self, until: float | None = None) -> None:
        """Process events until the calendar empties or the next one is
        due after ``until`` (the clock is then advanced to it).

        When an observation is active, the whole dispatch loop is timed
        under the ``netsim.engine.run`` phase and the number of events
        processed is counted — aggregate instrumentation, so the
        per-event hot path stays untouched either way.
        """
        if until is not None and math.isnan(until):
            raise SimulationError("cannot run until nan")
        ob = obs.current()
        if ob is None:
            self._run(until)
            return
        before = self.processed
        depth_gauge = ob.metrics.gauge("netsim.engine.queue_depth")
        # The heap holds exactly the events still due to fire.
        depth_gauge.set(len(self._heap))
        started = perf_counter()
        with ob.timers.phase("netsim.engine.run"):
            self._run(until)
        elapsed = perf_counter() - started
        depth_gauge.set(len(self._heap))
        done = self.processed - before
        ob.metrics.counter("netsim.engine.events").inc(done)
        if done and elapsed > 0:
            ob.metrics.gauge("netsim.engine.events_per_second").set(
                done / elapsed
            )

    def _run(self, until: float | None) -> None:
        heap = self._heap
        horizon = math.inf if until is None else until
        fired = 0
        try:
            while heap and heap[0][0] <= horizon:
                self.now, _, callback = heappop(heap)
                callback()
                fired += 1
        finally:
            self.processed += fired
        if until is not None and until > self.now:
            self.now = until
