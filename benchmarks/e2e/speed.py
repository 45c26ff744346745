"""Samples how fast the machine runs while a pass runs.

Wall and CPU time of identical passes drift by 10-20% over minutes on a
shared 2-vCPU VM, while steal time stays near zero: the processor
itself runs slower at times, in bursts from well under a second to
minutes long.  A :class:`Sampler` times a fixed one-millisecond probe
every :data:`INTERVAL_S` of the process's CPU time (``SIGPROF``), so
its samples spread evenly over the pass.  The benchmark divides its
``norm_*`` metrics by :meth:`Sampler.speed`, which cancels most of the
drift (README.md, "Machine-speed probe"), and times passes and trace
spans with :meth:`Sampler.clock`, which leaves the probes out.

The probe shares no code with the program under test, so a change to
the program cannot move it, and it does the kind of work the program
does: a heap-based Dijkstra over a dict-of-dicts graph and a loop over
small objects.  The collector is off while a probe runs, so the size of
the heap the pass has built does not slow it.
"""

from __future__ import annotations

import gc
import heapq
import random
import signal
import statistics
import time

#: Typical probe time inside a pass on the reference machine (2-vCPU
#: Intel Xeon VM, CPython 3.11, idle).  Scaled metrics read as if
#: measured there.
REFERENCE_S = 0.0013
#: Process CPU time between two probes.
INTERVAL_S = 0.1
#: A pass too short for this many probes is topped up after it ends.
MIN_SAMPLES = 5
#: Samples are capped at this multiple of their median before they are
#: averaged: a slow phase counts in full, a rare stall of the process
#: does not dominate.
CAP = 1.5


class _Event:
    __slots__ = ("time", "node", "value")

    def __init__(self, time: float, node: int, value: float) -> None:
        self.time = time
        self.node = node
        self.value = value


def _graph(nodes: int = 120) -> dict[int, dict[int, float]]:
    rng = random.Random(1)
    graph: dict[int, dict[int, float]] = {node: {} for node in range(nodes)}
    for node in range(nodes):
        for _ in range(2):
            other = rng.randrange(nodes)
            if other != node:
                graph[node][other] = graph[other][node] = rng.random()
    return graph


def _probe(graph: dict[int, dict[int, float]]) -> float:
    """Seconds one fixed unit of pure-Python work takes right now."""
    started = time.perf_counter()
    total = 0.0
    for source in range(4):
        dist = {source: 0.0}
        heap = [(0.0, source)]
        while heap:
            d, node = heapq.heappop(heap)
            if d > dist[node]:
                continue
            for other, weight in graph[node].items():
                candidate = d + weight
                if candidate < dist.get(other, float("inf")):
                    dist[other] = candidate
                    heapq.heappush(heap, (candidate, other))
        total += sum(dist.values())
    sums: dict[int, float] = {}
    for i in range(2000):
        event = _Event(0.5 * i, i % 97, float(i))
        sums[event.node] = sums.get(event.node, 0.0) + event.value
    if total <= 0 or not sums:
        raise RuntimeError("speed probe computed nothing")
    return time.perf_counter() - started


class Sampler:
    """Probes the machine's speed while the ``with`` block runs."""

    def __init__(self) -> None:
        self.samples: list[float] = []
        #: seconds the probes took inside the block
        self.spent_s = 0.0
        self._graph = _graph()
        self._busy = False
        self._previous = None

    def _sample(self) -> float:
        enabled = gc.isenabled()
        gc.disable()
        try:
            seconds = _probe(self._graph)
        finally:
            if enabled:
                gc.enable()
        self.samples.append(seconds)
        return seconds

    def _on_signal(self, _signum, _frame) -> None:
        if self._busy:  # a probe outlasted the interval
            return
        self._busy = True
        started = time.perf_counter()
        try:
            self._sample()
        finally:
            self.spent_s += time.perf_counter() - started
            self._busy = False

    def __enter__(self) -> Sampler:
        self._previous = signal.signal(signal.SIGPROF, self._on_signal)
        signal.setitimer(signal.ITIMER_PROF, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_PROF, 0.0)
        signal.signal(signal.SIGPROF, self._previous)

    def clock(self) -> float:
        """``perf_counter`` minus the time the probes have taken so far.

        Pass times and trace spans read this clock, so a probe that
        interrupts a span adds nothing to it.
        """
        return time.perf_counter() - self.spent_s

    def speed(self) -> float:
        """The machine's speed relative to the reference (>1: faster).

        Call it after the block, outside the timed region: a short pass
        is topped up with probes here.
        """
        while len(self.samples) < MIN_SAMPLES:
            self._sample()
        cap = CAP * statistics.median(self.samples)
        return REFERENCE_S / statistics.mean(min(s, cap) for s in self.samples)
