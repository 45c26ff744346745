"""Traffic sources for the packet simulator.

- :class:`PoissonSource` — Poisson packet arrivals at a fixed mean rate;
  the stationary workload of the paper's Section 5.1 experiments.
- :class:`ScheduledSource` — on/off bursts replaying *precomputed*
  (start, end) windows, so a
  :class:`~repro.sim.scenario.BurstyScenario`'s schedule (the "very
  bursty" dynamic traffic the paper argues single-path routing handles
  poorly) plays out identically on the fluid and packet planes.

All sources take an injection callback ``inject(packet)`` so they are
independent of the network plumbing, and an explicit ``random.Random``
for reproducibility.
"""

from __future__ import annotations

import random
from collections.abc import Callable

from repro.exceptions import SimulationError
from repro.fluid.flows import Flow
from repro.netsim.engine import Engine
from repro.netsim.packet import Packet

InjectFn = Callable[[Packet], None]


class _SourceBase:
    """Common lifecycle: start/stop window, packet construction."""

    def __init__(
        self,
        engine: Engine,
        inject: InjectFn,
        flow: Flow,
        *,
        start: float = 0.0,
        stop: float | None = None,
    ) -> None:
        if stop is not None and stop < start:
            raise SimulationError(f"stop {stop!r} before start {start!r}")
        self.engine = engine
        self.inject = inject
        self.flow = flow
        self.label = flow.label()
        self.start = start
        self.stop = stop
        self.emitted = 0

    def _within_window(self) -> bool:
        return self.stop is None or self.engine.now < self.stop

    def _emit(self) -> None:
        packet = Packet(
            self.label,
            self.flow.source,
            self.flow.destination,
            self.engine.now,
        )
        self.emitted += 1
        self.inject(packet)


class PoissonSource(_SourceBase):
    """Poisson arrivals at ``flow.rate`` packets/s."""

    def __init__(
        self,
        engine: Engine,
        inject: InjectFn,
        flow: Flow,
        rng: random.Random,
        *,
        start: float = 0.0,
        stop: float | None = None,
    ) -> None:
        super().__init__(engine, inject, flow, start=start, stop=stop)
        self.rng = rng
        if flow.rate > 0:
            engine.schedule_at(start + self._gap(), self._fire)

    def _gap(self) -> float:
        return self.rng.expovariate(self.flow.rate)

    def _fire(self) -> None:
        if not self._within_window():
            return
        self._emit()
        self.engine.schedule(self._gap(), self._fire)


class ScheduledSource(_SourceBase):
    """Poisson arrivals at ``peak_rate`` during precomputed on-periods.

    The on/off pattern is given as explicit ``(start, end)`` windows —
    only the packet arrival times within a window are random.
    """

    def __init__(
        self,
        engine: Engine,
        inject: InjectFn,
        flow: Flow,
        rng: random.Random,
        *,
        periods: list[tuple[float, float]],
        peak_rate: float,
        stop: float | None = None,
    ) -> None:
        super().__init__(engine, inject, flow, stop=stop)
        if peak_rate <= 0:
            raise SimulationError(
                f"scheduled source needs a positive peak rate, "
                f"got {peak_rate!r}"
            )
        self.rng = rng
        self.peak_rate = peak_rate
        self.on_until = 0.0
        for start, end in periods:
            if end <= start:
                raise SimulationError(
                    f"empty on-period ({start!r}, {end!r})"
                )
            if stop is not None and start >= stop:
                break
            engine.schedule_at(start, self._begin_closure(end))

    def _begin_closure(self, end: float):
        return lambda: self._begin_on(end)

    def _begin_on(self, end: float) -> None:
        if not self._within_window():
            return
        self.on_until = end
        self.engine.schedule(self.rng.expovariate(self.peak_rate), self._fire)

    def _fire(self) -> None:
        if not self._within_window() or self.engine.now > self.on_until:
            return
        self._emit()
        self.engine.schedule(self.rng.expovariate(self.peak_rate), self._fire)
