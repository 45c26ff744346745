"""Result containers for simulation runs."""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.exceptions import SimulationError
from repro.units import ms


@dataclass
class EpochRecord:
    """One measurement epoch of a quasi-static run."""

    time: float
    total_delay: float
    average_delay: float
    flow_delays: dict[str, float]
    max_utilization: float
    #: Optional lightweight per-epoch observability readings (route
    #: update and allocation counters so far); populated only when an
    #: observation is active.
    metrics: dict[str, float] | None = None


@dataclass
class RunResult:
    """A completed run: the epoch series plus identifying metadata.

    ``label`` follows the paper's plot-key convention, e.g.
    ``MP-TL-10-TS-2`` or ``SP-TL-10``.
    """

    label: str
    scenario: str
    records: list[EpochRecord] = field(default_factory=list)
    warmup: float = 0.0
    #: Which data plane produced the records ("fluid" / "packet"; ""
    #: for results built outside the controller, e.g. OPT).
    plane: str = ""
    protocol_stats: dict[str, int] = field(default_factory=dict)
    #: Snapshot of the active observation at run end (``{"metrics": ...,
    #: "timings": ...}``); ``None`` when observability was disabled.
    metrics: dict | None = None

    def _steady(self) -> list[EpochRecord]:
        steady = [r for r in self.records if r.time >= self.warmup]
        if not steady:
            raise SimulationError(
                f"run {self.label!r} has no epochs past warmup={self.warmup!r}"
            )
        return steady

    def mean_flow_delays(self) -> dict[str, float]:
        """Per-flow delay averaged over post-warmup epochs (seconds).

        Flows absent in some epochs (bursty workloads) average over the
        epochs in which they were active.
        """
        sums: dict[str, float] = {}
        counts: dict[str, int] = {}
        for record in self._steady():
            for name, delay in record.flow_delays.items():
                sums[name] = sums.get(name, 0.0) + delay
                counts[name] = counts.get(name, 0) + 1
        return {name: sums[name] / counts[name] for name in sums}

    def mean_flow_delays_ms(self) -> dict[str, float]:
        """Per-flow delays in milliseconds — the figures' y-axis."""
        return {k: ms(v) for k, v in self.mean_flow_delays().items()}

    def mean_average_delay(self) -> float:
        """Network-wide average per-packet delay (seconds), time-averaged."""
        steady = self._steady()
        return sum(r.average_delay for r in steady) / len(steady)

    def peak_utilization(self) -> float:
        return max(r.max_utilization for r in self._steady())
