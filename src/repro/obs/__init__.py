"""repro.obs — the instrumentation layer (tracing, metrics, timing,
auditing, analytics).

An :class:`Observation` bundles the instruments:

- a structured event :class:`~repro.obs.trace.Tracer` (JSONL sink);
- a :class:`~repro.obs.metrics.MetricsRegistry` of counters, gauges and
  histograms (with p50/p90/p99 quantile estimates);
- wall-clock :class:`~repro.obs.timing.PhaseTimers` around hot paths;
- optionally an online :class:`~repro.obs.audit.InvariantAuditor` that
  verifies the paper's LFI conditions and successor-graph acyclicity
  *during* live MPDA runs (``audit=True``);

and :mod:`repro.obs.convergence` / :mod:`repro.obs.report` post-process
the resulting trace + metrics into convergence timelines, delay
decompositions and run reports (the ``repro report`` CLI).

Instrumented components look up the *current* observation through
:func:`current`, which returns ``None`` when observability is disabled
(the default) — the disabled path is a single ``None`` check at run or
epoch granularity, never per event, keeping the simulators at full
speed when nobody is watching.

Typical use::

    with obs.observe(trace_path="run.jsonl") as ob:
        result = run(scenario, config)
    export.write_metrics("metrics.json", ob)

An observation only records: it never selects the algorithm, so an
observed run computes exactly what the unobserved run computes.
Control-plane metrics — per-router LSU counts, ACK round-trips,
ACTIVE-phase durations — exist when the run's policy exchanges
messages (``policy="mp"``); an ``mp-oracle`` or ``sp`` run has none to
record.
"""

from __future__ import annotations

import contextlib
from collections.abc import Iterator
from typing import TYPE_CHECKING

from repro.obs import export
from repro.obs.metrics import Counter, Gauge, Histogram, MetricsRegistry
from repro.obs.timing import PhaseTimers, phase
from repro.obs.trace import NULL_TRACER, NullTracer, Tracer

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.obs.audit import InvariantAuditor
    from repro.obs.causal import CausalTracker
    from repro.obs.profile import ResourceProfiler

__all__ = [
    "Observation",
    "observe",
    "start",
    "stop",
    "current",
    "phase",
    "Tracer",
    "NullTracer",
    "NULL_TRACER",
    "MetricsRegistry",
    "Counter",
    "Gauge",
    "Histogram",
    "PhaseTimers",
    "export",
]


class Observation:
    """One observation session: tracer + metrics + timers (+ auditor).

    Args:
        tracer: event sink; defaults to the disabled :data:`NULL_TRACER`.
        metrics: registry to record into (fresh one by default).
        timers: phase timers (fresh ones by default).
        auditor: an :class:`~repro.obs.audit.InvariantAuditor`; when set,
            protocol drivers feed it every router event so LFI and
            successor-graph acyclicity are verified online.
        profiler: a :class:`~repro.obs.profile.ResourceProfiler`; when
            set (``obs.start(profile=True)`` sets it together with
            profiling-grade timers), run-level wall/CPU/memory readings
            are captured and exported next to the phase timings.
        causal: a :class:`~repro.obs.causal.CausalTracker`; when set
            (``obs.start(causal=True)``), the protocol driver tags every
            message with its causal parent and Lamport clock out-of-band
            and reconstructs update-wave spans, convergence critical
            paths and route provenance (the ``repro explain`` CLI).

    The mutable :attr:`sim_time` is the bridge between the simulators'
    clocks and clock-less components: runners set it each epoch/tick and
    the protocol driver stamps its events with it, so trace timelines
    line up across layers.
    """

    def __init__(
        self,
        *,
        tracer: Tracer | NullTracer | None = None,
        metrics: MetricsRegistry | None = None,
        timers: PhaseTimers | None = None,
        auditor: "InvariantAuditor | None" = None,
        profiler: "ResourceProfiler | None" = None,
        causal: "CausalTracker | None" = None,
    ) -> None:
        self.tracer = tracer if tracer is not None else NULL_TRACER
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        self.timers = timers if timers is not None else PhaseTimers()
        self.auditor = auditor
        self.profiler = profiler
        self.causal = causal
        #: Simulated time of the innermost running simulator, or None
        #: outside any simulation clock.
        self.sim_time: float | None = None

    def snapshot(self) -> dict:
        """JSON-ready state (see :func:`repro.obs.export.snapshot`)."""
        return export.snapshot(self)

    def close(self) -> None:
        if self.profiler is not None:
            self.profiler.close()
        self.tracer.close()


#: The active observation; ``None`` means observability is disabled.
_current: Observation | None = None


def current() -> Observation | None:
    """The active observation, or ``None`` when disabled."""
    return _current


def start(
    *,
    trace_path: str | None = None,
    audit: bool = False,
    audit_sample: int = 1,
    profile: bool = False,
    profile_memory: str = "rss",
    causal: bool = False,
) -> Observation:
    """Begin an observation session and make it current.

    Only one session is current at a time; :func:`observe` restores the
    previous one on exit, so nested sessions compose.

    ``audit=True`` attaches an online
    :class:`~repro.obs.audit.InvariantAuditor` verifying the LFI
    invariants every ``audit_sample``-th protocol event.

    ``profile=True`` swaps in :class:`~repro.obs.timing.ProfilingTimers`
    (CPU + self time per phase) and attaches a started
    :class:`~repro.obs.profile.ResourceProfiler`; ``profile_memory``
    selects its memory instrument ("rss", "tracemalloc" or "none").

    ``causal=True`` attaches a
    :class:`~repro.obs.causal.CausalTracker`: the protocol driver tags
    messages with causal parents and Lamport clocks (out-of-band — wire
    semantics and message counts are unchanged) and reconstructs update
    waves, critical paths and route provenance.
    """
    global _current
    tracer = Tracer.to_path(trace_path) if trace_path else NULL_TRACER
    auditor = None
    if audit:
        # Imported lazily: audit depends on repro.core, which itself
        # imports repro.obs.
        from repro.obs.audit import InvariantAuditor

        auditor = InvariantAuditor(sample_every=audit_sample)
    timers = None
    profiler = None
    if profile:
        from repro.obs.profile import ResourceProfiler
        from repro.obs.timing import ProfilingTimers

        timers = ProfilingTimers()
        profiler = ResourceProfiler(memory=profile_memory).start()
    tracker = None
    if causal:
        # Lazy for symmetry with the auditor (and to keep the default
        # import path lean).
        from repro.obs.causal import CausalTracker

        tracker = CausalTracker()
    _current = Observation(
        tracer=tracer,
        timers=timers,
        auditor=auditor,
        profiler=profiler,
        causal=tracker,
    )
    return _current


def stop() -> None:
    """End the current session (flushing and closing its trace sink)."""
    global _current
    if _current is not None:
        _current.close()
    _current = None


@contextlib.contextmanager
def observe(
    *,
    trace_path: str | None = None,
    audit: bool = False,
    audit_sample: int = 1,
    profile: bool = False,
    profile_memory: str = "rss",
    causal: bool = False,
) -> Iterator[Observation]:
    """Context manager form of :func:`start` / :func:`stop`."""
    global _current
    previous = _current
    ob = start(
        trace_path=trace_path,
        audit=audit,
        audit_sample=audit_sample,
        profile=profile,
        profile_memory=profile_memory,
        causal=causal,
    )
    try:
        yield ob
    finally:
        ob.close()
        _current = previous
