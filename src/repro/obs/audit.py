"""Online invariant auditing of live MPDA/PDA runs.

The paper's headline correctness claim (Theorems 1-3) is that the LFI
conditions hold and the successor graph stays acyclic *at every
instant*, not just at convergence.  The test suite machine-checks this
with ``check_invariants=True`` runs; the :class:`InvariantAuditor` makes
the same verification a continuous, always-available measurement of any
observed run:

- the protocol driver calls :meth:`on_event` after every router event;
- the auditor samples those calls at a configurable cadence
  (``sample_every=1`` verifies after literally every event; larger
  values amortize the cost toward zero for long production runs);
- each sampled check runs :func:`repro.core.mpda.check_safety` — Eqs.
  (16)-(17) plus global successor acyclicity — over the live router
  states, *including* in-flight ACTIVE states;
- outcomes land in the ``lfi_audit`` metric family (checks, violations,
  per-check wall time) and violations additionally become
  ``audit_violation`` trace events, so a run report can state an audit
  verdict with evidence.

Unlike ``check_invariants`` (which raises and kills the run on the
first violation), the auditor records and continues: an observability
instrument must never change the run it is observing.

Sampled checks are **incremental**: the check for one destination reads
only per-router state rows (feasible distance, reported neighbor
distances, successor set), and one protocol event only mutates the one
router that processed it.  The auditor therefore caches the rows
between samples, uses the routers' ``route_version`` counters to find
which routers may have changed, rebuilds only their rows, and re-checks
only the destinations whose rows actually differ, each with
``check_safety(routers, j)`` on the live routers — everything else
keeps its cached verdict.  The rows serve only that diff.  Quiescent
audits (:meth:`audit` with ``context="quiescent"``) always discard the
cache and verify everything from scratch, so every convergence window
ends with a ground-truth check.
"""

from __future__ import annotations

from collections.abc import Mapping
from time import perf_counter
from typing import TYPE_CHECKING, Any

from repro.core.lfi import LFIViolation
from repro.core.linkstate import INFINITY
from repro.core.mpda import MPDARouter, check_safety
from repro.exceptions import LoopError
from repro.graph.topology import NodeId

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.obs import Observation

_AUDIT_ERRORS = (LFIViolation, LoopError)

#: One router's inputs to the check for one destination: its feasible
#: distance (None for the destination itself), the distance each up
#: neighbor reports, and its successor set.
Row = tuple[float | None, dict[NodeId, float], frozenset[NodeId]]


class _SafetyCache:
    """Per-destination state rows carried between sampled checks.

    The rows only tell which destinations changed since the last
    sample; the check itself reads the live routers.  ``rows[j][i]`` is
    router ``i``'s :data:`Row` for ``j``; ``versions`` maps router
    ``_uid`` to the ``route_version`` the rows were built from;
    ``contributed[uid]`` is the destination set the router's successor
    sets contributed (so destinations disappear from the audit exactly
    when the last router drops them); ``violating`` keeps the verdicts
    of broken destinations so a quiet (all-clean-diff) sample still
    reports a persisting violation.
    """

    __slots__ = ("versions", "rows", "contributed", "dest_refs", "violating")

    def __init__(self) -> None:
        self.versions: dict[int, int] = {}
        self.rows: dict[NodeId, dict[NodeId, Row]] = {}
        self.contributed: dict[int, set[NodeId]] = {}
        self.dest_refs: dict[NodeId, int] = {}
        self.violating: dict[NodeId, Exception] = {}


def _row(router: MPDARouter, j: NodeId) -> Row:
    """A router's state row for destination ``j``."""
    fd = None if router.node_id == j else router.feasible_distance.get(j, INFINITY)
    rows = router.nbr_distances
    reported = {k: rows.get(k, {}).get(j, INFINITY) for k in router.link_costs}
    return fd, reported, frozenset(router.successor_sets.get(j, ()))


class InvariantAuditor:
    """Samples live router states and verifies the LFI invariants.

    Args:
        sample_every: verify every Nth router event (1 = every event).
            Quiescence audits (:meth:`audit`) always run regardless.

    Attributes:
        checks / violations: lifetime totals across all sampled checks.
        last_error: message of the most recent violation, or None.
    """

    def __init__(self, *, sample_every: int = 1) -> None:
        if sample_every < 1:
            raise ValueError(
                f"sample_every must be >= 1, got {sample_every!r}"
            )
        self.sample_every = sample_every
        self.events_seen = 0
        self.checks = 0
        self.violations = 0
        self.last_error: str | None = None
        self._cache: _SafetyCache | None = None

    # ------------------------------------------------------------------
    # driver hooks
    # ------------------------------------------------------------------
    def on_event(
        self,
        routers: Mapping[NodeId, Any],
        observation: "Observation",
        *,
        context: str = "",
        delivered: int = 0,
    ) -> None:
        """One router event happened; verify if the cadence says so."""
        self.events_seen += 1
        if self.events_seen % self.sample_every:
            return
        self.audit(
            routers,
            observation,
            context=context,
            delivered=delivered,
            incremental=True,
        )

    def audit(
        self,
        routers: Mapping[NodeId, Any],
        observation: "Observation",
        *,
        context: str = "",
        delivered: int = 0,
        incremental: bool = False,
    ) -> bool:
        """Verify the LFI invariants now; True when the state is clean.

        Violations are recorded (metrics + trace) and swallowed — the
        auditor observes the run, it does not abort it.

        ``incremental=True`` (what :meth:`on_event` passes) permits the
        cached-row shortcut.  Direct calls default to a full rebuild:
        they are ground truth, valid even against state mutated behind
        the protocol's back (where no ``route_version`` ticked).
        """
        mpda = {
            node: router
            for node, router in routers.items()
            if isinstance(router, MPDARouter)
        }
        if not mpda:
            return True
        self.checks += 1
        metrics = observation.metrics
        metrics.counter("lfi_audit.checks").inc()
        # Register the violations series up front so a clean run still
        # exports an explicit zero rather than a missing key.
        metrics.counter("lfi_audit.violations")
        started = perf_counter()
        try:
            if incremental and self._cache_matches(mpda):
                error = self._incremental_check(mpda, metrics)
            else:
                # Ground truth: rebuild everything and check everything.
                error = self._full_check(mpda)
        finally:
            metrics.histogram("lfi_audit.check_seconds").observe(
                perf_counter() - started
            )
        if error is not None:
            self.violations += 1
            self.last_error = str(error)
            metrics.counter("lfi_audit.violations").inc()
            if observation.tracer.enabled:
                observation.tracer.event(
                    "audit_violation",
                    check=context or "event",
                    error=str(error),
                    delivered=delivered,
                )
            return False
        return True

    # ------------------------------------------------------------------
    # incremental verification
    # ------------------------------------------------------------------
    def _cache_matches(self, mpda: Mapping[NodeId, MPDARouter]) -> bool:
        """True when the cache describes exactly this router population."""
        cache = self._cache
        if cache is None or len(cache.versions) != len(mpda):
            return False
        versions = cache.versions
        return all(r._uid in versions for r in mpda.values())

    def _full_check(
        self, mpda: Mapping[NodeId, MPDARouter]
    ) -> Exception | None:
        """Rebuild the cache from scratch, checking every destination."""
        cache = _SafetyCache()
        for router in mpda.values():
            contributed = set(router.successor_sets)
            cache.versions[router._uid] = router.route_version
            cache.contributed[router._uid] = contributed
            for j in contributed:
                cache.dest_refs[j] = cache.dest_refs.get(j, 0) + 1
        for j in cache.dest_refs:
            cache.rows[j] = {i: _row(router, j) for i, router in mpda.items()}
        self._cache = cache
        return self._check_destinations(mpda, cache, set(cache.dest_refs))

    def _incremental_check(
        self, mpda: Mapping[NodeId, MPDARouter], metrics
    ) -> Exception | None:
        """Refresh only changed routers' rows; re-check changed rows.

        Correctness rests on two facts: a per-destination check reads
        only the state the rows capture, and each row is a pure function
        of one router's state, guarded by its ``route_version``.  A
        destination none of whose rows changed therefore keeps its
        previous verdict.
        """
        cache = self._cache
        assert cache is not None
        dirty = [
            (i, router)
            for i, router in mpda.items()
            if cache.versions[router._uid] != router.route_version
        ]
        if not dirty:
            metrics.counter("lfi_audit.incremental_skips").inc()
            return self._cached_verdict(cache)

        affected: set[NodeId] = set()
        fresh: set[NodeId] = set()
        for i, router in dirty:
            uid = router._uid
            cache.versions[uid] = router.route_version
            contributed = set(router.successor_sets)
            previous = cache.contributed[uid]
            for j in contributed - previous:
                refs = cache.dest_refs.get(j, 0)
                cache.dest_refs[j] = refs + 1
                if refs == 0:
                    fresh.add(j)
            for j in previous - contributed:
                refs = cache.dest_refs[j] - 1
                if refs:
                    cache.dest_refs[j] = refs
                else:
                    del cache.dest_refs[j]
                    cache.rows.pop(j, None)
                    cache.violating.pop(j, None)
                    fresh.discard(j)
            cache.contributed[uid] = contributed

        # A destination just contributed for the first time needs rows
        # from every router; existing destinations only from the dirty.
        for j in cache.dest_refs:
            if j in fresh:
                cache.rows[j] = {
                    i: _row(router, j) for i, router in mpda.items()
                }
                affected.add(j)
                continue
            rows = cache.rows[j]
            for i, router in dirty:
                row = _row(router, j)
                if rows[i] != row:
                    rows[i] = row
                    affected.add(j)

        metrics.counter("lfi_audit.destinations_checked").inc(len(affected))
        # Re-check what changed, plus anything still marked broken (its
        # verdict must be refreshed even if today's diff missed it).
        error = self._check_destinations(
            mpda, cache, affected | set(cache.violating)
        )
        if error is not None:
            return error
        return self._cached_verdict(cache)

    def _check_destinations(
        self,
        mpda: Mapping[NodeId, MPDARouter],
        cache: _SafetyCache,
        destinations: set[NodeId],
    ) -> Exception | None:
        """Verify ``destinations`` on the live routers; returns the first
        violation (in deterministic destination order)."""
        first: Exception | None = None
        for j in sorted(destinations, key=repr):
            try:
                check_safety(mpda, j)
            except _AUDIT_ERRORS as violation:
                cache.violating[j] = violation
                if first is None:
                    first = violation
            else:
                cache.violating.pop(j, None)
        return first

    @staticmethod
    def _cached_verdict(cache: _SafetyCache) -> Exception | None:
        """A persisting violation from an earlier sample, if any."""
        if not cache.violating:
            return None
        j = min(cache.violating, key=repr)
        return cache.violating[j]

    # ------------------------------------------------------------------
    # reporting
    # ------------------------------------------------------------------
    @property
    def verdict(self) -> str:
        """"pass", "fail", or "no-data" (nothing was ever checked)."""
        if not self.checks:
            return "no-data"
        return "fail" if self.violations else "pass"

    def summary(self) -> dict[str, Any]:
        """JSON-ready audit outcome for reports and trace events."""
        return {
            "events_seen": self.events_seen,
            "sample_every": self.sample_every,
            "checks": self.checks,
            "violations": self.violations,
            "verdict": self.verdict,
            "last_error": self.last_error,
        }
