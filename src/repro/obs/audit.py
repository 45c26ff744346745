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
- each sampled check verifies what :func:`repro.core.mpda.check_safety`
  does — Eqs. (16)-(17) plus global successor acyclicity — over the live
  router states, *including* in-flight ACTIVE states;
- outcomes land in the ``lfi_audit`` metric family (checks, violations,
  per-check wall time) and violations additionally become
  ``audit_violation`` trace events, so a run report can state an audit
  verdict with evidence.

Unlike ``check_invariants`` (which raises and kills the run on the
first violation), the auditor records and continues: an observability
instrument must never change the run it is observing.

Sampled checks are **incremental**: they go through the same
:class:`~repro.core.mpda.IncrementalSafetyCheck` as ProtocolDriver's
``check_invariants``, which remembers the routers' ``route_version``
counters and successor sets as it last saw them pass, re-verifies only
the conditions that read a router whose version moved since, and runs
the full ``check_safety`` on anything suspect, so each verdict and
message is the full check's.  After a violation the next sample checks
in full again, so a persisting violation is reported at every sample.
Direct audits (:meth:`audit`, which ProtocolDriver issues with
``context="quiescent"`` at the end of every run) always check in full,
so every convergence window ends with a ground-truth check that also
sees state edited behind the protocol's back.
"""

from __future__ import annotations

from collections.abc import Mapping
from time import perf_counter
from typing import TYPE_CHECKING, Any

from repro.core.lfi import LFIViolation
from repro.core.mpda import IncrementalSafetyCheck, MPDARouter
from repro.exceptions import LoopError
from repro.graph.topology import NodeId

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.obs import Observation

_AUDIT_ERRORS = (LFIViolation, LoopError)


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
        self._check = IncrementalSafetyCheck()

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

        ``incremental=True`` (what :meth:`on_event` passes) checks only
        what moved since the last passing check.  Direct calls default
        to the full check: they are ground truth, valid even against
        state mutated behind the protocol's back (where no
        ``route_version`` ticked).
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
        error = None
        try:
            self._check(mpda, full=not incremental)
        except _AUDIT_ERRORS as violation:
            error = violation
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
