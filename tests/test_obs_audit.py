"""The online invariant auditor: LFI + loop checks during live runs."""

import pytest

from repro import obs
from repro.core.driver import ProtocolDriver
from repro.core.lfi import LFIViolation
from repro.core.mpda import MPDARouter, check_safety
from repro.exceptions import LoopError
from repro.graph.topologies import net1
from repro.obs.audit import InvariantAuditor
from repro.testing import safety_reference


@pytest.fixture
def observed():
    """An active observation with a tracer buffer and an auditor."""
    events = []

    class ListTracer:
        enabled = True

        def event(self, kind, **payload):
            events.append({"kind": kind, **payload})

        def close(self):
            pass

    observation = obs.start(audit=True)
    observation.tracer = ListTracer()
    yield observation, events
    obs.stop()


def _converged_driver(topo, seed=0):
    driver = ProtocolDriver(topo, MPDARouter, seed=seed)
    driver.start(topo.idle_marginal_costs())
    driver.run()
    return driver


class TestHealthyRuns:
    def test_cold_start_passes_with_zero_violations(self, diamond):
        with obs.observe(audit=True) as observation:
            _converged_driver(diamond)
            auditor = observation.auditor
            assert auditor is not None
            assert auditor.checks > 0
            assert auditor.violations == 0
            assert auditor.verdict == "pass"

    def test_failover_run_stays_clean(self, diamond):
        """Theorem 3 machine-checked across fail + restore."""
        with obs.observe(audit=True) as observation:
            driver = _converged_driver(diamond)
            driver.fail_link("s", "a")
            driver.run()
            driver.restore_link("s", "a", 1.0, 1.0)
            driver.run()
            assert observation.auditor.violations == 0
            assert observation.auditor.verdict == "pass"

    def test_metrics_family_recorded(self, diamond):
        with obs.observe(audit=True) as observation:
            _converged_driver(diamond)
            snap = observation.metrics.snapshot()
            assert snap["counters"]["lfi_audit.checks"][""]["value"] > 0
            assert (
                snap["counters"]["lfi_audit.violations"][""]["value"] == 0
            )
            assert (
                snap["histograms"]["lfi_audit.check_seconds"][""]["count"]
                > 0
            )


class TestSamplingCadence:
    def test_sample_every_n_skips_intermediate_events(self, diamond):
        with obs.observe(audit=True, audit_sample=1) as observation:
            _converged_driver(diamond)
            every = observation.auditor.checks
        with obs.observe(audit=True, audit_sample=10) as observation:
            _converged_driver(diamond)
            sampled = observation.auditor
        # Same deterministic run, 10x coarser cadence; the forced
        # quiescent audit adds one check on top of the sampled ones.
        assert sampled.checks < every
        assert sampled.checks == sampled.events_seen // 10 + 1
        assert sampled.verdict == "pass"

    def test_quiescent_state_is_always_audited(self, diamond):
        with obs.observe(audit=True, audit_sample=10_000) as observation:
            _converged_driver(diamond)
            # Cadence larger than the event count: only the forced
            # end-of-window audit ran, so a verdict still exists.
            assert observation.auditor.checks == 1
            assert observation.auditor.verdict == "pass"

    def test_rejects_bad_cadence(self):
        with pytest.raises(ValueError):
            InvariantAuditor(sample_every=0)


class TestViolationDetection:
    def test_corrupted_fd_is_recorded_not_raised(self, diamond, observed):
        observation, events = observed
        driver = _converged_driver(diamond)
        router = driver.routers["s"]
        dest = next(iter(router.successor_sets))
        # Force Eq. 17 to fail: FD below every successor's reported
        # distance while successors are still installed.
        router.feasible_distance[dest] = -1.0
        auditor = observation.auditor
        auditor.audit(driver.routers, observation, context="tamper")
        assert auditor.violations == 1
        assert auditor.verdict == "fail"
        assert auditor.last_error
        violation_events = [
            e for e in events if e["kind"] == "audit_violation"
        ]
        assert len(violation_events) == 1
        assert violation_events[0]["check"] == "tamper"
        assert "s" in violation_events[0]["error"]

    def test_summary_shape(self, diamond, observed):
        observation, _ = observed
        driver = _converged_driver(diamond)
        summary = observation.auditor.summary()
        assert set(summary) == {
            "events_seen",
            "sample_every",
            "checks",
            "violations",
            "verdict",
            "last_error",
        }
        assert summary["verdict"] == "pass"

    def test_net1_full_audit_is_clean(self):
        """Acceptance-criteria scale: every delivery on NET1 audited."""
        with obs.observe(audit=True) as observation:
            driver = _converged_driver(net1())
            driver.fail_link(0, 1)
            driver.run()
            assert observation.auditor.violations == 0
            assert (
                observation.auditor.checks
                >= observation.auditor.events_seen
            )


class _DifferentialAuditor(InvariantAuditor):
    """Runs the naive reference check next to every audit and compares.

    The auditor's incremental check calls ``check_safety`` on suspect
    states, so the comparison is against
    :mod:`repro.testing.safety_reference`, which shares no checking code
    with either.
    """

    def __init__(self, **kwargs):
        super().__init__(**kwargs)
        self.compared = 0

    def audit(self, routers, observation, **kwargs):
        mpda = {
            n: r for n, r in routers.items() if isinstance(r, MPDARouter)
        }
        expect_clean = True
        try:
            safety_reference.check_safety(mpda)
        except (LFIViolation, LoopError):
            expect_clean = False
        got_clean = super().audit(routers, observation, **kwargs)
        assert got_clean == expect_clean, (
            f"incremental audit disagrees with the reference check "
            f"(incremental={got_clean}, full={expect_clean}, "
            f"context={kwargs.get('context')!r})"
        )
        self.compared += 1
        return got_clean


class TestIncrementalAudit:
    """The incremental audit must equal a full reference check."""

    def _differential_run(self, topo):
        with obs.observe(audit=True) as observation:
            observation.auditor = _DifferentialAuditor()
            driver = _converged_driver(topo)
            driver.fail_link(*_first_link(topo))
            driver.run()
            driver.restore_link(*_first_link(topo), 1.0, 1.0)
            driver.run()
            return observation, observation.auditor

    def test_agrees_with_full_check_on_diamond(self, diamond):
        observation, auditor = self._differential_run(diamond)
        assert auditor.compared == auditor.checks
        assert auditor.compared > 50
        assert auditor.verdict == "pass"

    def test_agrees_with_full_check_on_net1(self):
        observation, auditor = self._differential_run(net1())
        assert auditor.compared == auditor.checks
        assert auditor.verdict == "pass"

    def test_incremental_path_is_exercised(self, monkeypatch):
        """Most per-event samples pass without the full ``check_safety``
        over every destination: it runs for the first sample, for a
        destination entering the checked set, and at quiescence."""
        calls = []

        def counted(routers, destination=None):
            calls.append(destination)
            return check_safety(routers, destination)

        monkeypatch.setattr("repro.core.mpda.check_safety", counted)
        with obs.observe(audit=True) as observation:
            _converged_driver(net1())
            auditor = observation.auditor
            assert auditor.verdict == "pass"
        assert calls.count(None) == 2  # the first sample and quiescence
        assert len(calls) < auditor.checks / 10

    def test_event_counts_unchanged_by_audit_mode(self, diamond):
        """The auditor observes; it must not alter the run itself."""
        plain = _converged_driver(diamond).delivered
        with obs.observe(audit=True):
            audited = _converged_driver(diamond).delivered
        assert plain == audited

    def test_quiescent_audit_rebuilds_ground_truth(self, diamond):
        with obs.observe(audit=True) as observation:
            driver = _converged_driver(diamond)
            auditor = observation.auditor
            # Tamper behind the protocol's back: no route_version tick.
            router = driver.routers["s"]
            dest = next(iter(router.successor_sets))
            router.feasible_distance[dest] = -1.0
            # A direct audit (what the driver issues at quiescence) must
            # catch it even though the incremental cache thinks nothing
            # changed.
            assert not auditor.audit(
                driver.routers, observation, context="quiescent"
            )
            assert auditor.verdict == "fail"


def _first_link(topo):
    link = next(iter(topo.links()))
    return link.head, link.tail
