"""Convergence analytics and run reports over the event stream."""

import json

import pytest

from repro import obs
from repro.bench.convergence import (
    converge_experiment,
    failover_experiment,
    pick_failure_link,
    render_failover_table,
)
from repro.graph.topologies import cairn, net1
from repro.graph.topology import Topology
from repro.obs.convergence import (
    audit_outcome,
    convergence_windows,
    delay_decomposition,
    delay_quantiles,
    read_trace,
    successor_churn_series,
    unknown_event_summary,
)
from repro.obs.report import build_report, render_report, write_report


def _events():
    """A hand-built two-window trace."""
    return [
        {"kind": "disturbance", "op": "start", "link": None, "delivered": 0},
        {"kind": "active_enter", "node": "a", "delivered": 1},
        {"kind": "dist_change", "node": "a", "dests": ["t"], "delivered": 3},
        {"kind": "dist_change", "node": "b", "dests": ["t", "u"],
         "delivered": 7},
        {"kind": "quiescent", "delivered": 10, "messages": 10,
         "wall_s": 0.5},
        {"kind": "audit_summary", "checks": 10, "violations": 0,
         "verdict": "pass", "delivered": 10},
        {"kind": "disturbance", "op": "link_down", "link": ["a", "b"],
         "delivered": 10},
        {"kind": "dist_change", "node": "a", "dests": ["u"],
         "delivered": 12},
        {"kind": "quiescent", "delivered": 15, "messages": 5,
         "wall_s": 0.1},
        {"kind": "route_update", "update": 1, "churn": 3},
        {"kind": "route_update", "update": 2, "churn": 0},
    ]


class TestWindows:
    def test_grouping_and_counts(self):
        windows = convergence_windows(_events())
        assert len(windows) == 2
        first, second = windows
        assert first.label == "start"
        assert first.messages == 10
        assert first.active_entries == 1
        assert first.destination_messages() == {"t": 7, "u": 7}
        assert first.slowest_destination() == ("t", 7)
        assert first.audit["verdict"] == "pass"
        assert second.label == "link_down"
        assert second.messages == 5
        assert second.destination_messages() == {"u": 2}

    def test_batched_disturbances_share_a_window(self):
        events = [
            {"kind": "disturbance", "op": "link_cost_change",
             "link": ["a", "b"], "delivered": 0},
            {"kind": "disturbance", "op": "link_cost_change",
             "link": ["b", "c"], "delivered": 0},
            {"kind": "quiescent", "delivered": 4, "messages": 4},
        ]
        windows = convergence_windows(events)
        assert len(windows) == 1
        assert windows[0].label == "link_cost_change"
        assert len(windows[0].links) == 2

    def test_open_window_reports_none(self):
        events = [
            {"kind": "disturbance", "op": "start", "link": None,
             "delivered": 0},
        ]
        (window,) = convergence_windows(events)
        assert not window.closed
        assert window.messages is None
        assert window.as_dict()["messages"] is None

    def test_churn_series(self):
        assert successor_churn_series(_events()) == [(1, 3), (2, 0)]


class TestMetricsReaders:
    def test_delay_readers_absent_without_packet_data(self):
        assert delay_decomposition({}) is None
        assert delay_quantiles({}) is None

    def test_decomposition_fractions_sum_to_one(self):
        metrics = {
            "gauges": {
                "netsim.delay.queueing_s": {"": {"value": 1.0}},
                "netsim.delay.transmission_s": {"": {"value": 2.0}},
                "netsim.delay.propagation_s": {"": {"value": 1.0}},
            }
        }
        decomposition = delay_decomposition(metrics)
        assert decomposition["total_s"] == pytest.approx(4.0)
        assert sum(decomposition["fractions"].values()) == pytest.approx(
            1.0
        )

    def test_audit_outcome_verdicts(self):
        assert audit_outcome({})["verdict"] == "no-data"
        clean = {
            "counters": {
                "lfi_audit.checks": {"": {"value": 5}},
                "lfi_audit.violations": {"": {"value": 0}},
            }
        }
        assert audit_outcome(clean)["verdict"] == "pass"
        dirty = {
            "counters": {
                "lfi_audit.checks": {"": {"value": 5}},
                "lfi_audit.violations": {"": {"value": 2}},
            }
        }
        outcome = audit_outcome(dirty)
        assert outcome["verdict"] == "fail"
        assert outcome["violations"] == 2


class TestReport:
    def test_build_and_render(self):
        report = build_report(_events(), None, source={"trace": "t"})
        assert report["schema"] == "repro.report/2"
        assert len(report["windows"]) == 2
        assert report["churn"] == {
            "route_updates": 2, "total": 3, "max": 3,
        }
        text = render_report(report)
        assert "convergence windows" in text
        assert "link_down" in text
        assert "successor churn" in text

    def test_write_round_trips(self, tmp_path):
        report = build_report(_events())
        path = tmp_path / "r.json"
        write_report(str(path), report)
        assert json.loads(path.read_text()) == report

    def test_report_without_windows_still_renders(self):
        text = render_report(build_report([]))
        assert "no disturbance events" in text


class TestForwardCompat:
    """A trace from a *future* version must degrade gracefully.

    Consumers skip-and-count: an unknown event kind never raises, an
    extra field on a known kind never raises, and both show up in the
    report's ``events.unknown`` summary instead of vanishing silently.
    """

    def _future_events(self):
        events = _events()
        # A kind this version has never heard of.
        events.insert(3, {"kind": "teleport", "node": "a", "wormhole": 9,
                          "delivered": 4})
        # A known kind that grew an undeclared field.
        events.insert(4, {"kind": "dist_change", "node": "c",
                          "dests": ["t"], "delivered": 5,
                          "confidence": 0.99})
        return events

    def test_windows_skip_unknown_kinds(self):
        windows = convergence_windows(self._future_events())
        assert len(windows) == 2
        # The decorated dist_change still counts toward its window.
        assert windows[0].destination_messages()["t"] == 7

    def test_unknown_event_summary_counts(self):
        summary = unknown_event_summary(self._future_events())
        assert summary["kinds"] == {"teleport": 1}
        assert summary["events"] == 1
        assert summary["fields"] == {"dist_change": 1}

    def test_report_surfaces_unknown_summary(self):
        report = build_report(self._future_events())
        assert report["events"]["unknown"]["kinds"] == {"teleport": 1}
        text = render_report(report)
        assert "unknown kind" in text and "teleport" in text

    def test_clean_trace_reports_nothing_unknown(self):
        summary = unknown_event_summary(_events())
        assert summary["events"] == 0
        assert summary["kinds"] == {}
        assert summary["fields"] == {}


class TestFailureLinkChoice:
    def test_never_picks_a_bridge(self):
        # A path graph a-b-c: both links are bridges.
        topo = Topology("path")
        topo.add_duplex_link("a", "b", capacity=1.0)
        topo.add_duplex_link("b", "c", capacity=1.0)
        with pytest.raises(ValueError):
            pick_failure_link(topo)

    def test_choice_is_deterministic(self):
        assert pick_failure_link(net1()) == pick_failure_link(net1())
        assert pick_failure_link(cairn()) == pick_failure_link(cairn())


def _messages(result) -> tuple[int, int, int]:
    return (
        result.cold_messages,
        result.fail_messages,
        result.restore_messages,
    )


class TestFailoverExperiment:
    """Seed-0 message counts per window (cold start, failure, restore),
    the numbers EXPERIMENTS.md quotes; observing must not move them."""

    def test_net1_counts_and_audit(self):
        with obs.observe(audit=True):
            result = failover_experiment(net1(), "NET1", seed=0)
        assert _messages(result) == (259, 96, 72)
        assert result.audit["verdict"] == "pass"
        assert result.audit["violations"] == 0

    def test_runs_without_observation(self):
        result = failover_experiment(net1(), "NET1", seed=0)
        assert _messages(result) == (259, 96, 72)
        assert result.audit == {}

    def test_cairn_counts_with_and_without_observation(self):
        with obs.observe(audit=True):
            audited = failover_experiment(cairn(), "CAIRN", seed=0)
        plain = failover_experiment(cairn(), "CAIRN", seed=0)
        assert _messages(audited) == _messages(plain) == (844, 254, 118)
        assert audited.audit["verdict"] == "pass"
        assert audited.audit["violations"] == 0
        assert plain.audit == {}

    def test_table_lists_topologies(self):
        with obs.observe(audit=True, audit_sample=50):
            results = converge_experiment(
                seed=0, topologies=("net1",)
            )
        text = render_failover_table(results)
        assert "NET1" in text and "pass" in text


class TestTraceIntegration:
    def test_failover_trace_yields_three_windows(self, tmp_path):
        trace = tmp_path / "t.jsonl"
        with obs.observe(trace_path=str(trace), audit=True):
            failover_experiment(net1(), "NET1", seed=0)
        windows = convergence_windows(read_trace(str(trace)))
        assert [w.label for w in windows] == [
            "start", "link_down", "link_up",
        ]
        assert all(w.closed for w in windows)
        assert all(w.audit["verdict"] == "pass" for w in windows)
